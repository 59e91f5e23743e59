"""HistoryRecorder: what a probe's protocol events are written into.

One recorder observes one run. It is attached to the run's event loop
inside a :class:`~repro.telemetry.runtime.Probe` (see
:func:`~repro.telemetry.runtime.attach`); instrumented sites
(``gcs/member.py``, ``migration/``, ``ipvs/server.py``,
``rollout/engine.py``) reach it through ``loop.probe`` only, so with
nothing attached the cost is the probe's ``is not None`` test.

The recorder does **no scheduling and draws no randomness**: it only
appends to its :class:`~repro.conformance.history.History` with the sim
clock's current time, so recording an episode leaves fault-trace digests
— and therefore every pinned determinism guard — byte-identical.

When the probe also carries telemetry, each event is stamped with the
ambient span context, cross-linking conformance findings into the
distributed trace.

A payload is digested once per object, not once per delivery: the
simulator hands every member the same payload object, and payloads are
read-only once sent (the :class:`~repro.sim.network.Message` contract,
docs/CONFORMANCE.md). Customer-directory values share that memo: a read
hands over the stored value itself, and writes replace stored values
rather than mutate them. A delivery records its view's members tuple
itself, not a copy.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.conformance.history import History, payload_digest


class HistoryRecorder:
    """Builds one deterministic :class:`History` from protocol taps."""

    def __init__(self, clock: Any) -> None:
        self._clock = clock
        #: The tracer whose ambient span stamps each event; bound by the
        #: probe the recorder is attached in (``None``: unstamped).
        self.tracer: Any = None
        self.history = History()
        self._next_op = 0
        #: op id -> (process, action, key) for response pairing sanity.
        self._open_ops: Dict[int, Tuple[str, str, str]] = {}
        #: Raw channel incarnation -> per-run ordinal. The channel counter
        #: is process-global, so raw values depend on how many members any
        #: earlier run in the same process created; first-seen ordinals
        #: keep same-seed histories byte-identical run to run.
        self._incarnations: Dict[int, int] = {}
        #: id(payload) -> (payload, digest). The entry holds the payload,
        #: so its id cannot be reused by another object while it exists.
        self._digests: Dict[int, Tuple[Any, str]] = {}

    def _payload_digest(self, payload: Any) -> str:
        entry = self._digests.get(id(payload))
        if entry is None:
            entry = (payload, payload_digest(payload))
            self._digests[id(payload)] = entry
        return entry[1]

    def _digest_or_none(self, value: Any) -> Optional[str]:
        return None if value is None else self._payload_digest(value)

    def _incarnation(self, raw: int) -> int:
        ordinal = self._incarnations.get(raw)
        if ordinal is None:
            ordinal = len(self._incarnations)
            self._incarnations[raw] = ordinal
        return ordinal

    # ------------------------------------------------------------------
    def _append(self, kind: str, node: str, data: Dict[str, Any]) -> None:
        trace_id = span_id = None
        if self.tracer is not None:
            context = self.tracer.current_context()
            if context is not None:
                trace_id, span_id = context.trace_id, context.span_id
        self.history.append(self._clock.now, kind, node, data, trace_id, span_id)

    # ------------------------------------------------------------------
    # GCS taps (called from repro.gcs.member)
    # ------------------------------------------------------------------
    def view_install(
        self,
        node: str,
        incarnation: int,
        group: str,
        view_id: int,
        members: Tuple[str, ...],
        order_seq: int,
        joined: Tuple[str, ...],
        left: Tuple[str, ...],
    ) -> None:
        self._append(
            "view_install",
            node,
            {
                "group": group,
                "view_id": view_id,
                "members": list(members),
                "order_seq": order_seq,
                "joined": sorted(joined),
                "left": sorted(left),
                "incarnation": self._incarnation(incarnation),
            },
        )

    def multicast_send(
        self,
        node: str,
        incarnation: int,
        group: str,
        kind: str,
        seq: Optional[int],
        payload: Any,
    ) -> None:
        self._append(
            "send",
            node,
            {
                "group": group,
                "kind": kind,
                "seq": seq,
                "payload": self._payload_digest(payload),
                "incarnation": self._incarnation(incarnation),
            },
        )

    def deliver(
        self,
        node: str,
        incarnation: int,
        group: str,
        kind: str,
        sender: str,
        seq: Optional[int],
        payload: Any,
        view_id: Optional[int],
        view_members: Tuple[str, ...],
    ) -> None:
        self._append(
            "deliver",
            node,
            {
                "group": group,
                "kind": kind,
                "sender": sender,
                "seq": seq,
                "payload": self._payload_digest(payload),
                "view_id": view_id,
                "view_members": view_members,
                "incarnation": self._incarnation(incarnation),
            },
        )

    # ------------------------------------------------------------------
    # Replicated-registry taps (migration.registry, migration.module)
    # ------------------------------------------------------------------
    def op_invoke(
        self, process: str, action: str, key: str, value: Optional[str] = None
    ) -> int:
        """Record an operation invocation; returns the op id to close it."""
        op_id = self._next_op
        self._next_op += 1
        self._open_ops[op_id] = (process, action, key)
        self._append(
            "op_invoke",
            process,
            {"op": op_id, "action": action, "key": key, "value": value},
        )
        return op_id

    def op_return(
        self, op_id: int, result: Optional[str] = None, ok: bool = True
    ) -> None:
        opened = self._open_ops.pop(op_id, None)
        process = opened[0] if opened is not None else "?"
        self._append(
            "op_return", process, {"op": op_id, "result": result, "ok": ok}
        )

    def directory_op(
        self, process: str, action: str, name: str, value: Any, result: Any
    ) -> None:
        """A customer-directory operation on ``descriptor:<name>``, written
        as an invoke/return pair back to back (the directory is
        synchronous); the raw descriptor dicts are recorded as digests."""
        key = "descriptor:%s" % name
        digest = self._digest_or_none
        op_id = self.op_invoke(process, action, key, value=digest(value))
        self.op_return(op_id, result=digest(result), ok=True)

    # ------------------------------------------------------------------
    # Migration milestones
    # ------------------------------------------------------------------
    def migration_event(
        self,
        node: str,
        event: str,
        instance: str,
        from_node: str,
        to_node: str,
        reason: str,
        warm: bool,
        downtime: Optional[float] = None,
    ) -> None:
        self._append(
            "migration",
            node,
            {
                "event": event,
                "instance": instance,
                "from_node": from_node,
                "to_node": to_node,
                "reason": reason,
                "warm": warm,
                "downtime": None if downtime is None else round(downtime, 9),
            },
        )

    # ------------------------------------------------------------------
    # Rollout milestones (repro.rollout.engine) and request drops (ipvs)
    # ------------------------------------------------------------------
    def rollout_event(
        self,
        node: str,
        phase: str,
        instance: str = "",
        from_version: str = "",
        to_version: str = "",
        **extra: Any,
    ) -> None:
        data: Dict[str, Any] = {
            "phase": phase,
            "instance": instance,
            "from_version": from_version,
            "to_version": to_version,
        }
        data.update(extra)
        self._append("rollout", node, data)

    def request_drop(
        self, node: str, reason: str, endpoint: str, request_id: int
    ) -> None:
        self._append(
            "request_drop",
            node,
            {"reason": reason, "endpoint": endpoint, "request_id": request_id},
        )

    def __repr__(self) -> str:
        return "HistoryRecorder(%d events, %d open ops)" % (
            len(self.history),
            len(self._open_ops),
        )
