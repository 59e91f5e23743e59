"""What instrumented code reports to: one :class:`Probe` per event loop.

Protocol code never imports this module. Every instrumented object
already holds its :class:`~repro.sim.eventloop.EventLoop`, whose
``probe`` attribute is ``None`` unless a driver attached one, so a site
reads::

    probe = self._loop.probe
    if probe is not None:
        probe.view_install(...)

With nothing attached the cost is two attribute loads and an ``is not
None`` test. Because the probe belongs to the loop, two environments in
one process are observed apart.

A probe carries at most one :class:`Telemetry` handle, at most one
:class:`~repro.conformance.recorder.HistoryRecorder` and the protocol
mutations a test enabled (:mod:`repro.conformance.mutants`). Each event
method does whatever telemetry and the recorder each record at that
event, so what is observed where is decided here and nowhere else.
Drivers attach with :func:`attach`, the only way to set one.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Span, SpanContext, Tracer

__all__ = ["Probe", "Telemetry", "attach"]

#: The ``with`` target of a span or scope when no telemetry is attached.
_UNTRACED = nullcontext()


class Telemetry:
    """One scenario's tracer + metrics registry, bound to sim time.

    Parameters
    ----------
    clock:
        The sim :class:`~repro.sim.clock.Clock` (timestamps).
    rng:
        The cluster's :class:`~repro.sim.rng.RngStreams`; node-tagged
        span ids come from per-node ``telemetry/<node>`` substreams
        (independent of other nodes' spans), untagged ones from the base
        ``"telemetry"`` stream — either way every pre-existing stream's
        draws are unchanged.
    scenario:
        Free-form label carried into exports.
    """

    def __init__(self, clock: Any, rng: Any, scenario: str = "") -> None:
        self.clock = clock
        self.tracer = Tracer(clock, rng)
        self.metrics = MetricsRegistry()
        self.scenario = scenario
        self.root: Optional[Span] = None

    # ------------------------------------------------------------------
    def open_root(self, name: str) -> Span:
        """Push the ambient root span stitching timer-driven causality."""
        if self.root is not None:
            raise RuntimeError("root span already open: %s" % self.root.name)
        self.root = self.tracer.start_span(name, parent=None)
        self.tracer.push_scope(self.root.context)
        return self.root

    def close_root(self) -> None:
        if self.root is None:
            return
        self.tracer.pop_scope()
        self.root.finish(self.clock.now)
        self.root = None

    def export_spans(self) -> List[Dict[str, Any]]:
        return self.tracer.export()

    def __repr__(self) -> str:
        return "Telemetry(%s, spans=%d)" % (
            self.scenario or "?",
            len(self.tracer.spans),
        )


def _close_request_spans(request: Any, now: float) -> None:
    """End a request's serve and request spans with its outcome."""
    outcome = request.dropped or "ok"
    for span in (request.serve_span, request.span):
        if span is not None:
            span.attributes["outcome"] = outcome
            span.finish(now)


class Probe:
    """The observers of one event loop.

    Construct through :func:`attach`. A recorder attached next to a
    telemetry handle is bound to its tracer, so every history event
    carries the span it happened in.
    """

    __slots__ = ("telemetry", "recorder", "mutations")

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        recorder: Any = None,
        mutations: Optional[Mapping[str, Optional[FrozenSet[str]]]] = None,
    ) -> None:
        self.telemetry = telemetry
        self.recorder = recorder
        #: mutation name -> endpoint scope (``None``: every endpoint).
        self.mutations: Dict[str, Optional[FrozenSet[str]]] = dict(mutations or {})
        if recorder is not None:
            recorder.tracer = None if telemetry is None else telemetry.tracer

    # ------------------------------------------------------------------
    # Span shapes
    # ------------------------------------------------------------------
    def span(
        self, name: str, node: str = "", attributes: Optional[Dict[str, Any]] = None
    ) -> Any:
        """``with`` target: a span around the block, or nothing untraced."""
        telemetry = self.telemetry
        if telemetry is None:
            return _UNTRACED
        return telemetry.tracer.span(name, node=node, attributes=attributes)

    def start_span(
        self, name: str, node: str = "", attributes: Optional[Dict[str, Any]] = None
    ) -> Optional[Span]:
        """An open span the caller finishes, or ``None`` untraced."""
        telemetry = self.telemetry
        if telemetry is None:
            return None
        return telemetry.tracer.start_span(name, node=node, attributes=attributes)

    def activate(self, span: Optional[Span]) -> Any:
        """``with`` target making ``span`` the ambient parent."""
        telemetry = self.telemetry
        if telemetry is None or span is None:
            return _UNTRACED
        return telemetry.tracer.activate(span.context)

    def context(self) -> Optional[SpanContext]:
        """The ambient span a message sent now carries, if traced."""
        telemetry = self.telemetry
        if telemetry is None:
            return None
        return telemetry.tracer.current_context()

    def carry(
        self, context: SpanContext, deliver: Callable[[Any], None], message: Any
    ) -> None:
        """``deliver(message)`` with the sender's ``context`` as parent.

        Runs once per traced message delivered, so the stack is pushed
        and popped in place, and not at all when ``context`` is already
        on top (every heartbeat and gossip under the episode root).
        """
        telemetry = self.telemetry
        if telemetry is None:
            deliver(message)
            return
        stack = telemetry.tracer._stack
        if stack and stack[-1] is context:
            deliver(message)
            return
        stack.append(context)
        try:
            deliver(message)
        finally:
            stack.pop()

    # ------------------------------------------------------------------
    # Protocol events. Those only the recorder observes pass their
    # arguments on to the HistoryRecorder method of the same name.
    # ------------------------------------------------------------------
    def multicast_send(self, *event: Any) -> None:
        recorder = self.recorder
        if recorder is not None:
            recorder.multicast_send(*event)

    def deliver(self, *event: Any) -> None:
        recorder = self.recorder
        if recorder is not None:
            recorder.deliver(*event)

    def view_install(self, node: str, incarnation: int, group: str, *view: Any) -> None:
        if self.recorder is not None:
            self.recorder.view_install(node, incarnation, group, *view)
        if self.telemetry is not None:
            self.telemetry.metrics.counter("gcs.view_changes_total", group=group).inc()

    def directory_op(self, *op: Any) -> None:
        """One customer-directory operation, already applied."""
        if self.recorder is not None:
            self.recorder.directory_op(*op)

    def rollout_event(self, node: str, phase: str, **data: Any) -> None:
        if self.recorder is not None:
            self.recorder.rollout_event(node=node, phase=phase, **data)

    def mutated(self, name: str, endpoint: str = "") -> bool:
        """Is protocol mutation ``name`` on for ``endpoint``?"""
        mutations = self.mutations
        if name not in mutations:
            return False
        scope = mutations[name]
        return scope is None or endpoint in scope

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
    ) -> Optional[int]:
        """A migration milestone: ``"deploy"`` / ``"failover"`` when a
        redeploy starts, ``"activation"`` when it is up.

        A start also opens the recorded ``placement:<instance>`` write and
        returns its op id for :meth:`migration_done`.
        """
        op = None
        recorder = self.recorder
        if recorder is not None:
            recorder.migration_event(
                node, event, instance, from_node, to_node, reason, warm, downtime
            )
            if event != "activation":
                op = recorder.op_invoke(
                    node, "deploy", "placement:%s" % instance, value=to_node
                )
        if self.telemetry is not None and reason == "failure" and downtime is not None:
            self.telemetry.metrics.histogram("migration.failover_seconds").observe(
                downtime
            )
        return op

    def migration_done(self, op: Optional[int], node: str, ok: bool) -> None:
        """Close the placement write a redeploy start opened."""
        if self.recorder is not None and op is not None:
            self.recorder.op_return(op, result=node, ok=ok)

    # ------------------------------------------------------------------
    # Requests (repro.ipvs.server)
    # ------------------------------------------------------------------
    def request_submit(self, request: Any) -> None:
        """Count ``request`` and open its ``ipvs.request`` span."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.metrics.counter("ipvs.requests_total").inc()
            vip, client = str(request.endpoint), request.client or ""
            request.span = telemetry.tracer.start_span(
                "ipvs.request", attributes={"vip": vip, "client": client}
            )

    def request_served(self, request: Any, now: float) -> None:
        """``request`` completed at ``now``."""
        _close_request_spans(request, now)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.metrics.histogram("ipvs.request_latency_seconds").observe(
                now - request.arrived_at
            )

    def request_drop(self, node: str, request: Any, now: float) -> None:
        """``request`` dropped by the director before service (``node``
        is ``""``) or by its real server on ``node`` dying mid-service.
        Only the director's drops count in ``ipvs.dropped_total``."""
        recorder = self.recorder
        if recorder is not None:
            recorder.request_drop(
                node=node,
                reason=request.dropped,
                endpoint=str(request.endpoint),
                request_id=request.request_id,
            )
        if self.telemetry is not None and not node:
            reason = request.dropped
            self.telemetry.metrics.counter("ipvs.dropped_total", reason=reason).inc()
        _close_request_spans(request, now)


@contextmanager
def attach(
    loop: Any,
    telemetry: Optional[Telemetry] = None,
    recorder: Any = None,
    mutations: Optional[Mapping[str, Optional[FrozenSet[str]]]] = None,
) -> Iterator[Optional[Probe]]:
    """Observe ``loop`` with exactly these for the block.

    Yields the attached probe, or ``None`` when given nothing to attach
    (the block then runs unobserved). The loop's previous probe is
    restored afterwards, also when the block raises.
    """
    previous = loop.probe
    probe = None
    if telemetry is not None or recorder is not None or mutations:
        probe = Probe(telemetry, recorder, mutations)
    loop.probe = probe
    try:
        yield probe
    finally:
        loop.probe = previous
