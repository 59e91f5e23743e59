"""Causal spans over sim time: the tracing half of ``repro.telemetry``.

A :class:`Span` is one named operation (a multicast, a view change, an
ipvs request, a failover) with a start/end in **virtual seconds** and a
:class:`SpanContext` identifying it. Context propagates two ways:

* **in-process** — the tracer keeps an explicit context stack (the sim is
  single-threaded, so no thread-locals): :meth:`Tracer.span` activates a
  span around a block, and any span started inside becomes its child;
* **cross-node** — :class:`~repro.sim.network.Network` captures the
  current context on ``send`` and re-activates it around delivery, so the
  receiving handler's spans attach to the sender's span without any layer
  having to thread ids through its payloads.

Ids are minted from the cluster's dedicated ``"telemetry"`` RNG streams
(:mod:`repro.sim.rng`), so existing streams' draws — and every pinned
chaos trace digest — are unchanged, while two same-seed runs produce
byte-identical span dumps. When the tracer is handed the cluster's
:class:`~repro.sim.rng.RngStreams` (rather than a bare
``random.Random``), each node's ids come from its own named substream
(``telemetry/<node>``): an id is then a pure function of the root seed,
the node and that node's span count — independent of how spans from
*different* nodes interleave, so a change that adds a node or reorders
other nodes' work leaves this node's ids where they were.

Timer-driven causality (a node crash surfaces as missing heartbeats, not
as a message) is stitched by the *ambient root span*: a scenario or chaos
episode pushes one root context for its whole duration, so suspicion,
view change and failover spans with no in-band cause still join the same
trace as the client requests.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["SpanContext", "Span", "Tracer"]

#: Sentinel distinguishing "no parent given" from "explicitly parentless".
_UNSET = object()


@dataclass(frozen=True)
class SpanContext:
    """What propagates: the trace a span belongs to, and the span itself."""

    trace_id: str
    span_id: str


class Span:
    """One operation's record; ``finish`` is idempotent and may come late
    (deploy completions end their span from an event-loop callback)."""

    __slots__ = ("name", "context", "parent_id", "node", "start", "end", "attributes")

    def __init__(
        self,
        name: str,
        context: SpanContext,
        parent_id: Optional[str],
        node: str,
        start: float,
        attributes: Dict[str, Any],
    ) -> None:
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.attributes = attributes

    def finish(self, at: float) -> None:
        if self.end is None:
            self.end = at

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form; an unfinished span reads as zero-length."""
        end = self.end if self.end is not None else self.start
        return {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.parent_id,
            "node": self.node,
            "start": round(self.start, 9),
            "end": round(end, 9),
            "attributes": {k: self.attributes[k] for k in sorted(self.attributes)},
        }

    def __repr__(self) -> str:
        return "Span(%s, %s, node=%s, start=%.4f, %s)" % (
            self.name,
            self.context.span_id,
            self.node or "?",
            self.start,
            "open" if self.end is None else "%.4fs" % (self.end - self.start),
        )


class _Activation:
    """``with`` handle of :meth:`Tracer.activate`: pushes the context on
    entry, pops it on exit (also when the block raises); a ``None``
    context is a no-op. One is opened per traced request, deploy and
    remote call, hence a slotted object and not a generator context
    manager (less than half the cost per ``with``)."""

    __slots__ = ("_stack", "_context")

    def __init__(
        self, stack: List[SpanContext], context: Optional[SpanContext]
    ) -> None:
        self._stack = stack
        self._context = context

    def __enter__(self) -> None:
        if self._context is not None:
            self._stack.append(self._context)

    def __exit__(self, *exc_info: Any) -> None:
        if self._context is not None:
            self._stack.pop()


class Tracer:
    """Mints spans from the sim clock and a dedicated RNG stream."""

    def __init__(self, clock: Any, rng: Any) -> None:
        self._clock = clock
        # Accept either a bare random.Random (legacy single-stream mode,
        # used directly by unit tests) or an RngStreams-like factory with
        # per-entity substreams (per-node id mode: a node's ids do not
        # move when other nodes' spans interleave differently).
        if hasattr(rng, "substream"):
            self._streams = rng
            self._rng: random.Random = rng.stream("telemetry")
        else:
            self._streams = None
            self._rng = rng
        self._stack: List[SpanContext] = []
        #: Every span ever started, in start order (deterministic).
        self.spans: List[Span] = []

    # ------------------------------------------------------------------
    def _new_id(self, node: str = "") -> str:
        if node and self._streams is not None:
            rng = self._streams.substream("telemetry", node)
        else:
            rng = self._rng
        return "%016x" % rng.getrandbits(64)

    def current_context(self) -> Optional[SpanContext]:
        return self._stack[-1] if self._stack else None

    def start_span(
        self,
        name: str,
        node: str = "",
        parent: Any = _UNSET,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span; the caller ends it with :meth:`Span.finish`.

        ``parent`` defaults to the active context; pass ``None`` to force
        a new root trace.
        """
        if parent is _UNSET:
            parent = self.current_context()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            trace_id = self._new_id(node)
            parent_id = None
        context = SpanContext(trace_id, self._new_id(node))
        span = Span(
            name=name,
            context=context,
            parent_id=parent_id,
            node=node,
            start=self._clock.now,
            attributes=dict(attributes or {}),
        )
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def activate(self, context: Optional[SpanContext]) -> "_Activation":
        """Make ``context`` the ambient parent for the enclosed block."""
        return _Activation(self._stack, context)

    @contextmanager
    def span(
        self,
        name: str,
        node: str = "",
        parent: Any = _UNSET,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Span]:
        """Start, activate and (on exit) finish a span around a block."""
        opened = self.start_span(name, node=node, parent=parent, attributes=attributes)
        self._stack.append(opened.context)
        try:
            yield opened
        finally:
            self._stack.pop()
            opened.finish(self._clock.now)

    # ------------------------------------------------------------------
    # Bare push/pop: the ambient root scope (scenarios span many run_for
    # calls, so the push and the pop happen at different call sites).
    # Probe.carry, once per message, works on ``_stack`` in place.
    # ------------------------------------------------------------------
    def push_scope(self, context: SpanContext) -> None:
        self._stack.append(context)

    def pop_scope(self) -> None:
        if self._stack:
            self._stack.pop()

    def export(self) -> List[Dict[str, Any]]:
        """Every span as a canonical dict, in start order."""
        return [span.to_dict() for span in self.spans]

    def __repr__(self) -> str:
        return "Tracer(spans=%d, depth=%d)" % (len(self.spans), len(self._stack))
