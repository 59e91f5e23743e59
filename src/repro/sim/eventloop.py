"""Discrete-event loop with deterministic ordering.

Events fire in ``(time, sequence)`` order: two events scheduled for the same
instant fire in the order they were scheduled, which keeps multi-node runs
reproducible regardless of dict/set iteration quirks in caller code.

Internally the loop is a two-tier scheduling structure tuned for the
macro-benchmark event volumes (millions of events per run):

* a binary heap of ``(when, seq, action, arg)`` tuples — tuple entries
  compare at C speed (``seq`` is unique, so a comparison never reaches
  ``action``), where heap discipline on event objects would call a
  Python-level ``__lt__`` O(log n) times per operation;
* a FIFO *ready deque* for events scheduled at the **current** instant
  (``call_soon`` and same-instant chains): those never need heap
  ordering at all, because every event already queued for this instant
  necessarily has a smaller sequence number (anything scheduled *now*
  for *now* is appended; anything scheduled earlier went to the heap
  before the clock reached this instant).

Fire-and-forget callers (network delivery, request completions, arrival
generators) use :meth:`EventLoop.call_transient_at`: transient events
return no handle and can never be cancelled, so the queue entry is the
whole event — one tuple, no other allocation. A cancellable
:meth:`EventLoop.call_at` entry carries its :class:`ScheduledEvent`
handle as ``action`` and the :data:`_HANDLE` marker as ``arg``.
Ordering is identical either way — both APIs draw from the same sequence
counter.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.clock import Clock

#: Sentinel distinguishing "no argument" from an explicit ``None`` arg.
_NO_ARG = object()

#: Queue-entry ``arg`` marking ``action`` as a cancellable
#: :class:`ScheduledEvent` handle rather than the callable itself.
_HANDLE = object()

#: A queue entry: ``(when, seq, action, arg)``.
_Entry = Tuple[float, int, Any, Any]


def _cancelled(entry: _Entry) -> bool:
    """Whether ``entry`` holds a cancelled :meth:`EventLoop.call_at` handle."""
    return entry[3] is _HANDLE and entry[2].cancelled


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("when", "seq", "action", "label", "cancelled", "_on_cancel")

    def __init__(
        self,
        when: float,
        seq: int,
        action: Callable[..., Any],
        label: str = "",
    ) -> None:
        self.when = when
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        #: Loop bookkeeping hook; cleared once the event leaves the queue.
        self._on_cancel: Optional[Callable[[], None]] = None

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()
            self._on_cancel = None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return "ScheduledEvent(t=%.6f, seq=%d, %s, %s)" % (
            self.when,
            self.seq,
            self.label or "anonymous",
            state,
        )


class EventLoop:
    """Priority-queue discrete-event scheduler driving a :class:`Clock`.

    Usage::

        loop = EventLoop()
        loop.call_at(1.5, lambda: print("hello"))
        loop.run_until(10.0)
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._queue: List[_Entry] = []
        #: Entries at the current instant, in seq (FIFO) order. Invariant:
        #: every entry's ``when`` equals the clock time it was appended
        #: at, and the deque is drained before the clock advances.
        self._ready: "deque[_Entry]" = deque()
        #: Events ever scheduled: the sequence counter itself.
        self.scheduled = 0
        self._fired = 0
        self._dropped = 0  # events cancelled while queued; pending is O(1)
        self._cancelled_in_queue = 0
        #: What instrumented code on this loop reports to: a
        #: :class:`repro.telemetry.runtime.Probe`, or ``None`` (unobserved)
        #: unless a driver attached one with :func:`repro.telemetry.attach`.
        self.probe: Any = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        when: float,
        action: Callable[[], Any],
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``action`` at absolute virtual time ``when``.

        Scheduling in the past raises :class:`ValueError`; schedule at
        ``clock.now`` to run "as soon as possible".
        """
        if when < self.clock.now:
            raise ValueError(
                "cannot schedule in the past: now=%r when=%r"
                % (self.clock.now, when)
            )
        seq = self.scheduled
        event = ScheduledEvent(when, seq, action, label)
        self.scheduled = seq + 1
        if when == self.clock.now:
            event._on_cancel = self._note_cancel_ready
            self._ready.append((when, seq, event, _HANDLE))
        else:
            event._on_cancel = self._note_cancel
            heapq.heappush(self._queue, (when, seq, event, _HANDLE))
        return event

    def call_after(
        self,
        delay: float,
        action: Callable[[], Any],
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``action`` ``delay`` seconds from now (``delay >= 0``)."""
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
        return self.call_at(self.clock.now + delay, action, label)

    def call_soon(
        self, action: Callable[[], Any], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``action`` at the current instant, after queued peers."""
        return self.call_at(self.clock.now, action, label)

    def call_transient_at(
        self,
        when: float,
        action: Callable[..., Any],
        arg: Any = _NO_ARG,
    ) -> None:
        """Schedule a fire-and-forget event; no handle, no cancellation.

        Transient events are the hot-path variant of :meth:`call_at`:
        because the caller can never cancel one, the queue entry is the
        whole event and nothing else is allocated. ``arg``, when given,
        is passed to ``action`` at fire time, which lets callers avoid a
        per-event closure. Ordering is the same strict ``(time, seq)`` as
        every other event.
        """
        now = self.clock.now
        if when < now:
            raise ValueError(
                "cannot schedule in the past: now=%r when=%r" % (now, when)
            )
        seq = self.scheduled
        self.scheduled = seq + 1
        if when == now:
            self._ready.append((when, seq, action, arg))
        else:
            heapq.heappush(self._queue, (when, seq, action, arg))

    def call_transient_after(
        self,
        delay: float,
        action: Callable[..., Any],
        arg: Any = _NO_ARG,
    ) -> None:
        """Transient (uncancellable) variant of :meth:`call_after`."""
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
        self.call_transient_at(self.clock.now + delay, action, arg)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self.scheduled - self._fired - self._dropped

    @property
    def fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    def peek_next_time(self) -> Optional[float]:
        """Virtual time of the next live event, or ``None`` if idle."""
        self._drop_cancelled_head()
        ready = self._ready
        while ready and _cancelled(ready[0]):
            ready.popleft()
        if ready:
            # Ready events sit at the current instant; nothing queued can
            # be earlier (past scheduling is rejected).
            return ready[0][0]
        if not self._queue:
            return None
        return self._queue[0][0]

    def _fire_entry(self, action: Any, arg: Any) -> None:
        """Execute one dequeued, live entry's ``action`` and ``arg``.

        :meth:`run_until` repeats these steps in its own body for heap
        entries; a change here belongs there too.
        """
        self._fired += 1
        if arg is _HANDLE:
            action._on_cancel = None
            action.action()
        elif arg is _NO_ARG:
            action()
        else:
            action(arg)

    def step(self) -> bool:
        """Fire the single next event. Returns False when the queue is empty."""
        self._drop_cancelled_head()
        ready = self._ready
        while ready and _cancelled(ready[0]):
            ready.popleft()
        queue = self._queue
        # Ready events live at the current instant. A heap event at the
        # same instant was necessarily scheduled earlier (smaller seq),
        # so the heap wins ties.
        if queue and (not ready or queue[0][0] <= ready[0][0]):
            when, _, action, arg = heapq.heappop(queue)
        elif ready:
            when, _, action, arg = ready.popleft()
        else:
            return False
        self.clock.advance_to(when)
        self._fire_entry(action, arg)
        return True

    def run_until(self, deadline: float) -> int:
        """Fire every event scheduled at or before ``deadline``.

        Advances the clock to exactly ``deadline`` afterwards, even when the
        queue drains early, so timers that measure "quiet" intervals observe
        the full window. Returns the number of events fired.

        Events sharing an instant are fired as one batch: the clock
        advances once per distinct timestamp. Ordering is still strict
        ``(time, seq)`` — heap events at the instant necessarily precede
        ready-deque events in seq order, actions scheduled *at* the
        current instant by a firing event join the back of the batch,
        and cancellations raised mid-batch are honoured.
        """
        queue = self._queue
        ready = self._ready
        clock = self.clock
        heappop = heapq.heappop
        fired_before = self._fired
        while True:
            # A cancelled head is not dropped here: its batch fires
            # nothing, and no action can observe the clock it advanced.
            if ready:
                when = ready[0][0]
            elif queue:
                when = queue[0][0]
            else:
                break
            if when > deadline:
                break
            if when > clock.now:
                # advance_to(when) without the call: its backwards check
                # is the comparison just made.
                clock.now = float(when)
            # Heap events at this instant first (they were all scheduled
            # before the clock reached it, so they carry smaller seqs
            # than anything in the ready deque)...
            while queue and queue[0][0] == when:
                _, _, action, arg = heappop(queue)
                # The steps of _fire_entry, in line: nearly every event
                # of a macro run comes off the heap, and the call was a
                # measurable share of each.
                if arg is _HANDLE:
                    if action.cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                    action._on_cancel = None
                    action, arg = action.action, _NO_ARG
                self._fired += 1
                if arg is _NO_ARG:
                    action()
                else:
                    action(arg)
            # ...then the ready deque, which only ever holds events for
            # the current instant and may keep growing mid-batch.
            while ready:
                _, _, action, arg = ready.popleft()
                if arg is not _HANDLE or not action.cancelled:
                    self._fire_entry(action, arg)
        if deadline > clock.now:
            clock.advance_to(deadline)
        return self._fired - fired_before

    def run_for(self, duration: float) -> int:
        """Fire every event in the next ``duration`` seconds of virtual time."""
        if duration < 0:
            raise ValueError("negative duration: %r" % duration)
        return self.run_until(self.clock.now + duration)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Fire events until the queue empties; guard against runaway loops."""
        fired = 0
        while self.step():
            fired += 1
            if fired >= max_events:
                raise RuntimeError(
                    "event loop did not quiesce after %d events" % max_events
                )
        return fired

    def _note_cancel(self) -> None:
        """Bookkeeping for a cancellation of a still-queued heap event."""
        self._dropped += 1
        self._cancelled_in_queue += 1
        # Compact once cancelled entries outnumber live ones: rebuilding
        # the heap from the survivors is O(live) and keeps pop cost from
        # degrading under heavy cancel churn (e.g. timeout timers).
        if self._cancelled_in_queue > len(self._queue) // 2:
            self._compact()

    def _note_cancel_ready(self) -> None:
        """Cancellation of a ready-deque event: skipped at pop time."""
        self._dropped += 1

    def _compact(self) -> None:
        # In place: run_until holds an alias to the queue across actions
        # that may cancel (and thus compact) while a batch is mid-flight.
        self._queue[:] = [
            e for e in self._queue if e[3] is not _HANDLE or not e[2].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0

    def _drop_cancelled_head(self) -> None:
        while self._queue and _cancelled(self._queue[0]):
            heapq.heappop(self._queue)
            self._cancelled_in_queue -= 1

    def __repr__(self) -> str:
        return "EventLoop(now=%.6f, pending=%d, fired=%d)" % (
            self.clock.now,
            self.pending,
            self._fired,
        )
