"""Partitioned deterministic execution: per-node event lanes.

The global :class:`~repro.sim.eventloop.EventLoop` keeps every scheduled
event in one heap; at 1000-node gossip scale or million-request macro
volumes that single structure is the ceiling (ROADMAP item 5). This
module partitions the queue into *lanes* — one per node (or shard) —
while keeping execution **byte-identical** to the global loop:

* every event still carries a globally-unique ``(when, seq)`` key drawn
  from one shared sequence counter, so the total order of the run is
  exactly the order the global loop would have used;
* a :class:`LaneScheduler` lazily merges lane heads: it picks the lane
  owning the globally-smallest key, then lets that lane *batch* —
  draining consecutive events without re-consulting the merge — for as
  long as its next key stays below every other lane's head (and below
  any key the batch itself scheduled into a foreign lane).

Determinism contract: for any program, a :class:`LanedEventLoop` fires
the same actions, in the same order, at the same virtual times, with the
same sequence numbering as :class:`~repro.sim.eventloop.EventLoop` —
regardless of how events are assigned to lanes. Lane assignment is pure
routing: it changes which internal queue holds an event, never the
observable execution. ``tests/parity`` holds both schedulers to that
contract across every digest-producing scenario in the repo.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.clock import Clock
from repro.sim.eventloop import _NO_ARG, EventLoop, ScheduledEvent

__all__ = ["Lane", "LaneScheduler", "LanedEventLoop"]

#: Key larger than any real (when, seq) — "nothing posted for this lane".
_INF_KEY: Tuple[float, int] = (float("inf"), -1)

#: Upper bound on pooled transient-event objects kept for reuse.
_POOL_LIMIT = 4096


class _LaneEvent(ScheduledEvent):
    """A laned loop's queue entry: the handle plus what only this loop
    keeps on it (fire-time ``arg``, owning ``lane``, pool membership)."""

    __slots__ = ("arg", "lane", "transient")

    def __init__(
        self, when: float, seq: int, action: Callable[..., Any], label: str = ""
    ) -> None:
        super().__init__(when, seq, action, label)
        self.arg: Any = _NO_ARG
        self.lane = 0
        self.transient = False


class Lane:
    """One partition's scheduling state: its own heap + ready deque.

    Mirrors the two-tier structure of the global loop (heap for future
    events, FIFO deque for current-instant events) so per-lane ordering
    arguments carry over unchanged: heap events at an instant were
    scheduled before the clock reached it and therefore carry smaller
    sequence numbers than anything in the ready deque.
    """

    __slots__ = (
        "lane_id",
        "key",
        "queue",
        "ready",
        "cancelled_in_queue",
        "known_min",
        "fired",
        "note_cancel",
    )

    def __init__(self, lane_id: int, key: str) -> None:
        self.lane_id = lane_id
        #: Registration key (node/shard id) — informational.
        self.key = key
        self.queue: List[Tuple[float, int, _LaneEvent]] = []
        self.ready: "deque[_LaneEvent]" = deque()
        self.cancelled_in_queue = 0
        #: Smallest (when, seq) currently represented for this lane in the
        #: scheduler's head index, or ``_INF_KEY`` when none is. Used to
        #: post at most one fresh index entry per head improvement.
        self.known_min: Tuple[float, int] = _INF_KEY
        #: Events fired from this lane (balance/diagnostic counter).
        self.fired = 0
        #: Cancellation hook for this lane's *heap* events, installed by
        #: the owning loop (one closure per lane, not per event).
        self.note_cancel: Optional[Callable[[], None]] = None

    def head_key(self) -> Optional[Tuple[float, int]]:
        """Smallest live ``(when, seq)`` in this lane, or ``None``.

        Drops cancelled events from both tiers as a side effect (the
        same lazy cleanup the global loop does at its queue head).
        """
        queue = self.queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self.cancelled_in_queue -= 1
        ready = self.ready
        while ready and ready[0].cancelled:
            ready.popleft()
        if queue:
            q_key = (queue[0][0], queue[0][1])
            if ready:
                head = ready[0]
                r_key = (head.when, head.seq)
                return r_key if r_key < q_key else q_key
            return q_key
        if ready:
            head = ready[0]
            return (head.when, head.seq)
        return None

    def pop_head(self) -> _LaneEvent:
        """Remove and return the event :meth:`head_key` described."""
        queue = self.queue
        ready = self.ready
        if queue:
            q_key = (queue[0][0], queue[0][1])
            if ready:
                head = ready[0]
                if (head.when, head.seq) < q_key:
                    return ready.popleft()
            return heapq.heappop(queue)[2]
        return ready.popleft()

    def compact(self) -> None:
        """Rebuild the heap from live entries (cancel-churn guard)."""
        self.queue[:] = [e for e in self.queue if not e[2].cancelled]
        heapq.heapify(self.queue)
        self.cancelled_in_queue = 0

    def __repr__(self) -> str:
        return "Lane(%d:%s, queued=%d, ready=%d)" % (
            self.lane_id,
            self.key or "-",
            len(self.queue),
            len(self.ready),
        )


class LaneScheduler:
    """Lazy k-way merge over lane heads.

    Owns the *head index*: a heap of ``(when, seq, lane_id)`` entries,
    one live entry per non-empty lane (stale entries are tolerated and
    discarded on pop — classic lazy invalidation). The invariant that
    makes global-order execution safe: **every non-empty lane always has
    an index entry at or before its true head**, so the index minimum
    never overtakes a lane silently.
    """

    __slots__ = ("lanes", "heads")

    def __init__(self, lanes: List[Lane]) -> None:
        self.lanes = lanes
        self.heads: List[Tuple[float, int, int]] = []

    # -- head index ----------------------------------------------------
    def post(self, lane: Lane, key: Tuple[float, int]) -> None:
        """Index ``key`` as a candidate head for ``lane`` if it improves
        on what is already posted."""
        if key < lane.known_min:
            heapq.heappush(self.heads, (key[0], key[1], lane.lane_id))
            lane.known_min = key

    def repost(self, lane: Lane) -> None:
        """Re-index ``lane``'s current true head (after it advanced)."""
        lane.known_min = _INF_KEY
        key = lane.head_key()
        if key is not None:
            heapq.heappush(self.heads, (key[0], key[1], lane.lane_id))
            lane.known_min = key

    def take_best(self) -> Optional[Lane]:
        """Pop the lane owning the globally-smallest live key.

        Validates lazily: an index entry that no longer matches its
        lane's true head (the lane advanced past it, or the head event
        was cancelled) is discarded and the true head re-posted. On
        success the lane's index state is cleared — the caller is about
        to consume the head and must :meth:`repost` when done.
        """
        heads = self.heads
        lanes = self.lanes
        while heads:
            when, seq, lane_id = heapq.heappop(heads)
            lane = lanes[lane_id]
            lane.known_min = _INF_KEY
            actual = lane.head_key()
            if actual is None:
                continue
            if actual == (when, seq):
                return lane
            # Stale entry (head cancelled or superseded); re-index the
            # real head and keep looking. ``actual`` earlier than the
            # entry is impossible: the earlier schedule posted its own
            # smaller entry, which the heap would have popped first.
            self.post(lane, actual)
        return None

    def peek_key(self) -> Optional[Tuple[float, int]]:
        """Smallest live key across all lanes, without consuming it."""
        heads = self.heads
        lanes = self.lanes
        while heads:
            when, seq, lane_id = heads[0]
            lane = lanes[lane_id]
            actual = lane.head_key()
            if actual == (when, seq):
                return (when, seq)
            heapq.heappop(heads)
            lane.known_min = _INF_KEY
            if actual is not None:
                self.post(lane, actual)
        return None

    def __repr__(self) -> str:
        return "LaneScheduler(lanes=%d, indexed=%d)" % (
            len(self.lanes),
            len(self.heads),
        )


class LanedEventLoop(EventLoop):
    """Drop-in :class:`EventLoop` with per-lane queues and a lazy merge.

    Same public API, same observable behaviour (see the module docstring
    for the determinism contract). Differences are purely internal:

    * :meth:`register_lane` creates a lane per node/shard key; the
      ``lane`` hint on scheduling calls — or the ambient default set by
      :meth:`set_schedule_lane` / :meth:`lane_scope` — routes events;
    * events fired by a lane inherit that lane for anything they
      schedule, so a node's timer chains stay in the node's lane without
      every call site being lane-aware;
    * :meth:`run_until` executes the :class:`LaneScheduler` merge with
      same-lane batching, firing events in exact global ``(when, seq)``
      order.
    """

    laned = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        super().__init__(clock)
        lane0 = Lane(0, "")
        lane0.note_cancel = self._make_lane_cancel(lane0)
        self._lanes: List[Lane] = [lane0]
        self._lane_ids: Dict[str, int] = {}
        self._merge = LaneScheduler(self._lanes)
        #: Default lane for scheduling calls with no explicit hint.
        self._sched_lane = 0
        #: Lane whose batch is currently executing (-1 outside batches);
        #: schedules into any *other* lane are cross-lane posts.
        self._exec_lane = -1
        #: Smallest (when, seq) scheduled into a foreign lane during the
        #: current batch — tightens the batch bound.
        self._cross_min: Optional[Tuple[float, int]] = None
        self._pool: List[_LaneEvent] = []

    # ------------------------------------------------------------------
    # Lane management
    # ------------------------------------------------------------------
    @property
    def lane_count(self) -> int:
        return len(self._lanes)

    @property
    def executing_lane(self) -> int:
        return self._exec_lane if self._exec_lane >= 0 else 0

    @property
    def scheduler(self) -> LaneScheduler:
        return self._merge

    def register_lane(self, key: str) -> int:
        lane_id = self._lane_ids.get(key)
        if lane_id is not None:
            return lane_id
        lane_id = len(self._lanes)
        lane = Lane(lane_id, key)
        lane.note_cancel = self._make_lane_cancel(lane)
        self._lanes.append(lane)
        self._lane_ids[key] = lane_id
        return lane_id

    def lane_of_node(self, node_id: str) -> int:
        return self._lane_ids.get(node_id, 0)

    def set_schedule_lane(self, lane: int) -> int:
        previous = self._sched_lane
        self._sched_lane = lane
        return previous

    def lane_fired_counts(self) -> Dict[str, int]:
        """Events fired per lane, keyed by registration key ('' = lane 0)."""
        return {lane.key: lane.fired for lane in self._lanes}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _enqueue(self, event: _LaneEvent, lane_id: int) -> None:
        """Route one event into its lane and keep the head index honest."""
        lane = self._lanes[lane_id]
        event.lane = lane_id
        when = event.when
        if when == self.clock.now:
            lane.ready.append(event)
        else:
            heapq.heappush(lane.queue, (when, event.seq, event))
        if lane_id != self._exec_lane:
            key = (when, event.seq)
            self._merge.post(lane, key)
            if self._exec_lane >= 0 and (
                self._cross_min is None or key < self._cross_min
            ):
                self._cross_min = key

    def call_at(
        self,
        when: float,
        action: Callable[[], Any],
        label: str = "",
        lane: Optional[int] = None,
    ) -> ScheduledEvent:
        if when < self.clock.now:
            raise ValueError(
                "cannot schedule in the past: now=%r when=%r"
                % (self.clock.now, when)
            )
        event = _LaneEvent(when, self.scheduled, action, label)
        self.scheduled += 1
        lane_id = self._sched_lane if lane is None else lane
        # Same per-tier hooks as the base loop: ready-deque cancels are
        # skipped at pop time, heap cancels feed the owning lane's
        # compaction counters.
        if when == self.clock.now:
            event._on_cancel = self._note_cancel_ready
        else:
            event._on_cancel = self._lanes[lane_id].note_cancel
        self._enqueue(event, lane_id)
        return event

    def call_transient_at(
        self,
        when: float,
        action: Callable[..., Any],
        arg: Any = _NO_ARG,
        lane: Optional[int] = None,
    ) -> None:
        now = self.clock.now
        if when < now:
            raise ValueError(
                "cannot schedule in the past: now=%r when=%r" % (now, when)
            )
        pool = self._pool
        if pool:
            event = pool.pop()
            event.when = when
            event.seq = self.scheduled
            event.action = action
            event.arg = arg
            event.cancelled = False
        else:
            event = _LaneEvent(when, self.scheduled, action)
            event.arg = arg
            event.transient = True
        self.scheduled += 1
        self._enqueue(event, self._sched_lane if lane is None else lane)

    def _make_lane_cancel(self, lane: Lane) -> Callable[[], None]:
        """Build the heap-cancel hook for one lane (mirrors the global
        loop's ``_note_cancel``, scoped to the lane's own heap)."""

        def note() -> None:
            self._dropped += 1
            lane.cancelled_in_queue += 1
            if lane.cancelled_in_queue > len(lane.queue) // 2:
                lane.compact()

        return note

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _fire(self, event: _LaneEvent) -> None:
        """Execute one dequeued, non-cancelled event."""
        self._fired += 1
        action = event.action
        arg = event.arg
        if event.transient:
            event.action = None  # type: ignore[assignment]
            event.arg = _NO_ARG
            pool = self._pool
            if len(pool) < _POOL_LIMIT:
                pool.append(event)
        else:
            event._on_cancel = None
        if arg is _NO_ARG:
            action()
        else:
            action(arg)

    def peek_next_time(self) -> Optional[float]:
        key = self._merge.peek_key()
        return key[0] if key is not None else None

    def step(self) -> bool:
        lane = self._merge.take_best()
        if lane is None:
            return False
        event = lane.pop_head()
        if event.when > self.clock.now:
            self.clock.advance_to(event.when)
        self._exec_lane = lane.lane_id
        previous_sched = self._sched_lane
        self._sched_lane = lane.lane_id
        self._cross_min = None
        try:
            lane.fired += 1
            self._fire(event)
        finally:
            self._exec_lane = -1
            self._sched_lane = previous_sched
            self._cross_min = None
            self._merge.repost(lane)
        return True

    def run_until(self, deadline: float) -> int:
        """Fire every event at or before ``deadline`` in global order.

        The merge picks the lane with the globally-smallest live key,
        then lets it batch: consecutive events of that lane fire without
        re-consulting the index while their keys stay below the best
        other head *and* below anything the batch scheduled cross-lane.
        The bound snapshot only ever errs early (cancellations make
        other heads later, never earlier; cross-lane schedules are
        tracked live), so batching never reorders the global sequence.
        """
        merge = self._merge
        clock = self.clock
        fired_before = self._fired
        while True:
            lane = merge.take_best()
            if lane is None:
                break
            key = lane.head_key()
            if key is None:  # pragma: no cover - take_best validated it
                continue
            if key[0] > deadline:
                # Too late to run; put the head back for a later call.
                merge.post(lane, key)
                break
            bound = merge.peek_key() or _INF_KEY
            self._exec_lane = lane.lane_id
            previous_sched = self._sched_lane
            self._sched_lane = lane.lane_id
            self._cross_min = None
            try:
                # The first head is fired unconditionally: take_best
                # validated it as the global minimum, so a bound merely
                # *equal* to it can only be a stale duplicate index
                # entry for this very event (keys are globally unique).
                while True:
                    event = lane.pop_head()
                    if key[0] > clock.now:
                        clock.advance_to(key[0])
                    lane.fired += 1
                    self._fire(event)
                    key = lane.head_key()
                    if key is None:
                        break
                    cross = self._cross_min
                    if cross is not None and cross < bound:
                        bound = cross
                    if key >= bound or key[0] > deadline:
                        break
            finally:
                self._exec_lane = -1
                self._sched_lane = previous_sched
                self._cross_min = None
                merge.repost(lane)
        if deadline > clock.now:
            clock.advance_to(deadline)
        return self._fired - fired_before

    def __repr__(self) -> str:
        return "LanedEventLoop(now=%.6f, lanes=%d, pending=%d, fired=%d)" % (
            self.clock.now,
            len(self._lanes),
            self.pending,
            self._fired,
        )
