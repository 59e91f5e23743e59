"""LanedEventLoop mechanics: merge order, lanes, cancellation, pooling.

The laned loop is the oracle of ``tests/sim/test_loop_oracle.py``;
these tests pin the mechanisms that make it a faithful one — exact
``(when, seq)`` merge order, lane routing, cross-lane cancellation
bookkeeping, transient-pool sharing and same-instant FIFO across a
merge boundary.
"""

from __future__ import annotations

import pytest

from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop
from repro.sim.lanes import LanedEventLoop


@pytest.fixture
def laned() -> LanedEventLoop:
    return LanedEventLoop(Clock())


def test_registration_is_idempotent_and_lane0_is_default(laned):
    a = laned.register_lane("n1")
    b = laned.register_lane("n2")
    assert (a, b) == (1, 2)
    assert laned.register_lane("n1") == a
    assert laned.lane_of_node("n1") == a
    assert laned.lane_of_node("unknown") == 0
    assert laned.lane_count == 3


def test_global_order_across_lanes(laned):
    """Events fire in exact (when, seq) order no matter the lane."""
    l1 = laned.register_lane("n1")
    l2 = laned.register_lane("n2")
    fired = []
    laned.call_at(0.3, lambda: fired.append("b"), lane=l2)
    laned.call_at(0.1, lambda: fired.append("a"), lane=l1)
    laned.call_at(0.5, lambda: fired.append("c"), lane=0)
    laned.call_at(0.5, lambda: fired.append("d"), lane=l2)  # same when, later seq
    laned.run_until(1.0)
    assert fired == ["a", "b", "c", "d"]
    assert laned.clock.now == 1.0


def test_same_instant_fifo_across_lane_merge_boundary(laned):
    """Same-instant events in *different* lanes fire in schedule order.

    This is the merge-boundary case: the batch fast-path must stop at a
    cross-lane event with an interleaved sequence number rather than
    draining its own lane past it.
    """
    l1 = laned.register_lane("n1")
    l2 = laned.register_lane("n2")
    fired = []
    # Interleave lanes at one instant: seq order is 1a, 2a, 1b, 2b.
    laned.call_at(0.2, lambda: fired.append("1a"), lane=l1)
    laned.call_at(0.2, lambda: fired.append("2a"), lane=l2)
    laned.call_at(0.2, lambda: fired.append("1b"), lane=l1)
    laned.call_at(0.2, lambda: fired.append("2b"), lane=l2)
    laned.run_until(1.0)
    assert fired == ["1a", "2a", "1b", "2b"]


def test_same_instant_chain_spawned_mid_batch_joins_in_seq_order(laned):
    """An event fired in lane A scheduling *now* into lane B yields to it
    exactly when seq order says so — the batch bound tracks cross posts."""
    l1 = laned.register_lane("n1")
    l2 = laned.register_lane("n2")
    fired = []

    def first():
        fired.append("a1")
        # Cross-lane same-instant: must fire after a2 (already queued,
        # smaller seq) but the batch may not drain a2's lane past it.
        laned.call_soon(lambda: fired.append("b1"), lane=l2)

    laned.call_at(0.1, first, lane=l1)
    laned.call_at(0.1, lambda: fired.append("a2"), lane=l1)
    laned.run_until(1.0)
    assert fired == ["a1", "a2", "b1"]


def test_events_inherit_the_firing_lane(laned):
    """Work scheduled by a lane's event stays in that lane by default."""
    l1 = laned.register_lane("n1")
    seen = []

    def tick():
        seen.append(laned.executing_lane)
        if len(seen) < 3:
            laned.call_after(0.1, tick)  # no lane hint: inherits

    laned.call_at(0.1, tick, lane=l1)
    laned.run_until(1.0)
    assert seen == [l1, l1, l1]
    assert laned.lane_fired_counts()["n1"] == 3


def test_lane_scope_sets_default_and_restores(laned):
    l1 = laned.register_lane("n1")
    with laned.lane_scope(l1):
        event = laned.call_at(0.5, lambda: None)
    assert event.lane == l1
    assert laned.call_at(0.6, lambda: None).lane == 0


def test_cancel_event_owned_by_non_current_lane(laned):
    """A lane-A event cancelling a queued lane-B event: the cancellation
    must be honoured and lane B's accounting must stay consistent."""
    l1 = laned.register_lane("n1")
    l2 = laned.register_lane("n2")
    fired = []
    doomed = laned.call_at(0.5, lambda: fired.append("doomed"), lane=l2)
    survivor = laned.call_at(0.6, lambda: fired.append("survivor"), lane=l2)
    laned.call_at(0.2, doomed.cancel, lane=l1)
    assert laned.pending == 3
    laned.run_until(1.0)
    assert fired == ["survivor"]
    assert laned.pending == 0
    assert survivor.lane == l2
    counts = laned.lane_fired_counts()
    assert counts["n1"] == 1 and counts["n2"] == 1


def test_cancel_storm_in_one_lane_compacts_only_that_lane(laned):
    l1 = laned.register_lane("n1")
    l2 = laned.register_lane("n2")
    fired = []
    doomed = [
        laned.call_at(1.0 + i * 0.01, lambda: fired.append("x"), lane=l1)
        for i in range(50)
    ]
    laned.call_at(1.0, lambda: fired.append("keep"), lane=l2)
    for event in doomed:
        event.cancel()
    assert laned.pending == 1
    laned.run_until(2.0)
    assert fired == ["keep"]


def test_cancelled_head_is_skipped_by_the_merge(laned):
    """Cancelling the globally-smallest event (its head-index entry goes
    stale) must not stall or reorder the merge."""
    l1 = laned.register_lane("n1")
    l2 = laned.register_lane("n2")
    fired = []
    head = laned.call_at(0.1, lambda: fired.append("head"), lane=l1)
    laned.call_at(0.2, lambda: fired.append("next"), lane=l2)
    head.cancel()
    laned.run_until(1.0)
    assert fired == ["next"]


def test_transient_pool_reuse_across_lanes(laned):
    """Transient events recycle through one shared pool: an object freed
    by lane A's firing is reused for lane B without leaking lane state."""
    l1 = laned.register_lane("n1")
    l2 = laned.register_lane("n2")
    fired = []
    laned.call_transient_at(0.1, fired.append, "a", lane=l1)
    laned.run_until(0.15)
    # The pooled object from lane 1's firing must be reusable in lane 2.
    assert len(laned._pool) == 1
    recycled = laned._pool[0]
    laned.call_transient_at(0.2, fired.append, "b", lane=l2)
    assert not laned._pool
    assert recycled.lane == l2
    laned.run_until(1.0)
    assert fired == ["a", "b"]
    assert laned.lane_fired_counts() == {"": 0, "n1": 1, "n2": 1}


def test_step_and_peek_follow_global_order(laned):
    l1 = laned.register_lane("n1")
    l2 = laned.register_lane("n2")
    fired = []
    laned.call_at(0.4, lambda: fired.append("b"), lane=l1)
    laned.call_at(0.2, lambda: fired.append("a"), lane=l2)
    assert laned.peek_next_time() == 0.2
    assert laned.step()
    assert fired == ["a"]
    assert laned.peek_next_time() == 0.4
    assert laned.step()
    assert not laned.step()
    assert fired == ["a", "b"]


def test_mirrors_global_loop_counters():
    """fired/pending/clock agree with the global loop on a shared script."""

    def script(loop):
        if isinstance(loop, LanedEventLoop):
            lanes = [loop.register_lane(k) for k in ("n1", "n2")]
            hints = [{"lane": lane} for lane in lanes]
        else:
            hints = [{}, {}]
        out = []
        for i in range(10):
            loop.call_at(
                0.1 * (i % 4) + 0.05,
                lambda i=i: out.append(i),
                **hints[i % 2],
            )
        cancelled = loop.call_at(0.3, lambda: out.append("no"), **hints[0])
        cancelled.cancel()
        loop.run_until(1.0)
        return out, loop.fired, loop.pending, loop.clock.now

    assert script(EventLoop(Clock())) == script(LanedEventLoop(Clock()))
