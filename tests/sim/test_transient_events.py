"""Transient events and the same-instant ready queue.

The macro-scale fast paths reroute scheduling through
``call_transient_at`` and a ready deque; these must be observably
indistinguishable from ``call_at`` — same strict (time, seq) order.
"""

import pytest

from repro.sim import eventloop
from repro.sim.eventloop import EventLoop


def test_transient_fires_at_time_with_arg():
    loop = EventLoop()
    seen = []
    loop.call_transient_at(1.0, seen.append, "a")
    loop.call_transient_after(2.0, seen.append, "b")
    loop.call_transient_at(1.5, lambda: seen.append("no-arg"))
    loop.run_until(5.0)
    assert seen == ["a", "no-arg", "b"]
    assert loop.fired == 3
    assert loop.pending == 0


def test_transient_past_scheduling_rejected():
    loop = EventLoop()
    loop.run_until(5.0)
    with pytest.raises(ValueError):
        loop.call_transient_at(4.0, lambda: None)
    with pytest.raises(ValueError):
        loop.call_transient_after(-0.1, lambda: None)


def test_interleaved_transient_and_regular_order():
    """Mixed APIs share one sequence counter: strict scheduling order."""
    loop = EventLoop()
    seen = []
    loop.call_at(1.0, lambda: seen.append("r1"))
    loop.call_transient_at(1.0, seen.append, "t1")
    loop.call_at(1.0, lambda: seen.append("r2"))
    loop.call_transient_at(1.0, seen.append, "t2")
    loop.run_until(2.0)
    assert seen == ["r1", "t1", "r2", "t2"]


def test_same_instant_chains_fire_in_seq_order():
    """Events scheduled *at the current instant* (the ready deque) join
    the back of the in-flight batch, exactly like the heap used to."""
    loop = EventLoop()
    seen = []

    def first():
        seen.append("first")
        loop.call_soon(lambda: seen.append("nested-regular"))
        loop.call_transient_at(loop.clock.now, seen.append, "nested-transient")

    loop.call_at(1.0, first)
    loop.call_at(1.0, lambda: seen.append("second"))
    loop.run_until(2.0)
    assert seen == ["first", "second", "nested-regular", "nested-transient"]


def test_ready_queue_respects_step_and_cancellation():
    loop = EventLoop()
    seen = []
    handle = loop.call_soon(lambda: seen.append("a"))
    loop.call_soon(lambda: seen.append("b"))
    handle.cancel()
    assert loop.pending == 1
    assert loop.peek_next_time() == loop.clock.now
    assert loop.step() is True
    assert seen == ["b"]
    assert loop.step() is False


def test_transients_construct_no_event_objects(monkeypatch):
    """A transient is its queue entry: scheduling and firing 1,000 of
    them, same-instant and future, builds no ScheduledEvent."""
    built = []

    class Counting(eventloop.ScheduledEvent):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(eventloop, "ScheduledEvent", Counting)
    loop = EventLoop()
    seen = []
    for index in range(1000):
        loop.call_transient_at(0.001 * (index % 10), seen.append, index)
    loop.run_until(1.0)
    assert sorted(seen) == list(range(1000))
    assert built == []
    # The count does see a handle when one is made.
    loop.call_at(2.0, lambda: None)
    assert len(built) == 1


def test_pooled_events_do_not_leak_state():
    loop = EventLoop()
    seen = []
    loop.call_transient_at(1.0, seen.append, "x")
    loop.run_until(2.0)
    # Recycled event must not retain the old action/arg.
    loop.call_transient_at(3.0, seen.append, "y")
    loop.run_until(4.0)
    assert seen == ["x", "y"]


def test_heap_beats_ready_at_same_instant_in_step():
    """A heap event at time t was scheduled before the clock reached t,
    so it must precede any ready event created at t."""
    loop = EventLoop()
    seen = []
    loop.call_at(1.0, lambda: seen.append("heap"))

    def at_one():
        # Now at t=1: schedule-for-now lands on the ready deque.
        loop.call_soon(lambda: seen.append("ready"))

    loop.call_at(0.5, lambda: loop.call_at(1.0, lambda: seen.append("heap2")))
    loop.call_at(1.0, at_one)
    while loop.step():
        pass
    assert seen == ["heap", "heap2", "ready"]


def test_run_until_counts_mixed_fires():
    loop = EventLoop()
    loop.call_at(1.0, lambda: None)
    loop.call_transient_at(1.0, lambda: None)
    loop.call_soon(lambda: None)
    fired = loop.run_until(2.0)
    assert fired == 3


def test_scheduled_counter_is_monotone():
    loop = EventLoop()
    a = loop.scheduled
    loop.call_at(1.0, lambda: None)
    b = loop.scheduled
    loop.call_transient_at(1.0, lambda: None)
    c = loop.scheduled
    assert a < b < c
