"""Event loop ordering, cancellation and time-window semantics."""

import pytest

from repro.sim.eventloop import EventLoop


def test_events_fire_in_time_order(loop):
    fired = []
    loop.call_at(2.0, lambda: fired.append("b"))
    loop.call_at(1.0, lambda: fired.append("a"))
    loop.call_at(3.0, lambda: fired.append("c"))
    loop.run_until(10.0)
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order(loop):
    fired = []
    for name in "abcde":
        loop.call_at(1.0, lambda n=name: fired.append(n))
    loop.run_until(1.0)
    assert fired == list("abcde")


def test_call_after_is_relative(loop):
    loop.run_until(5.0)
    seen = []
    loop.call_after(2.0, lambda: seen.append(loop.clock.now))
    loop.run_for(3.0)
    assert seen == [7.0]


def test_call_soon_runs_at_current_instant(loop):
    loop.run_until(1.0)
    seen = []
    loop.call_soon(lambda: seen.append(loop.clock.now))
    loop.run_for(0.0)
    assert seen == [1.0]


def test_scheduling_in_the_past_raises(loop):
    loop.run_until(5.0)
    with pytest.raises(ValueError):
        loop.call_at(4.0, lambda: None)


def test_negative_delay_raises(loop):
    with pytest.raises(ValueError):
        loop.call_after(-1.0, lambda: None)


def test_cancelled_event_does_not_fire(loop):
    fired = []
    handle = loop.call_at(1.0, lambda: fired.append(1))
    handle.cancel()
    loop.run_until(2.0)
    assert fired == []


def test_cancel_is_idempotent(loop):
    handle = loop.call_at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert loop.run_until(2.0) == 0


def test_run_until_advances_clock_even_when_idle(loop):
    loop.run_until(7.0)
    assert loop.clock.now == 7.0


def test_clock_stays_a_float_over_int_event_times(loop):
    seen = []
    loop.call_at(2, lambda: seen.append(loop.clock.now))
    loop.call_transient_at(3, lambda: seen.append(loop.clock.now))
    loop.run_until(3)
    assert seen == [2.0, 3.0]
    assert [type(now) for now in seen] == [float, float]
    loop.run_until(5)
    assert type(loop.clock.now) is float


def test_run_until_does_not_fire_later_events(loop):
    fired = []
    loop.call_at(5.0, lambda: fired.append(1))
    loop.run_until(4.0)
    assert fired == []
    loop.run_until(5.0)
    assert fired == [1]


def test_events_scheduled_during_execution_run_same_pass(loop):
    fired = []

    def outer():
        fired.append("outer")
        loop.call_after(0.5, lambda: fired.append("inner"))

    loop.call_at(1.0, outer)
    loop.run_until(2.0)
    assert fired == ["outer", "inner"]


def test_pending_counts_live_events(loop):
    a = loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, lambda: None)
    assert loop.pending == 2
    a.cancel()
    assert loop.pending == 1


def test_fired_counter(loop):
    loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, lambda: None)
    loop.run_until(5.0)
    assert loop.fired == 2


def test_step_returns_false_when_empty(loop):
    assert loop.step() is False


def test_drain_guards_against_runaway(loop):
    def reschedule():
        loop.call_after(0.1, reschedule)

    loop.call_after(0.1, reschedule)
    with pytest.raises(RuntimeError):
        loop.drain(max_events=100)


def test_peek_next_time_skips_cancelled(loop):
    a = loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, lambda: None)
    a.cancel()
    assert loop.peek_next_time() == 2.0


def test_run_for_negative_raises(loop):
    with pytest.raises(ValueError):
        loop.run_for(-1.0)
