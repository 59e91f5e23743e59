"""The per-loop probe, how it is attached, and the telemetry handle."""

import pytest

from repro.conformance import HistoryRecorder
from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop
from repro.sim.lanes import LanedEventLoop
from repro.sim.rng import RngStreams
from repro.telemetry.runtime import Probe, Telemetry, attach


def make_telemetry(seed=0, scenario="test", clock=None):
    return Telemetry(clock or Clock(), RngStreams(seed), scenario=scenario)


def test_active_defaults_to_none():
    assert EventLoop().probe is None
    assert LanedEventLoop().probe is None


def test_span_is_a_no_op_without_telemetry():
    probe = Probe(recorder=HistoryRecorder(Clock()))
    with probe.span("anything", "n1", {"k": 1}) as span:
        assert span is None
    assert probe.start_span("anything") is None
    assert probe.context() is None


def test_span_records_on_the_attached_telemetry():
    loop = EventLoop()
    telemetry = make_telemetry(clock=loop.clock)
    with attach(loop, telemetry=telemetry) as probe:
        assert loop.probe is probe and probe.telemetry is telemetry
        with probe.span("op", "n1", {"k": 1}) as span:
            assert span is not None
            assert probe.context() == span.context
    assert [s.name for s in telemetry.tracer.spans] == ["op"]
    assert telemetry.tracer.spans[0].attributes == {"k": 1}


def test_attach_restores_previous_probe():
    loop = EventLoop()
    outer, inner = make_telemetry(1), make_telemetry(2)
    with attach(loop, telemetry=outer) as first:
        with attach(loop, telemetry=inner) as second:
            assert loop.probe is second and second.telemetry is inner
        assert loop.probe is first
    assert loop.probe is None


def test_attach_restores_on_exception():
    loop = EventLoop()
    with pytest.raises(RuntimeError):
        with attach(loop, telemetry=make_telemetry()):
            raise RuntimeError("boom")
    assert loop.probe is None


def test_attaching_nothing_runs_unobserved():
    loop = EventLoop()
    with attach(loop, telemetry=make_telemetry()):
        with attach(loop) as probe:
            assert probe is None and loop.probe is None
        assert loop.probe is not None


def test_probe_belongs_to_its_loop():
    observed, other = EventLoop(), EventLoop()
    with attach(observed, telemetry=make_telemetry()):
        assert other.probe is None


def test_recorder_is_stamped_only_next_to_telemetry():
    loop = EventLoop()
    telemetry = make_telemetry(clock=loop.clock)
    plain, stamped = HistoryRecorder(loop.clock), HistoryRecorder(loop.clock)
    with attach(loop, recorder=plain) as probe:
        probe.rollout_event("n1", "start")
    with attach(loop, telemetry=telemetry, recorder=stamped) as probe:
        with probe.span("op") as span:
            probe.rollout_event("n1", "start")
    assert plain.history.events[0].span_id is None
    assert stamped.history.events[0].span_id == span.context.span_id


def test_open_root_twice_raises():
    telemetry = make_telemetry()
    telemetry.open_root("a")
    with pytest.raises(RuntimeError):
        telemetry.open_root("b")


def test_close_root_finishes_and_is_idempotent():
    telemetry = make_telemetry()
    root = telemetry.open_root("a")
    telemetry.close_root()
    telemetry.close_root()
    assert root.end is not None
    assert telemetry.tracer.current_context() is None


def test_root_scope_parents_later_spans():
    telemetry = make_telemetry()
    root = telemetry.open_root("scenario")
    span = telemetry.tracer.start_span("timer-driven")
    telemetry.close_root()
    assert span.parent_id == root.context.span_id
    assert span.context.trace_id == root.context.trace_id


def test_telemetry_ids_use_dedicated_rng_stream():
    """Minting span ids must not perturb any other stream's draws."""
    plain = RngStreams(123)
    baseline = [plain.stream("network").random() for _ in range(5)]
    shared = RngStreams(123)
    telemetry = Telemetry(Clock(), shared)
    telemetry.tracer.start_span("op")
    assert [shared.stream("network").random() for _ in range(5)] == baseline


@pytest.mark.parametrize("on_top", [True, False], ids=["context-on-top", "pushed"])
def test_carry_leaves_the_stack_as_it_found_it_when_the_handler_raises(on_top):
    """Both branches of a carried delivery: the sender's context already
    ambient (left alone) and a different one (pushed, then popped)."""
    loop = EventLoop()
    telemetry = make_telemetry(clock=loop.clock)
    tracer = telemetry.tracer
    root = telemetry.open_root("episode")
    sender = root.context if on_top else tracer.start_span("send").context
    before = list(tracer._stack)
    seen = []

    def handler(message):
        seen.append((message, tracer.current_context(), len(tracer._stack)))
        raise RuntimeError("handler bug")

    with attach(loop, telemetry=telemetry) as probe:
        with pytest.raises(RuntimeError, match="handler bug"):
            probe.carry(sender, handler, "message")
    assert seen == [("message", sender, 1 if on_top else 2)]
    assert len(tracer._stack) == len(before)
    assert all(now is then for now, then in zip(tracer._stack, before))
