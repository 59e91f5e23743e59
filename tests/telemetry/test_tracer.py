"""Tracer: causal parenting, context propagation, deterministic ids."""

import random

import pytest

from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams
from repro.telemetry.runtime import Telemetry, attach
from repro.telemetry.tracer import Tracer


def make_tracer(seed=0):
    return Tracer(Clock(), random.Random(seed))


# ----------------------------------------------------------------------
# In-process parenting
# ----------------------------------------------------------------------
def test_first_span_is_a_root():
    tracer = make_tracer()
    span = tracer.start_span("op")
    assert span.parent_id is None
    assert span.context.trace_id != span.context.span_id


def test_nested_spans_share_trace_and_chain_parents():
    tracer = make_tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.context.span_id
            assert inner.context.trace_id == outer.context.trace_id


def test_explicit_none_parent_forces_new_trace():
    tracer = make_tracer()
    with tracer.span("outer") as outer:
        orphan = tracer.start_span("fresh", parent=None)
    assert orphan.parent_id is None
    assert orphan.context.trace_id != outer.context.trace_id


def test_activate_none_is_a_no_op():
    tracer = make_tracer()
    with tracer.activate(None):
        assert tracer.current_context() is None


def test_activate_sets_ambient_parent():
    tracer = make_tracer()
    remote = tracer.start_span("remote")
    with tracer.activate(remote.context):
        child = tracer.start_span("local")
    assert child.parent_id == remote.context.span_id
    assert tracer.current_context() is None


def test_activate_none_is_a_no_op_inside_an_active_scope():
    tracer = make_tracer()
    outer = tracer.start_span("outer")
    with tracer.activate(outer.context):
        with tracer.activate(None):
            assert tracer.current_context() is outer.context
        assert tracer.current_context() is outer.context
    assert tracer.current_context() is None


def test_activations_nest_and_unwind_in_order():
    tracer = make_tracer()
    outer, inner = tracer.start_span("outer"), tracer.start_span("inner")
    with tracer.activate(outer.context):
        with tracer.activate(inner.context):
            assert tracer.current_context() is inner.context
            assert tracer.start_span("leaf").parent_id == inner.context.span_id
        assert tracer.current_context() is outer.context
    assert tracer.current_context() is None


def test_activation_is_popped_when_the_block_raises():
    tracer = make_tracer()
    remote = tracer.start_span("remote")
    with pytest.raises(RuntimeError):
        with tracer.activate(remote.context):
            raise RuntimeError("handler bug")
    assert tracer.current_context() is None
    # The exception is not swallowed and a later span is a fresh root.
    assert tracer.start_span("next").parent_id is None


def test_activation_is_a_plain_slotted_object_not_a_generator():
    tracer = make_tracer()
    activation = tracer.activate(None)
    assert not hasattr(activation, "__dict__") and not hasattr(activation, "gen")
    with activation:
        pass


def test_finish_is_idempotent():
    tracer = make_tracer()
    span = tracer.start_span("op")
    span.finish(1.0)
    span.finish(99.0)
    assert span.end == 1.0


def test_export_preserves_start_order_and_unfinished_spans():
    tracer = make_tracer()
    tracer.start_span("first")
    with tracer.span("second"):
        pass
    exported = tracer.export()
    assert [s["name"] for s in exported] == ["first", "second"]
    assert exported[0]["end"] == exported[0]["start"]


def test_same_seed_tracers_mint_identical_ids():
    a, b = make_tracer(7), make_tracer(7)
    for t in (a, b):
        with t.span("x"):
            t.start_span("y")
    assert a.export() == b.export()


# ----------------------------------------------------------------------
# Cross-node propagation through the simulated network
# ----------------------------------------------------------------------
def build_sim(seed=1234):
    loop = EventLoop(Clock())
    rng = RngStreams(seed)
    network = Network(loop, rng, latency=0.001, jitter=0.0)
    return loop, rng, network


def test_network_carries_context_to_the_receiving_handler():
    loop, rng, network = build_sim()
    telemetry = Telemetry(loop.clock, rng)
    received = []

    def handler(message):
        received.append(telemetry.tracer.start_span("handle", node="b"))

    network.attach("a", lambda m: None)
    network.attach("b", handler)
    with attach(loop, telemetry=telemetry):
        with telemetry.tracer.span("request", node="a") as request:
            network.send("a", "b", {"op": "ping"})
        loop.run_for(1.0)
    (handled,) = received
    assert handled.context.trace_id == request.context.trace_id
    assert handled.parent_id == request.context.span_id


def test_untraced_send_leaves_receiver_parentless():
    loop, rng, network = build_sim()
    telemetry = Telemetry(loop.clock, rng)
    received = []
    network.attach("a", lambda m: None)
    network.attach("b", lambda m: received.append(telemetry.tracer.start_span("handle")))
    with attach(loop, telemetry=telemetry):
        network.send("a", "b", {"op": "ping"})
        loop.run_for(1.0)
    assert received[0].parent_id is None


def test_fan_out_carries_one_context_to_every_receiver_and_unwinds():
    loop, rng, network = build_sim()
    telemetry = Telemetry(loop.clock, rng)
    depths, parents = [], []

    def handler(message):
        depths.append(len(telemetry.tracer._stack))
        parents.append(telemetry.tracer.start_span("handle").parent_id)

    network.attach("a", lambda m: None)
    for name in ("b", "c", "d"):
        network.attach(name, handler)
    with attach(loop, telemetry=telemetry):
        with telemetry.tracer.span("request", node="a") as request:
            network.send_all("a", ["b", "c", "d"], {"op": "ping"})
        loop.run_for(1.0)
    assert parents == [request.context.span_id] * 3
    # One context deep in each handler: no activation leaks into the next.
    assert depths == [1, 1, 1]
    assert telemetry.tracer.current_context() is None


def test_delivery_pops_the_context_when_the_handler_raises():
    loop, rng, network = build_sim()
    telemetry = Telemetry(loop.clock, rng)

    def handler(message):
        raise RuntimeError("handler bug")

    network.attach("a", lambda m: None)
    network.attach("b", handler)
    with attach(loop, telemetry=telemetry):
        with telemetry.tracer.span("request", node="a"):
            network.send("a", "b", {"op": "ping"})
        with pytest.raises(RuntimeError):
            loop.run_for(1.0)
    assert telemetry.tracer.current_context() is None


# ----------------------------------------------------------------------
# GCS view changes join the ambient trace
# ----------------------------------------------------------------------
def test_view_change_spans_join_the_ambient_root_trace():
    from repro.gcs.directory import GroupDirectory
    from repro.gcs.member import GroupMember

    loop, rng, network = build_sim()
    directory = GroupDirectory()
    telemetry = Telemetry(loop.clock, rng)
    with attach(loop, telemetry=telemetry):
        root = telemetry.open_root("scenario:test")
        try:
            m1 = GroupMember("n1", "g", loop, network, directory)
            m2 = GroupMember("n2", "g", loop, network, directory)
            m1.join()
            loop.run_for(0.5)
            m2.join()
            loop.run_for(2.0)
        finally:
            telemetry.close_root()
    views = [s for s in telemetry.tracer.spans if s.name == "gcs.view_change"]
    assert views, "no view-change spans recorded"
    assert {s.context.trace_id for s in views} == {root.context.trace_id}
    two_member = [s for s in views if s.attributes["members"] == 2]
    assert two_member and two_member[0].attributes["joined"] >= 1
