"""Named RNG substreams: per-entity draws, invariant to interleaving.

A node's span/event ids must not move when other nodes' work is added
or reordered, which requires each node's ids to be a pure function of
``(root seed, node name, draw index)`` — never of how draws from
*different* nodes interleave. ``RngStreams.substream`` provides
exactly that, and these tests pin it with digests so a future change to
the derivation (or to stream bookkeeping) cannot silently re-id every
span in every recorded artifact.
"""

from __future__ import annotations

import hashlib
import random

from repro.sim.clock import Clock
from repro.sim.rng import RngStreams
from repro.telemetry.tracer import Tracer

#: First four 64-bit ids of telemetry/n1 + telemetry/n2 at seed 2026.
PINNED_SUBSTREAM_DIGEST = (
    "e595979713c3d21ce20bdd26a383415ea8459eebdb0cbb4e5cc5021ff753b009"
)


def test_substream_is_the_slash_named_stream():
    streams = RngStreams(5)
    assert streams.substream("telemetry", "n1") is streams.stream("telemetry/n1")


def test_substream_draws_are_pinned():
    streams = RngStreams(2026)
    ids = []
    for node in ("n1", "n2"):
        rng = streams.substream("telemetry", node)
        ids.extend("%016x" % rng.getrandbits(64) for _ in range(4))
    digest = hashlib.sha256("|".join(ids).encode("utf-8")).hexdigest()
    assert digest == PINNED_SUBSTREAM_DIGEST


def test_substream_draws_do_not_depend_on_interleaving():
    """Round-robin across nodes vs node-at-a-time: same per-node values.

    A change that adds a node or reorders other nodes' events
    interleaves their draws differently, and per-node draw sequences
    must not care.
    """
    a = RngStreams(99)
    sequential = {
        node: [a.substream("telemetry", node).random() for _ in range(6)]
        for node in ("n1", "n2", "n3")
    }
    b = RngStreams(99)
    interleaved = {node: [] for node in ("n1", "n2", "n3")}
    for _ in range(6):
        for node in ("n3", "n1", "n2"):  # different visit order too
            interleaved[node].append(b.substream("telemetry", node).random())
    assert interleaved == sequential


def test_creating_substreams_never_perturbs_existing_streams():
    """The pinned chaos trace digest rests on this: the ``faults``
    schedule stream draws the same values no matter how many
    ``telemetry/<node>`` substreams exist."""
    plain = RngStreams(2026)
    baseline = [plain.stream("faults").random() for _ in range(8)]

    busy = RngStreams(2026)
    for node in ("n1", "n2", "n3", "n4", "n5"):
        busy.substream("telemetry", node).random()
        busy.substream("faults", node).random()
    assert [busy.stream("faults").random() for _ in range(8)] == baseline


def test_tracer_per_node_ids_are_interleaving_invariant():
    """Two tracers starting the same per-node spans in different global
    orders mint identical ids for each node's spans."""

    def ids_by_node(order):
        tracer = Tracer(Clock(), RngStreams(7))
        for node in order:
            tracer.start_span("op", node=node, parent=None)
        by_node = {}
        for span in tracer.spans:
            by_node.setdefault(span.node, []).append(
                (span.context.trace_id, span.context.span_id)
            )
        return by_node

    a = ids_by_node(["n1", "n2", "n1", "n3", "n2", "n1"])
    b = ids_by_node(["n3", "n1", "n1", "n2", "n2", "n1"])
    assert a == b


def test_tracer_legacy_single_stream_mode_unchanged():
    """Unit-test construction with a bare random.Random keeps the old
    behaviour: one shared stream, node-independent."""
    tracer = Tracer(Clock(), random.Random(42))
    first = tracer.start_span("a", node="n1", parent=None)
    expect = random.Random(42)
    assert first.context.trace_id == "%016x" % expect.getrandbits(64)
    assert first.context.span_id == "%016x" % expect.getrandbits(64)
