"""The message fast path against the straightforward network it replaced.

``ReferenceNetwork`` below is a per-message ``send`` / ``_deliver``
written for clarity: the link's last delivery instant kept per
``(source, destination)`` tuple with ``setdefault``, the member-to-group
dict rebuilt on every partition test, nothing hoisted, one transient
event per message, and a delivery that always pushes and pops the
sender's span context around the handler. It is kept here as the
oracle. A Hypothesis script of sends, fan-outs, partitions, slow nodes,
endpoint churn, loss changes and span scopes opened and closed between
sends runs against both on the same seed, with telemetry attached. Both
must give the same delivery log (time, send time, source, destination,
payload identity, order, the handler's ambient span context and the
distinct contexts on the tracer stack), the same ``NetworkStats``,
``loop.scheduled`` / ``loop.fired`` and the same final RNG state.

The count guards at the end pin what the fast path is allowed to keep
and rebuild: a link's delivery instant only for a pair that carried a
message, and partition maps built by the partition setters only.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop
from repro.sim.network import Endpoint, Message, Network, NetworkStats
from repro.sim.rng import RngStreams
from repro.telemetry.runtime import Telemetry, attach


# ----------------------------------------------------------------------
# The oracle: one event per message, written for clarity.
# ----------------------------------------------------------------------
class ReferenceNetwork:
    def __init__(self, loop, rng, latency, jitter, loss_rate) -> None:
        self.loop = loop
        self._rng = rng.stream("network")
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.stats = NetworkStats()
        self._endpoints: Dict[str, Endpoint] = {}
        self._next_free: Dict[Tuple[str, str], float] = {}
        self._node_partitions: List[FrozenSet[str]] = []
        self._node_latency: Dict[str, float] = {}

    def attach(self, name: str, handler: Callable[[Message], None]) -> Endpoint:
        if name in self._endpoints:
            raise ValueError("endpoint already attached: %r" % name)
        endpoint = Endpoint(name, self, handler)
        self._endpoints[name] = endpoint
        return endpoint

    def detach(self, name: str) -> None:
        endpoint = self._endpoints.pop(name, None)
        if endpoint is not None:
            endpoint.alive = False

    def partition_nodes(self, *groups: Set[str]) -> None:
        self._node_partitions = [frozenset(g) for g in groups]

    @property
    def partitioned(self) -> bool:
        return bool(self._node_partitions)

    def heal(self) -> None:
        self._node_partitions = []

    node_of = staticmethod(Network.node_of)

    def _partitioned(self, a: str, b: str) -> bool:
        if not self._node_partitions:
            return False
        a, b = self.node_of(a), self.node_of(b)
        group_of: Dict[str, int] = {}
        for i, group in enumerate(self._node_partitions):
            for member in group:
                group_of[member] = i
        ga = group_of.get(a)
        gb = group_of.get(b)
        if ga is None and gb is None:
            return False
        return ga != gb

    def set_node_latency(self, node_id: str, extra: float) -> None:
        self._node_latency[node_id] = extra

    def clear_node_latency(self, node_id: str) -> None:
        self._node_latency.pop(node_id, None)

    def _extra_latency(self, source: str, destination: str) -> float:
        if not self._node_latency:
            return 0.0
        return self._node_latency.get(
            self.node_of(source), 0.0
        ) + self._node_latency.get(self.node_of(destination), 0.0)

    def send_all(
        self, source: str, destinations: Iterable[str], payload: Any, size_bytes: int = 256
    ) -> None:
        for destination in destinations:
            self.send(source, destination, payload, size_bytes)

    def send(
        self, source: str, destination: str, payload: Any, size_bytes: int = 256
    ) -> None:
        self.stats.sent += 1
        self.stats.bytes_sent += size_bytes
        probe = self.loop.probe
        trace = None if probe is None else probe.context()
        message = Message(
            source, destination, payload, self.loop.clock.now, size_bytes, trace
        )
        if self._partitioned(source, destination):
            self.stats.dropped_partition += 1
            return
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.stats.dropped_loss += 1
            return
        delay = self.latency + (self._rng.random() * self.jitter if self.jitter else 0.0)
        delay += self._extra_latency(source, destination)
        key = (source, destination)
        deliver_at = max(self.loop.clock.now + delay, self._next_free.setdefault(key, 0.0))
        self._next_free[key] = deliver_at
        self.loop.call_transient_at(deliver_at, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        if self._partitioned(message.source, message.destination):
            self.stats.dropped_partition += 1
            return
        endpoint = self._endpoints.get(message.destination)
        if endpoint is None or not endpoint.alive:
            self.stats.dropped_dead += 1
            return
        self.stats.delivered += 1
        trace = message.trace
        probe = self.loop.probe if trace is not None else None
        if probe is None:
            if endpoint.alive:
                endpoint._handler(message)
            return
        # Always push the sender's context, even when it is already on top.
        tracer = probe.telemetry.tracer
        tracer.push_scope(trace)
        try:
            if endpoint.alive:
                endpoint._handler(message)
        finally:
            tracer.pop_scope()


# ----------------------------------------------------------------------
# Scripts
# ----------------------------------------------------------------------
#: Two endpoints share node n1, so node partitions and slow nodes act on
#: more than one endpoint; "solo" is a bare name (its own node id).
NAMES = ("a/n1", "b/n1", "a/n2", "a/n3", "solo")
NODES = ("n1", "n2", "n3", "solo")
#: Payload identity is part of the log: one object per index, shared by
#: every destination of a fan-out.
PAYLOADS = tuple(["payload", index] for index in range(4))
PING = ["ping"]
PONG = ["pong"]

#: Span scopes a script moves between: how many contexts are ambient.
SCOPES = (0, 1, 2)

name = st.sampled_from(NAMES)
node = st.sampled_from(NODES)
payload_index = st.integers(min_value=0, max_value=len(PAYLOADS))  # last = PING


def _groups(members):
    return st.lists(
        st.sets(st.sampled_from(members), max_size=3), min_size=0, max_size=3
    )


SEND = st.tuples(st.just("send"), name, name, payload_index)
SEND_ALL = st.tuples(
    st.just("send_all"), name, st.lists(name, min_size=0, max_size=6), payload_index
)
OP = st.one_of(
    SEND,
    SEND,
    SEND_ALL,
    SEND_ALL,
    SEND_ALL,
    st.tuples(st.just("partition_nodes"), _groups(NODES)),
    st.tuples(st.just("heal")),
    st.tuples(st.just("set_node_latency"), node, st.sampled_from([0.0, 0.002, 0.03])),
    st.tuples(st.just("clear_node_latency"), node),
    st.tuples(st.just("detach"), name),
    st.tuples(st.just("attach"), name),
    st.tuples(st.just("loss"), st.sampled_from([0.0, 0.25, 0.6])),
    st.tuples(st.just("run_for"), st.sampled_from([0.0, 0.0004, 0.0011, 0.01, 0.2])),
    # The ambient span scope from here on: none, the root, or a fresh
    # child span of the root.
    st.tuples(st.just("scope"), st.sampled_from(SCOPES)),
    st.tuples(st.just("scope"), st.sampled_from(SCOPES)),
)
SCRIPT = st.lists(OP, min_size=1, max_size=40)


def _payload(index: int) -> Any:
    return PING if index == len(PAYLOADS) else PAYLOADS[index]


def _context(tracer) -> Any:
    context = tracer.current_context()
    return None if context is None else (context.trace_id, context.span_id)


def _distinct_depth(tracer) -> int:
    """Stack depth, an entry equal to the one under it not counted.

    The reference pushes the sender's context even when it is already
    on top; the network leaves it there. Either way every
    ``current_context()`` the handler and its callees can observe is
    the same, and so is this depth, but the raw ``len`` differs by that
    one skipped push.
    """
    stack = tracer._stack
    return sum(
        1
        for index, context in enumerate(stack)
        if index == 0 or context is not stack[index - 1]
    )


def run_script(factory, script, seed, jitter, expand_fanout=False):
    """Interpret ``script``; returns everything the parity claim covers."""
    loop = EventLoop(Clock())
    net = factory(loop, RngStreams(seed), 0.001, jitter, 0.1)
    telemetry = Telemetry(loop.clock, RngStreams(seed))
    tracer = telemetry.tracer
    log: List[Tuple[float, float, str, str, Any, int, Any]] = []

    def handler(message: Message) -> None:
        log.append(
            (
                loop.clock.now,
                message.sent_at,
                message.source,
                message.destination,
                _context(tracer),
                _distinct_depth(tracer),
                message.payload,
            )
        )
        if message.payload is PING:
            # A send from inside a delivery tick, back along the link.
            net.send(message.destination, message.source, PONG)

    for endpoint_name in NAMES:
        net.attach(endpoint_name, handler)
    attached = set(NAMES)
    opened: List[Any] = []
    with attach(loop, telemetry=telemetry):
        for op in script:
            kind = op[0]
            if kind == "send":
                net.send(op[1], op[2], _payload(op[3]))
            elif kind == "send_all":
                if expand_fanout:
                    for destination in op[2]:
                        net.send(op[1], destination, _payload(op[3]))
                else:
                    net.send_all(op[1], op[2], _payload(op[3]))
            elif kind == "partition_nodes":
                net.partition_nodes(*op[1])
            elif kind == "heal":
                net.heal()
            elif kind == "set_node_latency":
                net.set_node_latency(op[1], op[2])
            elif kind == "clear_node_latency":
                net.clear_node_latency(op[1])
            elif kind == "detach":
                net.detach(op[1])
                attached.discard(op[1])
            elif kind == "attach":
                if op[1] not in attached:
                    net.attach(op[1], handler)
                    attached.add(op[1])
            elif kind == "loss":
                net.loss_rate = op[1]
            elif kind == "scope":
                while len(opened) > op[1]:
                    tracer.pop_scope()
                    opened.pop().finish(loop.clock.now)
                while len(opened) < op[1]:
                    span = tracer.start_span("child" if opened else "root")
                    tracer.push_scope(span.context)
                    opened.append(span)
            else:
                loop.run_for(op[1])
        loop.run_for(5.0)
    return {
        "log": log,
        "stats": net.stats.as_dict(),
        "partitioned": net.partitioned,
        "scheduled": loop.scheduled,
        "fired": loop.fired,
        "pending": loop.pending,
        "rng": net._rng.getstate(),
        "spans": telemetry.export_spans(),
    }


def assert_same_run(expected, actual) -> None:
    assert len(actual["log"]) == len(expected["log"])
    for got, want in zip(actual["log"], expected["log"]):
        assert got[:6] == want[:6]
        assert got[6] is want[6], "payload identity differs at %r" % (want[:6],)
    for key in ("stats", "partitioned", "scheduled", "fired", "pending", "rng", "spans"):
        assert actual[key] == expected[key], key


@settings(max_examples=120, deadline=None)
@given(
    script=SCRIPT,
    seed=st.integers(min_value=0, max_value=2**16),
    jitter=st.sampled_from([0.0, 0.0005]),
)
def test_fast_path_matches_the_reference_network(script, seed, jitter):
    reference = run_script(ReferenceNetwork, script, seed, jitter)
    assert_same_run(reference, run_script(Network, script, seed, jitter))


@settings(max_examples=60, deadline=None)
@given(
    script=SCRIPT,
    seed=st.integers(min_value=0, max_value=2**16),
    jitter=st.sampled_from([0.0, 0.0005]),
)
def test_send_all_is_a_loop_of_sends(script, seed, jitter):
    fanned = run_script(Network, script, seed, jitter)
    looped = run_script(Network, script, seed, jitter, expand_fanout=True)
    assert_same_run(looped, fanned)


def test_fast_path_matches_the_reference_on_a_busy_script():
    """A fixed, dense script that is sure to reach partition and loss
    drops and slow-node latency, which random scripts only may."""
    script = [("loss", 0.25)]
    for round_index in range(30):
        script.append(("send_all", NAMES[round_index % 5], list(NAMES), round_index % 5))
        if round_index == 8:
            script.append(("partition_nodes", [{"n1"}, {"n2", "n3"}]))
        if round_index == 12:
            script.append(("set_node_latency", "n2", 0.03))
        if round_index == 20:
            script.append(("heal",))
        script.append(("run_for", 0.0004))
    reference = run_script(ReferenceNetwork, script, 99, 0.0005)
    assert reference["stats"]["delivered"] > 50
    assert reference["stats"]["dropped_partition"] > 0
    assert reference["stats"]["dropped_loss"] > 0
    assert_same_run(reference, run_script(Network, script, 99, 0.0005))


# ----------------------------------------------------------------------
# Count guards
# ----------------------------------------------------------------------
def test_link_instants_kept_only_for_pairs_that_carried_a_message(loop):
    net = Network(loop, RngStreams(3), latency=0.001, jitter=0.0005, loss_rate=0.3)
    for endpoint_name in NAMES:
        net.attach(endpoint_name, lambda message: None)
    net.partition_nodes({"n1"}, {"n2", "n3", "solo"})
    for round_index in range(200):
        net.send_all(NAMES[round_index % 5], NAMES, round_index)
        net.send(NAMES[(round_index + 1) % 5], NAMES[round_index % 5], round_index)
        loop.run_for(0.0007)
    # Partition and loss drops happen before the link lookup: only pairs
    # that carried a message hold a delivery instant.
    used = {
        (source, destination)
        for source, instants in net._next_free.items()
        for destination in instants
    }
    assert 0 < len(used) < len(NAMES) ** 2
    assert all(
        not net._partitioned(source, destination) for source, destination in used
    )


def test_partition_maps_are_built_by_the_setters_only(monkeypatch, loop):
    builds = []
    build = Network._index

    def counting_index(groups):
        builds.append(groups)
        return build(groups)

    monkeypatch.setattr(Network, "_index", staticmethod(counting_index))
    net = Network(loop, RngStreams(3), latency=0.001, jitter=0.0005)
    for endpoint_name in NAMES:
        net.attach(endpoint_name, lambda message: None)

    def traffic() -> None:
        for round_index in range(50):
            net.send_all(NAMES[round_index % 5], NAMES, round_index)
            loop.run_for(0.0007)

    traffic()
    assert builds == [] and net._side_of is None
    net.partition_nodes({"n1", "n2"}, {"n3"})
    by_node = net._side_of
    assert by_node == {"n1": 0, "n2": 0, "n3": 1}
    traffic()
    assert len(builds) == 1
    assert net._side_of is by_node
    assert net.stats.dropped_partition > 0
    net.heal()
    traffic()
    assert len(builds) == 1 and net._side_of is None
