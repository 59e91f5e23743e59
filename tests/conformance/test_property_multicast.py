"""Property-based conformance: ordering axioms under randomized faults.

Hypothesis drives a 4-member group through arbitrary interleavings of
multicast traffic and faults (crashes, partitions, loss bursts), records
the protocol history, and asserts the ordering axioms — FIFO per-sender
order, total-order agreement, total-order prefix — hold on every run.
On a failure hypothesis shrinks to the minimal (seed, script) pair,
which is exactly the reproduction a protocol bug needs.
"""

from hypothesis import example, given, settings, strategies as st

from repro.conformance import HistoryRecorder, check_history, run_axioms
from repro.gcs.directory import GroupDirectory
from repro.gcs.member import GroupMember
from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams
from repro.telemetry import attach

#: The axioms whose guarantees survive arbitrary crash/partition/loss
#: schedules (the others have protocol-honest exemptions that the chaos
#: campaign exercises; here we pin the unconditional core).
ORDERING_AXIOMS = ["fifo-order", "total-order-agreement", "total-order-prefix"]

step = st.one_of(
    st.tuples(st.just("fifo"), st.integers(0, 3)),
    st.tuples(st.just("total"), st.integers(0, 3)),
    st.tuples(st.just("crash"), st.integers(0, 3)),
    st.tuples(st.just("partition"), st.integers(1, 3)),
    st.tuples(st.just("heal"), st.just(0)),
    st.tuples(st.just("loss"), st.integers(1, 4)),  # tenths: 0.1..0.4
)


def build_group(n, seed):
    loop = EventLoop()
    network = Network(loop, RngStreams(seed), loss_rate=0.0)
    directory = GroupDirectory()
    members = []
    for i in range(1, n + 1):
        member = GroupMember("n%d" % i, "g", loop, network, directory)
        members.append(member)
        member.join()
        loop.run_for(0.5)
    loop.run_for(1.0)
    return loop, network, members


def run_script(script, seed):
    loop, network, members = build_group(4, seed)
    payload = 0
    recorder = HistoryRecorder(loop.clock)
    with attach(loop, recorder=recorder):
        for action, arg in script:
            alive = [m for m in members if m.running]
            if action in ("fifo", "total"):
                if alive:
                    sender = alive[arg % len(alive)]
                    payload += 1
                    sender.multicast(payload, total_order=(action == "total"))
            elif action == "crash":
                if len(alive) > 1:
                    alive[arg % len(alive)].crash()
            elif action == "partition":
                nodes = [m.node_id for m in members]
                network.partition_nodes(set(nodes[:arg]), set(nodes[arg:]))
            elif action == "heal":
                network.heal()
                network.loss_rate = 0.0
            elif action == "loss":
                network.loss_rate = arg / 10.0
            loop.run_for(0.7)
        # End every episode healed and lossless so retransmissions and
        # view merges can settle before the history is judged.
        network.heal()
        network.loss_rate = 0.0
        loop.run_for(20.0)
    return recorder.history


@settings(max_examples=25, deadline=None)
@given(script=st.lists(step, min_size=1, max_size=12), seed=st.integers(0, 10_000))
# A partition merge racing the minority sequencer: its ORDERED frame lands
# after the merged view, where the merging coordinator reuses the seq.
@example(
    script=[
        ("heal", 0),
        ("heal", 0),
        ("partition", 1),
        ("fifo", 0),
        ("heal", 0),
        ("total", 2),
        ("total", 0),
    ],
    seed=0,
)
def test_ordering_axioms_hold_under_random_faults(script, seed):
    history = run_script(script, seed)
    violations = run_axioms(history, names=ORDERING_AXIOMS)
    assert violations == [], "\n".join(str(v) for v in violations)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_all_checkers_hold_on_faultless_runs(seed):
    """With no faults at all, every checker must hold unconditionally."""
    script = [("fifo", i % 4) for i in range(6)] + [
        ("total", i % 4) for i in range(6)
    ]
    history = run_script(script, seed)
    assert check_history(history) == []
