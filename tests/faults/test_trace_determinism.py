"""Seed-replay guard for the event-loop/network hot-path changes.

PR 1 promises that a chaos campaign is reproducible from its seed alone:
the fault trace is byte-identical run to run. The heap compaction, the
same-instant batching and the network's one event per delivered message
must not perturb that. The pinned digest below was captured on the
pre-optimisation linear implementation — if it ever changes, virtual
time ordering changed, which breaks every recorded reproduction snippet.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DependableEnvironment
from repro.faults import ChaosCampaign
from repro.faults.campaign import replay_schedule
from repro.faults.schedule import FaultSchedule

CAMPAIGN_KWARGS = dict(
    seed=20260805, episodes=2, episode_duration=20.0, settle=5.0
)

# Captured at commit 8d08e47 (pre registry/eventloop optimisation).
PINNED_DIGEST = "2b0b96c9ad3b312b51dd0bac75842cb884f44281c3af668a9917373dbede0c21"


def test_fixed_seed_trace_matches_pre_optimisation_digest():
    result = ChaosCampaign(**CAMPAIGN_KWARGS).run()
    assert result.trace_digest() == PINNED_DIGEST


def test_replay_is_byte_identical():
    first = ChaosCampaign(**CAMPAIGN_KWARGS).run()
    second = ChaosCampaign(**CAMPAIGN_KWARGS).run()
    assert first.trace_digest() == second.trace_digest()
    for a, b in zip(first.episodes, second.episodes):
        assert a.trace.text() == b.trace.text()


# A fault script against nodes n1..n<count>: (kind, centiseconds, node).
FAULTS = st.lists(
    st.tuples(
        st.sampled_from(["crash", "repair", "partition", "heal"]),
        st.integers(min_value=50, max_value=600),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=4,
)


def _build_schedule(script, node_count):
    schedule = FaultSchedule()
    node_ids = ["n%d" % (k + 1) for k in range(node_count)]
    for kind, when_cs, which in script:
        at = when_cs / 100.0
        node = node_ids[which % node_count]
        if kind == "crash":
            schedule.crash(at, node)
        elif kind == "repair":
            schedule.repair(at, node)
        elif kind == "partition":
            rest = [n for n in node_ids if n != node]
            schedule.partition(at, [node], rest)
        else:
            schedule.heal(at)
    return schedule


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    node_count=st.integers(min_value=3, max_value=4),
    latency=st.sampled_from([0.001, 0.004]),
    jitter=st.sampled_from([0.0, 0.0005]),
    loss_rate=st.sampled_from([0.0, 0.02]),
    script=FAULTS,
)
def test_random_cluster_fault_scripts_replay_identically(
    seed, node_count, latency, jitter, loss_rate, script
):
    """Random topology + link parameters + fault script, built twice
    from the same seed: the replayed fault trace digest (which folds in
    every observed view change and redeployment), the violations and
    the loop's event counts are the same."""

    def scenario():
        env = DependableEnvironment.build(
            node_count=node_count,
            seed=seed,
            latency=latency,
            jitter=jitter,
            loss_rate=loss_rate,
        )
        schedule = _build_schedule(script, node_count)
        trace, violations = replay_schedule(env, schedule, duration=6.0, settle=4.0)
        return (
            trace.digest(),
            [str(v) for v in violations],
            env.loop.fired,
            env.loop.scheduled,
            round(env.loop.clock.now, 9),
        )

    assert scenario() == scenario()
