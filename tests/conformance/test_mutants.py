"""Mutant-detection matrix: every checker must flag its seeded mutant.

A checker that can never fire is not a test. Each protocol mutation in
``repro.conformance.mutants`` is a test-only hook inside the *real*
protocol code path (``gcs/member.py``, ``migration/registry.py``); this
module enables one mutant at a time on one event loop, drives the live
protocol, and asserts the targeted checker — and only a sensible set of
checkers — fires. The same scenarios with mutants off must be clean, so
the matrix also guards against false positives.
"""

import pytest

from benchmarks.suite.workloads import FleetScale, _fleet_scenario
from repro.conformance import HistoryRecorder, check_history, protocol_mutation
from repro.conformance.mutants import MUTANT_NAMES
from repro.core import DependableEnvironment
from repro.faults import FaultSchedule, replay_schedule
from repro.faults.campaign import derive_episode_seed
from repro.gcs.directory import GroupDirectory
from repro.gcs.member import GroupMember
from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams
from repro.telemetry import attach


def build_group(n, seed=0, loss=0.0):
    loop = EventLoop()
    network = Network(loop, RngStreams(seed), loss_rate=loss)
    directory = GroupDirectory()
    members = []
    for i in range(1, n + 1):
        member = GroupMember("n%d" % i, "g", loop, network, directory)
        members.append(member)
        member.join()
        loop.run_for(0.5)
    loop.run_for(1.0)
    return loop, members


def fifo_burst(loop, members):
    for i in range(15):
        members[0].multicast(i)
    loop.run_for(10.0)


def total_burst(loop, members):
    for i in range(10):
        members[1].multicast(("t", i), total_order=True)
        members[2].multicast(("u", i), total_order=True)
    loop.run_for(10.0)


def recorded(loop):
    """Attach a fresh history recorder to ``loop`` for a block."""
    return attach(loop, recorder=HistoryRecorder(loop.clock))


def checkers_hit(mutant, endpoints, act, seed=7, loss=0.15):
    """Run ``act`` on a lossy 3-member group with ``mutant`` enabled."""
    loop, members = build_group(3, seed=seed, loss=loss)
    with recorded(loop) as probe:
        with protocol_mutation(loop, mutant, endpoints=endpoints):
            act(loop, members)
        loop.run_for(5.0)
    return {v.checker for v in check_history(probe.recorder.history)}


class TestMutantRegistry:
    def test_catalogue(self):
        assert MUTANT_NAMES == (
            "skip_self_delivery",
            "fifo_eager_delivery",
            "self_sequencing",
            "drain_with_holes",
            "accept_stale_views",
            "skip_view_install",
            "stale_directory_reads",
            "skip_drain",
            "fifo_cursor_reset",
        )

    def test_enable_unknown_name_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            with protocol_mutation(loop, "no_such_mutant"):
                pass
        assert loop.probe is None

    def test_endpoint_scoping(self):
        loop = EventLoop()
        with protocol_mutation(loop, "skip_self_delivery", endpoints=["gcs/g/n1"]):
            assert loop.probe.mutated("skip_self_delivery", "gcs/g/n1")
            assert not loop.probe.mutated("skip_self_delivery", "gcs/g/n2")
            assert not loop.probe.mutated("fifo_eager_delivery", "gcs/g/n1")

    def test_unscoped_mutant_matches_everyone(self):
        loop = EventLoop()
        with protocol_mutation(loop, "stale_directory_reads"):
            assert loop.probe.mutated("stale_directory_reads", "anything")
            assert loop.probe.mutated("stale_directory_reads")

    def test_context_manager_restores_previous_state(self):
        loop, other = EventLoop(), EventLoop()
        with recorded(loop) as probe:
            with protocol_mutation(loop, "skip_self_delivery"):
                assert loop.probe.mutated("skip_self_delivery")
                with protocol_mutation(loop, "drain_with_holes", endpoints=["e"]):
                    assert loop.probe.mutated("skip_self_delivery")
                    assert loop.probe.mutated("drain_with_holes", "e")
                    # The recorder stays attached; other loops run unmutated.
                    assert loop.probe.recorder is probe.recorder
                    assert other.probe is None
                assert not loop.probe.mutated("drain_with_holes", "e")
            assert loop.probe is probe and not probe.mutations
        assert loop.probe is None


class TestMulticastMutants:
    """The four multicast mutants on a lossy group (seed 7, 15% loss)."""

    def test_unmutated_scenarios_are_clean(self):
        loop, members = build_group(3, seed=7, loss=0.15)
        with recorded(loop) as probe:
            fifo_burst(loop, members)
            total_burst(loop, members)
            loop.run_for(5.0)
        assert check_history(probe.recorder.history) == []

    def test_mutant_is_confined_to_its_loop(self):
        # Two same-seed groups in one process share endpoint names; the
        # mutation is on loop A only, and only A's history shows it.
        (loop_a, members_a), (loop_b, members_b) = (
            build_group(3, seed=7, loss=0.15) for _ in range(2)
        )
        with recorded(loop_a) as probe_a, recorded(loop_b) as probe_b:
            with protocol_mutation(loop_a, "skip_self_delivery", ["gcs/g/n1"]):
                for i in range(15):
                    members_a[0].multicast(i)
                    members_b[0].multicast(i)
                    loop_a.run_for(0.5)
                    loop_b.run_for(0.5)
            loop_a.run_for(5.0)
            loop_b.run_for(5.0)
        hit = {v.checker for v in check_history(probe_a.recorder.history)}
        assert "self-delivery" in hit
        assert check_history(probe_b.recorder.history) == []

    def test_skip_self_delivery_caught_by_self_delivery(self):
        hit = checkers_hit("skip_self_delivery", ["gcs/g/n1"], fifo_burst)
        assert "self-delivery" in hit

    def test_fifo_eager_delivery_caught_by_fifo_order(self):
        hit = checkers_hit("fifo_eager_delivery", ["gcs/g/n2"], fifo_burst)
        assert "fifo-order" in hit

    def test_self_sequencing_caught_by_total_order_agreement(self):
        hit = checkers_hit(
            "self_sequencing", ["gcs/g/n2", "gcs/g/n3"], total_burst
        )
        assert "total-order-agreement" in hit

    def test_drain_with_holes_caught_by_total_order_prefix(self):
        hit = checkers_hit("drain_with_holes", ["gcs/g/n2"], total_burst)
        assert "total-order-prefix" in hit


class TestViewMutants:
    def test_accept_stale_views_caught_by_view_monotonic(self):
        # A JOIN retry makes the coordinator re-send the current view;
        # the mutant re-installs it instead of discarding the stale copy.
        # Recording must cover group formation so the checker has the
        # original install to compare against.
        loop = EventLoop()
        network = Network(loop, RngStreams(2))
        directory = GroupDirectory()
        members = []
        with recorded(loop) as probe:
            for i in range(1, 4):
                member = GroupMember("n%d" % i, "g", loop, network, directory)
                members.append(member)
                member.join()
                loop.run_for(0.5)
            loop.run_for(1.0)
            with protocol_mutation(
                loop, "accept_stale_views", endpoints=[members[2].endpoint_name]
            ):
                members[2]._send_join([members[0].endpoint_name])
                loop.run_for(2.0)
        hit = {v.checker for v in check_history(probe.recorder.history)}
        assert "view-monotonic" in hit

    def test_skip_view_install_caught_by_same_view_delivery(self):
        # n3 drops the VIEW frame for n2's leave, keeps delivering under
        # the stale view, and stays active — exactly what the axiom's
        # in-flight exemptions must NOT excuse.
        loop, members = build_group(3, seed=2)
        with recorded(loop) as probe:
            with protocol_mutation(
                loop, "skip_view_install", endpoints=[members[2].endpoint_name]
            ):
                members[1].leave()
                loop.run_for(2.0)
                for i in range(3):
                    members[0].multicast({"round": i})
                    loop.run_for(1.0)
                members[2].multicast({"from": "stale"})
                loop.run_for(2.0)
        hit = {v.checker for v in check_history(probe.recorder.history)}
        assert "same-view-delivery" in hit


class TestRegistryMutant:
    def test_stale_directory_reads_caught_by_linearizability(self):
        env = DependableEnvironment.build(node_count=2, seed=3)
        with recorded(env.loop) as probe:
            with protocol_mutation(env.loop, "stale_directory_reads"):
                directory = CustomerDirectory(
                    env.cluster.store, env.loop, owner="test"
                )
                directory.put(CustomerDescriptor(name="acme", priority=1))
                assert directory.get("acme").priority == 1
                directory.put(CustomerDescriptor(name="acme", priority=2))
                directory.get("acme")  # mutant serves the first-seen copy
        hit = {v.checker for v in check_history(probe.recorder.history)}
        assert "linearizability" in hit

    def test_registry_clean_without_mutant(self):
        env = DependableEnvironment.build(node_count=2, seed=3)
        with recorded(env.loop) as probe:
            directory = CustomerDirectory(env.cluster.store, env.loop, owner="test")
            directory.put(CustomerDescriptor(name="acme", priority=1))
            assert directory.get("acme").priority == 1
            directory.put(CustomerDescriptor(name="acme", priority=2))
            assert directory.get("acme").priority == 2
        assert check_history(probe.recorder.history) == []


class TestRolloutMutant:
    """skip_drain: the engine kills a node with requests still in flight."""

    def _run_rollout(self, mutate, seed=11):
        from repro.rollout.scenario import rollout_scenario

        # A dense pump guarantees in-flight requests at the moment the
        # mutated engine takes a node down without draining it first.
        env = rollout_scenario(seed, pump_interval=0.005)
        with recorded(env.loop) as probe:
            if mutate:
                with protocol_mutation(env.loop, "skip_drain"):
                    env.run_for(15.0)
            else:
                env.run_for(15.0)
        assert env.rollout_engine.report is not None
        return env, probe.recorder

    def test_skip_drain_caught_by_no_dropped_request(self):
        env, recorder = self._run_rollout(mutate=True)
        hit = {v.checker for v in check_history(recorder.history)}
        assert hit == {"rollout-no-dropped-request"}

    def test_rollout_clean_without_mutant(self):
        # The dense pump overloads the fleet's cpu share, so the engine
        # may (correctly) roll back when SLA enforcement relocates a
        # member mid-swap — but with drains intact, no checker fires and
        # the fleet still ends in a safe uniform-version state.
        env, recorder = self._run_rollout(mutate=False)
        assert check_history(recorder.history) == []
        report = env.rollout_engine.report
        assert report.outcome in ("completed", "rolled-back")
        assert not report.mixed_version


class TestFifoCursorMutant:
    """fifo_cursor_reset: a member restarts a re-admitted sender's FIFO
    cursor at 1, so that sender's later frames wait forever on seqs it
    sent long ago. No axiom sees frames that are never delivered; the
    quiescent ``fifo-delivered`` invariant does.

    The script is 3-node ledger seed 43's episode cut down with
    ``shrink_schedule`` under the mutant: n2 is partitioned off, n3
    crashes and is repaired inside the partition, and the quiesce heals.
    """

    SCHEDULE = FaultSchedule.from_dicts([
        {"at": 4.567604752528165, "kind": "partition",
         "args": {"groups": (("n2",), ("n1", "n3"))}},
        {"at": 15.402018177561294, "kind": "crash", "args": {"node": "n3"}},
        {"at": 26.189010120531357, "kind": "repair", "args": {"node": "n3"}},
    ])

    def _checks_hit(self, mutate):
        env = _fleet_scenario(FleetScale(3, 6, 3, 1, 30.0, 10.0), [])(
            derive_episode_seed(43, 0)
        )
        with recorded(env.loop) as probe:
            if mutate:
                with protocol_mutation(env.loop, "fifo_cursor_reset"):
                    _trace, violations = replay_schedule(
                        env, self.SCHEDULE, duration=30.0, settle=10.0
                    )
            else:
                _trace, violations = replay_schedule(
                    env, self.SCHEDULE, duration=30.0, settle=10.0
                )
        conformance = check_history(probe.recorder.history)
        return {v.invariant for v in violations} | {v.checker for v in conformance}

    def test_fifo_cursor_reset_caught_by_fifo_delivered_only(self):
        assert self._checks_hit(mutate=True) == {"fifo-delivered"}

    def test_script_clean_without_mutant(self):
        assert self._checks_hit(mutate=False) == set()


def test_every_mutant_has_a_matrix_test():
    """The matrix above must cover the full catalogue — no orphan mutants."""
    import tests.conformance.test_mutants as me
    import inspect

    source = inspect.getsource(me)
    for name in MUTANT_NAMES:
        assert source.count('"%s"' % name) >= 2, (
            "mutant %s has no detection test" % name
        )
