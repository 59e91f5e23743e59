"""The red-seed ledger's seeds as minimal fault scripts.

``benchmarks/ledger/chaos_seeds.json`` records which chaos seeds leave
the fleet in a bad state. Three of them were cut down with
:func:`repro.faults.shrink_schedule` under the ledger's own scenario (a
fleet of N nodes with six customers and three warm standbys, one 30 s
episode, a 10 s settle, conformance on): every action left in a script
is needed for the violation. Each test replays its script against the
episode's scenario and asserts that the check it names holds, so it
fails - marked ``xfail(strict=True)`` - until the platform converges;
then it passes and the mark must go. docs/FAULTS.md, "The red-seed ledger".
"""

import pytest

from benchmarks.suite.workloads import FleetScale, _fleet_scenario
from repro.faults import FaultSchedule, replay_and_check
from repro.faults.campaign import derive_episode_seed


def violated_checks(nodes, campaign_seed, schedule):
    """Sorted names of the invariant and conformance checks one episode
    of the red-seed ledger's scenario violates under ``schedule``."""
    scale = FleetScale(nodes, 6, 3, 1, 30.0, 10.0)
    env = _fleet_scenario(scale, [])(derive_episode_seed(campaign_seed, 0))
    _trace, violations, _history, conformance = replay_and_check(
        env, schedule, duration=30.0, settle=10.0, check_interval=0.5
    )
    return sorted({v.invariant for v in violations} | {v.checker for v in conformance})


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="customers-placed: all three nodes crash in turn and come back "
    "empty; no node redeploys the admitted customers",
)
def test_fleet3_seed17_customers_placed():
    schedule = FaultSchedule.from_dicts([
        {"at": 4.883310768310191, "kind": "crash", "args": {"node": "n1"}},
        {"at": 16.507436947561533, "kind": "crash", "args": {"node": "n3"}},
        {"at": 20.87130276687126, "kind": "crash", "args": {"node": "n2"}},
    ])
    assert "customers-placed" not in violated_checks(3, 17, schedule)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="single-primary: after one crash and three loss bursts, three "
    "customers each run on two nodes at the quiescent check",
)
def test_fleet8_seed5_single_primary():
    schedule = FaultSchedule.from_dicts([
        {"at": 4.751361296666433, "kind": "loss_burst",
         "args": {"duration": 2.34, "rate": 0.191}},
        {"at": 7.785091690717319, "kind": "crash", "args": {"node": "n1"}},
        {"at": 8.422664665451402, "kind": "repair", "args": {"node": "n1"}},
        {"at": 12.78719245627795, "kind": "loss_burst",
         "args": {"duration": 3.25, "rate": 0.199}},
        {"at": 24.725832485352853, "kind": "loss_burst",
         "args": {"duration": 2.666, "rate": 0.177}},
    ])
    assert "single-primary" not in violated_checks(8, 5, schedule)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="single-primary: n8 crashes, is partitioned off with n7 and "
    "repaired inside the partition; cust5 then runs on n6 and n8",
)
def test_fleet8_seed8_single_primary():
    schedule = FaultSchedule.from_dicts([
        {"at": 6.980117293369457, "kind": "crash", "args": {"node": "n8"}},
        {"at": 20.607381856735728, "kind": "partition",
         "args": {"groups": (("n7", "n8"), ("n1", "n2", "n3", "n4", "n5", "n6"))}},
        {"at": 25.382784870335353, "kind": "repair", "args": {"node": "n8"}},
    ])
    assert "single-primary" not in violated_checks(8, 8, schedule)
