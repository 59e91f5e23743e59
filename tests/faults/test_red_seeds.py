"""The red-seed ledger's seeds as minimal fault scripts.

``benchmarks/ledger/chaos_seeds.json`` records which chaos seeds leave
the fleet in a bad state. Some of them were cut down with
:func:`repro.faults.shrink_schedule` under the ledger's own scenario (a
fleet of N nodes with six customers and three warm standbys, one 30 s
episode, a 10 s settle, conformance on): every action left in a script
is needed for the violation. Each test replays its script against the
episode's scenario and asserts that the check it names holds. A seed
the platform still fails is marked ``xfail(strict=True)``; once it
passes the mark goes and the script stays as a regression test.
docs/FAULTS.md, "The red-seed ledger".
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


def test_fleet8_seed5_single_primary():
    # The third loss burst makes n4 drop n1, n2 and n3, which never drop
    # n4-n8; re-admitted, their FIFO cursors at n4-n8 restarted at 1 and
    # no SYNC came, so no INV of theirs was delivered and three customers
    # stayed on two nodes.
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


def test_fleet8_seed8_single_primary():
    # n8, repaired inside the partition, re-admits n6 after the heal with
    # its FIFO cursor restarted at 1; n6 had admitted n8 a view earlier
    # and sends no SYNC, so n8 never learns n6 hosts cust5 too.
    schedule = FaultSchedule.from_dicts([
        {"at": 6.980117293369457, "kind": "crash", "args": {"node": "n8"}},
        {"at": 20.607381856735728, "kind": "partition",
         "args": {"groups": (("n7", "n8"), ("n1", "n2", "n3", "n4", "n5", "n6"))}},
        {"at": 25.382784870335353, "kind": "repair", "args": {"node": "n8"}},
    ])
    assert "single-primary" not in violated_checks(8, 8, schedule)


def test_fleet16_seed14_fifo_delivered():
    # One loss burst. n14 re-admits n1 in its view 23 with the cursor it
    # set from n1's SYNC restarted at 1, and n12 drops n13's frames 74-75
    # when n13's SYNC arrives after them: both then hold frames they can
    # never deliver.
    schedule = FaultSchedule.from_dicts([
        {"at": 26.559156620889194, "kind": "loss_burst",
         "args": {"duration": 3.092, "rate": 0.286}},
    ])
    assert "fifo-delivered" not in violated_checks(16, 14, schedule)
