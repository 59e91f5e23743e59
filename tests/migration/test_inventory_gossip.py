"""Inventory gossip is change-driven: a Migration Module multicasts its
node's inventory when a field a reader uses changes, and once after every
view install, never just because a round went by."""

from collections import Counter

from benchmarks.suite.workloads import FleetScale, _fleet_scenario
from repro.faults import FaultSchedule, default_scenario, replay_and_check
from repro.faults.campaign import derive_episode_seed


def count_inventory_multicasts(env):
    """Per node, the INV multicasts its module sends from now on."""
    sent = Counter()
    for node_id, module in env.migration.items():
        multicast = module.member.multicast

        def counted(payload, total_order=False, node_id=node_id, multicast=multicast):
            if isinstance(payload, dict) and payload.get("mig") == "INV":
                sent[node_id] += 1
            multicast(payload, total_order)

        module.member.multicast = counted
    return sent


def test_a_settled_fleet_sends_inventory_only_after_a_view_install():
    env = _fleet_scenario(FleetScale(8, 6, 3, 1, 30.0, 10.0), [])(1)
    env.run_for(5.0)  # the pumped customer's load reading settles
    sent = count_inventory_multicasts(env)
    env.run_for(20.0)
    assert sum(sent.values()) == 0
    # A node with nothing to redeploy crashes: every survivor installs
    # one view and multicasts its unchanged inventory once.
    idle = next(
        node_id
        for node_id, module in sorted(env.migration.items())
        if not module.inventory.get(node_id).instances
        and not module.inventory.get(node_id).standbys
    )
    env.fail_node(idle)
    env.run_for(5.0)
    assert sent == Counter({n: 1 for n in env.migration if n != idle})


def test_a_crash_inside_a_loss_burst_leaves_one_primary():
    # Episode 0 of `repro chaos --seed 5 --episodes 2 --duration 12
    # --settle 6`: n1 crashes right after a loss burst and is repaired
    # 0.6 s later, so the survivors redeploy acme while n1 rejoins. The
    # gossip must still show each node every inventory it resolves
    # duplicates against.
    schedule = FaultSchedule.from_dicts([
        {"at": 4.751361296666433, "kind": "loss_burst",
         "args": {"duration": 2.34, "rate": 0.191}},
        {"at": 7.785091690717319, "kind": "crash", "args": {"node": "n1"}},
        {"at": 8.422664665451402, "kind": "repair", "args": {"node": "n1"}},
    ])
    env = default_scenario(derive_episode_seed(5, 0))
    _trace, violations, _history, conformance = replay_and_check(
        env, schedule, duration=12.0, settle=6.0
    )
    assert violations == [] and conformance == []
    assert sorted(env.locate(name) for name in env.customer_names()) == ["n2", "n3"]
