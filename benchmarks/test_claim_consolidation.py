"""CLAIM-CONS — consolidation and power reduction (§4).

"…allows to concentrate in a single node, several customers when they are
idle … but also reduce power usage by shutting down or hibernating nodes
when they are not needed."

We compare the same 6 idle customers spread over 4 nodes vs consolidated
by the Autonomic Module's consolidation policy (migrations + hibernation
of emptied nodes), and integrate cluster power over time.
"""

from benchmarks.conftest import print_table
from repro.cluster.node import NodeState
from repro.core import DependableEnvironment
from repro.sla import ServiceLevelAgreement

CUSTOMERS = 6
NODES = 4


def build(seed, consolidate):
    env = DependableEnvironment.build(
        node_count=NODES,
        seed=seed,
        enable_consolidation=consolidate,
        enable_rebalance=False,
    )
    pending = [
        env.admit_customer(
            ServiceLevelAgreement("c%02d" % i, cpu_share=0.1),
            node_id="n%d" % ((i % NODES) + 1),
        )
        for i in range(CUSTOMERS)
    ]
    env.cluster.run_until_settled(pending)
    env.run_for(2.0)
    return env


def integrate_power(env, duration, step=1.0):
    energy = 0.0
    elapsed = 0.0
    while elapsed < duration:
        energy += env.cluster.total_power_watts() * step
        env.run_for(step)
        elapsed += step
    return energy  # watt-seconds


def run_variant(consolidate, seed=101):
    env = build(seed, consolidate)
    # Let the consolidation policy (if enabled) do its work first.
    env.run_for(40.0)
    energy = integrate_power(env, 60.0)
    states = {n.node_id: n.state.value for n in env.cluster.nodes()}
    hibernated = sum(
        1 for n in env.cluster.nodes() if n.state == NodeState.HIBERNATED
    )
    running = sum(len(n.instance_names()) for n in env.cluster.alive_nodes())
    occupied = sum(
        1 for n in env.cluster.alive_nodes() if n.instance_names()
    )
    return {
        "energy_wh": energy / 3600.0,
        "hibernated": hibernated,
        "occupied_nodes": occupied,
        "running": running,
        "states": states,
    }


def test_claim_consolidation_saves_power():
    def scenario():
        return {
            "spread": run_variant(consolidate=False),
            "consolidated": run_variant(consolidate=True),
        }

    results = scenario()

    rows = []
    for name in ("spread", "consolidated"):
        r = results[name]
        rows.append(
            (
                name,
                r["running"],
                r["occupied_nodes"],
                r["hibernated"],
                "%.1f" % r["energy_wh"],
            )
        )
    saving = 1.0 - results["consolidated"]["energy_wh"] / results["spread"]["energy_wh"]
    print_table(
        "CLAIM-CONS: 6 idle customers on 4 nodes, 60 s window "
        "(power saving: %.0f%%)" % (saving * 100),
        ["placement", "customers running", "occupied nodes", "hibernated", "energy Wh"],
        rows,
    )

    spread = results["spread"]
    consolidated = results["consolidated"]
    # Shape: nobody loses service...
    assert spread["running"] == CUSTOMERS
    assert consolidated["running"] == CUSTOMERS
    # ...consolidation concentrates customers and hibernates the rest...
    assert consolidated["occupied_nodes"] < spread["occupied_nodes"]
    assert consolidated["hibernated"] >= 1
    assert spread["hibernated"] == 0
    # ...and the energy saving is substantial (hibernation draws ~4% of idle).
    assert consolidated["energy_wh"] < spread["energy_wh"] * 0.85


def test_claim_consolidation_reverses_under_load():
    """The §4 loop closed: idle -> consolidate & hibernate; "when they
    need more performance" -> capacity wakes and rejoins."""
    from repro.workloads.burner import CpuBurner, burner_bundle, drive_burner
    from repro.sla import ServiceLevelAgreement

    def scenario():
        env = DependableEnvironment.build(
            node_count=NODES,
            seed=103,
            enable_consolidation=True,
            enable_rebalance=False,
        )
        burners = []
        for i in range(CUSTOMERS):
            burner = CpuBurner(cpu_per_second=0.0)
            completion = env.admit_customer(
                # Quota 0.15 x 6 = 0.9: packable on one node, and the busy
                # phase stays within contract (no SLA interference).
                ServiceLevelAgreement("c%02d" % i, cpu_share=0.15),
                bundles=[burner_bundle(burner)],
            )
            env.cluster.run_until_settled([completion])
            env.run_for(0.5)
            drive_burner(env.loop, burner, interval=1.0)
            burners.append(burner)
        env.run_for(40.0)
        idle_power = env.cluster.total_power_watts()
        idle_hibernated = sum(
            1 for n in env.cluster.nodes() if n.state == NodeState.HIBERNATED
        )
        for burner in burners:
            burner.cpu_per_second = 0.12  # 6 x 0.12 = 0.72 CPU: pressure
        env.run_for(40.0)
        busy_on = sum(1 for n in env.cluster.nodes() if n.state == NodeState.ON)
        busy_power = env.cluster.total_power_watts()
        return {
            "idle_power": idle_power,
            "idle_hibernated": idle_hibernated,
            "busy_on": busy_on,
            "busy_power": busy_power,
        }

    results = scenario()
    print_table(
        "CLAIM-CONS(b): elasticity round trip",
        ["phase", "nodes ON", "hibernated", "cluster W"],
        [
            (
                "idle (consolidated)",
                NODES - results["idle_hibernated"],
                results["idle_hibernated"],
                "%.0f" % results["idle_power"],
            ),
            (
                "busy (expanded)",
                results["busy_on"],
                NODES - results["busy_on"],
                "%.0f" % results["busy_power"],
            ),
        ],
    )
    assert results["idle_hibernated"] >= 1
    assert results["busy_on"] > NODES - results["idle_hibernated"]
    assert results["busy_power"] > results["idle_power"]
