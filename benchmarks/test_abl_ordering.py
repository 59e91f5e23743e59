"""ABL-ORDER — ablation: redeployment coordination discipline.

DESIGN.md calls out a design choice in the Migration Module: on a failure,
survivors can either (a) each run the same deterministic placement
function over their local view + inventories ("deterministic", no
agreement traffic) or (b) have the coordinator sequence an assignment via
total-order multicast ("sequencer", one agreement round).

We run repeated failure/recovery rounds under both disciplines and
compare: duplicate deployments (divergence cost), redeployment latency
(agreement cost) and message traffic.
"""

from benchmarks.conftest import print_table
from repro.cluster import Cluster
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory

ROUNDS = 4
CUSTOMERS = 4


def run_discipline(coordination, seed=121):
    cluster = Cluster.build(4, seed=seed)
    modules = {}
    for node in cluster.nodes():
        module = MigrationModule(node, coordination=coordination)
        node.modules["migration"] = module
        module.start()
        modules[node.node_id] = module
    cluster.run_for(2.0)
    directory = CustomerDirectory(cluster.store, cluster.loop)
    for i in range(CUSTOMERS):
        directory.put(CustomerDescriptor(name="c%02d" % i, cpu_share=0.15))
        deploy = cluster.node("n%d" % ((i % 3) + 1)).deploy_instance("c%02d" % i)
        cluster.run_until_settled([deploy])
    cluster.run_for(2.0)

    downtimes = []
    messages_before = cluster.network.stats.sent
    # Repeated failure/recovery rounds: fail a node, wait for recovery,
    # reboot it, repeat.
    for round_no in range(ROUNDS):
        alive = cluster.alive_nodes()
        victims = [n for n in alive if n.instance_names()]
        victim = victims[round_no % len(victims)]
        victim.fail()
        cluster.run_for(8.0)
        for module in modules.values():
            for record in module.records:
                if record.reason == "failure" and record.completed:
                    downtimes.append(record.downtime)
            module.records.clear()
        # Bring the victim back as a fresh node for the next round.
        boot = victim.boot()
        cluster.run_until_settled([boot])
        fresh = MigrationModule(victim, coordination=coordination)
        victim.modules["migration"] = fresh
        fresh.start()
        modules[victim.node_id] = fresh
        cluster.run_for(3.0)

    cluster.run_for(15.0)  # let recovery sweeps and dedup settle
    duplicates = sum(m.duplicate_deploys for m in modules.values())
    running_names = [
        name for n in cluster.alive_nodes() for name in n.instance_names()
    ]
    running = len(set(running_names))
    assert len(running_names) == running, "unresolved duplicate hosts"
    return {
        "duplicates": duplicates,
        "mean_downtime": sum(downtimes) / len(downtimes) if downtimes else 0.0,
        "max_downtime": max(downtimes) if downtimes else 0.0,
        "redeployments": len(downtimes),
        "messages": cluster.network.stats.sent - messages_before,
        "running": running,
    }


def test_abl_coordination_disciplines():
    def scenario():
        return {
            mode: run_discipline(mode) for mode in ("deterministic", "sequencer")
        }

    results = scenario()

    rows = []
    for mode in ("deterministic", "sequencer"):
        r = results[mode]
        rows.append(
            (
                mode,
                r["redeployments"],
                r["duplicates"],
                "%.2f" % r["mean_downtime"],
                "%.2f" % r["max_downtime"],
                r["messages"],
                r["running"],
            )
        )
    print_table(
        "ABL-ORDER: %d failure rounds, %d customers"
        % (ROUNDS, CUSTOMERS),
        [
            "discipline",
            "redeploys",
            "duplicates",
            "mean downtime s",
            "max downtime s",
            "messages",
            "running at end",
        ],
        rows,
    )

    deterministic = results["deterministic"]
    sequencer = results["sequencer"]
    # Shape: both disciplines recover every failure round and keep all
    # customers running at the end.
    assert deterministic["running"] == CUSTOMERS
    assert sequencer["running"] == CUSTOMERS
    assert deterministic["redeployments"] >= ROUNDS
    assert sequencer["redeployments"] >= ROUNDS
    # Duplicates occur rarely (recovery sweep racing the per-failure
    # assignment) and are always *resolved* — the run_discipline helper
    # asserts no instance ends up hosted twice.
    assert deterministic["duplicates"] <= 3
    assert sequencer["duplicates"] <= 3
    # The sequencer pays extra agreement traffic per round.
    assert sequencer["messages"] > 0
