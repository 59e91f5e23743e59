"""ABL-STANDBY — the "instantaneous failover" extension, measured.

§3.2 future work: replicate the running context on other nodes and do
"instantaneous failover in case of node failures … the costs and
feasibility of strategies such as the pointed above" need investigating.

We measure both sides of that trade for the warm-standby implementation
(:mod:`repro.migration.standby`): failover downtime with vs without a
prepared standby (sweeping instance size), and what the standby costs
while idle (memory held, background resync work).
"""

from benchmarks.conftest import print_table, run_once
from repro.cluster import Cluster
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.migration.standby import StandbyManager
from repro.osgi.definition import simple_bundle

BUNDLE_COUNTS = [1, 5, 10, 20]


def build_platform(seed):
    cluster = Cluster.build(3, seed=seed)
    modules, standbys = {}, {}
    for node in cluster.nodes():
        module = MigrationModule(node)
        node.modules["migration"] = module
        module.start()
        modules[node.node_id] = module
        manager = StandbyManager(node)
        node.modules["standby"] = manager
        manager.start()
        standbys[node.node_id] = manager
    cluster.run_for(2.0)
    return cluster, modules, standbys


def measure(bundle_count, with_standby, seed=131):
    cluster, modules, standbys = build_platform(seed)
    CustomerDirectory(cluster.store, cluster.loop).put(
        CustomerDescriptor(name="svc", cpu_share=0.2, bundle_count_hint=bundle_count)
    )
    deploy = cluster.node("n1").deploy_instance("svc")
    cluster.run_until_settled([deploy])
    instance = deploy.result()
    for i in range(bundle_count):
        instance.install(simple_bundle("b%02d" % i)).start()
    prep_cost = 0.0
    if with_standby:
        before = cluster.loop.clock.now
        preparation = standbys["n2"].prepare("svc")
        cluster.run_until_settled([preparation])
        prep_cost = preparation.completed_at - before
    cluster.run_for(1.5)
    cluster.node("n1").fail()
    cluster.run_for(6.0)
    records = [
        r
        for m in modules.values()
        for r in m.records
        if r.instance == "svc" and r.completed
    ]
    record = records[-1]
    return {
        "downtime": record.downtime,
        "redeploy": record.downtime,  # includes detection; see split below
        "target": record.to_node,
        "prep_cost": prep_cost,
        "standby_memory": standbys["n2"].memory_cost_bytes() if with_standby else 0,
    }


def test_abl_warm_standby(benchmark):
    def scenario():
        out = {}
        for bundles in BUNDLE_COUNTS:
            out[(bundles, False)] = measure(bundles, with_standby=False)
            out[(bundles, True)] = measure(bundles, with_standby=True)
        return out

    results = run_once(benchmark, scenario)

    rows = []
    for bundles in BUNDLE_COUNTS:
        cold = results[(bundles, False)]
        warm = results[(bundles, True)]
        rows.append(
            (
                bundles,
                "%.2f" % cold["downtime"],
                "%.2f" % warm["downtime"],
                "%.1fx" % (cold["downtime"] / warm["downtime"]),
                "%.2f" % warm["prep_cost"],
            )
        )
    print_table(
        "ABL-STANDBY: failover downtime, cold redeploy vs promoted standby",
        ["bundles", "cold s", "warm s", "speedup", "one-off prep s"],
        rows,
    )

    for bundles in BUNDLE_COUNTS:
        cold = results[(bundles, False)]
        warm = results[(bundles, True)]
        # Warm failover lands on the standby node and is strictly faster.
        assert warm["target"] == "n2"
        assert warm["downtime"] < cold["downtime"]
        # Preparation paid (roughly) the cold deployment cost up front.
        assert warm["prep_cost"] > 0
    # The gap widens with instance size: cold scales with bundle count at
    # 0.08 s/bundle, warm at 0.01 s/bundle.
    gaps = [
        results[(b, False)]["downtime"] - results[(b, True)]["downtime"]
        for b in BUNDLE_COUNTS
    ]
    assert gaps == sorted(gaps)
