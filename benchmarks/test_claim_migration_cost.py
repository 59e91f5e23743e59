"""CLAIM-MIG — "the cost of this operation is therefore comparable to a
normal startup of the platform, probably less" (§3.2).

We measure real end-to-end migration downtime (stop on source + redeploy
on target, state via the SAN) in virtual time, sweeping the number of
bundles per instance and the persistent state size, and compare it to the
cold baseline: booting a platform (JVM + framework) and then starting the
instance on it.
"""

import pytest

from benchmarks.conftest import print_table
from repro.cluster import Cluster
from repro.cluster.spec import CostModel
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.osgi.definition import simple_bundle

BUNDLE_COUNTS = [1, 5, 10, 20]
STATE_SIZES = [0, 1 * 2**20, 16 * 2**20, 64 * 2**20]
COSTS = CostModel()


def measure_migration(bundle_count, state_bytes):
    """Real migration through the platform; returns virtual downtime."""
    cluster = Cluster.build(2, seed=71)
    modules = {}
    for node in cluster.nodes():
        module = MigrationModule(node)
        node.modules["migration"] = module
        module.start()
        modules[node.node_id] = module
    cluster.run_for(2.0)
    CustomerDirectory(cluster.store, cluster.loop).put(
        CustomerDescriptor(
            name="svc",
            bundle_count_hint=bundle_count,
            state_bytes_hint=state_bytes,
        )
    )
    deploy = cluster.node("n1").deploy_instance("svc")
    cluster.run_until_settled([deploy])
    instance = deploy.result()
    for i in range(bundle_count):
        instance.install(simple_bundle("b%02d" % i)).start()
    cluster.run_for(1.5)
    migration = modules["n1"].migrate("svc", "n2")
    cluster.run_until_settled([migration], timeout=120)
    return migration.result().downtime


def cold_startup(bundle_count, state_bytes):
    """Baseline: full platform boot + instance start on the new platform."""
    return COSTS.instance_start_seconds(
        bundle_count, state_bytes=state_bytes, cold_platform=True
    )


def test_claim_migration_vs_cold_startup():
    def scenario():
        rows = {}
        for bundles in BUNDLE_COUNTS:
            downtime = measure_migration(bundles, 0)
            rows[("bundles", bundles)] = (downtime, cold_startup(bundles, 0))
        for state in STATE_SIZES:
            downtime = measure_migration(5, state)
            rows[("state", state)] = (downtime, cold_startup(5, state))
        return rows

    results = scenario()

    bundle_rows = []
    for bundles in BUNDLE_COUNTS:
        downtime, cold = results[("bundles", bundles)]
        bundle_rows.append(
            (bundles, "%.2f" % downtime, "%.2f" % cold, "%.2fx" % (cold / downtime))
        )
    print_table(
        "CLAIM-MIG(a): migration downtime vs cold platform startup (state=0)",
        ["bundles", "migration s", "cold startup s", "cold/migration"],
        bundle_rows,
    )

    state_rows = []
    for state in STATE_SIZES:
        downtime, cold = results[("state", state)]
        state_rows.append(
            (
                "%d MiB" % (state / 2**20),
                "%.2f" % downtime,
                "%.2f" % cold,
                "%.2fx" % (cold / downtime),
            )
        )
    print_table(
        "CLAIM-MIG(b): sweep of persistent state size (5 bundles)",
        ["state", "migration s", "cold startup s", "cold/migration"],
        state_rows,
    )

    # The paper's claim, quantified: migration is cheaper than a cold
    # platform startup at every point of the sweep ("probably less")...
    for key, (downtime, cold) in results.items():
        assert downtime < cold
    # ...and the two converge as state dominates (the advantage is the
    # skipped JVM+framework boot, a constant): ratio shrinks with state.
    ratios = [
        results[("state", s)][1] / results[("state", s)][0] for s in STATE_SIZES
    ]
    assert ratios == sorted(ratios, reverse=True)
    # With no state, skipping the platform boot is the whole story:
    no_state_downtime, no_state_cold = results[("bundles", 5)]
    assert no_state_cold - no_state_downtime == pytest.approx(
        COSTS.node_boot_seconds, rel=0.35
    )
