"""FIG5 — migrating a service with its own IP address (Figure 5).

"Migrating a service from a node to another one simply requires the node
currently holding the service to release the IP address, and the new node
to bind it to one of its network interfaces."

We measure the client-visible blackout while the IP moves, sweeping the
ARP/takeover settle time, and compare it against the full migration
downtime (stop + redeploy) to show which term dominates.
"""

from benchmarks.conftest import print_table
from repro.cluster import Cluster
from repro.ipvs.addressing import AddressRegistry
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory

TAKEOVER_SECONDS = [0.1, 0.5, 1.0, 2.0]
PROBE_INTERVAL = 0.02


def run_takeover(takeover_seconds):
    """One IP move under a probing client; returns observed blackout."""
    cluster = Cluster.build(2, seed=55)
    registry = AddressRegistry(cluster.loop, takeover_seconds=takeover_seconds)
    registry.bind("198.51.100.7", "n1")

    outcomes = []
    probe_until = cluster.loop.clock.now + takeover_seconds + 4.0

    def probe():
        outcomes.append(
            (cluster.loop.clock.now, registry.owner("198.51.100.7") is not None)
        )
        if cluster.loop.clock.now < probe_until:
            cluster.loop.call_after(PROBE_INTERVAL, probe)

    cluster.loop.call_after(PROBE_INTERVAL, probe)
    cluster.run_for(1.0)
    registry.move("198.51.100.7", "n1", "n2")
    cluster.run_for(takeover_seconds + 4.0)

    down = [t for t, up in outcomes if not up]
    blackout = (max(down) - min(down) + PROBE_INTERVAL) if down else 0.0
    return blackout, len(down), registry.owner("198.51.100.7")


def full_service_migration_downtime():
    """Downtime of the whole customer migration, for comparison."""
    cluster = Cluster.build(2, seed=56)
    modules = {}
    for node in cluster.nodes():
        module = MigrationModule(node)
        node.modules["migration"] = module
        module.start()
        modules[node.node_id] = module
    cluster.run_for(2.0)
    CustomerDirectory(cluster.store, cluster.loop).put(
        CustomerDescriptor(name="svc", bundle_count_hint=3)
    )
    deploy = cluster.node("n1").deploy_instance("svc")
    cluster.run_until_settled([deploy])
    cluster.run_for(1.5)
    migration = modules["n1"].migrate("svc", "n2")
    cluster.run_until_settled([migration], timeout=60)
    return migration.result().downtime


def test_fig5_unique_ip_takeover():
    def scenario():
        sweep = {t: run_takeover(t) for t in TAKEOVER_SECONDS}
        return sweep, full_service_migration_downtime()

    sweep, migration_downtime = scenario()

    rows = []
    for takeover in TAKEOVER_SECONDS:
        blackout, lost_probes, owner = sweep[takeover]
        rows.append(
            (
                "%.1f" % takeover,
                "%.2f" % blackout,
                lost_probes,
                owner,
                "%.2f" % (blackout + migration_downtime),
            )
        )
    print_table(
        "FIG5: service migration by IP release/rebind "
        "(instance redeploy itself: %.2fs)" % migration_downtime,
        ["takeover s", "IP blackout s", "lost probes", "new owner", "total downtime s"],
        rows,
    )

    # Shape: the blackout tracks the takeover delay (within one probe),
    # the IP always lands on the target, and with slow ARP settling the IP
    # move — not the redeployment — dominates total downtime.
    for takeover in TAKEOVER_SECONDS:
        blackout, _, owner = sweep[takeover]
        assert owner == "n2"
        assert abs(blackout - takeover) <= 2 * PROBE_INTERVAL + 1e-9
    assert sweep[2.0][0] > migration_downtime
