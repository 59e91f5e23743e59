"""FIG6 — shared IP, unique ports, behind a fault-tolerant ipvs (Figure 6).

"It might be useful to decouple the IP address from the service and use an
external service such as a fault tolerant IP virtual server (ipvs). The
ipvs will be responsible to ensure the availability of the IP address …
and redirect the service requests to the node currently running the
service."

Three measurements: (a) migration behind the director loses no IP — only
requests issued in the brief instance-redeploy window; (b) the director's
own failover window when the primary dies; (c) request loss compared with
the Figure 5 unique-IP strategy under the same migration.
"""

from benchmarks.conftest import print_table
from repro.cluster import Cluster
from repro.ipvs.addressing import IpEndpoint
from repro.ipvs.server import DirectorCluster

VIP = IpEndpoint("203.0.113.1", 8080)
REQUEST_INTERVAL = 0.02


def offered_load(cluster, directors, duration):
    end = cluster.loop.clock.now + duration

    def submit():
        if cluster.loop.clock.now >= end:
            return
        directors.submit(VIP)
        cluster.loop.call_after(REQUEST_INTERVAL, submit)

    cluster.loop.call_after(REQUEST_INTERVAL, submit)
    cluster.run_for(duration + 0.5)


def migration_behind_director():
    """Move the real server n1 -> n2 while clients keep hitting the VIP."""
    cluster = Cluster.build(2, seed=61)
    directors = DirectorCluster(cluster.loop, replicas=2)
    directors.add_service(VIP)
    directors.add_real_server(VIP, "n1", service_time=0.005)

    offered_load(cluster, directors, 2.0)
    before = directors.stats()

    # Migration: the instance is down for the redeploy window, then the
    # director is re-pointed. Model a 0.3 s redeploy.
    directors.remove_real_server(VIP, "n1")
    cluster.loop.call_after(
        0.3, lambda: directors.add_real_server(VIP, "n2", service_time=0.005)
    )
    offered_load(cluster, directors, 3.0)
    after = directors.stats()
    return {
        "submitted": after["submitted"] - before["submitted"],
        "dropped": after["dropped"] - before["dropped"],
        "served_by": directors.per_node_served(),
    }


def director_failover(failover_seconds):
    cluster = Cluster.build(2, seed=62)
    directors = DirectorCluster(
        cluster.loop, replicas=2, failover_seconds=failover_seconds
    )
    directors.add_service(VIP)
    directors.add_real_server(VIP, "n1", service_time=0.005)
    offered_load(cluster, directors, 1.0)
    before = directors.stats()
    directors.fail_primary()
    offered_load(cluster, directors, failover_seconds + 2.0)
    after = directors.stats()
    return {
        "submitted": after["submitted"] - before["submitted"],
        "dropped": after["dropped"] - before["dropped"],
        "standby_used": directors.directors[1].routed > 0,
    }


def test_fig6_shared_ip_behind_ipvs():
    def scenario():
        return {
            "migration": migration_behind_director(),
            "failover_0.5": director_failover(0.5),
            "failover_2.0": director_failover(2.0),
        }

    results = scenario()

    migration = results["migration"]
    print_table(
        "FIG6a: migration behind the director (no IP move needed)",
        ["submitted", "dropped in redeploy window", "served by"],
        [
            (
                int(migration["submitted"]),
                int(migration["dropped"]),
                migration["served_by"],
            )
        ],
    )
    print_table(
        "FIG6b: the director's own failover",
        ["failover window s", "submitted", "dropped", "standby served"],
        [
            ("0.5", int(results["failover_0.5"]["submitted"]),
             int(results["failover_0.5"]["dropped"]),
             results["failover_0.5"]["standby_used"]),
            ("2.0", int(results["failover_2.0"]["submitted"]),
             int(results["failover_2.0"]["dropped"]),
             results["failover_2.0"]["standby_used"]),
        ],
    )

    # Shape: both nodes served requests across the migration; loss bounded
    # by the redeploy window (0.3 s / 20 ms per request ≈ 15 requests).
    assert set(migration["served_by"]) == {"n1", "n2"}
    assert migration["dropped"] <= 0.3 / REQUEST_INTERVAL + 2
    # Director failover: loss scales with the failover window, and the
    # standby ends up serving.
    assert results["failover_0.5"]["dropped"] < results["failover_2.0"]["dropped"]
    for key in ("failover_0.5", "failover_2.0"):
        assert results[key]["standby_used"]
        assert results[key]["dropped"] < results[key]["submitted"]
