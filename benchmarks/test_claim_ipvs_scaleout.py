"""CLAIM-SCALE — scale-out through the ipvs (§4).

"We may start as many replicas of the service as required and the ipvs
infrastructure can, to some extent, transparently perform load-balancing
thus scaling the service performance beyond the performance of a single
node."

Throughput and latency vs replica count under a fixed offered load far
above one node's capacity, for the rr and lc schedulers.
"""

from benchmarks.conftest import print_table
from repro.cluster import Cluster
from repro.ipvs.addressing import IpEndpoint
from repro.ipvs.schedulers import LeastConnectionScheduler, RoundRobinScheduler
from repro.ipvs.server import DirectorCluster

VIP = IpEndpoint("203.0.113.2", 80)
SERVICE_TIME = 0.01  # one replica saturates at 100 req/s
OFFERED_HZ = 400  # 4x a single replica's capacity
DURATION = 5.0
REPLICAS = [1, 2, 4, 8]


def run_scaleout(replica_count, scheduler_factory, seed=111):
    cluster = Cluster.build(max(replica_count, 1), seed=seed)
    directors = DirectorCluster(cluster.loop, replicas=2)
    directors.add_service(VIP, scheduler_factory=scheduler_factory)
    for i in range(replica_count):
        directors.add_real_server(
            VIP, "n%d" % (i + 1), service_time=SERVICE_TIME, queue_limit=8
        )
    interval = 1.0 / OFFERED_HZ
    end = cluster.loop.clock.now + DURATION

    def submit():
        if cluster.loop.clock.now >= end:
            return
        directors.submit(VIP)
        cluster.loop.call_after(interval, submit)

    cluster.loop.call_after(interval, submit)
    cluster.run_for(DURATION + 1.0)
    stats = directors.stats()
    return {
        "throughput_hz": stats["completed"] / DURATION,
        "dropped": stats["dropped"],
        "mean_latency_ms": stats["mean_latency"] * 1e3,
        "per_node": directors.per_node_served(),
    }


def test_claim_ipvs_scaleout():
    def scenario():
        return {
            (scheduler.__name__, replicas): run_scaleout(replicas, scheduler)
            for scheduler in (RoundRobinScheduler, LeastConnectionScheduler)
            for replicas in REPLICAS
        }

    results = scenario()

    for scheduler_name in ("RoundRobinScheduler", "LeastConnectionScheduler"):
        rows = []
        for replicas in REPLICAS:
            r = results[(scheduler_name, replicas)]
            rows.append(
                (
                    replicas,
                    "%.0f" % r["throughput_hz"],
                    int(r["dropped"]),
                    "%.1f" % r["mean_latency_ms"],
                )
            )
        print_table(
            "CLAIM-SCALE (%s): offered %d req/s, replica capacity 100 req/s"
            % (scheduler_name, OFFERED_HZ),
            ["replicas", "throughput req/s", "dropped", "mean latency ms"],
            rows,
        )

    for scheduler_name in ("RoundRobinScheduler", "LeastConnectionScheduler"):
        series = [
            results[(scheduler_name, r)]["throughput_hz"] for r in REPLICAS
        ]
        # Shape: throughput grows with replicas...
        assert series == sorted(series)
        # ...beyond a single node's capacity by >= 3x at 4 replicas...
        assert series[2] > 3 * series[0]
        # ...and saturates at the offered load once capacity suffices.
        assert series[3] >= OFFERED_HZ * 0.95
        # Load is spread over every replica.
        per_node = results[(scheduler_name, 4)]["per_node"]
        assert len(per_node) == 4
        counts = sorted(per_node.values())
        assert counts[0] > 0.5 * counts[-1]
    # Fully-loaded single replica saturates around its capacity.
    single = results[("RoundRobinScheduler", 1)]
    assert 80 <= single["throughput_hz"] <= 110


def test_claim_heterogeneous_replicas_wrr():
    """Scheduler choice matters once replicas differ: a 4x-faster replica
    under plain rr gets the same share as the slow ones; wrr weighted to
    capacity, or lc following queue lengths, use it fully."""
    from repro.ipvs.schedulers import WeightedRoundRobinScheduler

    def run(scheduler_factory, weights):
        cluster = Cluster.build(2, seed=117)
        directors = DirectorCluster(cluster.loop, replicas=1)
        directors.add_service(VIP, scheduler_factory=scheduler_factory)
        # n1: fast replica (2.5ms/req = 400/s); n2: slow (10ms = 100/s).
        directors.add_real_server(
            VIP, "n1", service_time=0.0025, queue_limit=8, weight=weights[0]
        )
        directors.add_real_server(
            VIP, "n2", service_time=0.01, queue_limit=8, weight=weights[1]
        )
        interval = 1.0 / OFFERED_HZ
        end = cluster.loop.clock.now + DURATION

        def submit():
            if cluster.loop.clock.now >= end:
                return
            directors.submit(VIP)
            cluster.loop.call_after(interval, submit)

        cluster.loop.call_after(interval, submit)
        cluster.run_for(DURATION + 1.0)
        stats = directors.stats()
        return {
            "throughput": stats["completed"] / DURATION,
            "mean_latency_ms": stats["mean_latency"] * 1e3,
            "dropped": stats["dropped"],
            "per_node": directors.per_node_served(),
        }

    def scenario():
        return {
            "rr (equal)": run(RoundRobinScheduler, (1, 1)),
            "wrr 4:1": run(WeightedRoundRobinScheduler, (4, 1)),
            "lc": run(LeastConnectionScheduler, (1, 1)),
        }

    results = scenario()
    print_table(
        "CLAIM-SCALE(b): 400 req/s offered to a fast (400/s) + slow (100/s) pair",
        ["scheduler", "throughput req/s", "mean latency ms", "dropped", "served by"],
        [
            (
                name,
                "%.0f" % r["throughput"],
                "%.1f" % r["mean_latency_ms"],
                int(r["dropped"]),
                r["per_node"],
            )
            for name, r in results.items()
        ],
    )
    # The queue limit makes every discipline work-conserving, so all
    # complete the offered load; the difference is *where requests wait*.
    # Plain rr keeps the slow replica's queue saturated (every 2nd request
    # heads there until it overflows); capacity-aware weights and
    # least-connection keep latency a multiple lower.
    rr = results["rr (equal)"]
    for name in ("wrr 4:1", "lc"):
        r = results[name]
        assert r["throughput"] >= rr["throughput"] * 0.98
        assert r["mean_latency_ms"] < rr["mean_latency_ms"] * 0.55
