"""The indexed least-connection scheduler must pick exactly like a scan
of the pool: same server, every time, under any workload history.

The O(pool) scan it replaced lives on here as the oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ipvs import schedulers
from repro.ipvs.addressing import IpEndpoint
from repro.ipvs.schedulers import LeastConnectionScheduler
from repro.ipvs.server import DirectorCluster, RealServer, Request, VirtualServer
from repro.sim.eventloop import EventLoop

VIP = IpEndpoint("10.0.0.1", 80)


def reference_scan(servers):
    """Minimum of ``(active_connections, node_id)`` over the available
    servers; the first in list order among equal keys."""
    best = None
    for server in servers:
        if not server.alive or server.weight <= 0:
            continue
        if server.active_connections >= server.queue_limit:
            continue
        if best is None or (server.active_connections, server.node_id) < (
            best.active_connections,
            best.node_id,
        ):
            best = server
    return best


class CountingScheduler(LeastConnectionScheduler):
    """Counts index rebuilds."""

    def __init__(self):
        super().__init__()
        self.rebuilds = 0

    def _rebuild(self, servers):
        self.rebuilds += 1
        super()._rebuild(servers)


def make_pool(n, queue_limit=4, service_time=0.01):
    return [
        RealServer("n%02d" % i, 80, service_time=service_time, queue_limit=queue_limit)
        for i in range(n)
    ]


def _req(i, endpoint=VIP):
    return Request(i, endpoint, arrived_at=0.0)


def test_one_implementation_under_both_names():
    assert schedulers.BucketedLeastConnectionScheduler is LeastConnectionScheduler
    assert LeastConnectionScheduler.name == "lc"


def test_empty_pool():
    assert LeastConnectionScheduler().pick([]) is None


def test_picks_least_loaded_with_node_id_tie_break():
    loop = EventLoop()
    servers = make_pool(3)
    sched = LeastConnectionScheduler()
    # All idle: lowest node_id wins the tie.
    assert sched.pick(servers) is servers[0]
    servers[0].admit(_req(1), loop)
    assert sched.pick(servers) is servers[1]
    servers[1].admit(_req(2), loop)
    servers[2].admit(_req(3), loop)
    servers[2].admit(_req(4), loop)
    # counts: n00=1 n01=1 n02=2 -> n00 by tie-break
    assert sched.pick(servers) is servers[0]


def test_rank_is_node_id_order_not_list_order():
    servers = [RealServer(node, 80) for node in ("m", "z", "a")]
    assert LeastConnectionScheduler().pick(servers).node_id == "a"


def test_skips_dead_weightless_and_full():
    loop = EventLoop()
    servers = make_pool(4, queue_limit=1)
    sched = LeastConnectionScheduler()
    servers[0].alive = False
    servers[1].weight = 0
    servers[2].admit(_req(1), loop)  # at queue_limit -> unavailable
    assert sched.pick(servers) is servers[3]
    servers[3].admit(_req(2), loop)
    assert sched.pick(servers) is None


def test_counts_written_before_the_first_pick_are_indexed():
    # The shape benchmarks/suite/micro.py builds: counts assigned, never
    # admitted, scheduler created afterwards.
    servers = make_pool(96, queue_limit=128)
    for index, server in enumerate(servers):
        server.active_connections = 1 + (index * 7) % 5
    servers[48].active_connections = 0
    assert LeastConnectionScheduler().pick(servers) is servers[48]


def test_dead_idle_server_parked_in_the_lowest_bucket():
    loop = EventLoop()
    servers = make_pool(3, queue_limit=8)
    sched = LeastConnectionScheduler()
    servers[0].alive = False  # stays at count 0 for the whole test
    for i in range(3):
        servers[1].admit(_req(i), loop)
    servers[2].admit(_req(9), loop)
    for _ in range(3):  # the walk passes the parked server every time
        assert sched.pick(servers) is servers[2]
    servers[0].alive = True
    assert sched.pick(servers) is servers[0]


def test_every_server_full_gives_none_then_recovers():
    loop = EventLoop()
    servers = make_pool(5, queue_limit=2, service_time=1.0)
    sched = LeastConnectionScheduler()
    for i in range(10):
        sched.pick(servers).admit(_req(i), loop)
    assert [s.active_connections for s in servers] == [2] * 5
    assert sched.pick(servers) is None
    loop.run_until(loop.peek_next_time())  # each server's first completes
    assert sched.pick(servers) is servers[0]


def test_counts_tracked_through_completions():
    loop = EventLoop()
    servers = make_pool(2, queue_limit=8)
    sched = LeastConnectionScheduler()
    sched.pick(servers)  # builds the index and hands out the slots
    for i in range(4):
        servers[0].admit(_req(i), loop)
    assert sched.pick(servers) is servers[1]
    loop.run_for(10.0)  # all completions fire; counts fall back to 0
    assert servers[0].active_connections == 0
    assert sched.pick(servers) is servers[0]


def test_count_above_every_indexed_count_grows_the_index():
    loop = EventLoop()
    servers = make_pool(2, queue_limit=200, service_time=1.0)
    sched = LeastConnectionScheduler()
    sched.pick(servers)  # index built with every count at 0
    for i in range(150):
        servers[0].admit(_req(i), loop)
    for i in range(149):
        servers[1].admit(_req(1000 + i), loop)
    assert sched.pick(servers) is servers[1]
    servers[1].admit(_req(2000), loop)
    servers[1].admit(_req(2001), loop)
    assert sched.pick(servers) is servers[0]


def test_one_server_indexed_by_two_schedulers():
    # No production path shares a real server between two least-connection
    # pools: DirectorCluster builds one RealServer per director and service.
    shared = RealServer("a", 80, queue_limit=8)
    pool_one = [shared, RealServer("b", 80, queue_limit=8)]
    pool_two = [RealServer("0", 80, queue_limit=8), shared]
    one, two = LeastConnectionScheduler(), LeastConnectionScheduler()
    assert one.pick(pool_one) is shared
    with pytest.raises(ValueError, match="another least-connection scheduler"):
        two.pick(pool_two)
    # The refused rebuild took no slot, and the first index is intact.
    assert pool_two[0]._masks is None
    assert shared._masks is one._masks
    assert one.pick(pool_one) is shared
    # Once the first scheduler lets go, the second may index the server.
    one.topology_changed()
    assert shared._masks is None
    assert two.pick(pool_two) is pool_two[0]
    assert shared._masks is two._masks


def test_completion_between_topology_change_and_pick_is_indexed():
    loop = EventLoop()
    director = VirtualServer("d1", loop)
    sched = LeastConnectionScheduler()
    director.add_service(VIP, sched)
    fast = RealServer("n00", 80, service_time=0.1, queue_limit=8)
    slow = RealServer("n01", 80, service_time=1.0, queue_limit=8)
    director.add_real_server(VIP, fast)
    director.add_real_server(VIP, slow)
    for i in range(3):
        director.route(_req(i))  # n00, n01, n00
    assert (fast.active_connections, slow.active_connections) == (2, 1)
    director.add_real_server(VIP, RealServer("n02", 80, queue_limit=8))
    # Both of n00's completions fire while the index is stale.
    loop.run_until(0.2)
    assert (fast.active_connections, slow.active_connections) == (0, 1)
    servers = director._services[(VIP.ip, VIP.port)][1]
    assert sched.pick(servers) is fast
    # The rebuilt index is exact: every server's bit sits at its count.
    for server in servers:
        assert server._masks is sched._masks
        holders = [c for c, mask in enumerate(sched._masks) if mask & server._bit]
        assert holders == [server.active_connections]


def test_every_server_near_its_queue_limit_picks_like_the_scan():
    # The walk starts at count 0 with every low count empty, and passes
    # full servers at queue_limit.
    loop = EventLoop()
    servers = make_pool(6, queue_limit=5, service_time=1.0)
    sched = LeastConnectionScheduler()
    sched.pick(servers)
    for index, server in enumerate(servers):
        for i in range(4 + index % 2):  # counts 4, 5, 4, 5, 4, 5
            server.admit(_req(100 * index + i), loop)
    expected = reference_scan(servers)
    assert expected is servers[0]
    assert sched.pick(servers) is expected
    servers[0].alive = False
    servers[2].weight = 0
    assert sched.pick(servers) is reference_scan(servers) is servers[4]
    servers[4].admit(_req(999), loop)  # now every available server is full
    assert reference_scan(servers) is None
    assert sched.pick(servers) is None


def test_resync_on_topology_change_via_director():
    loop = EventLoop()
    director = VirtualServer("d1", loop)
    director.add_service(VIP, LeastConnectionScheduler())
    for i in range(3):
        director.add_real_server(VIP, RealServer("n%02d" % i, 80))
    # Route a few requests, then change membership and route again.
    for i in range(3):
        director.route(_req(i))
    director.remove_real_server(VIP, "n00")
    request = _req(99)
    director.route(request)
    assert request.dropped is None
    loop.run_for(1.0)
    assert request.served_by in ("n01", "n02")


def test_remove_real_server_with_requests_in_flight():
    loop = EventLoop()
    sched = LeastConnectionScheduler()
    director = VirtualServer("d1", loop)
    director.add_service(VIP, sched)
    removed = RealServer("n00", 80, service_time=0.2, queue_limit=8)
    kept = RealServer("n01", 80, service_time=0.5, queue_limit=8)
    director.add_real_server(VIP, removed)
    director.add_real_server(VIP, kept)
    first, second = _req(1), _req(2)
    director.route(first)  # n00
    director.route(second)  # n01
    director.remove_real_server(VIP, "n00")
    # The removal released every slot; the completion moves no bit.
    assert removed._masks is None and kept._masks is None
    loop.run_until(loop.peek_next_time())
    assert first.served_by == "n00" and removed.active_connections == 0
    third = _req(3)
    director.route(third)
    assert kept.active_connections == 2
    # The rebuilt index holds the kept server's slot only.
    assert removed._masks is None
    assert kept._masks is sched._masks
    loop.run_for(5.0)
    assert second.served_by == third.served_by == "n01"
    assert sched.pick([kept]) is kept


def test_resync_on_list_identity_change():
    sched = LeastConnectionScheduler()
    pool_a = make_pool(2)
    assert sched.pick(pool_a) is pool_a[0]
    pool_b = make_pool(3)
    # Fresh list object: index must rebuild, not reuse pool_a's masks.
    assert sched.pick(pool_b) is pool_b[0]
    assert all(server._masks is None for server in pool_a)
    assert all(server._masks is sched._masks for server in pool_b)


def test_rebuild_only_on_membership_change():
    loop = EventLoop()
    cluster = DirectorCluster(loop, replicas=1)
    cluster.add_service(VIP, scheduler_factory=CountingScheduler)
    for i in range(6):
        cluster.add_real_server(VIP, "n%02d" % i, weight=2, queue_limit=8)
    sched = cluster.directors[0]._services[(VIP.ip, VIP.port)][0]
    cluster.submit(VIP)
    assert sched.rebuilds == 1
    cluster.mark_node("n01", False)
    cluster.submit(VIP)
    cluster.mark_node("n01", True)
    cluster.drain_node("n02")
    cluster.submit(VIP)
    cluster.undrain_node("n02")
    cluster.directors[0].set_node_weight("n03", 5)
    cluster.submit(VIP)
    loop.run_for(1.0)
    cluster.submit(VIP)
    assert sched.rebuilds == 1
    cluster.add_real_server(VIP, "n99")
    cluster.submit(VIP)
    assert sched.rebuilds == 2
    cluster.remove_real_server(VIP, "n00")
    cluster.submit(VIP)
    assert sched.rebuilds == 3


# -- the property: index == scan over arbitrary histories -----------------

ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "route",
                "admit",
                "burst",
                "finish",
                "alive",
                "weight",
                "drain",
                "undrain",
                "add",
                "remove",
            ]
        ),
        st.integers(0, 200),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(
    script=ops,
    pool_size=st.integers(1, 130),
    queue_limit=st.sampled_from([1, 3, 128]),
)
def test_index_matches_reference_scan(script, pool_size, queue_limit):
    """Replay one op script through a director; after every step the
    indexed pick must be the server the scan picks. Pools run to 130
    servers (past one 64-bit word of mask and past the 128 queue
    limit), bursts push single servers past their queue limit."""
    loop = EventLoop()
    director = VirtualServer("d1", loop)
    sched = LeastConnectionScheduler()
    director.add_service(VIP, sched)
    # Even ids at first, so that added servers rank between old ones.
    for i in range(pool_size):
        director.add_real_server(
            VIP,
            RealServer("n%03d" % (2 * i), 80, service_time=1.0, queue_limit=queue_limit),
        )
    servers = director._services[(VIP.ip, VIP.port)][1]  # the list pick sees
    next_id = 0
    for action, index, value in script:
        server = servers[index % len(servers)] if servers else None
        if action == "route":
            next_id += 1
            director.route(_req(next_id))
        elif action == "add":
            director.add_real_server(
                VIP,
                RealServer("n%03d" % index, 80, service_time=1.0, queue_limit=queue_limit),
            )
        elif action == "finish":
            # Fire the next pending completion (if any) by advancing time.
            upcoming = loop.peek_next_time()
            if upcoming is not None:
                loop.run_until(upcoming)
        elif server is None:
            pass
        elif action == "admit":
            next_id += 1
            server.admit(_req(next_id), loop)
        elif action == "burst":
            for _ in range(43 * value):  # up to 129: past every queue limit
                next_id += 1
                server.admit(_req(next_id), loop)
        elif action == "alive":
            director.mark_node(server.node_id, bool(value % 2))
        elif action == "weight":
            server.weight = value
        elif action == "drain":
            director.set_node_weight(server.node_id, 0)
        elif action == "undrain":
            director.set_node_weight(server.node_id, 1 + value)
        else:
            director.remove_real_server(VIP, server.node_id)
        expected = reference_scan(servers)
        got = sched.pick(servers)
        assert got is expected, (
            action,
            index,
            value,
            [(s.node_id, s.active_connections, s.alive, s.weight) for s in servers],
        )
