"""Per-node indexes and counters replacing full-table scans."""

from repro.ipvs.addressing import IpEndpoint
from repro.ipvs.server import DirectorCluster, RealServer, VirtualServer
from repro.sim.eventloop import EventLoop


VIP_A = IpEndpoint("10.0.0.1", 80)
VIP_B = IpEndpoint("10.0.0.2", 80)


def make_director(loop):
    director = VirtualServer("d1", loop)
    director.add_service(VIP_A)
    director.add_service(VIP_B)
    # node "x" serves both services; node "y" only the first.
    director.add_real_server(VIP_A, RealServer("x", 80))
    director.add_real_server(VIP_B, RealServer("x", 80))
    director.add_real_server(VIP_A, RealServer("y", 80))
    return director


def test_mark_node_touches_every_service():
    loop = EventLoop()
    director = make_director(loop)
    assert director.mark_node("x", False) == 2
    assert [s.alive for _, s in director.all_real_servers()] == [
        False,
        True,
        False,
    ]
    assert director.mark_node("y", False) == 1
    assert director.mark_node("ghost", False) == 0


def test_set_node_weight():
    loop = EventLoop()
    director = make_director(loop)
    assert director.set_node_weight("x", 0) == 2
    for _, server in director.all_real_servers():
        if server.node_id == "x":
            assert server.weight == 0
        else:
            assert server.weight == 1


def test_node_active_connections_spans_services():
    loop = EventLoop()
    director = make_director(loop)
    for _ in range(3):
        director.route(_req(loop, VIP_A))
    for _ in range(2):
        director.route(_req(loop, VIP_B))
    assert director.node_active_connections("x") + director.node_active_connections(
        "y"
    ) == 5
    loop.run_for(5.0)
    assert director.node_active_connections("x") == 0
    assert director.node_active_connections("y") == 0


def test_index_follows_removal():
    loop = EventLoop()
    director = make_director(loop)
    assert director.remove_real_server(VIP_A, "x") == 1
    # x still serves VIP_B.
    assert director.mark_node("x", False) == 1
    assert director.remove_real_server(VIP_B, "x") == 1
    assert director.mark_node("x", True) == 0
    assert director.node_active_connections("x") == 0


def test_cluster_sums_replicas_and_services_without_a_watcher():
    loop = EventLoop()
    cluster = DirectorCluster(loop, replicas=2, failover_seconds=0.1)
    cluster.add_service(VIP_A)
    cluster.add_service(VIP_B)
    cluster.add_real_server(VIP_A, "n1", service_time=1.0)
    cluster.add_real_server(VIP_B, "n1", service_time=1.0)
    cluster.add_real_server(VIP_A, "n2", service_time=1.0)
    # Round-robin services index nothing, so no server holds a slot.
    assert all(server._masks is None for _, server in cluster.all_real_servers())
    for _ in range(4):
        cluster.submit(VIP_A)  # primary: two each on n1 and n2
    cluster.submit(VIP_B)  # primary: n1's second service
    assert cluster.node_active_connections("n1") == 3
    assert cluster.node_active_connections("n2") == 2
    cluster.fail_primary()
    loop.run_for(0.2)
    cluster.submit(VIP_A)  # standby replica's own server objects: n1
    assert cluster.node_active_connections("n1") == 4
    assert cluster.node_active_connections("ghost") == 0
    loop.run_for(5.0)
    assert cluster.node_active_connections("n1") == 0
    assert cluster.node_active_connections("n2") == 0


def test_drain_wait_undrain_cycle():
    loop = EventLoop()
    cluster = DirectorCluster(loop, replicas=2)
    cluster.add_service(VIP_A)
    cluster.add_real_server(VIP_A, "n1", weight=3, service_time=0.05)
    cluster.add_real_server(VIP_A, "n2", service_time=0.05)
    for _ in range(6):
        cluster.submit(VIP_A)
    cluster.drain_node("n1")
    assert cluster.is_draining("n1")
    active_before = cluster.node_active_connections("n1")
    assert active_before > 0
    loop.run_for(2.0)
    assert cluster.node_active_connections("n1") == 0
    cluster.undrain_node("n1")
    for _, server in cluster.all_real_servers():
        if server.node_id == "n1":
            assert server.weight == 3


def test_undrain_of_a_node_that_is_not_draining_keeps_its_weight():
    loop = EventLoop()
    cluster = DirectorCluster(loop, replicas=2)
    cluster.add_service(VIP_A)
    cluster.add_real_server(VIP_A, "n1", weight=3)
    cluster.undrain_node("n1")  # rollout's restore() after a skipped drain
    assert not cluster.is_draining("n1")
    assert [server.weight for _, server in cluster.all_real_servers()] == [3, 3]
    # A real cycle still restores, and a second undrain changes nothing.
    cluster.drain_node("n1")
    assert [server.weight for _, server in cluster.all_real_servers()] == [0, 0]
    cluster.undrain_node("n1")
    cluster.undrain_node("n1")
    assert [server.weight for _, server in cluster.all_real_servers()] == [3, 3]


def _req(loop, endpoint):
    from repro.ipvs.server import Request

    _req.counter = getattr(_req, "counter", 0) + 1
    return Request(_req.counter, endpoint, arrived_at=loop.clock.now)
