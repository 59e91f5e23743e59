"""Virtual server routing, queueing, and director failover."""

import pytest

from repro.ipvs.addressing import IpEndpoint
from repro.ipvs.schedulers import LeastConnectionScheduler
from repro.ipvs.server import DirectorCluster, RealServer, Request, VirtualServer
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.telemetry import Telemetry, attach

VIP = IpEndpoint("10.0.0.100", 80)


@pytest.fixture
def director(loop):
    d = VirtualServer("ipvs1", loop)
    d.add_service(VIP)
    return d


class TestRequest:
    """The slotted class keeps the contract of the dataclass it was."""

    def test_no_instance_dict(self):
        request = Request(1, VIP, 0.0)
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.retries = 1

    def test_positional_constructor_and_defaults(self):
        request = Request(7, VIP, 1.5, "alice")
        assert (request.request_id, request.endpoint) == (7, VIP)
        assert (request.arrived_at, request.client) == (1.5, "alice")
        assert request.completed_at is request.served_by is None
        assert request.dropped is request.span is None
        assert not request.ok and request.latency is None
        request.completed_at = 2.0
        assert request.ok and request.latency == 0.5

    def test_repr_and_equality_leave_the_span_out(self):
        request = Request(7, VIP, 1.5, "alice", span=object())
        assert repr(request) == (
            "Request(request_id=7, endpoint=IpEndpoint(ip='10.0.0.100', "
            "port=80), arrived_at=1.5, client='alice', completed_at=None, "
            "served_by=None, dropped=None)"
        )
        assert request == Request(7, VIP, 1.5, "alice")
        assert request != Request(7, VIP, 1.5, "alice", dropped="no-service")
        assert request != 7
        with pytest.raises(TypeError):
            hash(request)


class TestVirtualServer:
    def test_route_to_real_server(self, loop, director):
        director.add_real_server(VIP, RealServer("n1", 80, service_time=0.01))
        request = Request(1, VIP, loop.clock.now)
        director.route(request)
        loop.run_for(1.0)
        assert request.ok
        assert request.served_by == "n1"
        assert request.latency == pytest.approx(0.01)

    def test_unknown_service_dropped(self, loop, director):
        request = Request(1, IpEndpoint("10.0.0.99", 80), loop.clock.now)
        director.route(request)
        assert request.dropped == "no-service"

    def test_no_real_server_dropped(self, loop, director):
        request = Request(1, VIP, loop.clock.now)
        director.route(request)
        assert request.dropped == "no-real-server"

    def test_dead_director_drops(self, loop, director):
        director.add_real_server(VIP, RealServer("n1", 80))
        director.alive = False
        request = Request(1, VIP, loop.clock.now)
        director.route(request)
        assert request.dropped == "director-down"

    def test_duplicate_service_rejected(self, director):
        with pytest.raises(ValueError):
            director.add_service(VIP)

    def test_real_server_for_unknown_service_rejected(self, director):
        with pytest.raises(ValueError):
            director.add_real_server(IpEndpoint("1.1.1.1", 1), RealServer("n1", 1))

    def test_queueing_adds_latency(self, loop, director):
        director.add_real_server(
            VIP, RealServer("n1", 80, service_time=0.1, queue_limit=10)
        )
        requests = []
        for i in range(3):
            request = Request(i, VIP, loop.clock.now)
            director.route(request)
            requests.append(request)
        loop.run_for(1.0)
        latencies = [r.latency for r in requests]
        assert latencies == pytest.approx([0.1, 0.2, 0.3])

    def test_queue_limit_rejects_overflow(self, loop, director):
        director.add_real_server(
            VIP, RealServer("n1", 80, service_time=1.0, queue_limit=2)
        )
        outcomes = []
        for i in range(4):
            request = Request(i, VIP, loop.clock.now)
            director.route(request)
            outcomes.append(request.dropped)
        assert outcomes.count("no-real-server") == 2

    def test_mark_node_flips_replicas(self, loop, director):
        director.add_real_server(VIP, RealServer("n1", 80))
        director.add_real_server(VIP, RealServer("n2", 80))
        assert director.mark_node("n1", False) == 1
        for i in range(4):
            request = Request(i, VIP, loop.clock.now)
            director.route(request)
        loop.run_for(1.0)
        assert all(
            r.node_id == "n2" or not r.alive for r in director.real_servers(VIP)
        )

    def test_remove_real_server(self, director):
        director.add_real_server(VIP, RealServer("n1", 80))
        assert director.remove_real_server(VIP, "n1") == 1
        assert director.real_servers(VIP) == []

    def test_server_death_mid_service_drops_request(self, loop, director):
        server = RealServer("n1", 80, service_time=0.5)
        director.add_real_server(VIP, server)
        request = Request(1, VIP, loop.clock.now)
        director.route(request)
        loop.run_for(0.1)
        server.alive = False
        loop.run_for(1.0)
        assert not request.ok
        assert request.dropped == "server-died"

    def test_stateless_route_never_enters_the_affinity_helpers(
        self, loop, director, monkeypatch
    ):
        def entered(*_args):
            raise AssertionError("affinity helper entered without a persistent service")

        monkeypatch.setattr(VirtualServer, "_sticky_server", entered)
        monkeypatch.setattr(VirtualServer, "_remember_affinity", entered)
        director.add_real_server(VIP, RealServer("n1", 80, service_time=0.01))
        requests = [
            Request(i, VIP, loop.clock.now, client)
            for i, client in enumerate([None, "alice", "alice"])
        ]
        for request in requests:
            director.route(request)
        loop.run_for(1.0)
        assert all(request.ok for request in requests)
        assert director.routed == 3

    def test_custom_scheduler(self, loop):
        director = VirtualServer("d", loop)
        director.add_service(VIP, LeastConnectionScheduler())
        busy = RealServer("busy", 80)
        busy.active_connections = 3
        idle = RealServer("idle", 80)
        director.add_real_server(VIP, busy)
        director.add_real_server(VIP, idle)
        request = Request(1, VIP, loop.clock.now)
        director.route(request)
        loop.run_for(1.0)
        assert request.served_by == "idle"


class TestOnServedHook:
    """The ``on_served`` hook runs after the completion is counted, and
    what it raises propagates out of the loop."""

    @staticmethod
    def _cluster(loop, hook):
        cluster = DirectorCluster(loop, replicas=2, retain_requests=False)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.01, on_served=hook)
        return cluster

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_raising_hook_propagates_after_the_completion(self, loop, traced):
        seen = []

        def hook(request):
            seen.append(request.request_id)
            raise RuntimeError("ledger unavailable")

        cluster = self._cluster(loop, hook)
        telemetry = Telemetry(loop.clock, RngStreams(1)) if traced else None
        with attach(loop, telemetry=telemetry):
            request = cluster.submit(VIP)
            with pytest.raises(RuntimeError, match="ledger unavailable"):
                loop.run_for(1.0)
        assert seen == [1]
        assert request.ok and request.served_by == "n1"
        server = cluster.all_real_servers()[0][1]
        assert server.active_connections == 0
        assert server.served == 1
        assert cluster.stats()["completed"] == 1
        spans = [] if telemetry is None else telemetry.tracer.spans
        assert len(spans) == (2 if traced else 0)
        assert all(span.end is not None for span in spans)

    def test_stats_count_no_hook_errors(self, loop):
        cluster = self._cluster(loop, lambda request: None)
        cluster.submit(VIP)
        loop.run_for(1.0)
        keys = ["completed", "dropped", "max_latency", "mean_latency", "submitted"]
        assert sorted(cluster.stats()) == keys
        retained = DirectorCluster(loop)
        retained.add_service(VIP)
        assert sorted(retained.stats()) == keys


class _ProbeReads(EventLoop):
    """An event loop counting reads of its ``probe`` (none attached)."""

    def __init__(self):
        self.probe_reads = 0
        super().__init__()

    @property
    def probe(self):
        self.probe_reads += 1
        return None

    @probe.setter
    def probe(self, value):
        assert value is None


def test_served_macro_request_reads_the_probe_once():
    """The macro day's request path (no retained requests, least
    connection, a served request) asks the loop for its probe in
    ``submit`` and nowhere else."""
    loop = _ProbeReads()
    cluster = DirectorCluster(loop, replicas=2, retain_requests=False)
    cluster.add_service(VIP, scheduler_factory=LeastConnectionScheduler)
    cluster.add_real_server(VIP, "n1", service_time=0.01, on_served=lambda r: None)
    cluster.add_real_server(VIP, "n2", service_time=0.01, on_served=lambda r: None)
    loop.probe_reads = 0
    request = cluster.submit(VIP, client="c1")
    assert loop.probe_reads == 1
    loop.run_for(1.0)
    assert request.ok
    assert loop.probe_reads == 1


class TestDirectorCluster:
    def test_config_fans_out_to_replicas(self, loop):
        cluster = DirectorCluster(loop, replicas=2)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1")
        for director in cluster.directors:
            assert len(director.real_servers(VIP)) == 1

    def test_submit_routes_through_primary(self, loop):
        cluster = DirectorCluster(loop)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.01)
        request = cluster.submit(VIP)
        loop.run_for(1.0)
        assert request.ok
        assert cluster.directors[0].routed == 1
        assert cluster.directors[1].routed == 0

    def test_failover_window_then_standby_serves(self, loop):
        cluster = DirectorCluster(loop, failover_seconds=1.0)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.01)
        cluster.fail_primary()
        dropped = cluster.submit(VIP)
        assert dropped.dropped == "no-director"
        loop.run_for(1.1)
        served = cluster.submit(VIP)
        loop.run_for(1.0)
        assert served.ok
        assert cluster.directors[1].routed == 1

    def test_takeover_window_is_kept_to_the_instant(self, loop):
        """``submit`` skips ``active_director()`` only while the first
        director is the live primary; a failed one still costs the whole
        window, and a revived one takes the VIPs back."""
        cluster = DirectorCluster(loop, failover_seconds=1.0)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.01)
        first, standby = cluster.directors
        assert cluster.submit(VIP).dropped is None
        cluster.fail_primary()
        loop.run_for(0.999)
        assert cluster.submit(VIP).dropped == "no-director"
        loop.run_for(0.001)
        assert cluster.submit(VIP).dropped is None
        assert (first.routed, standby.routed) == (1, 1)
        first.alive = True
        assert cluster.submit(VIP).dropped is None
        assert (first.routed, standby.routed) == (2, 1)
        assert first.drops == standby.drops == {}

    def test_all_directors_dead_drops_everything(self, loop):
        cluster = DirectorCluster(loop, replicas=2, failover_seconds=0.1)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1")
        cluster.fail_primary()
        loop.run_for(1.0)
        cluster.fail_primary()
        loop.run_for(1.0)
        request = cluster.submit(VIP)
        assert request.dropped == "no-director"

    def test_load_balanced_across_replicas(self, loop):
        cluster = DirectorCluster(loop)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.001)
        cluster.add_real_server(VIP, "n2", service_time=0.001)
        for _ in range(20):
            cluster.submit(VIP)
            loop.run_for(0.01)
        loop.run_for(1.0)
        served = cluster.per_node_served()
        assert served == {"n1": 10, "n2": 10}

    def test_stats_shape(self, loop):
        cluster = DirectorCluster(loop)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.01)
        cluster.submit(VIP)
        loop.run_for(1.0)
        stats = cluster.stats()
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert stats["dropped"] == 0
        assert stats["mean_latency"] > 0

    def test_at_least_one_replica_required(self, loop):
        with pytest.raises(ValueError):
            DirectorCluster(loop, replicas=0)

    def test_watch_node_tracks_health(self, loop):
        from repro.cluster.cluster import Cluster

        node_cluster = Cluster.build(1, seed=1)
        node = node_cluster.node("n1")
        directors = DirectorCluster(node_cluster.loop)
        directors.add_service(VIP)
        directors.add_real_server(VIP, "n1", service_time=0.01)
        directors.watch_node(node)
        node.fail()
        request = directors.submit(VIP)
        assert request.dropped == "no-real-server"
