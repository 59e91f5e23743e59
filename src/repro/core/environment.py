"""DependableEnvironment: the public face of the reproduction.

Quickstart::

    from repro.core import DependableEnvironment
    from repro.sla import ServiceLevelAgreement

    env = DependableEnvironment.build(node_count=3, seed=7)
    env.admit_customer(ServiceLevelAgreement("acme", cpu_share=0.25))
    env.run_for(5.0)
    env.fail_node("n1")          # acme redeploys on a survivor
    env.run_for(5.0)
    print(env.compliance())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.autonomic.module import AutonomicModule
from repro.autonomic.policies import (
    consolidation_policy,
    expansion_policy,
    rebalance_policy,
    sla_enforcement_policy,
)
from repro.cluster.cluster import Cluster
from repro.cluster.future import Completion
from repro.cluster.node import Node, NodeState
from repro.ipvs.addressing import AddressRegistry, IpEndpoint
from repro.ipvs.server import DirectorCluster
from repro.migration.module import MigrationModule, MigrationRecord
from repro.migration.registry import CustomerDirectory
from repro.osgi.definition import BundleDefinition
from repro.sla.agreement import ServiceLevelAgreement
from repro.sla.tracker import SlaTracker
from repro.vosgi.instance import VirtualInstance


@dataclass
class Customer:
    """Environment-level record of one admitted customer."""

    sla: ServiceLevelAgreement
    packages: Tuple[str, ...] = ()
    services: Tuple[str, ...] = ()
    bundles: List[Tuple[BundleDefinition, bool]] = field(default_factory=list)
    #: endpoint -> (service_time, weight): the profile of the customer's
    #: real server wherever it runs (see ``_place_real_servers``).
    endpoints: Dict[IpEndpoint, Tuple[float, int]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.sla.customer


class DependableEnvironment:
    """The assembled dependable distributed OSGi platform."""

    def __init__(
        self,
        cluster: Cluster,
        sla_action: str = "migrate",
        enable_rebalance: bool = True,
        enable_consolidation: bool = False,
    ) -> None:
        self.cluster = cluster
        self.loop = cluster.loop
        self.customers_directory = CustomerDirectory(cluster.store, cluster.loop)
        self.sla_tracker = SlaTracker()
        self.addresses = AddressRegistry(cluster.loop)
        self.director = DirectorCluster(cluster.loop)
        self.migration: Dict[str, MigrationModule] = {}
        self.autonomic: Dict[str, AutonomicModule] = {}
        self._customers: Dict[str, Customer] = {}
        self._locations: Dict[str, str] = {}
        self._sla_action = sla_action
        self._enable_rebalance = enable_rebalance
        self._enable_consolidation = enable_consolidation
        for node in cluster.nodes():
            self._wire_node(node)
            self.director.watch_node(node)

    def _wire_node(self, node: Node) -> None:
        """Create and start this environment's modules on ``node``."""
        migration = MigrationModule(node)
        node.modules["migration"] = migration
        migration.start()
        migration.add_listener(self._on_migration_record)
        self.migration[node.node_id] = migration
        autonomic = AutonomicModule(node, migration)
        autonomic.add_node_policy(
            sla_enforcement_policy(action_kind=self._sla_action)
        )
        if self._enable_rebalance:
            autonomic.add_node_policy(rebalance_policy())
        if self._enable_consolidation:
            autonomic.add_cluster_policy(consolidation_policy())
            autonomic.add_cluster_policy(expansion_policy())
        # Out-of-band facilities for power management: a hibernated node
        # is unreachable over the GCS, so waking goes through the
        # environment (the wake-on-LAN analogue).
        autonomic.context.facilities["hibernated_nodes"] = self._hibernated_nodes
        autonomic.context.facilities["wake_agent"] = self.wake_node
        node.modules["autonomic"] = autonomic
        autonomic.start()
        self.autonomic[node.node_id] = autonomic
        if node.monitoring is not None:
            node.monitoring.add_listener(self.sla_tracker.observe_report)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        node_count: int = 3,
        seed: int = 0,
        settle: float = 2.0,
        **kwargs,
    ) -> "DependableEnvironment":
        """Build and boot a cluster, start all modules, let views settle.

        Keyword arguments are split between :class:`Cluster` (seed,
        latency, loss_rate, monitoring_mode...) and this class (sla_action,
        enable_* flags).
        """
        env_keys = {"sla_action", "enable_rebalance", "enable_consolidation"}
        env_kwargs = {k: v for k, v in kwargs.items() if k in env_keys}
        cluster_kwargs = {k: v for k, v in kwargs.items() if k not in env_keys}
        cluster = Cluster.build(node_count, seed=seed, **cluster_kwargs)
        env = cls(cluster, **env_kwargs)
        cluster.run_for(settle)
        return env

    # ------------------------------------------------------------------
    # Customers
    # ------------------------------------------------------------------
    def admit_customer(
        self,
        sla: ServiceLevelAgreement,
        packages: Tuple[str, ...] = (),
        services: Tuple[str, ...] = (),
        bundles: Optional[List[BundleDefinition]] = None,
        node_id: Optional[str] = None,
        state_bytes_hint: int = 0,
    ) -> Completion[VirtualInstance]:
        """Admit a customer: persist its descriptor, place and deploy it.

        ``bundles`` are installed and started inside the fresh instance
        (and republished to the SAN so redeployments find them).
        """
        name = sla.customer
        if name in self._customers:
            raise ValueError("customer %r already admitted" % name)
        bundles = bundles or []
        descriptor = sla.descriptor(
            packages=packages,
            services=services,
            bundle_count_hint=len(bundles),
            state_bytes_hint=state_bytes_hint,
        )
        self.customers_directory.put(descriptor)
        customer = Customer(
            sla=sla,
            packages=packages,
            services=services,
            bundles=[(definition, True) for definition in bundles],
        )
        self._customers[name] = customer
        target = node_id or self._pick_admission_node(sla)
        if target is None:
            raise RuntimeError("no alive node can host %r" % name)
        # Reserve the slot immediately so back-to-back admissions spread.
        self._locations[name] = target
        node = self.cluster.node(target)
        completion = node.deploy_instance(
            name,
            policy=descriptor.policy(),
            quota=descriptor.quota(),
            bundle_count_hint=len(bundles),
            state_bytes_hint=state_bytes_hint,
        )

        def deployed(c: Completion) -> None:
            if not c.ok:
                return
            instance: VirtualInstance = c.value
            for definition, autostart in customer.bundles:
                bundle = instance.install(definition)
                if autostart:
                    bundle.start()
            self._locations[name] = target
            self.sla_tracker.register(sla, at=self.loop.clock.now, up=True)
            self.migration[target]._broadcast_inventory()

        completion.on_done(deployed)
        return completion

    def _pick_admission_node(self, sla: ServiceLevelAgreement) -> Optional[str]:
        best: Optional[str] = None
        best_load = float("inf")
        for node in self.cluster.alive_nodes():
            load = sum(
                self._customers[c].sla.cpu_share
                for c, where in self._locations.items()
                if where == node.node_id and c in self._customers
            )
            if load + sla.cpu_share <= node.spec.cpu_capacity and load < best_load:
                best = node.node_id
                best_load = load
        return best

    def customer(self, name: str) -> Customer:
        return self._customers[name]

    def customer_names(self) -> List[str]:
        return sorted(self._customers)

    def locate(self, name: str) -> Optional[str]:
        """Node currently hosting the customer, by direct cluster scan."""
        for node in self.cluster.alive_nodes():
            if name in node.instance_names():
                return node.node_id
        return None

    def instance_of(self, name: str) -> Optional[VirtualInstance]:
        node_id = self.locate(name)
        if node_id is None:
            return None
        node = self.cluster.node(node_id)
        assert node.instance_manager is not None
        return node.instance_manager.get(name)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> None:
        self.cluster.run_for(duration)

    def fail_node(self, node_id: str) -> List[str]:
        """Crash a node; returns the customers that were hosted on it."""
        node = self.cluster.node(node_id)
        hosted = node.instance_names()
        for name in hosted:
            self.sla_tracker.mark_down(name, self.loop.clock.now)
        node.fail()
        return hosted

    def shutdown_node_gracefully(self, node_id: str) -> Completion[Node]:
        """Evacuate then power off — the §3.2 "normal shutdown" path."""
        return self.migration[node_id].shutdown_gracefully()

    def _hibernated_nodes(self) -> List[str]:
        return [
            n.node_id
            for n in self.cluster.nodes()
            if n.state == NodeState.HIBERNATED
        ]

    def wake_node(self, node_id: str) -> Completion[Node]:
        """Wake a hibernated node and rejoin it to the platform group."""
        node = self.cluster.node(node_id)
        completion: Completion[Node] = Completion("wake:%s" % node_id)

        def woken(c: Completion) -> None:
            if not c.ok:
                completion.fail(c.error or RuntimeError("wake failed"))
                return
            # The pre-hibernation modules left the GCS; wire fresh ones.
            old_autonomic = node.modules.get("autonomic")
            if old_autonomic is not None:
                old_autonomic.stop()
            old_migration = node.modules.get("migration")
            if old_migration is not None:
                old_migration.stop()
            self._wire_node(node)
            completion.complete(node, at=self.loop.clock.now)

        try:
            node.wake().on_done(woken)
        except RuntimeError as exc:
            completion.fail(exc, at=self.loop.clock.now)
        return completion

    def repair_node(self, node_id: str) -> Completion[Node]:
        """Boot a FAILED/OFF node back into the platform.

        The node returns as a fresh process: new platform bundles, a new
        Migration Module (re-joined to the GCS group) and a new Autonomic
        Module, wired into this environment's SLA accounting. Completes
        when the node is ON with its modules running.
        """
        node = self.cluster.node(node_id)
        completion: Completion[Node] = Completion("repair:%s" % node_id)

        def booted(c: Completion) -> None:
            if not c.ok:
                completion.fail(c.error or RuntimeError("boot failed"))
                return
            self._wire_node(node)
            completion.complete(node, at=self.loop.clock.now)

        try:
            node.boot().on_done(booted)
        except RuntimeError as exc:  # e.g. node is already ON
            completion.fail(exc, at=self.loop.clock.now)
        return completion

    def prepare_standby(self, name: str, node_id: str) -> Completion:
        """Keep a warm standby of customer ``name`` on ``node_id``.

        Failovers of that customer are then promoted activations instead
        of cold redeployments (the §3.2 "instantaneous failover" path).
        The standby manager is created on first use.
        """
        from repro.migration.standby import StandbyManager

        node = self.cluster.node(node_id)
        manager = node.modules.get("standby")
        if manager is None:
            manager = StandbyManager(node)
            node.modules["standby"] = manager
            manager.start()
        return manager.prepare(name)

    def migrate_customer(
        self, name: str, target_node: str
    ) -> Completion[MigrationRecord]:
        host = self.locate(name)
        if host is None:
            raise ValueError("customer %r is not running anywhere" % name)
        return self.migration[host].migrate(name, target_node)

    # ------------------------------------------------------------------
    # Service exposure through ipvs (Figure 6)
    # ------------------------------------------------------------------
    def expose_service(
        self,
        customer: str,
        endpoint: IpEndpoint,
        service_time: float = 0.01,
        weight: int = 1,
    ) -> None:
        """Publish a customer service behind the shared-IP director pair.

        The real server follows the customer: migration and failure
        redeployment re-point it automatically via migration records.
        """
        self.director.add_service(endpoint)
        self.join_service(customer, endpoint, service_time, weight)

    def join_service(
        self,
        customer: str,
        endpoint: IpEndpoint,
        service_time: float = 0.01,
        weight: int = 1,
    ) -> None:
        """Add another customer's replica behind an already-exposed endpoint.

        ``expose_service`` creates the virtual service and its first real
        server; fleets (several customers answering one VIP, the staged-
        rollout deployment shape) join the same endpoint with this method.
        Each replica keeps following *its own* customer across migrations.
        """
        host = self.locate(customer)
        if host is None:
            raise ValueError("customer %r is not running anywhere" % customer)
        self._customers[customer].endpoints[endpoint] = (service_time, weight)
        self._place_real_servers(customer, host)

    def set_service_time(self, name: str, service_time: float) -> None:
        """Re-profile every endpoint customer ``name`` exposes (a release
        that serves faster or slower). Its real servers follow at once
        where it runs, and wherever it is redeployed later."""
        customer = self._customers[name]
        for endpoint, (_old, weight) in customer.endpoints.items():
            customer.endpoints[endpoint] = (service_time, weight)
        host = self.locate(name)
        if host is not None:
            self._place_real_servers(name, host)

    def _place_real_servers(self, name: str, host: str, left: str = "") -> None:
        """Make the director's real servers agree with customer ``name``
        running on ``host`` (having left ``left``): the one writer of a
        customer's real servers and their profile.

        For each endpoint the customer exposes, the server on ``left``
        goes, so do servers on nodes that run no customer exposing the
        endpoint, and ``host`` gets a server at the customer's profile
        (an existing one is re-profiled)."""
        customer = self._customers[name]
        for endpoint, (service_time, weight) in customer.endpoints.items():
            if left:
                self.director.remove_real_server(endpoint, left)
            hosts = {host}
            for other in self._customers.values():
                if other is not customer and endpoint in other.endpoints:
                    hosts.add(self._locations.get(other.name, ""))
            placed = {
                server.node_id
                for server in self.director.directors[0].real_servers(endpoint)
            }
            for node_id in sorted(placed - hosts):
                self.director.remove_real_server(endpoint, node_id)
            if host not in placed:
                self.director.add_real_server(
                    endpoint,
                    host,
                    weight=weight,
                    service_time=service_time,
                    on_served=self._meter_request(name, service_time),
                )
                continue
            for director in self.director.directors:
                for server in director.real_servers(endpoint):
                    if server.node_id == host:
                        server.service_time = service_time

    def _meter_request(self, customer: str, service_time: float):
        """Charge each served request's CPU to the hosting instance, so
        network traffic shows up in the Monitoring Module and SLAs."""

        def on_served(request) -> None:
            instance = self.instance_of(customer)
            if instance is not None:
                instance.platform_ledger.account(cpu=service_time)

        return on_served

    # ------------------------------------------------------------------
    # SLA plumbing
    # ------------------------------------------------------------------
    def _on_migration_record(self, record: MigrationRecord) -> None:
        self.sla_tracker.mark_down(record.instance, record.down_at)
        if record.up_at is not None:
            self.sla_tracker.mark_up(record.instance, record.up_at)
            self._locations[record.instance] = record.to_node
        if record.up_at is not None and record.instance in self._customers:
            self._place_real_servers(
                record.instance, record.to_node, left=record.from_node
            )

    def compliance(self) -> List:
        """Compliance reports for every admitted customer, now."""
        now = self.loop.clock.now
        return [
            self.sla_tracker.report(name, now)
            for name in sorted(self._customers)
            if self.sla_tracker.known(name)
        ]

    def __repr__(self) -> str:
        return "DependableEnvironment(%s, customers=%s)" % (
            self.cluster,
            self.customer_names(),
        )
