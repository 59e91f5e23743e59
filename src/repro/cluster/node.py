"""One physical machine of the cluster.

A node mounts the SAN, boots a host OSGi framework and installs the
platform bundles (Instance Manager, Monitoring Module). It exposes the
fault-model transitions the experiments need:

* :meth:`Node.fail` — fail-stop crash: endpoints detached, timers dead,
  **no** graceful persistence beyond what the framework already wrote
  incrementally (the realistic crash picture);
* :meth:`Node.shutdown` — graceful: the caller (Migration Module) is
  expected to evacuate instances first;
* :meth:`Node.hibernate` / :meth:`Node.wake` — the power-saving states the
  paper's consolidation argument (§4) relies on, with a power-draw model
  for the CLAIM-CONS benchmark.

All transitions take virtual time per the cluster's
:class:`~repro.cluster.spec.CostModel`.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.future import Completion
from repro.cluster.spec import DEFAULT_COSTS, CostModel, NodeSpec
from repro.gcs.directory import GroupDirectory
from repro.gcs.jgcs import Protocol
from repro.isolation.policy import SecurityManager
from repro.isolation.quotas import ResourceQuota
from repro.monitoring.monitor import (
    MONITORING_CLASS,
    MonitoringModule,
    monitoring_bundle,
)
from repro.monitoring.sampler import ThreadSampler
from repro.osgi.errors import BundleException
from repro.osgi.framework import Framework
from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams
from repro.storage.san import Mount, SharedStore
from repro.vosgi.delegation import ExportPolicy
from repro.vosgi.instance import VirtualInstance
from repro.vosgi.manager import (
    INSTANCE_MANAGER_CLASS,
    InstanceManager,
    instance_manager_bundle,
)


class NodeState(enum.Enum):
    OFF = "OFF"
    BOOTING = "BOOTING"
    ON = "ON"
    HIBERNATING = "HIBERNATING"
    HIBERNATED = "HIBERNATED"
    WAKING = "WAKING"
    FAILED = "FAILED"


class Node:
    """A cluster node hosting one platform (host framework + modules)."""

    def __init__(
        self,
        node_id: str,
        loop: EventLoop,
        network: Network,
        store: SharedStore,
        directory: GroupDirectory,
        spec: Optional[NodeSpec] = None,
        costs: Optional[CostModel] = None,
        rng: Optional[RngStreams] = None,
        monitoring_mode: str = "jsr284",
        monitoring_interval: float = 1.0,
    ) -> None:
        self.node_id = node_id
        self.loop = loop
        self.network = network
        self.store = store
        self.directory = directory
        self.spec = spec if spec is not None else NodeSpec()
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self._rng = rng if rng is not None else RngStreams(0)
        self.monitoring_mode = monitoring_mode
        self.monitoring_interval = monitoring_interval

        self.state = NodeState.OFF
        self.mount: Optional[Mount] = None
        self.framework: Optional[Framework] = None
        self.instance_manager: Optional[InstanceManager] = None
        self.monitoring: Optional[MonitoringModule] = None
        self.security = SecurityManager()
        self.protocol = Protocol(node_id, loop, network, directory)
        #: Arbitrary per-node attachments (migration module, autonomic...).
        self.modules: Dict[str, Any] = {}
        self._state_listeners: List[Callable[["Node", NodeState], None]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.state == NodeState.ON

    def instances(self) -> List[VirtualInstance]:
        if self.instance_manager is None:
            return []
        return self.instance_manager.instances()

    def instance_names(self) -> List[str]:
        if self.instance_manager is None:
            return []
        return self.instance_manager.names()

    def power_watts(self) -> float:
        """Instantaneous power draw under the node's power model."""
        if self.state in (NodeState.OFF, NodeState.FAILED):
            return 0.0
        if self.state in (NodeState.HIBERNATED, NodeState.HIBERNATING):
            return self.spec.power_hibernate_watts
        cpu_share = 0.0
        if self.monitoring is not None:
            cpu_share = min(
                1.0, self.monitoring.node_summary()["cpu_used_share"]
            )
        return (
            self.spec.power_idle_watts + cpu_share * self.spec.power_dynamic_watts
        )

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def boot(self) -> "Completion[Node]":
        """Power on: after the boot delay the platform is running.

        Booting from FAILED models repair + restart: the node comes back
        as a fresh process (empty platform, new GCS identity) and must be
        re-admitted to the group by whoever manages it.
        """
        if self.state not in (NodeState.OFF, NodeState.FAILED):
            raise RuntimeError(
                "cannot boot node %s from state %s" % (self.node_id, self.state.value)
            )
        completion: Completion[Node] = Completion("boot:%s" % self.node_id)
        self._set_state(NodeState.BOOTING)

        def finish() -> None:
            if self.state != NodeState.BOOTING:
                return  # failed mid-boot
            self._bring_up_platform()
            self._set_state(NodeState.ON)
            completion.complete(self, at=self.loop.clock.now)

        self.loop.call_after(
            self.costs.node_boot_seconds, finish, label="boot:%s" % self.node_id
        )
        return completion

    def _bring_up_platform(self) -> None:
        self.mount = self.store.mount(self.node_id)
        self.framework = Framework(
            "host:%s" % self.node_id,
            storage=self.mount.framework_storage(),
            properties={"node.id": self.node_id},
            definition_resolver=self.store.get_definition,
        )
        self.framework.start()
        im_bundle = self.framework.install(
            instance_manager_bundle(
                storage_factory=self._instance_storage,
                security=self.security,
                repository=self.store,
            ),
            location="platform://instance-manager",
        )
        im_bundle.start()
        im_ref = self.framework.system_context.get_service_reference(
            INSTANCE_MANAGER_CLASS
        )
        self.instance_manager = self.framework.system_context.get_service(im_ref)
        sampler = None
        if self.monitoring_mode == "sampling":
            sampler = ThreadSampler(self._rng.stream("sampler:%s" % self.node_id))
        mon_bundle = self.framework.install(
            monitoring_bundle(
                self.loop,
                cpu_capacity=self.spec.cpu_capacity,
                memory_capacity=self.spec.memory_bytes,
                disk_capacity=self.spec.disk_bytes,
                interval=self.monitoring_interval,
                mode=self.monitoring_mode,
                sampler=sampler,
            ),
            location="platform://monitoring",
        )
        mon_bundle.start()
        mon_ref = self.framework.system_context.get_service_reference(
            MONITORING_CLASS
        )
        self.monitoring = self.framework.system_context.get_service(mon_ref)

    def _instance_storage(self, instance_id: str):
        assert self.mount is not None
        return self.mount.framework_storage()

    def fail(self) -> None:
        """Fail-stop crash. Nothing graceful happens."""
        if self.state in (NodeState.OFF, NodeState.FAILED):
            return
        self._set_state(NodeState.FAILED)
        self.protocol.crash()
        for module in self.modules.values():
            crash = getattr(module, "crash", None)
            if callable(crash):
                crash()
        if self.monitoring is not None:
            self.monitoring.stop()
        if self.mount is not None:
            self.mount.unmount()
        # The frameworks simply cease to exist; their last incremental
        # persist on the SAN is all that survives. The GCS protocol dies
        # with the process — a later reboot gets a fresh one.
        self.framework = None
        self.instance_manager = None
        self.monitoring = None
        self.modules = {}
        self.protocol = Protocol(
            self.node_id, self.loop, self.network, self.directory
        )

    def shutdown(self) -> "Completion[Node]":
        """Graceful power-off of an (already evacuated) node."""
        if self.state != NodeState.ON:
            raise RuntimeError(
                "cannot shut down node %s from state %s"
                % (self.node_id, self.state.value)
            )
        completion: Completion[Node] = Completion("shutdown:%s" % self.node_id)
        for module in self.modules.values():
            stop = getattr(module, "stop", None)
            if callable(stop):
                stop()
        if self.monitoring is not None:
            self.monitoring.stop()
        if self.instance_manager is not None:
            for name in self.instance_manager.names():
                self.instance_manager.stop_instance(name)
        if self.framework is not None:
            self.framework.stop()
        if self.mount is not None:
            self.mount.unmount()
        self.framework = None
        self.instance_manager = None
        self.monitoring = None
        self._set_state(NodeState.OFF)
        completion.complete(self, at=self.loop.clock.now)
        return completion

    def hibernate(self) -> "Completion[Node]":
        """Suspend to RAM: platform paused, instances stay resident."""
        if self.state != NodeState.ON:
            raise RuntimeError(
                "cannot hibernate node %s from state %s"
                % (self.node_id, self.state.value)
            )
        completion: Completion[Node] = Completion("hibernate:%s" % self.node_id)
        self._set_state(NodeState.HIBERNATING)
        if self.monitoring is not None:
            self.monitoring.stop()

        def finish() -> None:
            if self.state != NodeState.HIBERNATING:
                return
            self._set_state(NodeState.HIBERNATED)
            completion.complete(self, at=self.loop.clock.now)

        self.loop.call_after(
            self.costs.node_hibernate_seconds, finish, label="hib:%s" % self.node_id
        )
        return completion

    def wake(self) -> "Completion[Node]":
        if self.state != NodeState.HIBERNATED:
            raise RuntimeError(
                "cannot wake node %s from state %s" % (self.node_id, self.state.value)
            )
        completion: Completion[Node] = Completion("wake:%s" % self.node_id)
        self._set_state(NodeState.WAKING)

        def finish() -> None:
            if self.state != NodeState.WAKING:
                return
            if self.monitoring is not None:
                self.monitoring.start()
            self._set_state(NodeState.ON)
            completion.complete(self, at=self.loop.clock.now)

        self.loop.call_after(
            self.costs.node_wake_seconds, finish, label="wake:%s" % self.node_id
        )
        return completion

    # ------------------------------------------------------------------
    # Instance deployment (virtual-time aware)
    # ------------------------------------------------------------------
    def deploy_instance(
        self,
        name: str,
        policy: Optional[ExportPolicy] = None,
        quota: Optional[ResourceQuota] = None,
        bundle_count_hint: int = 0,
        state_bytes_hint: int = 0,
        warm: bool = False,
    ) -> "Completion[VirtualInstance]":
        """Create/restore the virtual instance ``name`` on this node.

        Completes after the modelled start latency; restoration (SAN state
        for ``vosgi:name`` exists) and fresh creation share this path.
        When no policy/quota is given, the customer's descriptor on the
        SAN (if any) supplies them, so every node deploys a customer with
        the same contract.
        """
        if self.state != NodeState.ON or self.instance_manager is None:
            raise RuntimeError("node %s is not running" % self.node_id)
        if policy is None and quota is None:
            # Local import: the registry lives in the migration layer,
            # which sits above the cluster in the import graph.
            from repro.migration.registry import CustomerDirectory

            descriptor = CustomerDirectory(self.store, self.loop).get(name)
            if descriptor is not None:
                policy = descriptor.policy()
                quota = descriptor.quota()
                if bundle_count_hint == 0:
                    bundle_count_hint = descriptor.bundle_count_hint
                if state_bytes_hint == 0:
                    state_bytes_hint = descriptor.state_bytes_hint
        completion: Completion[VirtualInstance] = Completion(
            "deploy:%s@%s" % (name, self.node_id)
        )
        if warm:
            # A prepared warm standby: bundles already installed and
            # resolved locally; only activation remains.
            delay = self.costs.standby_activation_seconds(bundle_count_hint)
        else:
            delay = self.costs.instance_start_seconds(
                bundle_count=bundle_count_hint, state_bytes=state_bytes_hint
            )
        probe = self.loop.probe
        deploy_span = None if probe is None else probe.start_span(
            "standby.activate" if warm else "node.deploy",
            self.node_id,
            {"instance": name},
        )

        def finish() -> None:
            if self.state != NodeState.ON or self.instance_manager is None:
                if deploy_span is not None:
                    deploy_span.attributes["ok"] = False
                    deploy_span.finish(self.loop.clock.now)
                completion.fail(
                    RuntimeError("node %s died during deploy" % self.node_id),
                    at=self.loop.clock.now,
                )
                return
            try:
                instance = self.instance_manager.create_instance(
                    name, policy=policy, quota=quota
                )
            except BundleException as exc:
                # The instance manager's refusal (the name is taken, say)
                # fails the deploy; anything else is a bug and propagates.
                if deploy_span is not None:
                    deploy_span.attributes["ok"] = False
                    deploy_span.finish(self.loop.clock.now)
                completion.fail(exc, at=self.loop.clock.now)
                return
            if deploy_span is not None:
                deploy_span.attributes["ok"] = True
                deploy_span.finish(self.loop.clock.now)
            completion.complete(instance, at=self.loop.clock.now)

        self.loop.call_after(delay, finish, label="deploy:%s" % name)
        return completion

    def undeploy_instance(self, name: str) -> "Completion[str]":
        """Stop and remove the instance after the modelled stop latency."""
        if self.state != NodeState.ON or self.instance_manager is None:
            raise RuntimeError("node %s is not running" % self.node_id)
        instance = self.instance_manager.require(name)
        delay = self.costs.instance_stop_seconds(
            bundle_count=len(instance.bundles())
        )
        completion: Completion[str] = Completion(
            "undeploy:%s@%s" % (name, self.node_id)
        )

        def finish() -> None:
            if self.instance_manager is not None:
                self.instance_manager.destroy_instance(name)
                if self.monitoring is not None:
                    self.monitoring.forget(name)
            completion.complete(name, at=self.loop.clock.now)

        self.loop.call_after(delay, finish, label="undeploy:%s" % name)
        return completion

    # ------------------------------------------------------------------
    def add_state_listener(
        self, listener: Callable[["Node", NodeState], None]
    ) -> None:
        self._state_listeners.append(listener)

    def _set_state(self, new_state: NodeState) -> None:
        """Enter ``new_state`` and tell the listeners; a listener that
        raises propagates out of the transition."""
        self.state = new_state
        for listener in list(self._state_listeners):
            listener(self, new_state)

    def __repr__(self) -> str:
        return "Node(%s, %s, %d instances)" % (
            self.node_id,
            self.state.value,
            len(self.instance_names()),
        )
