"""The staged-rollout engine: canary, soak, waves, SLA-guarded rollback.

:class:`RolloutEngine` upgrades a fleet of customers (each serving the
same VIP through :class:`~repro.ipvs.server.DirectorCluster`) to a
:class:`~repro.rollout.release.BundleRelease`, one member at a time,
entirely on the sim event loop:

1. **Pin.** Every member's current bundles are snapshotted
   (:func:`~repro.migration.snapshot.pin_instance`) — the rollback
   contract.
2. **Per-member swap.** Drain the member's node (weight -> 0), wait for
   in-flight requests to finish, take the replica down, atomically
   ``Bundle.update`` to the release, republish the new definition at
   the bundle's SAN location (so failover restores the *new* version)
   and give the member the release's service time through
   ``DependableEnvironment.set_service_time``, then after
   ``upgrade_seconds`` bring the replica back and undrain.
3. **Soak + gates.** After each wave a
   :class:`~repro.telemetry.gates.GateWindow` opens over the live
   telemetry metrics; ``soak_seconds`` later the gates are judged on the
   window's deltas. Any trip rolls back every touched member, in
   reverse order, to its pinned snapshot. A member whose node dies
   under its rollback swap is swapped once more wherever failover
   redeployed it; if that fails too, its pinned definitions are
   republished to the SAN so the next failure-driven redeploy converges
   to the pinned version. A deadline during the rollback ends the
   rollout ``incomplete``: the fleet may still be mixed.

Every milestone is recorded through the loop's probe (``rollout``
history events) when a recorder is attached, which is what
the ``rollout-no-dropped-request`` and ``rollout-version-monotonic``
checkers audit offline. The engine schedules through the event loop
only and draws no randomness, so same-seed runs are byte-identical.

The ``skip_drain`` protocol mutation (test-only, see
:mod:`repro.conformance.mutants`) makes step 2 yank the replica without
draining — the seeded bug the no-dropped-request checker must catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.node import NodeState
from repro.migration.snapshot import (
    PinnedSnapshot,
    pin_instance,
    republish_pinned,
)
from repro.rollout.planner import WavePlan, plan_waves
from repro.rollout.release import BundleRelease
from repro.telemetry.gates import GateSpec, GateWindow, default_rollout_gates

__all__ = ["RolloutConfig", "RolloutReport", "RolloutEngine"]

#: Terminal outcomes.
COMPLETED = "completed"
ROLLED_BACK = "rolled-back"
INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class RolloutConfig:
    """Tunables of one staged rollout."""

    canaries: int = 1
    wave_size: int = 2
    #: Gate observation window after each wave (sim seconds).
    soak_seconds: float = 3.0
    #: Poll interval while waiting for a node's in-flight requests.
    drain_poll: float = 0.05
    #: Give up draining a node after this long (rollback follows).
    drain_timeout: float = 10.0
    #: How long the replica is down for the bundle swap.
    upgrade_seconds: float = 0.2
    #: How long to wait for a member to become locatable again (e.g. a
    #: failover is still redeploying it) before acting without it.
    relocate_timeout: float = 8.0
    #: Hard wall for the whole rollout; a forced finalisation follows.
    deadline_seconds: float = 60.0
    gates: Tuple[GateSpec, ...] = field(default_factory=default_rollout_gates)


@dataclass
class RolloutReport:
    """What one rollout did, as plain data."""

    outcome: str
    reason: str
    symbolic_name: str
    pinned_version: str
    target_version: str
    waves: List[List[str]]
    touched: List[str]
    final_versions: Dict[str, str]
    gate_results: List[Dict[str, Any]]
    started_at: float
    finished_at: float

    @property
    def mixed_version(self) -> bool:
        return len(set(self.final_versions.values())) > 1

    def summary(self) -> Dict[str, Any]:
        return {
            "outcome": self.outcome,
            "reason": self.reason,
            "release": "%s@%s" % (self.symbolic_name, self.target_version),
            "pinned_version": self.pinned_version,
            "target_version": self.target_version,
            "waves": [list(w) for w in self.waves],
            "touched": list(self.touched),
            "final_versions": {
                k: self.final_versions[k] for k in sorted(self.final_versions)
            },
            "mixed_version": self.mixed_version,
            "gate_results": list(self.gate_results),
            "started_at": round(self.started_at, 9),
            "finished_at": round(self.finished_at, 9),
        }


class RolloutEngine:
    """Drives one staged rollout of ``release`` across ``fleet``."""

    def __init__(
        self,
        env: Any,
        fleet: List[str],
        release: BundleRelease,
        config: Optional[RolloutConfig] = None,
    ) -> None:
        self.env = env
        self.release = release
        self.config = config if config is not None else RolloutConfig()
        self.plan: WavePlan = plan_waves(
            fleet,
            canaries=self.config.canaries,
            wave_size=self.config.wave_size,
        )
        self.report: Optional[RolloutReport] = None
        self.done = False
        self.touched: List[str] = []
        self.pinned_version = ""
        self._snapshots: Dict[str, PinnedSnapshot] = {}
        #: Each member's pinned per-request service time.
        self._pinned_service_times: Dict[str, float] = {}
        self._gate_results: List[Dict[str, Any]] = []
        self._wave_index = 0
        self._queue: List[str] = []
        self._rolling_back = False
        self._rollback_reason = ""
        self._started_at = 0.0
        self._on_done: List[Callable[["RolloutEngine"], None]] = []

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def _loop(self) -> Any:
        return self.env.loop

    def _tap(self, node: str, phase: str, **data: Any) -> None:
        probe = self._loop.probe
        if probe is not None:
            probe.rollout_event(node=node, phase=phase, **data)

    def _after(self, delay: float, action: Callable[[], None], label: str) -> None:
        def guarded() -> None:
            if not self.done:
                action()

        self._loop.call_after(delay, guarded, label="rollout:%s" % label)

    def on_done(self, callback: Callable[["RolloutEngine"], None]) -> None:
        self._on_done.append(callback)
        if self.done:
            callback(self)

    # ------------------------------------------------------------------
    # Version bookkeeping
    # ------------------------------------------------------------------
    def _live_bundle(self, name: str) -> Optional[Any]:
        instance = self.env.instance_of(name)
        if instance is None:
            return None
        return instance.get_bundle_by_name(self.release.symbolic_name)

    def _current_version(self, name: str) -> str:
        """The member's steady-state version: live bundle, else SAN."""
        bundle = self._live_bundle(name)
        if bundle is not None:
            return str(bundle.version)
        snapshot = self._snapshots.get(name)
        if snapshot is not None:
            pinned = snapshot.bundle(self.release.symbolic_name)
            if pinned is not None:
                definition = self.env.cluster.store.get_definition(
                    pinned.location
                )
                if definition is not None:
                    return str(definition.version)
                return pinned.version
        return ""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Pin the fleet and begin the canary wave. Event-loop driven."""
        self._started_at = self._loop.clock.now
        for name in self.plan.members:
            node = self.env.locate(name)
            instance = self.env.instance_of(name)
            if node is None or instance is None:
                self._finalize(INCOMPLETE, "member %r not running" % name)
                return
            snapshot = pin_instance(instance, node)
            pinned = snapshot.bundle(self.release.symbolic_name)
            if pinned is None:
                self._finalize(
                    INCOMPLETE,
                    "member %r does not run %s"
                    % (name, self.release.symbolic_name),
                )
                return
            self._snapshots[name] = snapshot
            self._pinned_service_times[name] = next(
                (t for t, _weight in self.env.customer(name).endpoints.values()),
                self.release.service_time,
            )
            if not self.pinned_version:
                self.pinned_version = pinned.version
        if self.pinned_version == self.release.version:
            self._finalize(COMPLETED, "fleet already at target version")
            return
        self._tap(
            "",
            "start",
            from_version=self.pinned_version,
            to_version=self.release.version,
            fleet=list(self.plan.members),
            waves=[list(w) for w in self.plan.waves],
        )
        self._after(
            self.config.deadline_seconds, self._on_deadline, "deadline"
        )
        self._begin_wave()

    def _on_deadline(self) -> None:
        # A rollback cut short leaves some members at the release: that
        # fleet is not rolled back, whatever the engine intended.
        self._finalize(
            INCOMPLETE,
            "deadline during rollback" if self._rolling_back else "deadline exceeded",
        )

    # ------------------------------------------------------------------
    # Forward waves
    # ------------------------------------------------------------------
    def _begin_wave(self) -> None:
        if self._wave_index >= len(self.plan.waves):
            self._verify_and_complete()
            return
        self._queue = list(self.plan.waves[self._wave_index])
        self._next_member()

    def _next_member(self) -> None:
        if not self._queue:
            self._soak()
            return
        name = self._queue.pop(0)
        self._swap_member(
            name,
            to_release=True,
            on_ok=self._next_member,
            on_fail=self._trip,
        )

    def _soak(self) -> None:
        probe = self._loop.probe
        telemetry = None if probe is None else probe.telemetry
        wave = self._wave_index
        self._tap("", "soak-begin", wave=wave, soak=self.config.soak_seconds)
        if telemetry is None:
            # No metrics to judge: gates pass vacuously (CLI and campaigns
            # always attach telemetry; bare tests may not).
            self._tap("", "gate-pass", wave=wave, skipped=True)
            self._wave_index += 1
            self._begin_wave()
            return
        window = GateWindow(telemetry.metrics, self.config.gates)

        def judge() -> None:
            results = window.evaluate()
            self._gate_results.append(
                {
                    "wave": wave,
                    "at": round(self._loop.clock.now, 9),
                    "gates": [r.to_dict() for r in results],
                }
            )
            trips = [r for r in results if not r.ok]
            if trips:
                worst = trips[0]
                self._tap(
                    "",
                    "gate-trip",
                    wave=wave,
                    gate=worst.name,
                    observed=round(worst.observed, 9),
                    threshold=worst.threshold,
                )
                self._trip("gate %s tripped (wave %d)" % (worst.name, wave))
                return
            self._tap("", "gate-pass", wave=wave)
            self._wave_index += 1
            self._begin_wave()

        self._after(self.config.soak_seconds, judge, "soak")

    def _verify_and_complete(self) -> None:
        astray = [
            name
            for name in self.plan.members
            if self._current_version(name) != self.release.version
        ]
        if astray:
            self._trip("verification failed for %s" % ", ".join(astray))
            return
        self._finalize(COMPLETED, "all waves healthy")

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------
    def _trip(self, reason: str) -> None:
        if self._rolling_back:
            return
        self._rolling_back = True
        self._rollback_reason = reason
        self._tap("", "rollback-begin", reason=reason)
        self._queue = list(reversed(self.touched))
        self._next_rollback()

    def _next_rollback(self) -> None:
        if not self._queue:
            self._finalize(ROLLED_BACK, self._rollback_reason)
            return
        self._roll_back_member(self._queue.pop(0), retry=True)

    def _roll_back_member(self, name: str, retry: bool) -> None:
        if self._current_version(name) == self.pinned_version:
            # Never actually swapped (or already restored); make sure the
            # SAN agrees and move on.
            republish_pinned(self._snapshots[name], self.env.cluster.store)
            self._tap("", "rollback-skip", instance=name)
            self._next_rollback()
            return

        def failed(_reason: str) -> None:
            if retry:
                # The member's node died under the swap: failover brings
                # it back elsewhere, at whatever version the SAN held, so
                # swap it again wherever it is found.
                self._roll_back_member(name, retry=False)
            else:
                self._abandon_rollback_member(name)

        self._swap_member(
            name, to_release=False, on_ok=self._next_rollback, on_fail=failed
        )

    def _abandon_rollback_member(self, name: str) -> None:
        """Live rollback unreachable: converge through the SAN instead."""
        republish_pinned(self._snapshots[name], self.env.cluster.store)
        self.env.set_service_time(name, self._pinned_service_times[name])
        self._tap("", "rollback-republish", instance=name)
        self._next_rollback()

    # ------------------------------------------------------------------
    # The per-member swap (forward and rollback share it)
    # ------------------------------------------------------------------
    def _swap_member(
        self,
        name: str,
        to_release: bool,
        on_ok: Callable[[], None],
        on_fail: Callable[[str], None],
    ) -> None:
        snapshot = self._snapshots[name]
        pinned = snapshot.bundle(self.release.symbolic_name)
        assert pinned is not None
        if to_release:
            from_version = self.pinned_version
            to_version = self.release.version
            new_definition = self.release.definition()
            service_time = self.release.service_time
        else:
            from_version = self.release.version
            to_version = self.pinned_version
            new_definition = pinned.definition
            service_time = self._pinned_service_times[name]
        deadline = self._loop.clock.now + self.config.relocate_timeout

        def locate() -> None:
            node = self.env.locate(name)
            if node is None or self.env.cluster.node(node).state != NodeState.ON:
                if self._loop.clock.now >= deadline:
                    on_fail("cannot locate %r" % name)
                    return
                self._after(self.config.drain_poll, locate, "locate")
                return
            begin(node)

        def begin(node: str) -> None:
            if to_release:
                self.touched.append(name)
            probe = self._loop.probe
            if probe is not None and probe.mutated("skip_drain", name):
                # MUTANT: yank the replica with traffic still in flight.
                take_down(node)
                return
            self._tap(node, "drain-begin", instance=name)
            self.env.director.drain_node(node)
            drain_deadline = self._loop.clock.now + self.config.drain_timeout

            def poll() -> None:
                if self.env.cluster.node(node).state != NodeState.ON:
                    # A dead node has no connections left, but it was not
                    # drained: no upgrade window opens on it.
                    self.env.director.undrain_node(node)
                    on_fail("%s lost while draining %r" % (node, name))
                    return
                if self.env.director.node_active_connections(node) == 0:
                    self._tap(node, "drain-complete", instance=name)
                    take_down(node)
                    return
                if self._loop.clock.now >= drain_deadline:
                    self.env.director.undrain_node(node)
                    on_fail("drain timeout on %s" % node)
                    return
                self._after(self.config.drain_poll, poll, "drain-poll")

            poll()

        def take_down(node: str) -> None:
            self._tap(
                node,
                "upgrade-begin",
                instance=name,
                from_version=from_version,
                to_version=to_version,
            )
            self.env.director.mark_node(node, False)
            instance = self.env.instance_of(name)
            bundle = (
                None
                if instance is None
                else instance.get_bundle_by_name(self.release.symbolic_name)
            )
            if bundle is None or self.env.locate(name) != node:
                on_fail("%r vanished mid-swap" % name)
                return
            # Atomic in sim time: live content and SAN archive move
            # together, so failover mid-window restores *this* version.
            bundle.update(new_definition)
            repository = (
                instance.repository
                if instance.repository is not None
                else self.env.cluster.store
            )
            repository.put_definition(bundle.location, new_definition)
            self.env.set_service_time(name, service_time)
            self._tap(
                node,
                "upgrade-complete",
                instance=name,
                from_version=from_version,
                to_version=to_version,
            )
            self._after(
                self.config.upgrade_seconds,
                lambda: restore(node),
                "upgrade",
            )

        def restore(node: str) -> None:
            node_obj = self.env.cluster.node(node)
            if node_obj.state != NodeState.ON or self.env.locate(name) != node:
                # The node died (or the member moved) while the replica
                # was down; the failover path owns it now.
                on_fail("%s lost while %r was down" % (node, name))
                return
            self.env.director.mark_node(node, True)
            self.env.director.undrain_node(node)
            self._tap(node, "undrain", instance=name)
            on_ok()

        locate()

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def _finalize(self, outcome: str, reason: str) -> None:
        if self.done:
            return
        versions = {
            name: (self._current_version(name) or self.pinned_version)
            for name in self.plan.members
        }
        self._tap(
            "",
            "final",
            outcome=outcome,
            reason=reason,
            versions={k: versions[k] for k in sorted(versions)},
        )
        self.report = RolloutReport(
            outcome=outcome,
            reason=reason,
            symbolic_name=self.release.symbolic_name,
            pinned_version=self.pinned_version,
            target_version=self.release.version,
            waves=[list(w) for w in self.plan.waves],
            touched=list(self.touched),
            final_versions=versions,
            gate_results=self._gate_results,
            started_at=self._started_at,
            finished_at=self._loop.clock.now,
        )
        self.done = True
        for callback in self._on_done:
            callback(self)

    def __repr__(self) -> str:
        state = "done" if self.done else "wave %d" % self._wave_index
        return "RolloutEngine(%s -> %s, %s)" % (
            self.pinned_version or "?",
            self.release.version,
            state,
        )
