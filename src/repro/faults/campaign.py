"""Chaos campaigns: N seeded episodes, invariants checked throughout.

A campaign derives one sub-seed per episode from its root seed, builds a
fresh scenario (a :class:`~repro.core.environment.DependableEnvironment`)
for it, draws a random :class:`~repro.faults.schedule.FaultSchedule` from
the cluster's dedicated ``"faults"`` RNG stream, and runs the episode with
``always`` invariants checked at a fixed sim-time interval. After the
episode the injector quiesces, failed nodes are repaired, the
cluster settles, and the *full* invariant catalog — including the
``quiescent`` convergence checks — gets a final evaluation.

Running the same campaign twice produces byte-identical fault traces and
invariant results; on a violation, :meth:`CampaignResult.repro_snippet`
emits a paste-able reproduction (seed + schedule) for a regression test.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analysis.bundles import verify_bundles
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.conformance.axioms import ConformanceViolation
from repro.conformance.history import History
from repro.conformance.recorder import HistoryRecorder
from repro.conformance.report import check_history
from repro.core import DependableEnvironment
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    InvariantChecker,
    InvariantRegistry,
    Violation,
    default_invariants,
)
from repro.faults.schedule import FaultSchedule
from repro.faults.trace import FaultTrace
from repro.ipvs.addressing import IpEndpoint
from repro.sla import ServiceLevelAgreement
from repro.telemetry.runtime import Telemetry, attach


def derive_episode_seed(root_seed: int, index: int) -> int:
    """Stable per-episode seed: hashing keeps episodes independent and
    adding episodes never changes the seeds of earlier ones."""
    material = ("%d/episode/%d" % (root_seed, index)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def default_scenario(seed: int) -> Any:
    """A 3-node platform with two customers and an exposed service.

    The standard chaos target: enough moving parts (GCS group, migration,
    SLA accounting, ipvs routing with background traffic) to exercise the
    whole invariant catalog, small enough to stay fast.
    """
    env = DependableEnvironment.build(node_count=3, seed=seed)
    for name, share in (("acme", 0.25), ("globex", 0.25)):
        completion = env.admit_customer(
            ServiceLevelAgreement(name, cpu_share=share, availability_target=0.9)
        )
        env.cluster.run_until_settled([completion])
    env.run_for(1.0)
    endpoint = IpEndpoint("10.0.0.80", 80)
    env.expose_service("acme", endpoint, service_time=0.005)

    def pump() -> None:
        env.director.submit(endpoint, client="chaos-client")
        env.loop.call_after(0.5, pump, label="chaos-traffic")

    env.loop.call_after(0.5, pump, label="chaos-traffic")
    return env


def verify_deployment(env: Any) -> List[Diagnostic]:
    """Run the static bundle verifier over every framework in ``env``.

    Covers each node's host platform framework and every virtual
    instance's child framework; diagnostics get the owning framework's
    ``instance_id`` prefixed to their source so a campaign report pins
    the offending deployment. Pure inspection — no events are scheduled
    and no RNG is drawn, so trace digests are unaffected.
    """
    out: List[Diagnostic] = []
    for node in env.cluster.nodes():
        frameworks = []
        if getattr(node, "framework", None) is not None:
            frameworks.append(node.framework)
        for instance in node.instances():
            if getattr(instance, "framework", None) is not None:
                frameworks.append(instance.framework)
        for framework in frameworks:
            definitions = [b.definition for b in framework.bundles()]
            for diagnostic in verify_bundles(
                definitions, context=[framework.system_bundle.definition]
            ):
                out.append(
                    Diagnostic(
                        code=diagnostic.code,
                        severity=diagnostic.severity,
                        source="%s:%s" % (framework.instance_id, diagnostic.source),
                        line=diagnostic.line,
                        message=diagnostic.message,
                        hint=diagnostic.hint,
                    )
                )
    return out


def replay_schedule(
    env: Any,
    schedule: FaultSchedule,
    duration: float,
    settle: float = 10.0,
    check_interval: float = 0.5,
    registry: Optional[InvariantRegistry] = None,
) -> Tuple[FaultTrace, List[Violation]]:
    """Run ``schedule`` against ``env`` exactly as a campaign episode does.

    The building block of reproduction snippets: given the same scenario
    seed and schedule it reproduces the episode's trace and violations.
    """
    checker = InvariantChecker(env, registry or default_invariants())
    injector = FaultInjector(env.cluster, schedule, env=env)
    injector.arm()
    checker.arm(check_interval)
    env.run_for(duration)
    injector.quiesce()
    for node in env.cluster.failed_nodes():
        env.repair_node(node.node_id)
    env.run_for(settle)
    checker.check_now(mode=None)
    checker.stop()
    return injector.trace, checker.violations


def replay_and_check(
    env: Any,
    schedule: FaultSchedule,
    duration: float,
    settle: float = 10.0,
    check_interval: float = 0.5,
    registry: Optional[InvariantRegistry] = None,
) -> Tuple[FaultTrace, List[Violation], History, List[ConformanceViolation]]:
    """:func:`replay_schedule` with a history recorder attached, then checked.

    The building block of conformance reproduction snippets: same trace
    and invariant results (the recorder schedules nothing and draws no
    randomness), plus the recorded history and its conformance verdict.
    """
    recorder = HistoryRecorder(env.loop.clock)
    with attach(env.loop, recorder=recorder):
        trace, violations = replay_schedule(
            env,
            schedule,
            duration=duration,
            settle=settle,
            check_interval=check_interval,
            registry=registry,
        )
    return trace, violations, recorder.history, check_history(recorder.history)


class EpisodeVerdict(Enum):
    """How one episode ended — invariant and conformance failures are
    different diagnoses: an invariant violation means the cluster reached
    a bad *state* (lost instance, split brain that never healed); a
    conformance violation means a *protocol guarantee* was broken en
    route (mis-ordered delivery, non-linearizable registry read) even if
    the end state looks healthy."""

    OK = "ok"
    INVARIANT_VIOLATION = "invariant-violation"
    CONFORMANCE_VIOLATION = "conformance-violation"
    INVARIANT_AND_CONFORMANCE = "invariant+conformance-violation"


@dataclass
class Episode:
    """Everything one chaos episode produced."""

    index: int
    seed: int
    schedule: FaultSchedule
    trace: FaultTrace
    violations: List[Violation]
    checks_run: int
    invariant_names: List[str] = field(default_factory=list)
    #: Static bundle-verifier findings on the episode's deployed bundle
    #: sets, captured at scenario setup (see :func:`verify_deployment`).
    deployment: List[Diagnostic] = field(default_factory=list)
    #: Observed instance downtimes (seconds) for failure-driven
    #: redeployments during the episode (telemetry campaigns only).
    failover_seconds: List[float] = field(default_factory=list)
    #: Exported span dicts for the whole episode (telemetry campaigns
    #: only); one connected trace rooted at the episode span.
    spans: List[Any] = field(default_factory=list)
    #: Conformance checker findings (conformance campaigns only) — see
    #: repro.conformance; each is a ConformanceViolation.
    conformance: List[Any] = field(default_factory=list)
    #: Recorded protocol history (conformance campaigns only).
    history: Optional[Any] = None
    #: Digest of the recorded history ("" when recording was off).
    history_digest: str = ""
    #: Staged-rollout summary (scenarios that attach an
    #: ``env.rollout_engine`` only) — the engine's report, or
    #: ``{"outcome": "incomplete"}`` when the episode ended before the
    #: engine finalised.
    rollout: Optional[Any] = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.conformance

    @property
    def verdict(self) -> EpisodeVerdict:
        if self.violations and self.conformance:
            return EpisodeVerdict.INVARIANT_AND_CONFORMANCE
        if self.violations:
            return EpisodeVerdict.INVARIANT_VIOLATION
        if self.conformance:
            return EpisodeVerdict.CONFORMANCE_VIOLATION
        return EpisodeVerdict.OK

    @property
    def deployment_ok(self) -> bool:
        """No error-severity verifier finding on the deployed bundles."""
        return not any(d.severity is Severity.ERROR for d in self.deployment)

    def digest(self) -> str:
        return self.trace.digest()

    def __repr__(self) -> str:
        return "Episode(#%d seed=%d, %d faults, %d checks, %s)" % (
            self.index,
            self.seed,
            len(self.schedule),
            self.checks_run,
            "ok" if self.ok else "%d VIOLATIONS" % len(self.violations),
        )


@dataclass
class CampaignResult:
    """Aggregate outcome of a whole campaign."""

    seed: int
    episodes: List[Episode]
    snippets: List[str] = field(default_factory=list)

    @property
    def violations(self) -> List[Violation]:
        out: List[Violation] = []
        for episode in self.episodes:
            out.extend(episode.violations)
        return out

    @property
    def conformance_violations(self) -> List[Any]:
        out: List[Any] = []
        for episode in self.episodes:
            out.extend(episode.conformance)
        return out

    @property
    def ok(self) -> bool:
        return all(episode.ok for episode in self.episodes)

    @property
    def deployment_ok(self) -> bool:
        """Every episode's deployed bundle set passed static verification.

        Separates "bad deployment" (fix the bundles) from "platform bug"
        (an invariant violation on a statically clean deployment).
        """
        return all(episode.deployment_ok for episode in self.episodes)

    @property
    def deployment_diagnostics(self) -> "List[Diagnostic]":
        out: "List[Diagnostic]" = []
        for episode in self.episodes:
            out.extend(episode.deployment)
        return out

    def trace_digest(self) -> str:
        """One fingerprint over every episode trace, order-sensitive."""
        joined = "\n".join(e.digest() for e in self.episodes)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    @property
    def failover_seconds(self) -> List[float]:
        out: List[float] = []
        for episode in self.episodes:
            out.extend(episode.failover_seconds)
        return out

    def failover_percentiles(self) -> "dict":
        """p50/p95/max of observed failover downtimes (telemetry runs)."""
        samples = sorted(self.failover_seconds)
        if not samples:
            return {"count": 0, "p50": 0.0, "p95": 0.0, "max": 0.0}

        def at(fraction: float) -> float:
            rank = max(0, min(len(samples) - 1, int(fraction * len(samples))))
            return samples[rank]

        return {
            "count": len(samples),
            "p50": at(0.50),
            "p95": at(0.95),
            "max": samples[-1],
        }

    def __repr__(self) -> str:
        return "CampaignResult(seed=%d, %d episodes, %s)" % (
            self.seed,
            len(self.episodes),
            "ok" if self.ok else "%d violations" % len(self.violations),
        )


ScheduleFactory = Callable[[Any, Sequence[str], float], FaultSchedule]


class ChaosCampaign:
    """Runs ``episodes`` seeded chaos episodes against a scenario factory.

    Parameters
    ----------
    scenario_factory:
        ``seed -> DependableEnvironment``. Must build everything the
        episode needs (customers, services, traffic); called once per
        episode with the derived episode seed.
    seed:
        Root seed. Episode ``i`` uses :func:`derive_episode_seed`.
    schedule_factory:
        Optional ``(rng, node_ids, duration) -> FaultSchedule`` override;
        the default draws :meth:`FaultSchedule.random` restricted to
        ``kinds`` (all kinds when None).
    """

    def __init__(
        self,
        scenario_factory: Callable[[int], Any] = default_scenario,
        seed: int = 0,
        episodes: int = 3,
        episode_duration: float = 30.0,
        settle: float = 10.0,
        check_interval: float = 0.5,
        mean_gap: float = 4.0,
        kinds: Optional[Sequence[str]] = None,
        registry_factory: Callable[[], InvariantRegistry] = default_invariants,
        schedule_factory: Optional[ScheduleFactory] = None,
        telemetry: bool = False,
        conformance: bool = False,
    ) -> None:
        if episodes < 1:
            raise ValueError("need at least one episode")
        self.scenario_factory = scenario_factory
        self.seed = seed
        self.episodes = episodes
        self.episode_duration = episode_duration
        self.settle = settle
        self.check_interval = check_interval
        self.mean_gap = mean_gap
        self.kinds = kinds
        self.registry_factory = registry_factory
        self.schedule_factory = schedule_factory
        #: Capture one end-to-end trace + failover latencies per episode.
        #: Telemetry draws ids from its own RNG stream and schedules
        #: nothing, so fault trace digests are identical either way.
        self.telemetry = telemetry
        #: Record a protocol History per episode and judge it with every
        #: conformance checker (virtual-synchrony axioms + registry
        #: linearizability, see repro.conformance). The recorder draws no
        #: randomness and schedules nothing, so fault trace digests are
        #: unchanged; violations land in Episode.conformance and flip the
        #: episode verdict to CONFORMANCE_VIOLATION.
        self.conformance = conformance

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        result = CampaignResult(self.seed, [])
        for index in range(self.episodes):
            episode = self.run_episode(index)
            result.episodes.append(episode)
            if not episode.ok:
                result.snippets.append(self.repro_snippet(episode))
        return result

    def run_episode(self, index: int) -> Episode:
        episode_seed = derive_episode_seed(self.seed, index)
        env = self.scenario_factory(episode_seed)
        # Verdict on the freshly-built deployment, before any fault runs:
        # a chaos failure on a statically dirty bundle set is a
        # deployment problem, not (necessarily) a platform bug.
        deployment = verify_deployment(env)
        node_ids = [n.node_id for n in env.cluster.nodes()]
        rng = env.cluster.rng.stream("faults")
        if self.schedule_factory is not None:
            schedule = self.schedule_factory(rng, node_ids, self.episode_duration)
        else:
            schedule = FaultSchedule.random(
                rng,
                self.episode_duration,
                node_ids,
                mean_gap=self.mean_gap,
                kinds=self.kinds,
            )
        registry = self.registry_factory()
        telemetry_handle: Optional[Telemetry] = None
        if self.telemetry:
            telemetry_handle = Telemetry(
                env.loop.clock, env.cluster.rng, scenario="chaos"
            )
        recorder = HistoryRecorder(env.loop.clock) if self.conformance else None
        with attach(env.loop, telemetry=telemetry_handle, recorder=recorder):
            if telemetry_handle is not None:
                telemetry_handle.open_root("episode:%d" % index)
            try:
                trace, violations = replay_schedule(
                    env,
                    schedule,
                    duration=self.episode_duration,
                    settle=self.settle,
                    check_interval=self.check_interval,
                    registry=registry,
                )
            finally:
                if telemetry_handle is not None:
                    telemetry_handle.close_root()
        conformance_violations: List[Any] = []
        history = None
        history_digest = ""
        if recorder is not None:
            history = recorder.history
            history_digest = history.digest()
            conformance_violations = check_history(history)
        failover_seconds: List[float] = []
        spans: List[Any] = []
        if telemetry_handle is not None:
            for node_id in sorted(env.migration):
                for record in env.migration[node_id].records:
                    if record.reason == "failure" and record.downtime is not None:
                        failover_seconds.append(record.downtime)
            spans = telemetry_handle.export_spans()
        rollout_summary: Optional[Any] = None
        engine = getattr(env, "rollout_engine", None)
        if engine is not None:
            report = engine.report
            rollout_summary = (
                report.summary()
                if report is not None
                else {"outcome": "incomplete"}
            )
        checks = max(
            1, int(self.episode_duration / self.check_interval)
        )  # informational; exact count lives on the checker
        return Episode(
            index=index,
            seed=episode_seed,
            schedule=schedule,
            trace=trace,
            violations=violations,
            checks_run=checks,
            invariant_names=registry.names(),
            deployment=deployment,
            failover_seconds=failover_seconds,
            spans=spans,
            conformance=conformance_violations,
            history=history,
            history_digest=history_digest,
            rollout=rollout_summary,
        )

    # ------------------------------------------------------------------
    def repro_snippet(self, episode: Episode) -> str:
        """Python source that replays ``episode`` standalone.

        Suitable for pasting into ``tests/`` as a regression test body.
        When the scenario factory is a module-level callable the snippet
        imports it; otherwise a placeholder marks the substitution point.
        """
        factory = self.scenario_factory
        module = getattr(factory, "__module__", "")
        qualname = getattr(factory, "__qualname__", "")
        if module and qualname and "<" not in qualname and "." not in qualname:
            scenario_import = "from %s import %s as scenario" % (module, qualname)
        else:
            scenario_import = (
                "scenario = ...  # substitute your scenario factory (seed -> env)"
            )
        header = [
            "# Chaos reproduction: campaign seed=%d, episode %d"
            % (self.seed, episode.index),
            "# verdict: %s" % episode.verdict.value,
            "# trace digest: %s" % episode.digest(),
        ]
        if episode.conformance:
            # A conformance violation replays through the recording
            # harness, which reproduces both the fault trace and the
            # protocol history (same seed -> same history digest).
            header.append("# history digest: %s" % episode.history_digest)
            for violation in episode.conformance:
                header.append("#   !! %s" % violation)
            return "\n".join(
                header
                + [
                    "from repro.faults import FaultSchedule, replay_and_check",
                    scenario_import,
                    "",
                    "schedule = %s" % episode.schedule.to_snippet(),
                    "env = scenario(%d)" % episode.seed,
                    "trace, violations, history, conformance = replay_and_check(",
                    "    env, schedule, duration=%r, settle=%r, check_interval=%r)"
                    % (self.episode_duration, self.settle, self.check_interval),
                    "assert not conformance, conformance",
                    "assert not violations, violations",
                    "",
                ]
            )
        return "\n".join(
            header
            + [
                "from repro.faults import FaultSchedule, replay_schedule",
                scenario_import,
                "",
                "schedule = %s" % episode.schedule.to_snippet(),
                "env = scenario(%d)" % episode.seed,
                "trace, violations = replay_schedule(",
                "    env, schedule, duration=%r, settle=%r, check_interval=%r)"
                % (self.episode_duration, self.settle, self.check_interval),
                "assert not violations, violations",
                "",
            ]
        )

    def __repr__(self) -> str:
        return "ChaosCampaign(seed=%d, episodes=%d, duration=%.1fs)" % (
            self.seed,
            self.episodes,
            self.episode_duration,
        )


def shrink_schedule(
    schedule: FaultSchedule, fails: Callable[[FaultSchedule], bool]
) -> Tuple[FaultSchedule, int]:
    """Delta debugging (ddmin) over ``schedule``'s actions: a 1-minimal
    sub-schedule on which ``fails`` still holds, and how many distinct
    sub-schedules were probed (docs/FAULTS.md)."""
    probe = functools.lru_cache(maxsize=None)(lambda acts: fails(FaultSchedule(acts)))
    actions, chunks = schedule.actions, 2
    if not probe(actions):
        raise ValueError("the full schedule does not fail; nothing to shrink")
    while len(actions) >= 2:
        size = -(-len(actions) // chunks)
        starts = range(0, len(actions), size)
        parts = [actions[i : i + size] for i in starts]
        rests = [actions[:i] + actions[i + size :] for i in starts]
        for index, candidate in enumerate(parts + (rests if len(parts) > 2 else [])):
            if probe(candidate):
                actions = candidate
                chunks = 2 if index < len(parts) else max(chunks - 1, 2)
                break
        else:
            if chunks >= len(actions):
                break
            chunks = min(2 * chunks, len(actions))
    return FaultSchedule(actions), probe.cache_info().currsize
