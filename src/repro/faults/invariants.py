"""Cluster-wide invariants checked while faults rain down.

An invariant inspects a :class:`~repro.core.environment.
DependableEnvironment` and reports what is wrong, as strings. Two modes:

* ``always`` — must hold at *every* instant, even mid-partition with half
  the cluster down (safety: committed state stays durable, SLA accounting
  only moves forward, ipvs never believes a dead node is routable);
* ``quiescent`` — must hold once faults are withdrawn and the cluster has
  settled (convergence: views agree, every customer is placed again on
  exactly one node — the platform tolerates transient split-brain
  duplicates by design, so single-primary is convergence, not safety).

The :class:`InvariantChecker` evaluates ``always`` invariants at a fixed
sim-time interval on the event loop, and everything at the episode-final
check the campaign performs after quiesce + settle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.node import NodeState
from repro.sim.eventloop import ScheduledEvent
from repro.sim.network import Network

ALWAYS = "always"
QUIESCENT = "quiescent"


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    at: float
    detail: str

    def __str__(self) -> str:
        return "Violation(%s @%.3f: %s)" % (self.invariant, self.at, self.detail)


class Invariant:
    """A named predicate over the whole environment."""

    def __init__(
        self,
        name: str,
        description: str,
        check: Callable[[Any], List[str]],
        mode: str = ALWAYS,
    ) -> None:
        if mode not in (ALWAYS, QUIESCENT):
            raise ValueError("mode must be always|quiescent: %r" % mode)
        self.name = name
        self.description = description
        self.check = check
        self.mode = mode

    def evaluate(self, env: Any, at: float) -> List[Violation]:
        return [Violation(self.name, at, d) for d in self.check(env)]

    def __repr__(self) -> str:
        return "Invariant(%s, %s)" % (self.name, self.mode)


class InvariantRegistry:
    """An ordered, name-unique collection of invariants."""

    def __init__(self, invariants: Optional[List[Invariant]] = None) -> None:
        self._invariants: Dict[str, Invariant] = {}
        for invariant in invariants or []:
            self.register(invariant)

    def register(self, invariant: Invariant) -> None:
        if invariant.name in self._invariants:
            raise ValueError("invariant %r already registered" % invariant.name)
        self._invariants[invariant.name] = invariant

    def names(self) -> List[str]:
        return list(self._invariants)

    def get(self, name: str) -> Invariant:
        return self._invariants[name]

    def select(self, mode: Optional[str] = None) -> List[Invariant]:
        return [
            inv
            for inv in self._invariants.values()
            if mode is None or inv.mode == mode
        ]

    def __len__(self) -> int:
        return len(self._invariants)

    def __iter__(self):
        return iter(self._invariants.values())

    def __repr__(self) -> str:
        return "InvariantRegistry(%s)" % self.names()


# ----------------------------------------------------------------------
# Built-in invariant checks
# ----------------------------------------------------------------------
def _check_single_primary(env: Any) -> List[str]:
    """Each customer converges back to exactly one alive host.

    Quiescent, not always: the platform deliberately models fenceless
    split-brain (both partition sides redeploy, the merge dedups — see
    tests/integration/test_partitions.py) and migration itself keeps a
    transient duplicate until the DEPLOYED handler resolves it. Mid-chaos
    duplicates are therefore legal; surviving ones after settle are not.
    """
    problems: List[str] = []
    for name in env.customer_names():
        hosts = [
            n.node_id
            for n in env.cluster.alive_nodes()
            if name in n.instance_names()
        ]
        if len(hosts) > 1:
            problems.append("%s runs on %s" % (name, ",".join(hosts)))
    return problems


def _check_view_agreement(env: Any) -> List[str]:
    """All running members of a group converge on one membership set."""
    problems: List[str] = []
    views: Dict[str, Dict[frozenset, List[str]]] = {}
    for node in env.cluster.alive_nodes():
        for member in node.group_members():
            if not member.running or member.view is None:
                continue
            views.setdefault(member.group, {}).setdefault(
                frozenset(member.view.members), []
            ).append(member.endpoint_name)
    for group in sorted(views):
        variants = views[group]
        if len(variants) > 1:
            rendered = "; ".join(
                "%s seen by %s" % (sorted(members), sorted(holders))
                for members, holders in sorted(
                    variants.items(), key=lambda kv: sorted(kv[0])
                )
            )
            problems.append("group %s split: %s" % (group, rendered))
    return problems


class _CommittedStateDurable:
    """Once a customer's state is committed to the SAN it never vanishes
    (while the customer stays admitted) — migrations move state, they must
    not lose it. Stateful: remembers which commits it has witnessed."""

    def __init__(self) -> None:
        self._seen: Dict[str, bool] = {}

    def __call__(self, env: Any) -> List[str]:
        problems: List[str] = []
        admitted = set(env.customer_names())
        for gone in [c for c in self._seen if c not in admitted]:
            del self._seen[gone]
        for name in sorted(admitted):
            key = "vosgi:%s" % name
            present = env.cluster.store.has_state(key)
            if self._seen.get(name) and not present:
                problems.append("committed state %s vanished from SAN" % key)
            if present:
                self._seen[name] = True
            if env.customers_directory.get(name) is None:
                problems.append("descriptor of %s vanished from SAN" % name)
        return problems


def _check_ipvs_liveness(env: Any) -> List[str]:
    """IPVS must never consider a real server on a dead node routable."""
    problems: List[str] = []
    for endpoint, server in env.director.all_real_servers():
        try:
            node = env.cluster.node(server.node_id)
        except KeyError:
            continue
        if server.alive and node.state != NodeState.ON:
            problems.append(
                "%s routes to %s which is %s"
                % (endpoint, server.node_id, node.state.value)
            )
    return problems


class _SlaMonotonic:
    """SLA accounting only moves forward: observation windows and
    accumulated downtime never shrink, availability stays in [0, 1]."""

    def __init__(self) -> None:
        self._previous: Dict[str, tuple] = {}

    def __call__(self, env: Any) -> List[str]:
        problems: List[str] = []
        now = env.loop.clock.now
        for name in env.sla_tracker.customer_names():
            report = env.sla_tracker.report(name, now)
            if not 0.0 <= report.availability <= 1.0:
                problems.append(
                    "%s availability out of range: %r"
                    % (name, report.availability)
                )
            prev = self._previous.get(name)
            if prev is not None:
                prev_window, prev_downtime = prev
                if report.window < prev_window - 1e-9:
                    problems.append(
                        "%s window shrank %.6f -> %.6f"
                        % (name, prev_window, report.window)
                    )
                if report.downtime < prev_downtime - 1e-9:
                    problems.append(
                        "%s downtime shrank %.6f -> %.6f"
                        % (name, prev_downtime, report.downtime)
                    )
            self._previous[name] = (report.window, report.downtime)
        return problems


class _ClockMonotonic:
    """Virtual time never runs backwards between two checks."""

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def __call__(self, env: Any) -> List[str]:
        now = env.loop.clock.now
        problems: List[str] = []
        if self._last is not None and now < self._last:
            problems.append("clock went %.6f -> %.6f" % (self._last, now))
        self._last = now
        return problems


def _check_customers_placed(env: Any) -> List[str]:
    """After the dust settles every admitted customer runs somewhere."""
    problems: List[str] = []
    if not env.cluster.alive_nodes():
        return problems  # nobody left to host anything: vacuously ok
    for name in env.customer_names():
        if env.locate(name) is None:
            problems.append("%s is not running on any alive node" % name)
    return problems


def _check_fifo_delivered(env: Any) -> List[str]:
    """In-view FIFO delivery is total and the inventory gossip reached
    every member.

    After settle no running member may hold a buffered FIFO frame: a
    frame still waiting is waiting on a gap nobody will fill. And every
    alive node's Migration Module must hold an inventory for each member
    of its platform view, or its redeploy decisions read a hole.
    """
    problems: List[str] = []
    for node in env.cluster.alive_nodes():
        for member in node.group_members():
            if not member.running:
                continue
            for sender, seqs in member.stranded_frames().items():
                problems.append(
                    "%s holds %d fifo frames from %s (seq %d-%d), expects %s"
                    % (
                        member.endpoint_name,
                        len(seqs),
                        sender,
                        seqs[0],
                        seqs[-1],
                        member.fifo_cursor(sender),
                    )
                )
        migration = env.migration.get(node.node_id)
        if migration is None or not migration.running:
            continue
        view = migration.member.view
        if view is None:
            continue
        missing = [
            peer
            for peer in (Network.node_of(m) for m in view.members)
            if migration.inventory.get(peer) is None
        ]
        if missing:
            problems.append(
                "%s has no inventory for %s" % (node.node_id, ",".join(missing))
            )
    return problems


def default_invariants() -> InvariantRegistry:
    """The built-in invariant catalog (see docs/FAULTS.md)."""
    return InvariantRegistry(
        [
            Invariant(
                "single-primary",
                "each customer instance settles on at most one alive node",
                _check_single_primary,
                mode=QUIESCENT,
            ),
            Invariant(
                "committed-state-durable",
                "SAN state committed for a customer never disappears",
                _CommittedStateDurable(),
                mode=ALWAYS,
            ),
            Invariant(
                "ipvs-liveness",
                "no real server on a non-ON node is considered routable",
                _check_ipvs_liveness,
                mode=ALWAYS,
            ),
            Invariant(
                "sla-monotonic",
                "SLA windows/downtime are monotone, availability in [0,1]",
                _SlaMonotonic(),
                mode=ALWAYS,
            ),
            Invariant(
                "clock-monotonic",
                "virtual time never decreases",
                _ClockMonotonic(),
                mode=ALWAYS,
            ),
            Invariant(
                "view-agreement",
                "running GCS members of a group agree on membership",
                _check_view_agreement,
                mode=QUIESCENT,
            ),
            Invariant(
                "customers-placed",
                "every admitted customer is hosted by some alive node",
                _check_customers_placed,
                mode=QUIESCENT,
            ),
            Invariant(
                "fifo-delivered",
                "no member holds an undeliverable FIFO frame, and every "
                "member holds an inventory for each member of its view",
                _check_fifo_delivered,
                mode=QUIESCENT,
            ),
        ]
    )


class InvariantChecker:
    """Evaluates a registry against one environment on the event loop."""

    def __init__(
        self,
        env: Any,
        registry: Optional[InvariantRegistry] = None,
    ) -> None:
        self.env = env
        self.registry = registry if registry is not None else default_invariants()
        self.violations: List[Violation] = []
        self.checks_run = 0
        self._timer: Optional[ScheduledEvent] = None
        self._running = False

    # ------------------------------------------------------------------
    def arm(self, interval: float = 1.0) -> None:
        """Check ``always`` invariants every ``interval`` sim-seconds."""
        if interval <= 0:
            raise ValueError("interval must be positive: %r" % interval)
        if self._running:
            raise RuntimeError("checker is already armed")
        self._running = True

        def tick() -> None:
            if not self._running:
                return
            self.check_now(mode=ALWAYS)
            self._timer = self.env.loop.call_after(
                interval, tick, label="invariant-check"
            )

        self._timer = self.env.loop.call_after(
            interval, tick, label="invariant-check"
        )

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def check_now(self, mode: Optional[str] = None) -> List[Violation]:
        """Evaluate (a mode's) invariants immediately; record and return."""
        at = self.env.loop.clock.now
        found: List[Violation] = []
        for invariant in self.registry.select(mode):
            found.extend(invariant.evaluate(self.env, at))
        self.violations.extend(found)
        self.checks_run += 1
        return found

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        return "InvariantChecker(%d invariants, %d checks, %d violations)" % (
            len(self.registry),
            self.checks_run,
            len(self.violations),
        )
