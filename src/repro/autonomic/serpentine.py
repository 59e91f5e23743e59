"""The Serpentine-style event-condition-action engine.

Events flow into a :class:`PolicyEngine`; each registered :class:`Policy`
whose condition matches contributes :class:`Action` records, which the
engine's executor carries out. The engine itself is stateless: counters and
cooldowns live in the :class:`AutonomicContext` the caller owns, so an
engine can be thrown away and rebuilt (or run anywhere) without losing
control state — the property that lets the paper treat the module as "an
already existing OSGi-enabled component".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class Event:
    """Something the platform observed."""

    type: str
    at: float
    data: Dict[str, Any] = field(default_factory=dict)
    source: str = ""

    def __str__(self) -> str:
        return "Event(%s@%.2f %s)" % (self.type, self.at, self.data)


@dataclass(frozen=True)
class Action:
    """Something a policy decided to do."""

    kind: str  # e.g. "migrate", "stop-instance", "hibernate-node"
    target: str
    params: Dict[str, Any] = field(default_factory=dict)
    policy: str = ""

    def __str__(self) -> str:
        return "Action(%s %s %s)" % (self.kind, self.target, self.params)


class AutonomicContext:
    """Shared world-view handed to every policy evaluation.

    ``facilities`` holds live platform objects (node, migration module,
    monitoring module, ...); ``state`` is the scratch space policies use
    for counters and cooldowns (keeping the engine itself stateless).
    """

    def __init__(self, **facilities: Any) -> None:
        self.facilities: Dict[str, Any] = dict(facilities)
        self.state: Dict[str, Any] = {}

    def facility(self, name: str) -> Any:
        if name not in self.facilities:
            raise KeyError("autonomic context has no facility %r" % name)
        return self.facilities[name]

    def counter(self, key: str, delta: int = 0) -> int:
        """Bump and read a named counter in scratch state."""
        value = int(self.state.get(key, 0)) + delta
        self.state[key] = value
        return value

    def reset_counter(self, key: str) -> None:
        self.state[key] = 0

    def __repr__(self) -> str:
        return "AutonomicContext(facilities=%s)" % sorted(self.facilities)


Condition = Callable[[Event, AutonomicContext], bool]
ActionFn = Callable[[Event, AutonomicContext], List[Action]]


class Policy:
    """A named ECA rule: ``when condition, emit actions``."""

    def __init__(
        self,
        name: str,
        condition: Condition,
        action: ActionFn,
        priority: int = 0,
    ) -> None:
        self.name = name
        self.condition = condition
        self.action = action
        self.priority = priority
        self.fired = 0
        #: Script runtime errors, counted in place of raising (scripted_policy).
        self.errors = 0

    def evaluate(self, event: Event, context: AutonomicContext) -> List[Action]:
        if not self.condition(event, context):
            return []
        self.fired += 1
        return self.action(event, context) or []

    def __repr__(self) -> str:
        return "Policy(%s, priority=%d, fired=%d)" % (
            self.name,
            self.priority,
            self.fired,
        )


ActionExecutor = Callable[[Action, AutonomicContext], bool]


class PolicyEngine:
    """Evaluates policies against events; cascades unhandled events up."""

    def __init__(
        self,
        name: str,
        executor: Optional[ActionExecutor] = None,
        parent: Optional["PolicyEngine"] = None,
    ) -> None:
        self.name = name
        self.executor = executor
        self.parent = parent
        self._policies: List[Policy] = []
        self.handled_events = 0
        self.escalated_events = 0
        self.executed_actions: List[Action] = []
        self.failed_actions: List[Action] = []

    # ------------------------------------------------------------------
    def add_policy(self, policy: Policy) -> "PolicyEngine":
        self._policies.append(policy)
        self._policies.sort(key=lambda p: (-p.priority, p.name))
        return self

    def remove_policy(self, name: str) -> None:
        self._policies = [p for p in self._policies if p.name != name]

    def policies(self) -> List[Policy]:
        return list(self._policies)

    # ------------------------------------------------------------------
    def handle(self, event: Event, context: AutonomicContext) -> List[Action]:
        """Evaluate policies in priority order; escalate when none fires.

        Returns the actions carried out (successfully or not) at this
        level; escalated events return the parent's actions. A policy or
        executor that raises propagates; a scripted policy counts its
        script's errors in :attr:`Policy.errors` instead.
        """
        actions: List[Action] = []
        for policy in self._policies:
            actions.extend(policy.evaluate(event, context))
        if not actions:
            if self.parent is not None:
                self.escalated_events += 1
                return self.parent.handle(event, context)
            return []
        self.handled_events += 1
        for action in actions:
            self._execute(action, context)
        return actions

    def _execute(self, action: Action, context: AutonomicContext) -> None:
        if self.executor is None:
            self.executed_actions.append(action)
            return
        if self.executor(action, context):
            self.executed_actions.append(action)
        else:
            self.failed_actions.append(action)

    def __repr__(self) -> str:
        return "PolicyEngine(%s, %d policies, handled=%d, escalated=%d)" % (
            self.name,
            len(self._policies),
            self.handled_events,
            self.escalated_events,
        )
