"""Wing–Gong linearizability checker for the replicated deployment registry.

The registry's operation history (``op_invoke``/``op_return`` events) is
checked against a *sequential register model per key*: ``write``/
``deploy`` set the key's value, ``remove`` clears it, and a ``read``
must return exactly the current value. Linearizability is local
(Herlihy–Wing), so the history is partitioned per key and each key is
checked independently — which also keeps the search small.

Within one key the checker is the classic Wing–Gong DFS: repeatedly pick
a *minimal* operation (one whose invocation precedes every remaining
completed operation's response), apply it to the model state, and
recurse; memoise on (remaining-op set, state) to prune re-entered
configurations. The sim is single-threaded, so history indices are a
faithful real-time order and most registry calls are synchronous
(invoke and return adjacent). Such an op, once it is the earliest
invoked, is the *only* minimal one, so the checker applies that forced
prefix without search and the DFS runs on what is left: in the common
case nothing, which makes it linear.
The worst case is exponential in the number of genuinely concurrent
operations per key — in this platform that is the handful of failover
writes racing a partition, not the whole run.

Incomplete operations (crash took the caller before the response) are
handled the standard way: a pending or failed *mutation* may have taken
effect at any point or never (the checker branches both ways); a pending
``read`` constrains nothing and is dropped.

Histories are usually *mid-stream*: recording starts after the scenario
factory has already populated the registry, so a key's initial value is
unknown. The model starts each key at an UNKNOWN state that the first
read (reached before any write in a candidate linearization) is allowed
to fix to whatever it observed — the standard treatment for histories
without a known initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.conformance.axioms import ConformanceViolation
from repro.conformance.history import History

#: Actions that mutate the register (may-or-may-not-apply when incomplete).
MUTATIONS = ("write", "deploy", "remove")


@dataclass(frozen=True)
class Operation:
    """One registry operation, paired from its invoke/return events."""

    op_id: int
    process: str
    action: str  # "read" | "write" | "deploy" | "remove"
    key: str
    value: Optional[str]  # written value (mutations)
    result: Optional[str]  # observed value (reads)
    ok: bool
    invoked: int  # history index of op_invoke
    returned: Optional[int]  # history index of op_return, None if pending

    @property
    def complete(self) -> bool:
        return self.returned is not None


def operations_from(history: History) -> List[Operation]:
    """Pair ``op_invoke``/``op_return`` events into Operations."""
    invokes: Dict[int, Tuple[int, str, str, str, Optional[str]]] = {}
    returns: Dict[int, Tuple[int, Optional[str], bool]] = {}
    for event in history.events:
        if event.kind == "op_invoke":
            data = event.data
            invokes[data["op"]] = (
                event.index,
                event.node,
                data["action"],
                data["key"],
                data.get("value"),
            )
        elif event.kind == "op_return":
            data = event.data
            returns[data["op"]] = (event.index, data.get("result"), data["ok"])
    operations = []
    for op_id in sorted(invokes):
        invoked, process, action, key, value = invokes[op_id]
        response = returns.get(op_id)
        operations.append(
            Operation(
                op_id=op_id,
                process=process,
                action=action,
                key=key,
                value=value,
                result=None if response is None else response[1],
                ok=response[2] if response is not None else False,
                invoked=invoked,
                returned=None if response is None else response[0],
            )
        )
    return operations


#: Initial register state: the value recording started with is unknown,
#: so the first read in a linearization may fix it to anything.
UNKNOWN = "<unknown>"


def _apply(state: Optional[str], op: Operation) -> Tuple[bool, Optional[str]]:
    """Sequential register model: (is this op legal in state?, next state)."""
    if op.action == "read":
        if state == UNKNOWN:
            return True, op.result
        return op.result == state, state
    if op.action == "remove":
        return True, None
    # write / deploy
    return True, op.value


def _check_key(key: str, ops: List[Operation]) -> Optional[ConformanceViolation]:
    """Wing–Gong DFS over one key's operations; None when linearizable."""
    # Pending/failed reads constrain nothing.
    ops = sorted(
        (o for o in ops if o.action in MUTATIONS or (o.complete and o.ok)),
        key=lambda o: o.invoked,
    )
    if not ops or _linearizable(ops):
        return None
    witnesses = tuple(
        sorted(
            index
            for o in ops
            for index in (o.invoked, o.returned)
            if index is not None
        )
    )
    return ConformanceViolation(
        checker="linearizability",
        message="operations on key %r admit no linearization against the "
        "sequential register model (%d ops)" % (key, len(ops)),
        node="",
        events=witnesses,
    )


def _linearizable(ops: List[Operation]) -> bool:
    """Whether ``ops`` (sorted by invocation) admit a linearization."""
    # Forced prefix: while the earliest-invoked op is complete, ok and
    # returned before every other op was invoked, it is the only minimal
    # op and not uncertain, so the search could only apply it next.
    state: Optional[str] = UNKNOWN
    first = 0
    while first < len(ops):
        op = ops[first]
        if not (op.complete and op.ok):
            break
        if first + 1 < len(ops) and ops[first + 1].invoked < op.returned:
            break
        legal, state = _apply(state, op)
        if not legal:
            return False
        first += 1
    by_id = {o.op_id: o for o in ops[first:]}
    # An op is minimal iff no other remaining op RETURNED before its
    # invocation.
    seen: Set[Tuple[FrozenSet[int], Optional[str]]] = set()

    def search(remaining: FrozenSet[int], state: Optional[str]) -> bool:
        if not remaining:
            return True
        config = (remaining, state)
        if config in seen:
            return False
        seen.add(config)
        first_return = min(
            (
                by_id[i].returned
                for i in remaining
                if by_id[i].returned is not None
            ),
            default=None,
        )
        for op_id in remaining:
            op = by_id[op_id]
            if first_return is not None and op.invoked > first_return:
                continue  # not minimal: someone returned before this began
            rest = remaining - {op_id}
            uncertain = op.action in MUTATIONS and not (op.complete and op.ok)
            if uncertain and search(rest, state):
                return True  # mutation never took effect
            legal, next_state = _apply(state, op)
            if legal and search(rest, next_state):
                return True
        return False

    return search(frozenset(by_id), state)


def check_linearizability(history: History) -> List[ConformanceViolation]:
    """Check every key's sub-history; returns at most one violation per key."""
    per_key: Dict[str, List[Operation]] = {}
    for op in operations_from(history):
        per_key.setdefault(op.key, []).append(op)
    violations = []
    for key in sorted(per_key):
        violation = _check_key(key, per_key[key])
        if violation is not None:
            violations.append(violation)
    return violations
