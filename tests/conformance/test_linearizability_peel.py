"""The forced-prefix peel decides exactly what the plain Wing–Gong DFS does.

``_check_key`` applies the forced prefix of a key's history (the
earliest-invoked op, complete and ok, returned before any other op was
invoked) without search and hands the rest to the DFS. The reference
below is the DFS alone, as the checker ran before the peel existed; on
every generated history both must return the same violation (verdict,
message and witness events) or both none.
"""

import sys
from typing import FrozenSet, List, Optional, Set, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.conformance import ConformanceViolation, History
from repro.conformance.linearizability import (
    MUTATIONS,
    UNKNOWN,
    Operation,
    _apply,
    _check_key,
    operations_from,
)


def _reference_check_key(
    key: str, ops: List[Operation]
) -> Optional[ConformanceViolation]:
    """The DFS-only checker: every configuration goes through the search."""
    ops = [o for o in ops if o.action in MUTATIONS or (o.complete and o.ok)]
    if not ops:
        return None
    by_id = {o.op_id: o for o in ops}
    seen: Set[Tuple[FrozenSet[int], Optional[str]]] = set()

    def dfs(remaining: FrozenSet[int], state: Optional[str]) -> bool:
        if not remaining:
            return True
        config = (remaining, state)
        if config in seen:
            return False
        seen.add(config)
        first_return = min(
            (by_id[i].returned for i in remaining if by_id[i].returned is not None),
            default=None,
        )
        for op_id in remaining:
            op = by_id[op_id]
            if first_return is not None and op.invoked > first_return:
                continue
            rest = remaining - {op_id}
            uncertain = op.action in MUTATIONS and not (op.complete and op.ok)
            if uncertain and dfs(rest, state):
                return True
            legal, next_state = _apply(state, op)
            if legal and dfs(rest, next_state):
                return True
        return False

    if dfs(frozenset(by_id), UNKNOWN):
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


#: (action, written value or observed result, invocation slot, length in
#: slots, outcome). Reads observe a recorded value, nothing, or a value no
#: write produced; mutations may fail or never return.
op_spec = st.tuples(
    st.sampled_from(("read", "write", "deploy", "remove")),
    st.sampled_from(("a", "b", "c", None, "unknown")),
    st.integers(0, 12),
    st.integers(0, 3),
    st.sampled_from(("ok", "ok", "ok", "failed", "pending")),
)


def build_history(sequential, specs):
    """One key's op_invoke/op_return events. Invocations sit on even
    instants and returns on odd ones, so no two events tie across kinds;
    ``sequential`` lays the ops out back to back."""
    timeline = []
    for i, (_action, _value, slot, length, outcome) in enumerate(specs):
        if sequential:
            slot, length = 4 * i, 0
        invoked = 2 * slot
        timeline.append((invoked, i, "invoke"))
        if outcome != "pending":
            timeline.append((invoked + 2 * length + 1, i, outcome))
    history = History()
    for at, i, what in sorted(timeline):
        action, value = specs[i][0], specs[i][1]
        if what == "invoke":
            written = None if action == "read" else value
            history.append(
                float(at), "op_invoke", "p%d" % i,
                {"op": i, "action": action, "key": "k", "value": written},
            )
        else:
            observed = value if action == "read" else None
            history.append(
                float(at), "op_return", "p%d" % i,
                {"op": i, "result": observed, "ok": what == "ok"},
            )
    return history


@settings(max_examples=400, deadline=None)
@given(sequential=st.booleans(), specs=st.lists(op_spec, min_size=1, max_size=8))
# Overlapping writes: the earliest-invoked write returned after the other
# was invoked, so it is not the only minimal op.
@example(
    sequential=False,
    specs=[
        ("write", "a", 0, 1, "ok"),
        ("write", "b", 1, 1, "ok"),
        ("read", "a", 4, 0, "ok"),
    ],
)
# A pending write first: it may never have taken effect.
@example(
    sequential=True,
    specs=[("write", "a", 0, 0, "pending"), ("read", "b", 0, 0, "ok")],
)
# A failed write first: it too may never have taken effect.
@example(
    sequential=True,
    specs=[
        ("read", "b", 0, 0, "ok"),
        ("write", "a", 0, 0, "failed"),
        ("read", "b", 0, 0, "ok"),
    ],
)
# A sequential stale read: the forced prefix itself is illegal.
@example(
    sequential=True,
    specs=[("read", "a", 0, 0, "ok"), ("read", "b", 0, 0, "ok")],
)
def test_peel_returns_what_the_dfs_returns(sequential, specs):
    ops = operations_from(build_history(sequential, specs))
    assert _check_key("k", ops) == _reference_check_key("k", ops)


def test_long_sequential_key_needs_no_search_depth():
    # The DFS alone recursed once per op; a forced prefix is applied in a
    # loop, so a key with more ops than the recursion limit still checks.
    ops = sys.getrecursionlimit() + 500
    specs = [("write", "v%d" % (i // 2), 0, 0, "ok") if i % 2 == 0
             else ("read", "v%d" % (i // 2), 0, 0, "ok") for i in range(ops)]
    clean = operations_from(build_history(True, specs))
    assert _check_key("k", clean) is None
    specs[-1] = ("read", "stale", 0, 0, "ok")
    stale = operations_from(build_history(True, specs))
    violation = _check_key("k", stale)
    assert violation is not None and len(violation.events) == 2 * ops
