"""Policy engine: ECA evaluation, statelessness, cascading."""

import pytest

from repro.autonomic.scripting import scripted_policy
from repro.autonomic.serpentine import (
    Action,
    AutonomicContext,
    Event,
    Policy,
    PolicyEngine,
)


def always(event, context):
    return True


def never(event, context):
    return False


def emit(kind, target="t"):
    def action(event, context):
        return [Action(kind=kind, target=target)]

    return action


def test_matching_policy_emits_actions():
    engine = PolicyEngine("e")
    engine.add_policy(Policy("p", always, emit("noop")))
    actions = engine.handle(Event("x", at=0.0), AutonomicContext())
    assert [a.kind for a in actions] == ["noop"]
    assert engine.handled_events == 1


def test_non_matching_policy_silent():
    engine = PolicyEngine("e")
    engine.add_policy(Policy("p", never, emit("noop")))
    assert engine.handle(Event("x", at=0.0), AutonomicContext()) == []
    assert engine.handled_events == 0


def test_policies_evaluated_in_priority_order():
    order = []

    def recording(name):
        def action(event, context):
            order.append(name)
            return []

        return action

    engine = PolicyEngine("e")
    engine.add_policy(Policy("low", always, recording("low"), priority=1))
    engine.add_policy(Policy("high", always, recording("high"), priority=9))
    engine.handle(Event("x", at=0.0), AutonomicContext())
    assert order == ["high", "low"]


def test_broken_policy_does_not_stop_others():
    bad = scripted_policy("bad", "True", "actions.append(1 / 0)", priority=9)
    engine = PolicyEngine("e")
    engine.add_policy(bad)
    engine.add_policy(Policy("good", always, emit("ok")))
    actions = engine.handle(Event("x", at=0.0), AutonomicContext())
    assert [a.kind for a in actions] == ["ok"]
    assert bad.errors == 1


def test_a_raising_policy_propagates():
    """Only script text is the operator's to get wrong; a Python policy
    that raises is a bug, and the engine does not hide it."""

    def broken(event, context):
        raise RuntimeError("policy bug")

    engine = PolicyEngine("e")
    engine.add_policy(Policy("bad", always, broken, priority=9))
    engine.add_policy(Policy("good", always, emit("ok")))
    with pytest.raises(RuntimeError, match="policy bug"):
        engine.handle(Event("x", at=0.0), AutonomicContext())


def test_unhandled_event_escalates_to_parent():
    parent = PolicyEngine("cluster")
    parent.add_policy(Policy("cluster-p", always, emit("cluster-action")))
    child = PolicyEngine("node", parent=parent)
    child.add_policy(Policy("node-p", never, emit("node-action")))
    actions = child.handle(Event("x", at=0.0), AutonomicContext())
    assert [a.kind for a in actions] == ["cluster-action"]
    assert child.escalated_events == 1
    assert parent.handled_events == 1


def test_handled_event_does_not_escalate():
    parent = PolicyEngine("cluster")
    parent.add_policy(Policy("cluster-p", always, emit("cluster-action")))
    child = PolicyEngine("node", parent=parent)
    child.add_policy(Policy("node-p", always, emit("node-action")))
    actions = child.handle(Event("x", at=0.0), AutonomicContext())
    assert [a.kind for a in actions] == ["node-action"]
    assert parent.handled_events == 0


def test_executor_success_and_failure_tracked():
    def executor(action, context):
        return action.kind == "good"

    engine = PolicyEngine("e", executor=executor)
    engine.add_policy(
        Policy(
            "p",
            always,
            lambda e, c: [Action("good", "t"), Action("bad", "t")],
        )
    )
    engine.handle(Event("x", at=0.0), AutonomicContext())
    assert [a.kind for a in engine.executed_actions] == ["good"]
    assert [a.kind for a in engine.failed_actions] == ["bad"]


def test_a_raising_executor_propagates():
    """An executor reports a refused action by returning False; one that
    raises is a bug and is not booked as a failed action."""

    def exploding(action, context):
        raise RuntimeError("boom")

    engine = PolicyEngine("e", executor=exploding)
    engine.add_policy(Policy("p", always, emit("x")))
    with pytest.raises(RuntimeError, match="boom"):
        engine.handle(Event("x", at=0.0), AutonomicContext())
    assert engine.failed_actions == [] and engine.executed_actions == []


def test_remove_policy():
    engine = PolicyEngine("e")
    engine.add_policy(Policy("p", always, emit("x")))
    engine.remove_policy("p")
    assert engine.handle(Event("x", at=0.0), AutonomicContext()) == []


def test_engine_is_stateless_context_carries_state():
    """Rebuilding the engine must not lose control state kept in context."""
    context = AutonomicContext()

    def counting_condition(event, ctx):
        return ctx.counter("seen", +1) >= 3

    def build_engine():
        engine = PolicyEngine("e")
        engine.add_policy(Policy("p", counting_condition, emit("fire")))
        return engine

    assert build_engine().handle(Event("x", at=0.0), context) == []
    assert build_engine().handle(Event("x", at=1.0), context) == []
    actions = build_engine().handle(Event("x", at=2.0), context)
    assert [a.kind for a in actions] == ["fire"]


def test_context_facilities_and_counters():
    context = AutonomicContext(node="the-node")
    assert context.facility("node") == "the-node"
    with pytest.raises(KeyError):
        context.facility("ghost")
    assert context.counter("c", +2) == 2
    context.reset_counter("c")
    assert context.counter("c") == 0


def test_policy_fired_count():
    policy = Policy("p", always, emit("x"))
    engine = PolicyEngine("e")
    engine.add_policy(policy)
    context = AutonomicContext()
    engine.handle(Event("x", at=0.0), context)
    engine.handle(Event("x", at=1.0), context)
    assert policy.fired == 2
