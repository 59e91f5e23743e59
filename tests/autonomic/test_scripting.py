"""Scripted (JSR-223-style) policies."""

import pytest

from repro.autonomic.scripting import ScriptError, load_policies, scripted_policy
from repro.autonomic.serpentine import (
    Action,
    AutonomicContext,
    Event,
    PolicyEngine,
)


def usage_event(cpu_share, instance="acme", at=0.0):
    class FakeReport:
        pass

    report = FakeReport()
    report.cpu_share = cpu_share
    report.instance = instance
    return Event("usage-report", at=at, data={"report": report})


class TestScriptedPolicy:
    def test_condition_and_action_scripts_work(self):
        policy = scripted_policy(
            "shed",
            "event.type == 'usage-report' and event.data['report'].cpu_share > 0.5",
            "actions.append(Action('migrate', event.data['report'].instance))",
        )
        context = AutonomicContext()
        assert policy.evaluate(usage_event(0.9), context)[0].kind == "migrate"
        assert policy.evaluate(usage_event(0.1), context) == []

    def test_scripts_can_use_context_counters(self):
        policy = scripted_policy(
            "after-three",
            "context.counter('seen', 1) >= 3",
            "actions.append(Action('stop-instance', 'acme'))",
        )
        context = AutonomicContext()
        assert policy.evaluate(usage_event(0.9, at=0.0), context) == []
        assert policy.evaluate(usage_event(0.9, at=1.0), context) == []
        assert len(policy.evaluate(usage_event(0.9, at=2.0), context)) == 1

    def test_syntax_error_raises_at_build_time(self):
        with pytest.raises(ScriptError):
            scripted_policy("bad", "event.type ===", "pass")
        with pytest.raises(ScriptError):
            scripted_policy("bad", "True", "def broken(:")

    def test_runtime_error_in_condition_never_matches(self):
        policy = scripted_policy("brittle", "event.data['missing'] > 1", "pass")
        assert policy.evaluate(usage_event(0.9), AutonomicContext()) == []

    def test_runtime_error_in_action_yields_nothing(self):
        policy = scripted_policy("brittle", "True", "actions.append(1/0)")
        assert policy.evaluate(usage_event(0.9), AutonomicContext()) == []

    def test_runtime_errors_are_counted_on_the_policy(self):
        condition = scripted_policy("c", "event.data['missing'] > 1", "pass")
        action = scripted_policy("a", "True", "actions.append(undefined)")
        fine = scripted_policy("f", "True", "pass")
        for policy in (condition, action, fine):
            for _ in range(2):
                policy.evaluate(usage_event(0.9), AutonomicContext())
        assert (condition.errors, action.errors, fine.errors) == (2, 2, 0)

    def test_non_action_appends_filtered(self):
        policy = scripted_policy("junk", "True", "actions.append('not-an-action')")
        assert policy.evaluate(usage_event(0.9), AutonomicContext()) == []

    def test_dangerous_builtins_absent(self):
        policy = scripted_policy(
            "sneaky", "True", "actions.append(Action(str(open), 't'))"
        )
        # `open` is not in scope: the script errors and does nothing.
        assert policy.evaluate(usage_event(0.9), AutonomicContext()) == []

    def test_safe_builtins_available(self):
        policy = scripted_policy(
            "mathsy",
            "max(1, 2) == 2 and len([1, 2]) == 2",
            "actions.append(Action('noop', str(round(1.6))))",
        )
        actions = policy.evaluate(usage_event(0.9), AutonomicContext())
        assert actions[0].target == "2"


class TestScriptBoundary:
    """A script is operator-written text: whatever it raises is counted on
    its policy, and the engine goes on evaluating the other policies."""

    @pytest.mark.parametrize(
        "condition_script, action_script",
        [
            ("event.data['missing'] > 1", "pass"),  # the condition raises
            ("True", "actions.append(Action('migrate', undefined))"),  # the action
        ],
        ids=["condition", "action"],
    )
    def test_a_raising_script_is_counted_and_the_engine_runs_on(
        self, condition_script, action_script
    ):
        broken = scripted_policy("broken", condition_script, action_script, 9)
        healthy = scripted_policy(
            "healthy", "True", "actions.append(Action('noop', 'ok'))"
        )
        engine = PolicyEngine("e")
        engine.add_policy(broken)
        engine.add_policy(healthy)
        for at in (0.0, 1.0, 2.0):
            actions = engine.handle(usage_event(0.9, at=at), AutonomicContext())
            assert [a.kind for a in actions] == ["noop"]
        assert (broken.errors, healthy.errors) == (3, 0)
        assert (healthy.fired, engine.handled_events) == (3, 3)


class TestPolicyFile:
    FILE = """
# administrator-authored business policy
policy: shed-hogs priority=10
when: event.type == 'usage-report' and event.data['report'].cpu_share > 0.5
then: actions.append(Action('migrate', event.data['report'].instance))

policy: observe
when: event.type == 'usage-report'
then: context.counter('reports', 1)
then: actions.append(Action('noop', 'observer'))
"""

    def test_blocks_parsed(self):
        policies = load_policies(self.FILE)
        assert [p.name for p in policies] == ["shed-hogs", "observe"]
        assert policies[0].priority == 10

    def test_loaded_policies_run_in_engine(self):
        engine = PolicyEngine("scripted")
        for policy in load_policies(self.FILE):
            engine.add_policy(policy)
        context = AutonomicContext()
        actions = engine.handle(usage_event(0.9), context)
        kinds = sorted(a.kind for a in actions)
        assert kinds == ["migrate", "noop"]
        assert context.state["reports"] == 1

    def test_missing_when_rejected(self):
        with pytest.raises(ScriptError):
            load_policies("policy: broken\nthen: pass\n")

    def test_orphan_clauses_rejected(self):
        with pytest.raises(ScriptError):
            load_policies("when: True\n")
        with pytest.raises(ScriptError):
            load_policies("then: pass\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ScriptError):
            load_policies("policy: x\nwat: True\n")

    def test_comments_and_blanks_ignored(self):
        policies = load_policies("# nothing\n\n# still nothing\n")
        assert policies == []
