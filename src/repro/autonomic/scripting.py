"""Scripted policies — the JSR-223 "Scripting for the Java Platform" path.

§3.3: Serpentine allows "the policies to be defined in a programmatic
approach by means of the Scripting for the Java Platform [5]". The Python
analogue: administrators author *text* that compiles into a
:class:`~repro.autonomic.serpentine.Policy`, so policies can live in
configuration files, be shipped over the wire, or be edited at run time
without redeploying the platform.

The script's namespace is deliberately small: the ``event``, ``context``
and an ``actions`` list (for the action script), plus a curated set of
builtins and the :class:`~repro.autonomic.serpentine.Action` constructor.
This is sandboxing-as-discipline, not a security boundary — the same
stance the JVM's scripting engines took.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.autonomic.serpentine import Action, AutonomicContext, Event, Policy

#: Builtins scripts may use; everything else is absent from their globals.
_SAFE_BUILTINS = {
    "abs": abs,
    "all": all,
    "any": any,
    "bool": bool,
    "dict": dict,
    "float": float,
    "int": int,
    "len": len,
    "list": list,
    "max": max,
    "min": min,
    "round": round,
    "set": set,
    "sorted": sorted,
    "str": str,
    "sum": sum,
    "tuple": tuple,
}


class ScriptError(Exception):
    """The policy script failed to compile."""


def _compile(source: str, what: str, mode: str):
    try:
        return compile(source, "<policy:%s>" % what, mode)
    except SyntaxError as exc:
        raise ScriptError("%s script does not compile: %s" % (what, exc)) from exc


def scripted_policy(
    name: str,
    condition_script: str,
    action_script: str,
    priority: int = 0,
) -> Policy:
    """Build a policy from two script texts.

    ``condition_script`` is an *expression* over ``event`` and ``context``
    evaluating to a truth value. ``action_script`` is a *suite* that
    appends :class:`Action` objects to the provided ``actions`` list.

    Example::

        policy = scripted_policy(
            "shed-hogs",
            condition_script=(
                "event.type == 'usage-report' and "
                "event.data['report'].cpu_share > 0.5"
            ),
            action_script=(
                "actions.append(Action('migrate', "
                "event.data['report'].instance, {'reason': 'scripted'}))"
            ),
        )
    """
    condition_code = _compile(condition_script, name + ".condition", "eval")
    action_code = _compile(action_script, name + ".action", "exec")

    def scope(event: Event, context: AutonomicContext) -> Dict[str, Any]:
        return {
            "__builtins__": _SAFE_BUILTINS,
            "event": event,
            "context": context,
            "Action": Action,
        }

    # The scripts are operator-written text, so any runtime error is
    # theirs: it is counted on the policy, and the engine runs on.
    def condition(event: Event, context: AutonomicContext) -> bool:
        try:
            return bool(eval(condition_code, scope(event, context)))
        except Exception:
            policy.errors += 1
            return False  # a broken script never matches

    def action(event: Event, context: AutonomicContext) -> List[Action]:
        actions: List[Action] = []
        namespace = scope(event, context)
        namespace["actions"] = actions
        try:
            exec(action_code, namespace)
        except Exception:
            policy.errors += 1
            return []  # a broken action script does nothing
        return [a for a in actions if isinstance(a, Action)]

    policy = Policy(name, condition, action, priority=priority)
    return policy


def load_policies(text: str) -> List[Policy]:
    """Parse a policy *file*: blocks separated by blank lines.

    Each block::

        policy: <name> [priority=<n>]
        when: <condition expression>
        then: <action statement>
        [then: <more statements>]

    Lines starting with ``#`` are comments.
    """
    policies: List[Policy] = []
    current: Optional[Dict[str, Any]] = None

    def flush() -> None:
        nonlocal current
        if current is None:
            return
        if "when" not in current or not current["then"]:
            raise ScriptError(
                "policy %r needs both when: and then:" % current["name"]
            )
        policies.append(
            scripted_policy(
                current["name"],
                current["when"],
                "\n".join(current["then"]),
                priority=current["priority"],
            )
        )
        current = None

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "policy":
            flush()
            name = value
            priority = 0
            if " priority=" in value:
                name, _, priority_text = value.partition(" priority=")
                priority = int(priority_text)
            current = {"name": name.strip(), "priority": priority, "then": []}
        elif key == "when":
            if current is None:
                raise ScriptError("when: outside a policy block")
            current["when"] = value
        elif key == "then":
            if current is None:
                raise ScriptError("then: outside a policy block")
            current["then"].append(value)
        else:
            raise ScriptError("unknown policy line: %r" % raw_line)
    flush()
    return policies
