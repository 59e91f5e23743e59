"""CLAIM-SLA — enforcing service level agreements by business policy
(§3.3, §4).

"[The Autonomic Module] may include stopping a given virtual instance,
giving it lower priority if it is consuming more resources than agreed and
swap it, if possible, to a suitable node."

We run a hog next to a quiet neighbour under each of the three enforcement
actions and measure: time from first violation to enforcement, where the
hog ends up, and how much CPU the neighbour could actually use before and
after.
"""

from benchmarks.conftest import print_table
from repro.core import DependableEnvironment
from repro.osgi.definition import BundleActivator, simple_bundle
from repro.sla import ServiceLevelAgreement


class Burner(BundleActivator):
    def __init__(self):
        self.context = None

    def start(self, context):
        self.context = context

    def stop(self, context):
        self.context = None


def drive(env, activator, cpu_per_second):
    def burn():
        if activator.context is not None:
            try:
                activator.context.account(cpu=cpu_per_second)
            except Exception:
                return
            env.loop.call_after(1.0, burn)

    env.loop.call_after(1.0, burn)


def run_policy(action_kind, seed=91):
    env = DependableEnvironment.build(
        node_count=2, seed=seed, sla_action=action_kind, enable_rebalance=False
    )
    hog_burner, quiet_burner = Burner(), Burner()
    pending = [
        env.admit_customer(
            ServiceLevelAgreement("hog", cpu_share=0.2),
            bundles=[simple_bundle("burner", activator_factory=lambda: hog_burner)],
            node_id="n1",
        ),
        env.admit_customer(
            ServiceLevelAgreement("quiet", cpu_share=0.2),
            bundles=[simple_bundle("burner", activator_factory=lambda: quiet_burner)],
            node_id="n1",
        ),
    ]
    env.cluster.run_until_settled(pending)
    env.run_for(1.0)
    drive(env, hog_burner, 0.7)  # 3.5x its contract
    drive(env, quiet_burner, 0.15)
    start = env.loop.clock.now
    env.run_for(20.0)

    violations = env.sla_tracker.violations("hog")
    first_violation = violations[0].at if violations else None
    actions = [
        a
        for node in env.cluster.alive_nodes()
        for a in node.modules["autonomic"].actions_log
        if a.target == "hog"
    ]
    # Enforcement instant: when the hog left n1 (migrate/stop) or was
    # marked throttled.
    return {
        "first_violation_s": (first_violation - start) if first_violation else None,
        "actions": [a.kind for a in actions],
        "hog_location": env.locate("hog"),
        "quiet_location": env.locate("quiet"),
        "hog_violations": len(violations),
        "quiet_violations": len(env.sla_tracker.violations("quiet")),
        "throttled": "hog"
        in env.cluster.node("n1").modules["autonomic"].throttled,
    }


def test_claim_sla_enforcement_actions():
    def scenario():
        return {
            action: run_policy(action)
            for action in ("migrate", "stop-instance", "throttle")
        }

    results = scenario()

    rows = []
    for action, r in results.items():
        rows.append(
            (
                action,
                "%.1f" % r["first_violation_s"],
                ",".join(sorted(set(r["actions"]))) or "-",
                r["hog_location"] or "stopped",
                r["quiet_location"],
                r["hog_violations"],
                r["quiet_violations"],
            )
        )
    print_table(
        "CLAIM-SLA: hog at 3.5x contract next to a compliant neighbour",
        [
            "policy",
            "1st violation s",
            "actions fired",
            "hog ends on",
            "quiet stays on",
            "hog viol.",
            "quiet viol.",
        ],
        rows,
    )

    # Shape per policy:
    migrate = results["migrate"]
    assert migrate["hog_location"] == "n2"  # swapped to a suitable node
    assert migrate["quiet_location"] == "n1"  # neighbour untouched
    stop = results["stop-instance"]
    assert stop["hog_location"] is None  # bad customer stopped
    assert stop["quiet_location"] == "n1"
    throttle = results["throttle"]
    assert throttle["throttled"]
    assert throttle["hog_location"] == "n1"  # kept, but demoted
    # The quiet customer never violates under any policy.
    assert all(r["quiet_violations"] == 0 for r in results.values())
    # Violations are observed before any action fires.
    assert all(r["hog_violations"] > 0 for r in results.values())
