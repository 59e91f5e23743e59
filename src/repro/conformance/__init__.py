"""Jepsen-style conformance checking for the platform's protocols.

The dependability argument rests on group-communication guarantees —
view membership, FIFO and total-order multicast — keeping replicated
deployment state consistent across failures. This package *checks* those
guarantees, the way Jepsen/Knossos check production stacks: record what
a run observably did into a :class:`~repro.conformance.history.History`,
then judge the history offline against virtual-synchrony axioms
(:mod:`~repro.conformance.axioms`) and a Wing–Gong linearizability
checker for the deployment registry
(:mod:`~repro.conformance.linearizability`).

Recording is off by default: a :class:`HistoryRecorder` observes one
event loop once a driver attaches it in the loop's probe
(:func:`repro.telemetry.attach`)::

    from repro.conformance import HistoryRecorder, check_history
    from repro.telemetry import attach

    with attach(env.loop, recorder=HistoryRecorder(env.loop.clock)) as probe:
        ...  # run the scenario
    violations = check_history(probe.recorder.history)

or per campaign with ``ChaosCampaign(conformance=True)``, or from the
shell with ``python -m repro conform --scenario crash --seed 7``.

Every checker is proven able to fail: :mod:`~repro.conformance.mutants`
seeds targeted protocol mutations (test-only hooks in the real code
paths) and ``tests/conformance/test_mutants.py`` asserts each axiom
flags its mutant. See docs/CONFORMANCE.md.
"""

from repro.conformance.axioms import (
    AXIOMS,
    ConformanceViolation,
    run_axioms,
)
from repro.conformance.history import History, HistoryEvent, payload_digest
from repro.conformance.linearizability import (
    Operation,
    check_linearizability,
    operations_from,
)
from repro.conformance.mutants import (
    MUTANT_NAMES,
    protocol_mutation,
)
from repro.conformance.recorder import HistoryRecorder
from repro.conformance.report import (
    CHECKER_NAMES,
    campaign_verdict,
    check_history,
    verdict_json,
)

__all__ = [
    "AXIOMS",
    "CHECKER_NAMES",
    "ConformanceViolation",
    "History",
    "HistoryEvent",
    "HistoryRecorder",
    "MUTANT_NAMES",
    "Operation",
    "campaign_verdict",
    "check_history",
    "check_linearizability",
    "operations_from",
    "payload_digest",
    "protocol_mutation",
    "run_axioms",
    "verdict_json",
]
