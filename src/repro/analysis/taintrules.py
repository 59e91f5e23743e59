"""DET1xx — interprocedural determinism taint rules.

The per-file rules (``DET001``..) catch nondeterminism at the *source
site*; these rules catch nondeterministic **values** at the point where
they become observable — an event-scheduling call, a network send, or a
digest input — even when the source lives in another function or module.
Each finding carries the full source→sink :class:`~repro.analysis.
dataflow.Step` chain, rendered by ``python -m repro lint --explain
DET101``.

Rule map (kind → code):

``DET101`` a wall-clock value (``time.time()``, ``datetime.now()``...)
reaches a sink. The local rule DET001 flags the read; DET101 fires even
when the read is wrapped three helpers away.

``DET102`` a process-global RNG draw (``random.random()``,
``os.urandom``, ``uuid.uuid4``...) reaches a sink.

``DET103`` *(warning)* a ``set``/``dict``-order-dependent value — a
hash-ordered loop variable, ``next(iter(some_set))`` — reaches a sink.
Warning severity for the same reason DET003 is a warning: insertion
order may well be the intended total order.

``DET104`` an ``id()``/``hash()`` result reaches a sink. CPython object
addresses and ``PYTHONHASHSEED`` make both run-dependent.

``DET105`` an ``os.environ``/``os.getenv`` value reaches a sink — host
configuration leaking into the simulated world.

Sinks are the places where a value's bits or timing become part of the
replayable execution: ``EventLoop.call_at``/``call_after``/``call_soon``
/``call_transient_*``, ``Network.send``/``send_all``/``send_to``/``broadcast``/
``multicast``/``deliver``, scheduling helpers (``schedule``,
``enqueue``), and digest constructors (``hashlib.sha256`` and friends —
the trace/history digest inputs).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.dataflow import (
    KIND_ENV,
    KIND_IDHASH,
    KIND_ORDER,
    KIND_RNG,
    KIND_WALL,
    TaintFinding,
    TaintModel,
    analyze_program,
)
from repro.analysis.determinism import _GLOBAL_RANDOM_FUNCTIONS, _WALL_CLOCK
from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["TAINT_RULES", "DEFAULT_TAINT_MODEL", "run_taint_rules", "finding_to_diagnostic"]

#: Rule catalogue: code -> one-line summary (mirrored in docs/ANALYSIS.md).
TAINT_RULES: Dict[str, str] = {
    "DET101": "wall-clock value reaches a scheduling/send/digest sink",
    "DET102": "global-RNG value reaches a scheduling/send/digest sink",
    "DET103": "hash-order-dependent value reaches a scheduling/send/digest sink",
    "DET104": "id()/hash() value reaches a scheduling/send/digest sink",
    "DET105": "os.environ value reaches a scheduling/send/digest sink",
}

_KIND_TO_CODE = {
    KIND_WALL: "DET101",
    KIND_RNG: "DET102",
    KIND_ORDER: "DET103",
    KIND_IDHASH: "DET104",
    KIND_ENV: "DET105",
}

_KIND_LABEL = {
    KIND_WALL: "wall-clock",
    KIND_RNG: "global-RNG",
    KIND_ORDER: "hash-order-dependent",
    KIND_IDHASH: "id()/hash()",
    KIND_ENV: "os.environ",
}

#: DET103 inherits DET003's judgement-call status; the rest are leaks.
_WARNING_CODES = frozenset({"DET103"})

DEFAULT_TAINT_MODEL = TaintModel(
    wall_clock=frozenset(_WALL_CLOCK),
    rng_calls=frozenset(
        {"random.%s" % name for name in _GLOBAL_RANDOM_FUNCTIONS}
        | {
            "os.urandom",
            "uuid.uuid1",
            "uuid.uuid4",
            "secrets.token_bytes",
            "secrets.token_hex",
            "secrets.token_urlsafe",
            "secrets.randbelow",
        }
    ),
    env_attrs=frozenset({"os.environ", "os.environb"}),
    env_calls=frozenset({"os.getenv"}),
    sink_method_names=frozenset(
        {
            "broadcast",
            "call_after",
            "call_at",
            "call_soon",
            "call_transient_after",
            "call_transient_at",
            "deliver",
            "enqueue",
            "multicast",
            "schedule",
            "send",
            "send_all",
            "send_to",
        }
    ),
    sink_qualname_suffixes=(
        "EventLoop.call_at",
        "EventLoop.call_after",
        "EventLoop.call_soon",
        "EventLoop.call_transient_at",
        "EventLoop.call_transient_after",
        "Network.send",
        "Network.send_all",
        "Endpoint.send",
        "Endpoint.send_all",
    ),
    digest_calls=frozenset(
        {
            "hashlib.blake2b",
            "hashlib.blake2s",
            "hashlib.md5",
            "hashlib.sha1",
            "hashlib.sha224",
            "hashlib.sha256",
            "hashlib.sha384",
            "hashlib.sha512",
        }
    ),
)


def finding_to_diagnostic(finding: TaintFinding) -> Diagnostic:
    """Render one taint finding as a :class:`Diagnostic` with a trace."""
    code = _KIND_TO_CODE[finding.kind]
    source_step = finding.steps[0] if finding.steps else None
    origin = (
        " (source %s:%d)" % (source_step.rel_path, source_step.line)
        if source_step is not None
        else ""
    )
    return Diagnostic(
        code=code,
        severity=Severity.WARNING if code in _WARNING_CODES else Severity.ERROR,
        source=finding.rel_path,
        line=finding.line,
        message="%s value reaches %s in %s%s"
        % (_KIND_LABEL[finding.kind], finding.sink_desc, finding.function, origin),
        hint="run `python -m repro lint --explain %s` for the full "
        "source→sink path; make the value sim-derived (Clock/RngStreams) "
        "or keep it out of scheduling/sends/digests" % code,
        trace=tuple(step.format() for step in finding.steps),
    )


def run_taint_rules(program) -> List[Diagnostic]:
    """DET1xx over a linked :class:`~repro.analysis.callgraph.Program`."""
    findings = analyze_program(program, DEFAULT_TAINT_MODEL)
    return [finding_to_diagnostic(finding) for finding in findings]
