"""Sim-safety determinism linter: the per-file DET rule family
(DET000–DET008).

The whole reproduction runs on virtual time (:mod:`repro.sim.clock`) and
seeded random streams (:mod:`repro.sim.rng`); chaos-campaign replay and
the pinned trace digests depend on that discipline byte-for-byte. These
AST rules turn the convention into a checkable contract. Every rule is
syntactic and looks at one file: a nondeterminism source is flagged
where it is *read*, not where its value lands. Whether hash order
crosses function boundaries into a run's output is checked dynamically
(``tests/test_hashseed_bytes.py``, two ``PYTHONHASHSEED`` values, same
bytes).

``DET001`` wall-clock reads (``time.time``, ``datetime.now`` ...) outside
the virtual clock. Both calls *and* bare references are flagged — stashing
``time.perf_counter_ns`` in a variable is how the leak usually happens.

``DET002`` the process-global RNG (``random.random()``, ``random.seed``,
``from random import choice``), ad-hoc ``random.Random(...)``
construction outside :mod:`repro.sim.rng`, or OS entropy
(``os.urandom``, ``uuid.uuid1``/``uuid4``, ``secrets.*``) — randomness
must be an injected ``random.Random`` drawn from ``RngStreams``.

``DET003`` ``for`` loops over ``set``/``frozenset`` values or
``dict.values()``/``keys()``/``items()`` whose body schedules events or
sends messages, and the same shapes passed directly as an argument to a
scheduling or send call. Set iteration order depends on
``PYTHONHASHSEED``, a dict view's on insertion history; wrap the
iterable in ``sorted(...)`` with an explicit key (or suppress with a
justification when insertion order is the intended total order).

``DET004`` ``id()`` used in an ordering context — an inequality
comparison or a ``sorted``/``sort``/``min``/``max`` key — or builtin
``hash()`` called outside a ``__hash__`` body. CPython reuses object
identities and salts ``str``/``bytes`` hashes per process, so either
differs across runs. Dedup-only ``id`` use (``id(x) in seen``) stays
clean.

``DET005`` importing ``threading``/``asyncio``/``multiprocessing``
primitives into the sim — real concurrency breaks the single-threaded
deterministic event loop.

``DET006`` a suppression directive (``# repro: allow[...]`` or
``allow-file[...]``) inside a suppression-free zone
(:data:`SUPPRESSION_FREE_ZONES`). The telemetry package is the
measurement instrument the other rules protect, so it may not even
*carry* an opt-out; directives found there are reported and **void** —
the findings they would have hidden are still emitted.

``DET007`` a suppression directive naming a rule code that does not
exist in any catalogue (DET/VER) — usually a typo that would otherwise
silently suppress nothing; diagnosed, never fatal.

``DET008`` a read of the process environment (``os.environ``,
``os.environb``, ``os.getenv``) — host configuration leaking into the
simulated world.

Suppression syntax lives in :mod:`repro.analysis.suppressions`; the rule
catalogue with examples is docs/ANALYSIS.md.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.bundles import VER_RULES
from repro.analysis.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.analysis.suppressions import Suppressions, scan_suppressions

#: Rule catalogue: code -> one-line summary (mirrored in docs/ANALYSIS.md).
DET_RULES: Dict[str, str] = {
    "DET000": "file could not be read or parsed",
    "DET001": "wall-clock read outside the virtual clock",
    "DET002": "process-global RNG, ad-hoc RNG or OS entropy instead of an injected stream",
    "DET003": "unordered iteration feeding event scheduling or sends",
    "DET004": "id() in an ordering context, or hash() outside __hash__",
    "DET005": "thread/async primitives inside the deterministic sim",
    "DET006": "suppression directive inside a suppression-free zone",
    "DET007": "suppression directive names an unknown rule code",
    "DET008": "process-environment read inside the deterministic sim",
}

#: Every catalogued code, across both engines (for DET007 validation).
_KNOWN_RULE_CODES = frozenset(DET_RULES) | frozenset(VER_RULES)

#: Files (posix path suffixes) allowed to break a rule by design.
PATH_ALLOWLIST: Dict[str, Tuple[str, ...]] = {
    "DET001": ("sim/clock.py",),
    "DET002": ("sim/rng.py",),
}

#: Path prefixes (posix, relative to the lint root) where suppression
#: directives are forbidden and inert. The telemetry subsystem is the
#: measurement instrument everything else is audited with — it must stay
#: clean without exceptions.
SUPPRESSION_FREE_ZONES: Tuple[str, ...] = ("repro/telemetry/",)


def _in_suppression_free_zone(rel_path: str) -> bool:
    posix = rel_path.replace(os.sep, "/")
    return any(zone in posix for zone in SUPPRESSION_FREE_ZONES)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: random-module functions that draw from the hidden global Mersenne state.
_GLOBAL_RANDOM_FUNCTIONS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: random-module RNG classes whose construction outside sim/rng.py makes
#: an unmanaged stream (SystemRandom is additionally never replayable).
_RANDOM_CLASSES = frozenset({"Random", "SystemRandom"})

#: Entropy the OS hands out; no seed replays it.
_OS_ENTROPY = frozenset(
    {
        "os.urandom",
        "secrets.SystemRandom",
        "secrets.choice",
        "secrets.randbelow",
        "secrets.randbits",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

_ENVIRONMENT = frozenset({"os.environ", "os.environb", "os.getenv"})

_FORBIDDEN_MODULES = frozenset(
    {"threading", "_thread", "asyncio", "multiprocessing", "concurrent"}
)

#: Callable names that schedule events or move messages; a DET003 loop
#: body containing one of these, or an unordered argument to one, makes
#: the iteration order observable.
_SCHEDULING_NAMES = frozenset(
    {
        "broadcast",
        "call_after",
        "call_at",
        "call_soon",
        "call_transient_after",
        "call_transient_at",
        "deliver",
        "enqueue",
        "fire_bundle_event",
        "fire_framework_event",
        "fire_service_event",
        "multicast",
        "schedule",
        "send",
        "send_all",
        "send_to",
        "submit",
    }
)

#: Wrappers that preserve the underlying iteration order (so looking
#: through them keeps DET003 precise); ``sorted`` intentionally absent.
_ORDER_PRESERVING_WRAPPERS = frozenset({"list", "tuple", "reversed", "enumerate"})


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _call_name(node: ast.Call) -> Optional[str]:
    """The last name of the callee: ``f`` for ``f(...)`` and ``x.f(...)``."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        and len(node.args) == 1
    )


def _contains_id_call(node: ast.AST) -> bool:
    return any(_is_id_call(child) for child in ast.walk(node))


class _FileVisitor(ast.NodeVisitor):
    """One pass over a module collecting DET diagnostics."""

    def __init__(self, rel_path: str, select: Optional[Set[str]]) -> None:
        self.rel_path = rel_path
        self.select = select
        self.diagnostics: List[Diagnostic] = []
        #: local name -> dotted origin ("t" -> "time", "now" -> "datetime.datetime.now")
        self._aliases: Dict[str, str] = {}
        #: how many enclosing function definitions are named ``__hash__``
        self._hash_bodies = 0

    # -- reporting ------------------------------------------------------
    def _enabled(self, code: str) -> bool:
        if self.select is not None and code not in self.select:
            return False
        for suffix in PATH_ALLOWLIST.get(code, ()):
            if self.rel_path.endswith(suffix):
                return False
        return True

    def _report(
        self,
        code: str,
        node: ast.AST,
        message: str,
        hint: str = "",
        severity: Severity = Severity.ERROR,
    ) -> None:
        if not self._enabled(code):
            return
        self.diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity,
                source=self.rel_path,
                line=getattr(node, "lineno", 0),
                message=message,
                hint=hint,
            )
        )

    # -- import tracking + DET005 --------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            origin = alias.name if alias.asname else alias.name.split(".")[0]
            self._aliases[local] = origin
            self._check_forbidden_module(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            self._aliases[local] = "%s.%s" % (module, alias.name) if module else alias.name
        self._check_forbidden_module(node, module)
        if module == "random":
            bad = sorted(
                alias.name
                for alias in node.names
                if alias.name in _GLOBAL_RANDOM_FUNCTIONS
            )
            if bad:
                self._report(
                    "DET002",
                    node,
                    "import of process-global random function%s %s"
                    % ("s" if len(bad) > 1 else "", ", ".join(bad)),
                    hint="take an injected random.Random (see repro.sim.rng.RngStreams)",
                )
        self.generic_visit(node)

    def _check_forbidden_module(self, node: ast.AST, module: str) -> None:
        root = module.split(".")[0] if module else ""
        if root in _FORBIDDEN_MODULES:
            self._report(
                "DET005",
                node,
                "import of %r — concurrency primitives break the deterministic sim"
                % module,
                hint="model concurrency as events on repro.sim.eventloop.EventLoop",
            )

    # -- DET001 / DET002 / DET008 ---------------------------------------
    def _resolve(self, node: ast.AST) -> Optional[str]:
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        origin = self._aliases.get(root)
        if origin is None:
            return dotted
        return origin + ("." + rest if rest else "")

    def _check_reference(self, node: ast.AST, resolved: Optional[str]) -> None:
        if resolved in _WALL_CLOCK:
            self._report(
                "DET001",
                node,
                "wall-clock reference %s" % resolved,
                hint="take the sim Clock (repro.sim.clock) instead of host time",
            )
        elif resolved in _ENVIRONMENT:
            self._report(
                "DET008",
                node,
                "process-environment read %s" % resolved,
                hint="pass configuration in as a parameter; the host "
                "environment is not part of the seed",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_reference(node, self._resolve(node))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_reference(node, self._aliases.get(node.id))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        if resolved is not None and "." in resolved:
            module, _, attr = resolved.rpartition(".")
            if module == "random" and attr in _GLOBAL_RANDOM_FUNCTIONS:
                self._report(
                    "DET002",
                    node,
                    "call to process-global random.%s()" % attr,
                    hint="draw from an injected random.Random stream "
                    "(repro.sim.rng.RngStreams)",
                )
            elif module == "random" and attr in _RANDOM_CLASSES:
                self._report(
                    "DET002",
                    node,
                    "ad-hoc random.%s construction outside repro.sim.rng" % attr,
                    hint="derive streams from RngStreams so seeds stay "
                    "comparable across runs",
                )
            elif resolved in _OS_ENTROPY:
                self._report(
                    "DET002",
                    node,
                    "call to OS entropy source %s()" % resolved,
                    hint="draw from an injected random.Random stream "
                    "(repro.sim.rng.RngStreams)",
                )
        name = _call_name(node)
        if name in _SCHEDULING_NAMES:
            for argument in node.args + [k.value for k in node.keywords]:
                shape = self._unordered_shape(argument)
                if shape is not None:
                    self._report_unordered(
                        argument, "%s passed to %s()" % (shape, name), shape
                    )
        self._check_hash_call(node)
        self._check_sort_key(node, name)
        self.generic_visit(node)

    # -- DET004 ---------------------------------------------------------
    _ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        in_hash = node.name == "__hash__"
        self._hash_bodies += in_hash
        self.generic_visit(node)
        self._hash_bodies -= in_hash

    def _check_hash_call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and "hash" not in self._aliases
            and not self._hash_bodies
        ):
            self._report(
                "DET004",
                node,
                "builtin hash() outside __hash__ — str/bytes hashes are "
                "salted per process (PYTHONHASHSEED)",
                hint="key on a stable value (name, sequence number, hashlib "
                "digest); hash() is only safe for implementing __hash__",
            )

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, self._ORDERING_OPS) for op in node.ops):
            operands = [node.left] + list(node.comparators)
            if any(_contains_id_call(operand) for operand in operands):
                self._report(
                    "DET004",
                    node,
                    "id() compared with an ordering operator",
                    hint="order by a stable key (service.id, name, sequence "
                    "number); id() is only safe for dedup/hashing",
                )
        self.generic_visit(node)

    def _check_sort_key(self, node: ast.Call, func_name: Optional[str]) -> None:
        if func_name not in ("sorted", "sort", "min", "max", "insort", "nsmallest", "nlargest"):
            return
        for keyword in node.keywords:
            if keyword.arg == "key" and _contains_id_call(keyword.value):
                self._report(
                    "DET004",
                    node,
                    "id() used inside a %s key" % func_name,
                    hint="order by a stable key (service.id, name, sequence "
                    "number); id() is only safe for dedup/hashing",
                )

    # -- DET003 ---------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        shape = self._unordered_shape(node.iter)
        if shape is not None:
            offender = self._scheduling_call(node.body)
            if offender is not None:
                self._report_unordered(
                    node, "iteration over %s drives %s()" % (shape, offender), shape
                )
        self.generic_visit(node)

    def _report_unordered(self, node: ast.AST, what: str, shape: str) -> None:
        self._report(
            "DET003",
            node,
            "%s — order depends on %s"
            % (
                what,
                "insertion history" if shape.startswith("dict.") else "PYTHONHASHSEED",
            ),
            hint="iterate sorted(..., key=...) with an explicit key, "
            "or suppress with a justification if insertion order "
            "is the intended total order",
            # A heuristic, not a proof: insertion order may well be
            # the intended total order. --strict promotes it.
            severity=Severity.WARNING,
        )

    def _unordered_shape(self, node: ast.AST) -> Optional[str]:
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_PRESERVING_WRAPPERS
            and node.args
        ):
            node = node.args[0]
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "values",
                "keys",
                "items",
            ):
                return "dict.%s()" % node.func.attr
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return "%s()" % node.func.id
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set expression"
        return None

    def _scheduling_call(self, body: Sequence[ast.stmt]) -> Optional[str]:
        for statement in body:
            for child in ast.walk(statement):
                if isinstance(child, ast.Call):
                    name = _call_name(child)
                    if name in _SCHEDULING_NAMES:
                        return name
        return None


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    """Outcome of one lint run: findings plus what was scanned."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors


def _unreadable(rel_path: str, line: int, reason: str) -> Diagnostic:
    return Diagnostic(
        code="DET000",
        severity=Severity.ERROR,
        source=rel_path,
        line=line,
        message="file could not be %s" % reason,
    )


def lint_source(
    source: str,
    rel_path: str,
    select: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Lint one module's text; ``rel_path`` is the reported source label."""
    selected = {c.upper() for c in select} if select is not None else None
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_unreadable(rel_path, exc.lineno or 0, "parsed: %s" % exc.msg)]
    visitor = _FileVisitor(rel_path, selected)
    visitor.visit(tree)
    suppressions = scan_suppressions(source)
    unknown_code_diagnostics: List[Diagnostic] = []
    if selected is None or "DET007" in selected:
        for line, kind, codes in suppressions.directives:
            unknown = sorted(set(codes) - _KNOWN_RULE_CODES)
            if unknown:
                unknown_code_diagnostics.append(
                    Diagnostic(
                        code="DET007",
                        severity=Severity.WARNING,
                        source=rel_path,
                        line=line,
                        message="%s[...] directive names unknown rule code%s %s"
                        % (kind, "s" if len(unknown) > 1 else "",
                           ", ".join(unknown)),
                        hint="see `python -m repro lint --list-rules` for the "
                        "catalogue; a typo here suppresses nothing",
                    )
                )
    if _in_suppression_free_zone(rel_path):
        # Directives here are void: report each one and keep every finding.
        diagnostics = list(visitor.diagnostics) + unknown_code_diagnostics
        if selected is None or "DET006" in selected:
            for line, kind, codes in suppressions.directives:
                diagnostics.append(
                    Diagnostic(
                        code="DET006",
                        severity=Severity.ERROR,
                        source=rel_path,
                        line=line,
                        message="%s[%s] directive in suppression-free zone"
                        % (kind, ",".join(codes)),
                        hint="repro/telemetry must stay lint-clean without "
                        "opt-outs; fix the finding instead",
                    )
                )
        return diagnostics
    return [
        diagnostic
        for diagnostic in visitor.diagnostics + unknown_code_diagnostics
        if not suppressions.is_suppressed(diagnostic.code, diagnostic.line)
    ]


def collect_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        out.append(os.path.join(dirpath, filename))
        elif path.endswith(".py"):
            out.append(path)
    return sorted(dict.fromkeys(out))


def lint_paths(
    paths: Iterable[str],
    root: Optional[str] = None,
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every ``.py`` under ``paths``; labels are relative to ``root``."""
    result = LintResult()
    for path in collect_python_files(paths):
        rel = os.path.relpath(path, root) if root else path
        if rel.startswith(".."):
            rel = path  # outside the root: keep the caller's spelling
        rel = rel.replace(os.sep, "/")
        result.files.append(rel)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (UnicodeDecodeError, OSError) as exc:
            result.diagnostics.append(_unreadable(rel, 0, "read: %s" % exc))
            continue
        result.diagnostics.extend(lint_source(source, rel, select=select))
    result.diagnostics = sort_diagnostics(result.diagnostics)
    return result
