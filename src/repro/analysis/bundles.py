"""Static bundle verifier: the VER rule family.

Checks a set of :class:`~repro.osgi.definition.BundleDefinition` objects,
so that what the paper's topmost classloader enforces at wire time —
explicit export checking — also exists as a diagnostic (every chaos
deployment runs it through :func:`repro.faults.campaign.verify_deployment`).
Matching semantics deliberately reuse the
resolver's own candidate helpers (:func:`repro.osgi.wiring.
static_import_candidates`), which is what makes the verifier *sound*
with respect to :mod:`repro.osgi.wiring`: a set it accepts with no
errors is a set the resolver can wire (cycles included — the resolver
tolerates mutually-importing bundles, so the verifier only demands that
every mandatory clause has at least one in-set candidate).

Rules (docs/ANALYSIS.md has a triggering/non-triggering example each):

``VER001`` unresolvable Import-Package — no exporter at all, only
version-mismatched exporters, or only the importer itself (a bundle
cannot wire its own export).

``VER002`` impossible version range, e.g. ``[1.0,1.0)``.

``VER003`` two bundles export the same package at the same version with
no distinguishing attributes (warning — legal, but resolution becomes
install-order dependent).

``VER004`` the declared activator class lives in a package the bundle
neither contains nor imports — the analogue of a ``Bundle-Activator``
``ClassNotFoundException`` at start time.

``VER005`` the activator registers a service under a dotted interface
from a package the bundle neither contains nor imports (warning —
consumers cannot load the interface through this bundle's class space).

``VER006`` lifecycle-leak heuristics on the activator AST:
``get_service`` in start() with no ``unget_service`` anywhere, and
``add_*_listener`` with no matching ``remove_*_listener`` (warnings).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.activators import analyze_activator
from repro.analysis.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.osgi.definition import BundleDefinition
from repro.osgi.wiring import static_import_candidates

#: Rule catalogue: code -> one-line summary (mirrored in docs/ANALYSIS.md).
VER_RULES: Dict[str, str] = {
    "VER001": "unresolvable Import-Package",
    "VER002": "impossible version range",
    "VER003": "duplicate export without distinguishing attributes",
    "VER004": "activator class outside the bundle's class space",
    "VER005": "service registered under a foreign interface package",
    "VER006": "unbalanced lifecycle (get/unget, add/remove listener)",
}


def verify_bundles(
    definitions: Sequence[BundleDefinition],
    context: Sequence[BundleDefinition] = (),
    check_activators: bool = True,
) -> List[Diagnostic]:
    """Verify ``definitions`` against themselves plus ``context``.

    ``context`` bundles (e.g. the already-installed population of a
    framework) can satisfy imports but are not themselves re-verified.
    Returns every finding, sorted; callers decide whether warnings gate.
    """
    universe: List[BundleDefinition] = list(definitions) + list(context)
    out: List[Diagnostic] = []
    for definition in definitions:
        out.extend(_verify_manifest(definition, universe))
        if check_activators:
            out.extend(_verify_activator(definition))
    return sort_diagnostics(out)


# ----------------------------------------------------------------------
# Manifest-level rules
# ----------------------------------------------------------------------
def _verify_manifest(
    definition: BundleDefinition, universe: Sequence[BundleDefinition]
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    name = definition.symbolic_name
    manifest = definition.manifest

    for imported in manifest.imports:
        if imported.version_range.is_empty():
            out.append(
                _diag(
                    "VER002",
                    Severity.ERROR,
                    name,
                    "Import-Package %s has the impossible version range %s"
                    % (imported.name, imported.version_range),
                    hint="an interval like [1.0,1.0) excludes its own endpoint; "
                    "use [1.0,1.0] for an exact pin",
                )
            )
            continue
        if imported.optional:
            continue
        candidates = static_import_candidates(universe, imported, importer=definition)
        if candidates:
            continue
        exporters = [
            (d, e)
            for d, e in _exporters_of(universe, imported.name)
            if d is not definition
        ]
        if not exporters:
            hint = "no bundle in the set exports %r" % imported.name
            if any(e.name == imported.name for e in manifest.exports):
                hint = (
                    "only %s itself exports %r — a bundle cannot wire its own "
                    "export; provide another exporter or drop the self-import"
                    % (name, imported.name)
                )
            out.append(
                _diag(
                    "VER001",
                    Severity.ERROR,
                    name,
                    "Import-Package %s is unresolvable: no exporter" % imported,
                    hint=hint,
                )
            )
        else:
            offered = ", ".join(
                "%s@%s" % (d.symbolic_name, e.version) for d, e in exporters
            )
            out.append(
                _diag(
                    "VER001",
                    Severity.ERROR,
                    name,
                    "Import-Package %s is unresolvable: exporters exist but none "
                    "satisfies the version range (offered: %s)" % (imported, offered),
                    hint="widen the import range or export a matching version",
                )
            )

    out.extend(_duplicate_exports(definition, universe))
    out.extend(_activator_package(definition))
    return out


def _exporters_of(
    universe: Sequence[BundleDefinition], package: str
) -> List[Tuple[BundleDefinition, "object"]]:
    found = []
    for definition in universe:
        for export in definition.manifest.exports:
            if export.name == package:
                found.append((definition, export))
    return found


def _duplicate_exports(
    definition: BundleDefinition, universe: Sequence[BundleDefinition]
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for export in definition.manifest.exports:
        clashes = sorted(
            other.symbolic_name
            for other in universe
            if other is not definition
            for other_export in other.manifest.exports
            if other_export.name == export.name
            and other_export.version == export.version
            and other_export.attributes == export.attributes
        )
        if clashes:
            out.append(
                _diag(
                    "VER003",
                    Severity.WARNING,
                    definition.symbolic_name,
                    "export %s@%s duplicates the export of %s with no "
                    "distinguishing attributes"
                    % (export.name, export.version, ", ".join(clashes)),
                    hint="add a distinguishing attribute "
                    '(e.g. provider="acme") or distinct versions so importers '
                    "can choose deterministically",
                )
            )
    return out


def _activator_package(definition: BundleDefinition) -> List[Diagnostic]:
    activator = definition.manifest.activator
    if not activator or "." not in activator:
        return []
    package = activator.rsplit(".", 1)[0]
    imports = {i.name for i in definition.manifest.imports}
    if package in definition.packages or package in imports:
        return []
    return [
        _diag(
            "VER004",
            Severity.ERROR,
            definition.symbolic_name,
            "Bundle-Activator %s references package %s which the bundle "
            "neither contains nor imports" % (activator, package),
            hint="add the package to the bundle contents or import it",
        )
    ]


# ----------------------------------------------------------------------
# Activator AST rules
# ----------------------------------------------------------------------
def _verify_activator(definition: BundleDefinition) -> List[Diagnostic]:
    report = analyze_activator(definition.activator_factory)
    if report is None:
        return []
    out: List[Diagnostic] = []
    name = definition.symbolic_name
    imports = {i.name for i in definition.manifest.imports}

    for interface, line in report.registered:
        if "." not in interface:
            continue  # short local names carry no package claim
        package = interface.rsplit(".", 1)[0]
        if package in definition.packages or package in imports:
            continue
        out.append(
            _diag(
                "VER005",
                Severity.WARNING,
                name,
                "activator %s registers a service under %s, but package %s is "
                "neither contained nor imported"
                % (report.class_name, interface, package),
                hint="import the interface's package so consumers share the "
                "same class space",
                line=line,
            )
        )

    if (
        "get_service" in report.start_calls
        and "unget_service" not in report.all_calls
    ):
        out.append(
            _diag(
                "VER006",
                Severity.WARNING,
                name,
                "activator %s calls get_service in start() but never "
                "unget_service" % report.class_name,
                hint="release uses in stop(); the framework's release_all is "
                "a safety net, not a contract",
                line=report.first_get_service_line,
            )
        )

    removals = {call for call in report.all_calls if call.startswith("remove_")}
    for add_name, line in report.listener_adds:
        expected = "remove_" + add_name[len("add_"):]
        if expected not in removals:
            out.append(
                _diag(
                    "VER006",
                    Severity.WARNING,
                    name,
                    "activator %s calls %s but never %s — the listener leaks "
                    "past stop()" % (report.class_name, add_name, expected),
                    hint="remove listeners in stop(); contexts are invalidated "
                    "but dispatcher registrations persist",
                    line=line,
                )
            )
    return out


def _diag(
    code: str,
    severity: Severity,
    source: str,
    message: str,
    hint: str = "",
    line: int = 0,
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=severity,
        source=source,
        line=line,
        message=message,
        hint=hint,
    )
