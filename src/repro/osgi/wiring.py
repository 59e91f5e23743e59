"""The resolver: wiring Import-Package clauses to exporters.

Candidate selection follows OSGi R4 precedence: an already-resolved
exporter beats an unresolved one, then higher export version, then lower
bundle id (older install). Resolution is transitive — choosing an
unresolved exporter requires resolving it too — with backtracking over
candidates and cycle tolerance (mutually-importing bundles resolve
together, as the spec allows).

``uses:`` constraint checking is not implemented; this reproduction never
creates the split-package situations it guards against, and DESIGN.md
records the omission. Require-Bundle and DynamicImport-Package are not
implemented either: a :class:`~repro.osgi.manifest.Manifest` carries
only Import-Package and Export-Package clauses, so packages are the only
unit of wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, TYPE_CHECKING

from repro.osgi.errors import ResolutionError
from repro.osgi.manifest import ExportedPackage, ImportedPackage
from repro.osgi.version import Version

if TYPE_CHECKING:  # pragma: no cover
    from repro.osgi.bundle import Bundle


@dataclass(frozen=True)
class PackageWire:
    """A resolved link: ``importer`` gets ``package`` from ``exporter``."""

    package: str
    importer: "Bundle"
    exporter: "Bundle"
    version: Version

    def __repr__(self) -> str:
        return "PackageWire(%s: %s -> %s @%s)" % (
            self.package,
            self.importer.symbolic_name,
            self.exporter.symbolic_name,
            self.version,
        )


class Resolver:
    """Wires bundles against the set of bundles known to one framework."""

    def __init__(self, framework: "object") -> None:
        self._framework = framework

    # ------------------------------------------------------------------
    def resolve(self, bundle: "Bundle") -> Dict[str, PackageWire]:
        """Compute wires for ``bundle``, resolving exporters transitively.

        On success every bundle drawn into the resolution has its wires
        installed and is moved to RESOLVED. Raises
        :class:`~repro.osgi.errors.ResolutionError` otherwise, leaving all
        involved bundles untouched.
        """
        plan: Dict["Bundle", Dict[str, PackageWire]] = {}
        in_progress: Set["Bundle"] = set()
        if not self._try_resolve(bundle, plan, in_progress):
            raise ResolutionError(self._explain_failure(bundle))
        for resolved_bundle, wires in plan.items():
            resolved_bundle._install_wires(wires)
        return plan.get(bundle, {})

    # ------------------------------------------------------------------
    def _try_resolve(
        self,
        bundle: "Bundle",
        plan: Dict["Bundle", Dict[str, PackageWire]],
        in_progress: Set["Bundle"],
    ) -> bool:
        from repro.osgi.bundle import BundleState

        if bundle.state in (
            BundleState.RESOLVED,
            BundleState.STARTING,
            BundleState.ACTIVE,
            BundleState.STOPPING,
        ):
            return True
        if bundle in plan or bundle in in_progress:
            # Cycle: tentatively fine; the initiator completes the plan.
            return True

        in_progress.add(bundle)
        wires: Dict[str, PackageWire] = {}
        try:
            for imported in bundle.definition.manifest.imports:
                wire = self._wire_import(bundle, imported, plan, in_progress)
                if wire is None:
                    if imported.optional:
                        continue
                    return False
                wires[imported.name] = wire
        finally:
            in_progress.discard(bundle)
        plan[bundle] = wires
        return True

    def _wire_import(
        self,
        bundle: "Bundle",
        imported: ImportedPackage,
        plan: Dict["Bundle", Dict[str, PackageWire]],
        in_progress: Set["Bundle"],
    ) -> Optional[PackageWire]:
        candidates = self._candidates(bundle, imported)
        for exporter, export in candidates:
            snapshot = dict(plan)
            if self._try_resolve(exporter, plan, in_progress):
                return PackageWire(imported.name, bundle, exporter, export.version)
            # Backtrack any partial progress made while trying this candidate.
            plan.clear()
            plan.update(snapshot)
        return None

    def _candidates(
        self, bundle: "Bundle", imported: ImportedPackage
    ) -> List["tuple[Bundle, ExportedPackage]"]:
        from repro.osgi.bundle import BundleState

        found: List["tuple[Bundle, ExportedPackage]"] = []
        for other in self._framework.bundles():
            if other is bundle:
                continue
            if other.state == BundleState.UNINSTALLED:
                continue
            for export in other.definition.manifest.exports:
                if export.name != imported.name:
                    continue
                if not imported.version_range.includes(export.version):
                    continue
                found.append((other, export))
        resolved_states = (
            BundleState.RESOLVED,
            BundleState.STARTING,
            BundleState.ACTIVE,
        )
        found.sort(
            key=lambda pair: (
                0 if pair[0].state in resolved_states else 1,
                _negate_version(pair[1].version),
                pair[0].bundle_id,
            )
        )
        return found

    def _explain_failure(self, bundle: "Bundle") -> str:
        missing: List[str] = []
        for imported in bundle.definition.manifest.imports:
            if imported.optional:
                continue
            if not self._candidates(bundle, imported):
                missing.append(str(imported))
        if missing:
            return "cannot resolve %s: unsatisfied imports %s" % (
                bundle.symbolic_name,
                ", ".join(missing),
            )
        return (
            "cannot resolve %s: imports individually satisfiable but no "
            "consistent wiring exists" % bundle.symbolic_name
        )


# ----------------------------------------------------------------------
# Static introspection helpers
# ----------------------------------------------------------------------
def static_import_candidates(
    definitions: "Sequence[object]",
    imported: ImportedPackage,
    importer: "Optional[object]" = None,
) -> "List[tuple[object, ExportedPackage]]":
    """Exporter candidates for ``imported`` among bare definitions.

    The definition-level mirror of :meth:`Resolver._candidates`: same
    name/version-range matching, same exclusion of the importer itself,
    ordered best-first by (export version descending, symbolic name).
    The static bundle verifier (:mod:`repro.analysis.bundles`) leans on
    this sharing to stay sound with respect to the resolver.
    """
    found: "List[tuple[object, ExportedPackage]]" = []
    for definition in definitions:
        if importer is not None and definition is importer:
            continue
        for export in definition.manifest.exports:
            if export.name != imported.name:
                continue
            if not imported.version_range.includes(export.version):
                continue
            found.append((definition, export))
    found.sort(
        key=lambda pair: (
            _negate_version(pair[1].version),
            pair[0].symbolic_name,
        )
    )
    return found


class _NegatedVersion:
    """Sort helper: orders versions descending inside an ascending sort."""

    __slots__ = ("version",)

    def __init__(self, version: Version) -> None:
        self.version = version

    def __lt__(self, other: "_NegatedVersion") -> bool:
        return other.version < self.version

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _NegatedVersion) and self.version == other.version
        )


def _negate_version(version: Version) -> _NegatedVersion:
    return _NegatedVersion(version)
