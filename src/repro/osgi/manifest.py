"""Bundle manifests: the OSGi metadata grammar.

A manifest carries the headers the resolver consumes — ``Bundle-
SymbolicName``, ``Bundle-Version``, ``Import-Package``, ``Export-Package``
and ``Bundle-Activator``. Every bundle is defined in Python, so
:meth:`Manifest.build` is the one construction path; its import and export
strings use the OSGi clause grammar
(``pkg.a;version="[1,2)";resolution:=optional``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.osgi.errors import BundleException
from repro.osgi.version import ANY_VERSION, EMPTY_VERSION, Version, VersionRange


@dataclass(frozen=True)
class ImportedPackage:
    """One clause of ``Import-Package``."""

    name: str
    version_range: VersionRange = ANY_VERSION
    optional: bool = False

    def __str__(self) -> str:
        text = self.name
        if self.version_range != ANY_VERSION:
            text += ';version="%s"' % self.version_range
        if self.optional:
            text += ";resolution:=optional"
        return text


@dataclass(frozen=True)
class ExportedPackage:
    """One clause of ``Export-Package``."""

    name: str
    version: Version = EMPTY_VERSION
    attributes: Tuple[Tuple[str, str], ...] = ()

    def __str__(self) -> str:
        text = self.name
        if self.version != EMPTY_VERSION:
            text += ';version="%s"' % self.version
        for key, value in self.attributes:
            text += ';%s="%s"' % (key, value)
        return text


class Manifest:
    """Parsed bundle metadata."""

    def __init__(
        self,
        symbolic_name: str,
        version: Version = EMPTY_VERSION,
        imports: Sequence[ImportedPackage] = (),
        exports: Sequence[ExportedPackage] = (),
        activator: str = "",
    ) -> None:
        if not symbolic_name:
            raise BundleException("Bundle-SymbolicName is mandatory")
        self.symbolic_name = symbolic_name
        self.version = version
        self.imports = tuple(imports)
        self.exports = tuple(exports)
        self.activator = activator
        names = [e.name for e in self.exports]
        if len(set(names)) != len(names):
            raise BundleException(
                "duplicate Export-Package clauses in %s" % symbolic_name
            )
        import_names = [i.name for i in self.imports]
        if len(set(import_names)) != len(import_names):
            raise BundleException(
                "duplicate Import-Package clauses in %s" % symbolic_name
            )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        symbolic_name: str,
        version: str = "0.0.0",
        imports: Iterable[str] = (),
        exports: Iterable[str] = (),
        activator: str = "",
    ) -> "Manifest":
        """Build a manifest from compact clause strings.

        ``imports``/``exports`` elements use the OSGi clause syntax of
        the ``Import-Package`` / ``Export-Package`` headers, e.g.
        ``'log;version="[1.0,2.0)"'``.
        """
        return cls(
            symbolic_name=symbolic_name,
            version=Version.parse(version),
            imports=[_parse_import(c) for c in imports],
            exports=[_parse_export(c) for c in exports],
            activator=activator,
        )

    def __repr__(self) -> str:
        return "Manifest(%s %s, %d imports, %d exports)" % (
            self.symbolic_name,
            self.version,
            len(self.imports),
            len(self.exports),
        )


# ----------------------------------------------------------------------
# Clause grammar
# ----------------------------------------------------------------------
def parse_clause(clause: str) -> Tuple[List[str], Dict[str, str], Dict[str, str]]:
    """Parse one clause into (paths, attributes, directives).

    ``"a.b;c.d;version=\"[1,2)\";resolution:=optional"`` yields paths
    ``['a.b', 'c.d']``, attributes ``{'version': '[1,2)'}`` and directives
    ``{'resolution': 'optional'}``.
    """
    paths: List[str] = []
    attributes: Dict[str, str] = {}
    directives: Dict[str, str] = {}
    for part in _split_semicolons(clause):
        part = part.strip()
        if not part:
            continue
        if ":=" in part:
            key, _, value = part.partition(":=")
            directives[key.strip()] = _unquote(value.strip())
        elif "=" in part:
            key, _, value = part.partition("=")
            attributes[key.strip()] = _unquote(value.strip())
        else:
            paths.append(part)
    if not paths:
        raise BundleException("clause has no path: %r" % clause)
    return paths, attributes, directives


def _split_semicolons(clause: str) -> List[str]:
    parts: List[str] = []
    in_quote = False
    current: List[str] = []
    for ch in clause:
        if ch == '"':
            in_quote = not in_quote
            current.append(ch)
        elif ch == ";" and not in_quote:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def _parse_import(clause: str) -> ImportedPackage:
    paths, attributes, directives = parse_clause(clause)
    if len(paths) != 1:
        # Multiple paths sharing parameters expand to multiple clauses in
        # real OSGi; here we require callers to pre-split for clarity.
        raise BundleException("one package per import clause: %r" % clause)
    version_range = VersionRange.parse(attributes.get("version", "0.0.0"))
    optional = directives.get("resolution", "") == "optional"
    return ImportedPackage(paths[0], version_range, optional)


def _parse_export(clause: str) -> ExportedPackage:
    paths, attributes, _ = parse_clause(clause)
    if len(paths) != 1:
        raise BundleException("one package per export clause: %r" % clause)
    version = Version.parse(attributes.get("version", "0.0.0"))
    extra = tuple(
        sorted((k, v) for k, v in attributes.items() if k != "version")
    )
    return ExportedPackage(paths[0], version, extra)
