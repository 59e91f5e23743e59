"""Bundle manifests: the OSGi metadata grammar.

A manifest carries the headers the resolver consumes — ``Bundle-
SymbolicName``, ``Bundle-Version``, ``Import-Package``, ``Export-Package``
— plus free-form headers. Two construction paths are supported:

* programmatic (:meth:`Manifest.build`) for bundles defined in Python, and
* textual (:meth:`Manifest.parse`) accepting the MANIFEST.MF syntax with
  72-byte continuation lines and the OSGi clause grammar
  (``pkg.a;pkg.b;version="[1,2)";resolution:=optional, pkg.c``), so fixtures
  can be written exactly like real bundle manifests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        if not symbolic_name:
            raise BundleException("Bundle-SymbolicName is mandatory")
        self.symbolic_name = symbolic_name
        self.version = version
        self.imports = tuple(imports)
        self.exports = tuple(exports)
        self.activator = activator
        self.headers: Dict[str, str] = dict(headers or {})
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
        headers: Optional[Mapping[str, str]] = None,
    ) -> "Manifest":
        """Build a manifest from compact clause strings.

        ``imports``/``exports`` elements use the same clause syntax as the
        textual headers, e.g. ``'log;version="[1.0,2.0)"'``.
        """
        return cls(
            symbolic_name=symbolic_name,
            version=Version.parse(version),
            imports=[_parse_import(c) for c in imports],
            exports=[_parse_export(c) for c in exports],
            activator=activator,
            headers=headers,
        )

    @classmethod
    def parse(cls, text: str) -> "Manifest":
        """Parse MANIFEST.MF-style text into a :class:`Manifest`.

        ``Require-Bundle`` and ``DynamicImport-Package`` are refused with a
        :class:`BundleException` naming the header: the resolver wires
        packages only, and a bundle silently resolved without the wiring
        it asked for would fail later and further from the cause.
        """
        headers = parse_headers(text)
        for header in _UNSUPPORTED_HEADERS:
            if header in headers:
                raise BundleException("%s is not supported" % header)
        symbolic_name = headers.get("Bundle-SymbolicName", "").split(";")[0].strip()
        if not symbolic_name:
            raise BundleException("manifest missing Bundle-SymbolicName")
        version = Version.parse(headers.get("Bundle-Version", "0.0.0"))
        imports = [
            _parse_import(c) for c in split_clauses(headers.get("Import-Package", ""))
        ]
        exports = [
            _parse_export(c) for c in split_clauses(headers.get("Export-Package", ""))
        ]
        return cls(
            symbolic_name=symbolic_name,
            version=version,
            imports=imports,
            exports=exports,
            activator=headers.get("Bundle-Activator", "").strip(),
            headers=headers,
        )

    def to_text(self) -> str:
        """Render back to MANIFEST.MF-style text (unwrapped lines)."""
        lines = [
            "Bundle-ManifestVersion: 2",
            "Bundle-SymbolicName: %s" % self.symbolic_name,
            "Bundle-Version: %s" % self.version,
        ]
        if self.activator:
            lines.append("Bundle-Activator: %s" % self.activator)
        if self.imports:
            lines.append(
                "Import-Package: %s" % ", ".join(str(i) for i in self.imports)
            )
        if self.exports:
            lines.append(
                "Export-Package: %s" % ", ".join(str(e) for e in self.exports)
            )
        for key, value in sorted(self.headers.items()):
            if key in _CORE_HEADERS:
                continue
            lines.append("%s: %s" % (key, value))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return "Manifest(%s %s, %d imports, %d exports)" % (
            self.symbolic_name,
            self.version,
            len(self.imports),
            len(self.exports),
        )


_CORE_HEADERS = {
    "Bundle-ManifestVersion",
    "Bundle-SymbolicName",
    "Bundle-Version",
    "Bundle-Activator",
    "Import-Package",
    "Export-Package",
}

#: Headers of R4 wiring modes the resolver does not implement.
_UNSUPPORTED_HEADERS = ("Require-Bundle", "DynamicImport-Package")


# ----------------------------------------------------------------------
# Header-level parsing
# ----------------------------------------------------------------------
def parse_headers(text: str) -> Dict[str, str]:
    """Parse ``Name: value`` headers with MANIFEST.MF continuation lines.

    A line starting with a single space continues the previous header's
    value (the space is stripped), per the JAR file specification.
    """
    headers: Dict[str, str] = {}
    current: Optional[str] = None
    for raw_line in text.splitlines():
        if not raw_line.strip():
            current = None
            continue
        if raw_line.startswith(" "):
            if current is None:
                raise BundleException(
                    "continuation line without header: %r" % raw_line
                )
            headers[current] += raw_line[1:]
            continue
        if ":" not in raw_line:
            raise BundleException("malformed manifest line: %r" % raw_line)
        name, _, value = raw_line.partition(":")
        current = name.strip()
        headers[current] = value.strip()
    return headers


def split_clauses(header_value: str) -> List[str]:
    """Split a header value on commas that are outside quoted strings."""
    clauses: List[str] = []
    depth_quote = False
    current: List[str] = []
    for ch in header_value:
        if ch == '"':
            depth_quote = not depth_quote
            current.append(ch)
        elif ch == "," and not depth_quote:
            clause = "".join(current).strip()
            if clause:
                clauses.append(clause)
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        clauses.append(tail)
    return clauses


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

