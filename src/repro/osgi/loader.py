"""Per-bundle class namespaces — the Java classloader analogue.

In Java OSGi each bundle gets its own classloader and sees a class space
assembled from: its own content, packages wired from other bundles by the
resolver, and (in the paper's virtual instances) a *custom topmost
classloader* consulted only when normal lookup fails. This module
reproduces that name-resolution behaviour for Python objects:

* ``load("pkg.Symbol")`` consults import wires first (an imported package
  always shadows private content, as in OSGi), then the bundle's own
  packages, then the optional ``fallback`` delegate;
* two bundles loading the same symbol name through different wires can get
  *different* objects — namespace isolation, the property the paper's
  multi-customer safety argument rests on.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.osgi.errors import OSGiError

if TYPE_CHECKING:  # pragma: no cover
    from repro.osgi.bundle import Bundle


class ClassNotFoundError(OSGiError):
    """No symbol of that name is visible to the requesting bundle."""

    def __init__(self, name: str, bundle_name: str) -> None:
        super().__init__("%s not visible to bundle %s" % (name, bundle_name))
        self.name = name
        self.bundle_name = bundle_name


def split_symbol(qualified_name: str) -> "tuple[str, str]":
    """``"a.b.Symbol"`` → ``("a.b", "Symbol")``."""
    package, _, symbol = qualified_name.rpartition(".")
    if not package or not symbol:
        raise ValueError("need a package-qualified name: %r" % qualified_name)
    return package, symbol


class BundleNamespace:
    """Resolves qualified symbol names for one bundle.

    ``fallback`` is the hook the paper's VOSGi design uses: a callable
    ``(package, symbol) -> object`` consulted only after normal lookup
    fails, raising :class:`ClassNotFoundError` itself when it refuses.
    """

    def __init__(self, bundle: "Bundle") -> None:
        self._bundle = bundle
        self.fallback: Optional[Callable[[str, str], Any]] = None
        self.loads = 0
        self.delegated_loads = 0

    def load(self, qualified_name: str) -> Any:
        """Load a symbol by qualified name through this bundle's class space."""
        package, symbol = split_symbol(qualified_name)
        self.loads += 1

        # 1. Wired imports shadow local content for the same package.
        wire = self._bundle._wires.get(package)
        if wire is not None:
            return wire.exporter._namespace.load_local(package, symbol)

        # 2. The bundle's own content (exported or private packages).
        symbols = self._bundle.definition.packages.get(package)
        if symbols is not None and symbol in symbols:
            return symbols[symbol]

        # 3. The custom topmost loader (virtual instances only).
        if self.fallback is not None:
            self.delegated_loads += 1
            return self.fallback(package, symbol)

        raise ClassNotFoundError(qualified_name, self._bundle.symbolic_name)

    def load_local(self, package: str, symbol: str) -> Any:
        """Resolve inside this bundle's own content only (wire target side)."""
        symbols = self._bundle.definition.packages.get(package)
        if symbols is None or symbol not in symbols:
            raise ClassNotFoundError(
                "%s.%s" % (package, symbol), self._bundle.symbolic_name
            )
        return symbols[symbol]

    def visible_packages(self) -> Dict[str, str]:
        """Map of visible package name → provenance ('local' or exporter name)."""
        view: Dict[str, str] = {
            name: "local" for name in self._bundle.definition.packages
        }
        for package, wire in self._bundle._wires.items():
            view[package] = wire.exporter.symbolic_name
        return view

    def __repr__(self) -> str:
        return "BundleNamespace(%s)" % self._bundle.symbolic_name
