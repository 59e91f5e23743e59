"""Bundle definitions — the analogue of a bundle JAR.

A :class:`BundleDefinition` packages together a manifest, the *contents* of
the bundle (named packages mapping symbol names to Python objects — the
analogue of compiled classes), and an activator factory. Installing a
definition into a :class:`~repro.osgi.framework.Framework` produces a live
:class:`~repro.osgi.bundle.Bundle`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from repro.osgi.errors import BundleException
from repro.osgi.manifest import Manifest


class BundleActivator:
    """Lifecycle hook interface; subclass and override as needed.

    ``start``/``stop`` receive the bundle's
    :class:`~repro.osgi.bundle.BundleContext`. Exceptions raised here abort
    the lifecycle transition, exactly as in OSGi.
    """

    def start(self, context: "Any") -> None:  # pragma: no cover - default no-op
        """Called when the bundle enters STARTING."""

    def stop(self, context: "Any") -> None:  # pragma: no cover - default no-op
        """Called when the bundle enters STOPPING."""


class BundleDefinition:
    """Immutable description of an installable bundle.

    Parameters
    ----------
    manifest:
        The bundle's metadata (symbolic name, version, imports, exports).
    packages:
        Mapping of package name to ``{symbol_name: object}``. Every package
        named in ``manifest.exports`` must be present here; private
        (unexported) packages are allowed and remain invisible to others.
    activator_factory:
        Zero-argument callable producing a fresh activator per install, so
        two frameworks hosting the same definition never share state.
    size_bytes:
        Notional size of the bundle archive, used by the migration cost
        model and the shared store.
    """

    def __init__(
        self,
        manifest: Manifest,
        packages: Optional[Mapping[str, Mapping[str, Any]]] = None,
        activator_factory: Optional[Callable[[], BundleActivator]] = None,
        size_bytes: int = 64 * 1024,
    ) -> None:
        self.manifest = manifest
        self.packages: Dict[str, Dict[str, Any]] = {
            name: dict(symbols) for name, symbols in (packages or {}).items()
        }
        self.activator_factory = activator_factory
        self.size_bytes = size_bytes
        #: The version as persisted records spell it, worked out once.
        self.version_text = str(manifest.version)
        for export in manifest.exports:
            if export.name not in self.packages:
                raise BundleException(
                    "%s exports package %r but does not contain it"
                    % (manifest.symbolic_name, export.name)
                )
        if manifest.activator and activator_factory is None:
            raise BundleException(
                "%s names activator %r but no activator_factory given"
                % (manifest.symbolic_name, manifest.activator)
            )

    @property
    def symbolic_name(self) -> str:
        return self.manifest.symbolic_name

    @property
    def version(self):
        return self.manifest.version

    def create_activator(self) -> Optional[BundleActivator]:
        """Instantiate a fresh activator, or None for passive bundles."""
        if self.activator_factory is None:
            return None
        activator = self.activator_factory()
        for method in ("start", "stop"):
            if not callable(getattr(activator, method, None)):
                raise BundleException(
                    "activator for %s lacks %s()" % (self.symbolic_name, method)
                )
        return activator

    def __repr__(self) -> str:
        return "BundleDefinition(%s %s)" % (self.symbolic_name, self.version)


def simple_bundle(
    symbolic_name: str,
    version: str = "1.0.0",
    imports: tuple = (),
    exports: tuple = (),
    packages: Optional[Mapping[str, Mapping[str, Any]]] = None,
    activator_factory: Optional[Callable[[], BundleActivator]] = None,
    size_bytes: int = 64 * 1024,
) -> BundleDefinition:
    """Convenience builder used heavily in tests and examples."""
    manifest = Manifest.build(
        symbolic_name,
        version=version,
        imports=imports,
        exports=exports,
        activator="activator" if activator_factory else "",
    )
    return BundleDefinition(
        manifest,
        packages=packages,
        activator_factory=activator_factory,
        size_bytes=size_bytes,
    )
