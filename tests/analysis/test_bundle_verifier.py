"""Static bundle verifier: each VER rule on hand-built manifests,
including the adversarial sets named in the issue (cyclic imports,
self-import of an exported package, empty version ranges)."""

import functools

from repro.analysis import VER_RULES, Severity, verify_bundles
from repro.osgi.definition import BundleActivator, BundleDefinition, simple_bundle
from repro.osgi.framework import Framework
from repro.osgi.manifest import Manifest


def codes(diags):
    return [d.code for d in diags]


def exporter(name="exp", package="pkg.api", version="1.0.0", attrs=""):
    clause = '%s;version="%s"%s' % (package, version, attrs)
    return simple_bundle(name, exports=(clause,), packages={package: {}})


# ----------------------------------------------------------------------
# VER001 — unresolvable Import-Package
# ----------------------------------------------------------------------
def test_ver001_missing_exporter():
    importer = simple_bundle("imp", imports=("missing.pkg",))
    diags = verify_bundles([importer])
    assert codes(diags) == ["VER001"]
    assert diags[0].severity is Severity.ERROR
    assert "no exporter" in diags[0].message


def test_ver001_diagnostic_serialises_like_the_cli():
    importer = simple_bundle("imp", imports=("missing.pkg",))
    payload = [d.to_dict() for d in verify_bundles([importer])]
    assert payload[0]["code"] == "VER001"
    assert payload[0]["severity"] == "error"
    assert payload[0]["source"] == "imp"


def test_ver001_version_mismatch_names_offered_versions():
    importer = simple_bundle("imp", imports=('pkg.api;version="[2.0,3.0)"',))
    diags = verify_bundles([importer, exporter(version="1.0.0")])
    assert codes(diags) == ["VER001"]
    assert "offered: exp@1.0.0" in diags[0].message


def test_ver001_self_import_of_exported_package():
    # The resolver never wires a bundle to its own export; the verifier
    # must agree instead of treating the self-export as a candidate.
    selfish = simple_bundle(
        "selfish",
        imports=("pkg.api",),
        exports=('pkg.api;version="1.0.0"',),
        packages={"pkg.api": {}},
    )
    diags = verify_bundles([selfish])
    assert codes(diags) == ["VER001"]
    assert "cannot wire its own export" in diags[0].hint

    # A second exporter resolves the import (distinct version keeps the
    # pair clear of the VER003 duplicate-export warning too).
    assert verify_bundles([selfish, exporter(version="1.1.0")]) == []


def test_ver001_optional_import_never_fires():
    importer = simple_bundle("imp", imports=("missing.pkg;resolution:=optional",))
    assert verify_bundles([importer]) == []


def test_cyclic_imports_are_clean():
    # a <-> b mutual imports: the resolver tolerates cycles, so must we.
    a = simple_bundle(
        "a",
        imports=("pkg.b",),
        exports=('pkg.a;version="1.0.0"',),
        packages={"pkg.a": {}},
    )
    b = simple_bundle(
        "b",
        imports=("pkg.a",),
        exports=('pkg.b;version="1.0.0"',),
        packages={"pkg.b": {}},
    )
    assert verify_bundles([a, b]) == []


def test_context_satisfies_imports_but_is_not_verified():
    importer = simple_bundle("imp", imports=("pkg.api",))
    broken_context = simple_bundle(
        "ctx",
        imports=("nowhere.pkg",),
        exports=('pkg.api;version="1.0.0"',),
        packages={"pkg.api": {}},
    )
    # ctx satisfies the import; its own dangling import is not our problem.
    assert verify_bundles([importer], context=[broken_context]) == []


def test_system_bundle_exports_satisfy_framework_imports():
    # The context a chaos deployment verdict passes: the system bundle
    # exports org.osgi.framework, so importing it is clean.
    framework = Framework("verify-test")
    consumer = simple_bundle("fw-user", imports=("org.osgi.framework",))
    assert verify_bundles([consumer]) != []
    context = [framework.system_bundle.definition]
    assert verify_bundles([consumer], context=context) == []


# ----------------------------------------------------------------------
# VER002 — impossible version range
# ----------------------------------------------------------------------
def test_ver002_empty_range():
    importer = simple_bundle("imp", imports=('pkg.api;version="[1.0,1.0)"',))
    diags = verify_bundles([importer, exporter()])
    assert codes(diags) == ["VER002"]
    assert "[1.0" in diags[0].message


# ----------------------------------------------------------------------
# VER003 — duplicate exports
# ----------------------------------------------------------------------
def test_ver003_duplicate_export_same_version_no_attributes():
    a = exporter("a")
    b = exporter("b")
    diags = verify_bundles([a, b])
    assert codes(diags) == ["VER003", "VER003"]
    assert all(d.severity is Severity.WARNING for d in diags)


def test_ver003_distinguishing_attribute_or_version_is_clean():
    assert verify_bundles([exporter("a"), exporter("b", version="2.0.0")]) == []
    assert (
        verify_bundles([exporter("a"), exporter("b", attrs=";provider=acme")]) == []
    )


# ----------------------------------------------------------------------
# VER004 — activator package outside the class space
# ----------------------------------------------------------------------
def _definition_with_activator(activator, imports=(), packages=None):
    manifest = Manifest.build(
        "act", version="1.0.0", imports=imports, activator=activator
    )
    return BundleDefinition(
        manifest, packages=packages, activator_factory=BundleActivator
    )


def test_ver004_unreachable_activator_package():
    definition = _definition_with_activator("ghost.pkg.Activator")
    diags = verify_bundles([definition])
    assert codes(diags) == ["VER004"]
    assert diags[0].severity is Severity.ERROR


def test_ver004_clean_when_contained_or_imported():
    contained = _definition_with_activator(
        "my.pkg.Activator", packages={"my.pkg": {}}
    )
    assert verify_bundles([contained]) == []
    imported = _definition_with_activator(
        "pkg.api.Activator", imports=("pkg.api",)
    )
    assert verify_bundles([imported, exporter()]) == []


def test_ver004_undotted_activator_is_exempt():
    # simple_bundle() names its activator just "activator" — no package claim.
    definition = simple_bundle("act", activator_factory=BundleActivator)
    assert verify_bundles([definition]) == []


# ----------------------------------------------------------------------
# VER005 — service registered under a foreign interface package
# ----------------------------------------------------------------------
class _ForeignRegistrar(BundleActivator):
    def start(self, context):
        self.reg = context.register_service("foreign.pkg.Api", object())

    def stop(self, context):
        self.reg.unregister()


class _LocalRegistrar(BundleActivator):
    def start(self, context):
        self.reg = context.register_service("pkg.api.Api", object())

    def stop(self, context):
        self.reg.unregister()


def test_ver005_foreign_interface_package():
    definition = simple_bundle("svc", activator_factory=_ForeignRegistrar)
    diags = verify_bundles([definition])
    assert codes(diags) == ["VER005"]
    assert diags[0].severity is Severity.WARNING
    assert diags[0].line > 0


def test_ver005_clean_when_interface_package_imported():
    definition = simple_bundle(
        "svc", imports=("pkg.api",), activator_factory=_LocalRegistrar
    )
    assert verify_bundles([definition, exporter()]) == []


def test_check_activators_false_skips_ast_rules():
    definition = simple_bundle("svc", activator_factory=_ForeignRegistrar)
    assert verify_bundles([definition], check_activators=False) == []


# ----------------------------------------------------------------------
# VER006 — lifecycle leaks
# ----------------------------------------------------------------------
class _Leaky(BundleActivator):
    def start(self, context):
        ref = context.get_service_reference("pkg.api.Api")
        self.svc = context.get_service(ref)
        context.add_service_listener(self._on_event)

    def _on_event(self, event):
        pass


class _Balanced(BundleActivator):
    def start(self, context):
        self.ref = context.get_service_reference("pkg.api.Api")
        self.svc = context.get_service(self.ref)
        context.add_service_listener(self._on_event)

    def stop(self, context):
        context.unget_service(self.ref)
        context.remove_service_listener(self._on_event)

    def _on_event(self, event):
        pass


def test_ver006_get_without_unget_and_add_without_remove():
    definition = simple_bundle("leaky", activator_factory=_Leaky)
    diags = verify_bundles([definition])
    assert codes(diags) == ["VER006", "VER006"]
    messages = " / ".join(d.message for d in diags)
    assert "unget_service" in messages
    assert "remove_service_listener" in messages


def test_ver006_balanced_activator_is_clean():
    definition = simple_bundle("tidy", activator_factory=_Balanced)
    assert verify_bundles([definition]) == []


def test_partial_activator_factory_is_analyzed():
    factory = functools.partial(_Leaky)
    definition = simple_bundle("leaky", activator_factory=factory)
    assert "VER006" in codes(verify_bundles([definition]))


def test_lambda_activator_factory_is_skipped():
    # No source-resolvable class: the analyzer declines rather than guesses.
    definition = simple_bundle("opaque", activator_factory=lambda: _Leaky())
    assert verify_bundles([definition]) == []


# ----------------------------------------------------------------------
# Catalogue + ordering
# ----------------------------------------------------------------------
def test_rule_catalogue_is_complete():
    assert set(VER_RULES) == {
        "VER001",
        "VER002",
        "VER003",
        "VER004",
        "VER005",
        "VER006",
    }


def test_diagnostics_come_back_sorted():
    importer = simple_bundle("zz-imp", imports=("missing.pkg",))
    a = exporter("aa")
    b = exporter("bb")
    diags = verify_bundles([importer, a, b])
    assert [(d.source, d.code) for d in diags] == [
        ("aa", "VER003"),
        ("bb", "VER003"),
        ("zz-imp", "VER001"),
    ]
