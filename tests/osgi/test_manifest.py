"""Manifest construction and the OSGi clause grammar."""

import pytest

from repro.osgi.errors import BundleException
from repro.osgi.manifest import (
    ExportedPackage,
    ImportedPackage,
    Manifest,
    parse_clause,
)
from repro.osgi.version import Version, VersionRange


class TestClauseSplitting:
    def test_parse_clause_paths_attrs_directives(self):
        paths, attrs, directives = parse_clause(
            'x.y;version="1.2";resolution:=optional'
        )
        assert paths == ["x.y"]
        assert attrs == {"version": "1.2"}
        assert directives == {"resolution": "optional"}

    def test_parse_clause_no_path_raises(self):
        with pytest.raises(BundleException):
            parse_clause('version="1.0"')


class TestManifestBuild:
    def test_build_minimal(self):
        m = Manifest.build("my.bundle")
        assert m.symbolic_name == "my.bundle"
        assert m.version == Version(0, 0, 0)

    def test_build_with_versioned_clauses(self):
        m = Manifest.build(
            "b",
            version="2.1.0",
            imports=('log;version="[1.0,2.0)"', "http"),
            exports=('api;version="2.1.0"',),
        )
        assert m.imports[0] == ImportedPackage(
            "log", VersionRange.parse("[1.0,2.0)")
        )
        assert m.imports[1].version_range.includes("0.0.0")
        assert m.exports[0] == ExportedPackage("api", Version.parse("2.1.0"))

    def test_export_attributes_and_activator(self):
        m = Manifest.build(
            "com.example.app",
            exports=('com.example.api;version="3.2.1";vendor="example"',),
            activator="com.example.Activator",
        )
        assert m.activator == "com.example.Activator"
        assert m.exports[0].version == Version.parse("3.2.1")
        assert dict(m.exports[0].attributes) == {"vendor": "example"}

    def test_optional_import_directive(self):
        m = Manifest.build("b", imports=("maybe;resolution:=optional",))
        assert m.imports[0].optional

    def test_empty_symbolic_name_rejected(self):
        with pytest.raises(BundleException):
            Manifest("")

    def test_duplicate_exports_rejected(self):
        with pytest.raises(BundleException):
            Manifest.build("b", exports=("p", 'p;version="2.0"'))

    def test_duplicate_imports_rejected(self):
        with pytest.raises(BundleException):
            Manifest.build("b", imports=("p", "p"))
