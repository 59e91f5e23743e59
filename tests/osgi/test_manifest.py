"""Manifest parsing: headers, continuation lines, clause grammar."""

import pytest

from repro.osgi.errors import BundleException
from repro.osgi.manifest import (
    ExportedPackage,
    ImportedPackage,
    Manifest,
    parse_clause,
    parse_headers,
    split_clauses,
)
from repro.osgi.version import Version, VersionRange


class TestHeaderParsing:
    def test_simple_headers(self):
        headers = parse_headers("A: one\nB: two\n")
        assert headers == {"A": "one", "B": "two"}

    def test_continuation_lines(self):
        text = "Import-Package: aaa,\n bbb,\n ccc\n"
        headers = parse_headers(text)
        assert headers["Import-Package"] == "aaa,bbb,ccc"

    def test_continuation_without_header_raises(self):
        with pytest.raises(BundleException):
            parse_headers(" orphan continuation\n")

    def test_line_without_colon_raises(self):
        with pytest.raises(BundleException):
            parse_headers("garbage line\n")

    def test_blank_line_resets_continuation(self):
        headers = parse_headers("A: one\n\nB: two\n")
        assert headers == {"A": "one", "B": "two"}


class TestClauseSplitting:
    def test_commas_split_clauses(self):
        assert split_clauses("a, b ,c") == ["a", "b", "c"]

    def test_commas_inside_quotes_do_not_split(self):
        clauses = split_clauses('a;version="[1.0,2.0)", b')
        assert clauses == ['a;version="[1.0,2.0)"', "b"]

    def test_empty_value_yields_nothing(self):
        assert split_clauses("") == []

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


class TestManifestTextual:
    MF = """Bundle-ManifestVersion: 2
Bundle-SymbolicName: com.example.app
Bundle-Version: 3.2.1
Bundle-Activator: com.example.Activator
Import-Package: org.osgi.framework;version="1.4",
 com.example.util;version="[1.0,2.0)";resolution:=optional
Export-Package: com.example.api;version="3.2.1";vendor="example"
X-Custom: hello
"""

    def test_parse_full_manifest(self):
        m = Manifest.parse(self.MF)
        assert m.symbolic_name == "com.example.app"
        assert m.version == Version.parse("3.2.1")
        assert m.activator == "com.example.Activator"
        assert len(m.imports) == 2
        assert m.imports[1].optional
        assert m.exports[0].version == Version.parse("3.2.1")
        assert dict(m.exports[0].attributes) == {"vendor": "example"}
        assert m.headers["X-Custom"] == "hello"

    def test_missing_symbolic_name_raises(self):
        with pytest.raises(BundleException):
            Manifest.parse("Bundle-Version: 1.0\n")

    def test_to_text_reparse_roundtrip(self):
        original = Manifest.parse(self.MF)
        reparsed = Manifest.parse(original.to_text())
        assert reparsed.symbolic_name == original.symbolic_name
        assert reparsed.version == original.version
        assert reparsed.imports == original.imports
        assert reparsed.exports == original.exports
        assert reparsed.headers.get("X-Custom") == "hello"

    @pytest.mark.parametrize(
        "header",
        ["Require-Bundle: com.example.dep", "DynamicImport-Package: *"],
        ids=["Require-Bundle", "DynamicImport-Package"],
    )
    def test_unsupported_wiring_header_is_refused_by_name(self, header):
        # The resolver wires packages only; resolving this bundle without
        # the wiring it asks for would fail later, somewhere else.
        with pytest.raises(BundleException, match=header.split(":")[0]):
            Manifest.parse(self.MF + header + "\n")
