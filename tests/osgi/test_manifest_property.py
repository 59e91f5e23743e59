"""Property test: a manifest's rendered clauses rebuild it through
``Manifest.build``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osgi.manifest import (
    ExportedPackage,
    ImportedPackage,
    Manifest,
)
from repro.osgi.version import Version, VersionRange

settings.register_profile("repro", max_examples=50, deadline=None)
settings.load_profile("repro")

package_names = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz",
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=3,
).map(".".join)

components = st.integers(min_value=0, max_value=99)
versions = st.builds(Version, components, components, components)
ranges = st.one_of(
    st.builds(VersionRange, versions),
    st.builds(
        VersionRange,
        versions,
        versions,
        floor_inclusive=st.booleans(),
        ceiling_inclusive=st.booleans(),
    ),
)

imports = st.builds(
    ImportedPackage,
    name=package_names,
    version_range=ranges,
    optional=st.booleans(),
)
exports = st.builds(
    ExportedPackage,
    name=package_names,
    version=versions,
)


def unique_by_name(clauses):
    return st.lists(clauses, max_size=4, unique_by=lambda c: c.name)


manifests = st.builds(
    Manifest,
    symbolic_name=package_names,
    version=versions,
    imports=unique_by_name(imports),
    exports=unique_by_name(exports),
    activator=st.one_of(st.just(""), package_names),
)


@given(manifests)
def test_clause_strings_rebuild_identically(manifest):
    """Each rendered clause re-parses to the same dataclass through
    Manifest.build."""
    rebuilt = Manifest.build(
        manifest.symbolic_name,
        version=str(manifest.version),
        imports=[str(i) for i in manifest.imports],
        exports=[str(e) for e in manifest.exports],
    )
    assert rebuilt.imports == manifest.imports
    assert rebuilt.exports == manifest.exports
