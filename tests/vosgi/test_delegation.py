"""Export policy, delegation loader and service mirroring."""

import pytest

from repro.osgi.framework import Framework
from repro.osgi.loader import ClassNotFoundError
from repro.osgi.registry import ServiceFactory
from repro.vosgi.delegation import (
    DelegationLoader,
    ExportPolicy,
    IMPORTED_MARK,
    ServiceMirror,
)

from tests.conftest import library_bundle


@pytest.fixture
def host():
    fw = Framework("host")
    fw.start()
    fw.install(library_bundle("log", "1.0.0", "LogThing"))
    yield fw
    if fw.active:
        fw.stop()


@pytest.fixture
def child():
    fw = Framework("child")
    fw.start()
    yield fw
    if fw.active:
        fw.stop()


class TestExportPolicy:
    def test_empty_policy_allows_nothing(self):
        policy = ExportPolicy()
        assert not policy.allows_package("log")
        assert not policy.allows_service(("log.LogService",))

    def test_policy_is_fixed_at_construction(self):
        packages, classes = {"log"}, ["log.S"]
        policy = ExportPolicy(packages=packages, service_classes=classes)
        packages.add("secret")
        classes.append("secret.S")
        assert isinstance(policy.service_classes, frozenset)
        assert policy.service_classes == {"log.S"}
        assert policy.allows_package("log")
        assert not policy.allows_package("secret")

    def test_allows_service_checks_any_class(self):
        policy = ExportPolicy(service_classes={"b"})
        assert policy.allows_service(("a", "b"))
        assert not policy.allows_service(("a", "c"))


class TestDelegationLoader:
    def test_exported_package_delegates(self, host):
        loader = DelegationLoader(host, ExportPolicy(packages={"log"}))
        assert loader("log", "Thing") == "LogThing"
        assert loader.delegated == 1

    def test_unexported_package_denied(self, host):
        loader = DelegationLoader(host, ExportPolicy())
        with pytest.raises(ClassNotFoundError):
            loader("log", "Thing")
        assert loader.denied == 1

    def test_exported_but_absent_package_denied(self, host):
        loader = DelegationLoader(host, ExportPolicy(packages={"ghost"}))
        with pytest.raises(ClassNotFoundError):
            loader("ghost", "Thing")

    def test_highest_host_version_wins(self, host):
        host.install(library_bundle("log", "2.0.0", "NewLogThing"))
        loader = DelegationLoader(host, ExportPolicy(packages={"log"}))
        assert loader("log", "Thing") == "NewLogThing"


class TestServiceMirror:
    def test_existing_service_mirrored_on_open(self, host, child):
        host.system_context.register_service("log.LogService", "the-log")
        mirror = ServiceMirror(
            host, child, ExportPolicy(service_classes={"log.LogService"})
        )
        mirror.open()
        ref = child.registry.get_reference("log.LogService")
        assert ref is not None
        assert ref.get_property(IMPORTED_MARK) is True
        assert child.registry.get_service(child.system_bundle, ref) == "the-log"

    def test_same_object_shared_with_host(self, host, child):
        """Figure 4: only one instance of the base service exists."""
        shared = {"state": []}
        host.system_context.register_service("log.LogService", shared)
        mirror = ServiceMirror(
            host, child, ExportPolicy(service_classes={"log.LogService"})
        )
        mirror.open()
        ref = child.registry.get_reference("log.LogService")
        child_view = child.registry.get_service(child.system_bundle, ref)
        assert child_view is shared

    def test_unexported_service_not_mirrored(self, host, child):
        host.system_context.register_service("secret.Service", object())
        mirror = ServiceMirror(host, child, ExportPolicy())
        mirror.open()
        assert child.registry.get_reference("secret.Service") is None

    def test_late_registration_mirrored(self, host, child):
        mirror = ServiceMirror(host, child, ExportPolicy(service_classes={"x"}))
        mirror.open()
        host.system_context.register_service("x", "late")
        assert child.registry.get_reference("x") is not None

    def test_host_unregistration_propagates(self, host, child):
        mirror = ServiceMirror(host, child, ExportPolicy(service_classes={"x"}))
        mirror.open()
        registration = host.system_context.register_service("x", "svc")
        registration.unregister()
        assert child.registry.get_reference("x") is None

    def test_host_modification_propagates(self, host, child):
        mirror = ServiceMirror(host, child, ExportPolicy(service_classes={"x"}))
        mirror.open()
        registration = host.system_context.register_service("x", "svc", {"v": 1})
        registration.set_properties({"v": 2})
        ref = child.registry.get_reference("x")
        assert ref.get_property("v") == 2

    def test_close_withdraws_mirrors(self, host, child):
        mirror = ServiceMirror(host, child, ExportPolicy(service_classes={"x"}))
        mirror.open()
        host.system_context.register_service("x", "svc")
        mirror.close()
        assert child.registry.get_reference("x") is None

    def test_mirrors_never_remirrored(self, host, child):
        """A mirrored registration must not bounce back through another
        mirror (stacked virtual instances)."""
        grandchild = Framework("grandchild")
        grandchild.start()
        policy = ExportPolicy(service_classes={"x"})
        m1 = ServiceMirror(host, child, policy)
        m1.open()
        m2 = ServiceMirror(child, grandchild, policy)
        m2.open()
        host.system_context.register_service("x", "svc")
        # grandchild sees it once, via child's mirror.
        refs = grandchild.registry.get_references("x")
        assert len(refs) == 0  # child's copy is marked imported: not re-exported
        grandchild.stop()


def test_close_releases_host_use_counts(host, child):
    mirror = ServiceMirror(host, child, ExportPolicy(service_classes={"x"}))
    mirror.open()
    registration = host.system_context.register_service("x", "svc")
    ref = registration.reference
    assert host.system_bundle in ref.using_bundles
    mirror.close()
    assert host.system_bundle not in ref.using_bundles


def test_host_events_on_other_classes_never_visit_the_mirror(host, child):
    policy = ExportPolicy(service_classes={"x"})
    mirror = ServiceMirror(host, child, policy)
    visits = []
    mirror._on_host_event = visits.append
    mirror.open()
    host.system_context.register_service("unrelated", "svc")
    assert visits == []
    host.system_context.register_service(("x", "unrelated"), "svc")
    assert len(visits) == 1


def test_failing_release_is_counted_and_the_rest_still_withdrawn(
    host, child, monkeypatch
):
    mirror = ServiceMirror(host, child, ExportPolicy(service_classes={"x"}))
    mirror.open()
    references = [
        host.system_context.register_service("x", "svc%d" % i).reference
        for i in range(3)
    ]
    assert len(child.registry.get_references("x")) == 3
    unget = host.registry.unget_service

    def flaky_unget(bundle, reference):
        if reference == references[0]:
            raise RuntimeError("host registry hiccup")
        return unget(bundle, reference)

    monkeypatch.setattr(host.registry, "unget_service", flaky_unget)
    mirror.close()
    assert mirror.release_errors == 1
    assert child.registry.get_references("x") == []
    assert [host.system_bundle in r.using_bundles for r in references] == [
        True,
        False,
        False,
    ]


class FailingUnget(ServiceFactory):
    """A host service factory whose release raises ``error``."""

    def __init__(self, error):
        self.error = error

    def get_service(self, bundle, registration):
        return "facade"

    def unget_service(self, bundle, registration, service):
        raise self.error


def test_factory_release_failure_is_counted(host, child):
    # RuntimeError is how a factory signals failure.
    mirror = ServiceMirror(host, child, ExportPolicy(service_classes={"x"}))
    mirror.open()
    host.system_context.register_service("x", FailingUnget(RuntimeError("busy")))
    host.system_context.register_service("x", "plain")
    mirror.close()
    assert mirror.release_errors == 1
    assert child.registry.get_references("x") == []


def test_factory_release_bug_propagates(host, child):
    mirror = ServiceMirror(host, child, ExportPolicy(service_classes={"x"}))
    mirror.open()
    host.system_context.register_service("x", FailingUnget(KeyError("bug")))
    with pytest.raises(KeyError):
        mirror.close()
    assert mirror.release_errors == 0


def test_mirror_withdrawn_inside_the_child_is_counted(host, child):
    mirror = ServiceMirror(host, child, ExportPolicy(service_classes={"x"}))
    mirror.open()
    reference = host.system_context.register_service("x", "svc").reference
    assert child.registry.unregister_all(child.system_bundle) == 1
    mirror.close()
    assert mirror.release_errors == 1  # unregister: already withdrawn
    assert host.system_bundle not in reference.using_bundles

