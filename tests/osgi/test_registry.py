"""Service registry: registration, lookup, ranking, use counts, factories."""

import pytest

from repro.osgi.errors import ServiceException
from repro.osgi.events import EventDispatcher, ServiceEventType
from repro.osgi.registry import (
    OBJECTCLASS,
    SERVICE_RANKING,
    ServiceFactory,
    ServiceRegistry,
)


@pytest.fixture
def dispatcher():
    return EventDispatcher()


@pytest.fixture
def registry(dispatcher):
    return ServiceRegistry(dispatcher)


BUNDLE_A = object()
BUNDLE_B = object()


class TestRegistration:
    def test_register_and_lookup(self, registry):
        svc = object()
        registry.register(BUNDLE_A, "x.Service", svc)
        ref = registry.get_reference("x.Service")
        assert ref is not None
        assert registry.get_service(BUNDLE_B, ref) is svc

    def test_multiple_object_classes(self, registry):
        registry.register(BUNDLE_A, ("x.A", "x.B"), object())
        assert registry.get_reference("x.A") is not None
        assert registry.get_reference("x.B") is not None

    def test_none_service_rejected(self, registry):
        with pytest.raises(ServiceException):
            registry.register(BUNDLE_A, "x", None)

    def test_empty_classes_rejected(self, registry):
        with pytest.raises(ServiceException):
            registry.register(BUNDLE_A, (), object())

    def test_service_ids_are_increasing(self, registry):
        r1 = registry.register(BUNDLE_A, "x", object())
        r2 = registry.register(BUNDLE_A, "x", object())
        assert r2.reference.service_id > r1.reference.service_id

    def test_registered_event_fired(self, registry, dispatcher):
        events = []
        dispatcher.add_service_listener(events.append)
        registry.register(BUNDLE_A, "x", object())
        assert [e.type for e in events] == [ServiceEventType.REGISTERED]


class TestLookup:
    def test_filter_narrows(self, registry):
        registry.register(BUNDLE_A, "x", object(), {"color": "red"})
        registry.register(BUNDLE_A, "x", object(), {"color": "blue"})
        refs = registry.get_references("x", "(color=blue)")
        assert len(refs) == 1
        assert refs[0].get_property("color") == "blue"

    def test_lookup_without_class_scans_all(self, registry):
        registry.register(BUNDLE_A, "x", object(), {"k": 1})
        registry.register(BUNDLE_A, "y", object(), {"k": 1})
        assert len(registry.get_references(None, "(k=1)")) == 2

    def test_ranking_orders_best_first(self, registry):
        registry.register(BUNDLE_A, "x", "low", {SERVICE_RANKING: 1})
        registry.register(BUNDLE_A, "x", "high", {SERVICE_RANKING: 10})
        best = registry.get_reference("x")
        assert registry.get_service(BUNDLE_B, best) == "high"

    def test_tie_broken_by_oldest_registration(self, registry):
        registry.register(BUNDLE_A, "x", "first")
        registry.register(BUNDLE_A, "x", "second")
        best = registry.get_reference("x")
        assert registry.get_service(BUNDLE_B, best) == "first"

    def test_non_integer_ranking_treated_as_zero(self, registry):
        registry.register(BUNDLE_A, "x", "weird", {SERVICE_RANKING: "9"})
        registry.register(BUNDLE_A, "x", "normal", {SERVICE_RANKING: 1})
        best = registry.get_reference("x")
        assert registry.get_service(BUNDLE_B, best) == "normal"

    def test_missing_service_returns_none(self, registry):
        assert registry.get_reference("ghost") is None


class TestUnregistration:
    def test_unregister_removes_and_fires(self, registry, dispatcher):
        events = []
        dispatcher.add_service_listener(events.append)
        registration = registry.register(BUNDLE_A, "x", object())
        registration.unregister()
        assert registry.get_reference("x") is None
        assert events[-1].type == ServiceEventType.UNREGISTERING

    def test_double_unregister_raises(self, registry):
        registration = registry.register(BUNDLE_A, "x", object())
        registration.unregister()
        with pytest.raises(ServiceException):
            registration.unregister()

    def test_get_service_after_unregister_returns_none(self, registry):
        registration = registry.register(BUNDLE_A, "x", object())
        ref = registration.reference
        registration.unregister()
        assert registry.get_service(BUNDLE_B, ref) is None

    def test_unregister_all_for_bundle(self, registry):
        registry.register(BUNDLE_A, "x", object())
        registry.register(BUNDLE_A, "y", object())
        registry.register(BUNDLE_B, "z", object())
        assert registry.unregister_all(BUNDLE_A) == 2
        assert registry.size == 1


class TestProperties:
    def test_set_properties_fires_modified(self, registry, dispatcher):
        events = []
        registration = registry.register(BUNDLE_A, "x", object(), {"v": 1})
        dispatcher.add_service_listener(events.append)
        registration.set_properties({"v": 2})
        assert events[0].type == ServiceEventType.MODIFIED
        assert registration.reference.get_property("v") == 2

    def test_objectclass_and_id_pinned(self, registry):
        registration = registry.register(BUNDLE_A, "x", object())
        original_id = registration.reference.service_id
        registration.set_properties({OBJECTCLASS: ("hijack",), "service.id": 999})
        assert registration.reference.object_classes == ("x",)
        assert registration.reference.service_id == original_id

    def test_filtered_listener_only_sees_matches(self, registry, dispatcher):
        from repro.osgi.filter import parse_filter

        events = []
        dispatcher.add_service_listener(events.append, parse_filter("(want=yes)"))
        registry.register(BUNDLE_A, "x", object(), {"want": "no"})
        registry.register(BUNDLE_A, "x", object(), {"want": "yes"})
        assert len(events) == 1


class TestUseCounts:
    def test_use_counting(self, registry):
        registration = registry.register(BUNDLE_A, "x", object())
        ref = registration.reference
        registry.get_service(BUNDLE_B, ref)
        registry.get_service(BUNDLE_B, ref)
        assert BUNDLE_B in ref.using_bundles
        assert registry.unget_service(BUNDLE_B, ref) is True
        assert BUNDLE_B in ref.using_bundles
        assert registry.unget_service(BUNDLE_B, ref) is True
        assert BUNDLE_B not in ref.using_bundles

    def test_unget_without_use_returns_false(self, registry):
        registration = registry.register(BUNDLE_A, "x", object())
        assert registry.unget_service(BUNDLE_B, registration.reference) is False

    def test_release_all_clears_uses(self, registry):
        registration = registry.register(BUNDLE_A, "x", object())
        registry.get_service(BUNDLE_B, registration.reference)
        registry.release_all(BUNDLE_B)
        assert registration.reference.using_bundles == []

    def test_in_use_by_and_services_of(self, registry):
        registration = registry.register(BUNDLE_A, "x", object())
        registry.get_service(BUNDLE_B, registration.reference)
        assert registry.services_of(BUNDLE_A) == [registration.reference]
        assert registry.in_use_by(BUNDLE_B) == [registration.reference]


class CountingFactory(ServiceFactory):
    def __init__(self):
        self.created = 0
        self.released = []

    def get_service(self, bundle, registration):
        self.created += 1
        return "instance-%d" % self.created

    def unget_service(self, bundle, registration, service):
        self.released.append(service)


class TestServiceFactory:
    def test_distinct_instance_per_bundle(self, registry):
        factory = CountingFactory()
        registration = registry.register(BUNDLE_A, "x", factory)
        ref = registration.reference
        a = registry.get_service(BUNDLE_A, ref)
        b = registry.get_service(BUNDLE_B, ref)
        assert a != b
        assert factory.created == 2

    def test_same_bundle_gets_cached_instance(self, registry):
        factory = CountingFactory()
        ref = registry.register(BUNDLE_A, "x", factory).reference
        first = registry.get_service(BUNDLE_B, ref)
        second = registry.get_service(BUNDLE_B, ref)
        assert first is second
        assert factory.created == 1

    def test_unget_releases_factory_instance(self, registry):
        factory = CountingFactory()
        ref = registry.register(BUNDLE_A, "x", factory).reference
        instance = registry.get_service(BUNDLE_B, ref)
        registry.unget_service(BUNDLE_B, ref)
        assert factory.released == [instance]

    def test_factory_error_wrapped(self, registry):
        class Broken(ServiceFactory):
            def get_service(self, bundle, registration):
                raise RuntimeError("nope")

        ref = registry.register(BUNDLE_A, "x", Broken()).reference
        with pytest.raises(ServiceException):
            registry.get_service(BUNDLE_B, ref)

    def test_factory_returning_none_rejected(self, registry):
        class NoneFactory(ServiceFactory):
            def get_service(self, bundle, registration):
                return None

        ref = registry.register(BUNDLE_A, "x", NoneFactory()).reference
        with pytest.raises(ServiceException):
            registry.get_service(BUNDLE_B, ref)

    def test_factory_bug_propagates_as_itself(self, registry):
        # Only a RuntimeError is wrapped into FACTORY_ERROR; a bug in the
        # factory keeps its own type and traceback.
        class Buggy(ServiceFactory):
            def get_service(self, bundle, registration):
                raise TypeError("bug in the factory")

        ref = registry.register(BUNDLE_A, "x", Buggy()).reference
        with pytest.raises(TypeError):
            registry.get_service(BUNDLE_B, ref)

    def test_raising_unget_propagates_and_the_use_is_gone(self, registry):
        factory = RaisingUngetFactory()
        ref = registry.register(BUNDLE_A, "x", factory).reference
        registry.get_service(BUNDLE_B, ref)
        with pytest.raises(RuntimeError):
            registry.unget_service(BUNDLE_B, ref)
        assert ref.using_bundles == []

    def test_raising_unget_propagates_out_of_release_all(self, registry):
        factory = RaisingUngetFactory()
        ref = registry.register(BUNDLE_A, "x", factory).reference
        registry.get_service(BUNDLE_B, ref)
        with pytest.raises(RuntimeError):
            registry.release_all(BUNDLE_B)
        assert ref.using_bundles == []


class RaisingUngetFactory(CountingFactory):
    def unget_service(self, bundle, registration, service):
        raise RuntimeError("unget failed")
