"""ServiceTracker behaviour: open/close, customizers, dynamics."""

import pytest

from repro.osgi.definition import simple_bundle
from repro.osgi.tracker import ServiceTracker

from tests.conftest import RecordingActivator


@pytest.fixture
def context(framework):
    return framework.system_context


def test_tracker_requires_class_or_filter(context):
    with pytest.raises(ValueError):
        ServiceTracker(context)


def test_tracker_picks_up_existing_services(context):
    context.register_service("x.S", "svc")
    tracker = ServiceTracker(context, "x.S")
    tracker.open()
    assert tracker.get_service() == "svc"
    assert tracker.size == 1


def test_tracker_sees_later_registrations(context):
    tracker = ServiceTracker(context, "x.S")
    tracker.open()
    assert tracker.get_service() is None
    context.register_service("x.S", "late")
    assert tracker.get_service() == "late"


def test_tracker_drops_unregistered_services(context):
    tracker = ServiceTracker(context, "x.S")
    tracker.open()
    registration = context.register_service("x.S", "svc")
    registration.unregister()
    assert tracker.get_service() is None


def test_filter_restricts_tracking(context):
    tracker = ServiceTracker(context, "x.S", filter="(color=red)")
    tracker.open()
    context.register_service("x.S", "blue", {"color": "blue"})
    context.register_service("x.S", "red", {"color": "red"})
    assert tracker.get_services() == ["red"]


def test_modification_into_filter_adds_service(context):
    tracker = ServiceTracker(context, "x.S", filter="(ready=true)")
    tracker.open()
    registration = context.register_service("x.S", "svc", {"ready": False})
    assert tracker.size == 0
    registration.set_properties({"ready": True})
    assert tracker.size == 1


def test_modification_out_of_filter_removes_service(context):
    tracker = ServiceTracker(context, "x.S", filter="(ready=true)")
    tracker.open()
    registration = context.register_service("x.S", "svc", {"ready": True})
    assert tracker.size == 1
    registration.set_properties({"ready": False})
    assert tracker.size == 0


def test_customizer_callbacks(context):
    added, modified, removed = [], [], []
    tracker = ServiceTracker(
        context,
        "x.S",
        on_added=lambda ref, svc: added.append(svc),
        on_modified=lambda ref, svc: modified.append(svc),
        on_removed=lambda ref, svc: removed.append(svc),
    )
    tracker.open()
    registration = context.register_service("x.S", "svc")
    registration.set_properties({"v": 2})
    registration.unregister()
    assert added == ["svc"]
    assert modified == ["svc"]
    assert removed == ["svc"]


def test_on_added_replacement_is_stored(context):
    tracker = ServiceTracker(
        context, "x.S", on_added=lambda ref, svc: "wrapped:" + svc
    )
    tracker.open()
    context.register_service("x.S", "svc")
    assert tracker.get_service() == "wrapped:svc"


def test_best_service_follows_ranking(context):
    tracker = ServiceTracker(context, "x.S")
    tracker.open()
    context.register_service("x.S", "low", {"service.ranking": 1})
    context.register_service("x.S", "high", {"service.ranking": 5})
    assert tracker.get_service() == "high"


def test_close_releases_everything(context):
    removed = []
    tracker = ServiceTracker(
        context, "x.S", on_removed=lambda ref, svc: removed.append(svc)
    )
    tracker.open()
    context.register_service("x.S", "svc")
    tracker.close()
    assert removed == ["svc"]
    assert tracker.size == 0
    assert not tracker.is_open


def test_closed_tracker_ignores_events(context):
    tracker = ServiceTracker(context, "x.S")
    tracker.open()
    tracker.close()
    context.register_service("x.S", "svc")
    assert tracker.size == 0


def test_open_close_idempotent(context):
    tracker = ServiceTracker(context, "x.S")
    tracker.open()
    tracker.open()
    tracker.close()
    tracker.close()


def test_tracking_count_increments(context):
    tracker = ServiceTracker(context, "x.S")
    tracker.open()
    registration = context.register_service("x.S", "svc")
    registration.set_properties({"a": 1})
    registration.unregister()
    assert tracker.tracking_count == 3


def test_modules_find_each_other_via_tracker(framework):
    """The decoupling pattern the platform modules use."""
    provider = RecordingActivator()
    provider_bundle = framework.install(
        simple_bundle("provider", activator_factory=lambda: provider)
    )
    provider_bundle.start()
    provider.context.register_service("module.Api", {"answer": 42})

    seen = []

    class ConsumerActivator(RecordingActivator):
        def start(self, context):
            super().start(context)
            self.tracker = ServiceTracker(
                context, "module.Api", on_added=lambda r, s: seen.append(s)
            )
            self.tracker.open()

    consumer_bundle_obj = framework.install(
        simple_bundle("consumer", activator_factory=ConsumerActivator)
    )
    consumer_bundle_obj.start()
    assert seen == [{"answer": 42}]
    # Provider goes away; consumer notices via the tracker.
    provider_bundle.stop()


def test_open_close_leaves_no_listener_behind(framework, context):
    """close() removes a bound method; an identity compare never found it."""
    entries = len(framework.dispatcher._service_entries)
    context.register_service("x.S", "svc")
    removed = []
    tracker = ServiceTracker(context, "x.S", on_removed=lambda r, s: removed.append(s))
    for _ in range(50):
        tracker.open()
        tracker.close()
    assert len(framework.dispatcher._service_entries) == entries
    assert framework.dispatcher._service_index == {}
    context.register_service("x.S", "late")
    assert tracker.size == 0 and len(removed) == 50
