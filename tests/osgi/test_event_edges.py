"""Event edges: what an unobserved transition costs and what a late or
failing listener still sees.

Publishers build a bundle, service or framework event only when that
family has a listener. These tests pin the three edges of that rule: no
event object at all while nobody listens (the lifecycle counters still
move), a listener added after silent publishes hears the next event in
order, and a listener that raises is still reported as a
``FrameworkEvent`` ERROR.
"""

from __future__ import annotations

from repro.osgi.bundle import BundleState
from repro.osgi.definition import BundleActivator, simple_bundle
from repro.osgi.events import (
    BundleEvent,
    BundleEventType,
    FrameworkEvent,
    FrameworkEventType,
    ServiceEvent,
)
from repro.osgi.framework import Framework


class _Registers(BundleActivator):
    """Registers one service on start; the stop unregisters it."""

    def start(self, context) -> None:
        context.register_service("edge.Service", object(), {"edge": 1})


def _service_bundle(name: str = "svc"):
    return simple_bundle(name, activator_factory=_Registers)


def _count_constructions(monkeypatch):
    built = []
    for cls in (BundleEvent, ServiceEvent, FrameworkEvent):
        original = cls.__init__

        def counting(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_unobserved_transitions_build_no_event(monkeypatch):
    built = _count_constructions(monkeypatch)
    fw = Framework("silent")
    fw.start()
    bundle = fw.install(_service_bundle())
    bundle.start()
    registration = fw.system_context.register_service("edge.Other", object())
    registration.set_properties({"edge": 2})
    registration.unregister()
    bundle.stop()
    bundle.start()
    fw.stop()
    fw.start()
    fw.stop()

    assert built == []
    # The accounting does not depend on anyone listening.
    assert fw.counters["starts"] == 3  # start, restart, framework restore
    assert fw.counters["stops"] == 3  # stop, two framework stops
    assert fw.counters["installs"] == 1


def test_listener_added_after_silent_publishes_hears_the_next_events():
    fw = Framework("late")
    fw.start()
    early = fw.install(_service_bundle("early"))
    for _ in range(5):  # silent: nobody listens yet
        early.start()
        early.stop()
    late = fw.install(_service_bundle("late"))

    seen = []
    fw.dispatcher.add_bundle_listener(
        lambda e: seen.append(("bundle", e.type.value, e.bundle.symbolic_name))
    )
    fw.dispatcher.add_service_listener(
        lambda e: seen.append(("service", e.type.value, e.reference.service_id))
    )
    fw.dispatcher.add_framework_listener(
        lambda e: seen.append(("framework", e.type.value, e.message))
    )
    late.start()
    service_id = late.context.get_service_reference("edge.Service").service_id
    fw.stop()

    assert service_id == 6  # five silent registrations came first
    assert seen == [
        ("bundle", "RESOLVED", "late"),
        ("bundle", "STARTING", "late"),
        ("service", "REGISTERED", 6),
        ("bundle", "STARTED", "late"),
        ("bundle", "STOPPING", "late"),
        ("service", "UNREGISTERING", 6),
        ("bundle", "STOPPED", "late"),
        ("framework", "STARTLEVEL_CHANGED", "start level is now 0"),
        ("framework", "STOPPED", ""),
    ]


def test_raising_listener_still_reports_framework_error():
    fw = Framework("noisy")
    fw.start()
    errors = []
    fw.dispatcher.add_framework_listener(
        lambda e: errors.append(e) if e.type == FrameworkEventType.ERROR else None
    )

    def bad_bundle_listener(event):
        raise RuntimeError("bundle listener bug")

    def bad_service_listener(event):
        raise ValueError("service listener bug")

    after = []
    fw.dispatcher.add_bundle_listener(bad_bundle_listener)
    fw.dispatcher.add_bundle_listener(after.append)
    fw.dispatcher.add_service_listener(bad_service_listener)
    bundle = fw.install(_service_bundle())
    bundle.start()

    assert bundle.state == BundleState.ACTIVE
    assert [e.type for e in after] == [
        BundleEventType.INSTALLED,
        BundleEventType.RESOLVED,
        BundleEventType.STARTING,
        BundleEventType.STARTED,
    ]
    sources = [e.source for e in errors]
    assert sources == [bad_bundle_listener] * 3 + [bad_service_listener] + [
        bad_bundle_listener
    ]
    assert all(e.type == FrameworkEventType.ERROR for e in errors)
    assert isinstance(errors[3].error, ValueError)
    assert "ServiceEvent(REGISTERED" in errors[3].message
    assert all(isinstance(e.error, RuntimeError) for e in errors if e is not errors[3])
    fw.stop()

