"""Service-listener indexing by objectClass in the EventDispatcher."""

from repro.osgi.events import EventDispatcher, ServiceEventType
from repro.osgi.filter import parse_filter
from repro.osgi.registry import ServiceRegistry


def make():
    dispatcher = EventDispatcher()
    return dispatcher, ServiceRegistry(dispatcher)


def test_class_scoped_listener_only_sees_its_class():
    dispatcher, registry = make()
    seen = []
    dispatcher.add_service_listener(seen.append, classes=("wanted",))
    registry.register(object(), "other", object())
    assert seen == []
    registration = registry.register(object(), "wanted", object())
    assert [e.type for e in seen] == [ServiceEventType.REGISTERED]
    registration.set_properties({"x": 1})
    registration.unregister()
    assert [e.type for e in seen] == [
        ServiceEventType.REGISTERED,
        ServiceEventType.MODIFIED,
        ServiceEventType.UNREGISTERING,
    ]


def test_interest_set_derived_from_filter():
    """A filter without ``classes=`` makes a wildcard entry; the filter
    still decides delivery."""
    dispatcher, registry = make()
    seen = []
    dispatcher.add_service_listener(
        seen.append, parse_filter("(&(objectClass=wanted)(grade>=3))")
    )
    assert dispatcher._service_index == {}
    registry.register(object(), "other", object(), {"grade": 9})
    registry.register(object(), "wanted", object(), {"grade": 1})
    assert seen == []  # the filter rejects both
    registry.register(object(), "wanted", object(), {"grade": 5})
    assert len(seen) == 1


def test_wildcard_listener_still_sees_everything():
    dispatcher, registry = make()
    wildcard, scoped = [], []
    dispatcher.add_service_listener(wildcard.append)
    dispatcher.add_service_listener(scoped.append, classes=("a",))
    registry.register(object(), "a", object())
    registry.register(object(), "b", object())
    assert len(wildcard) == 2
    assert len(scoped) == 1


def test_multi_class_event_delivers_once_in_registration_order():
    dispatcher, registry = make()
    order = []
    dispatcher.add_service_listener(lambda e: order.append("both"), classes=("a", "b"))
    dispatcher.add_service_listener(lambda e: order.append("wild"))
    dispatcher.add_service_listener(lambda e: order.append("only-b"), classes=("b",))
    registry.register(object(), ("a", "b"), object())
    assert order == ["both", "wild", "only-b"]


def test_removed_listener_leaves_index_clean():
    dispatcher, registry = make()
    seen = []
    listener = seen.append
    dispatcher.add_service_listener(listener, classes=("a",))
    dispatcher.remove_service_listener(listener)
    registry.register(object(), "a", object())
    assert seen == []
    assert dispatcher._service_index == {}


# ----------------------------------------------------------------------
# Removal is keyed by equality: a bound method is a new object at every
# attribute access, so an identity compare never found it and every
# close() leaked its entry.
# ----------------------------------------------------------------------
class Recorder:
    def __init__(self, name="recorder", seen=None):
        self.name = name
        self.seen = [] if seen is None else seen

    def on_event(self, event):
        self.seen.append(self.name)


def test_bound_method_listener_is_removed():
    dispatcher, registry = make()
    recorder = Recorder()
    dispatcher.add_service_listener(recorder.on_event, classes=("a",))
    dispatcher.add_service_listener(recorder.on_event)  # re-add replaces
    assert len(dispatcher._service_entries) == 1
    dispatcher.remove_service_listener(recorder.on_event)
    registry.register(object(), "a", object())
    assert recorder.seen == []
    assert dispatcher._service_entries == {}
    assert dispatcher._service_wildcard == {} and dispatcher._service_index == {}


def test_removal_unlinks_one_entry_and_leaves_the_rest_in_order():
    dispatcher, registry = make()
    order = []
    recorders = [Recorder(name, order) for name in ("ab", "wild", "b-only", "a-only")]
    for recorder, classes in zip(recorders, [("a", "b"), None, ("b",), ("a",)]):
        dispatcher.add_service_listener(recorder.on_event, classes=classes)

    def layout():
        return (
            [e.seq for e in dispatcher._service_entries.values()],
            [e.seq for e in dispatcher._service_wildcard],
            {c: [e.seq for e in b] for c, b in dispatcher._service_index.items()},
        )

    assert layout() == ([0, 1, 2, 3], [1], {"a": [0, 3], "b": [0, 2]})
    dispatcher.remove_service_listener(recorders[0].on_event)
    assert layout() == ([1, 2, 3], [1], {"a": [3], "b": [2]})
    registry.register(object(), ("a", "b"), object())
    assert order == ["wild", "b-only", "a-only"]
    dispatcher.remove_service_listener(recorders[2].on_event)
    assert layout() == ([1, 3], [1], {"a": [3]})
