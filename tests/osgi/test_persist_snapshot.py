"""A persisted framework state is one immutable snapshot.

Storage holds what the last write saw: nothing done to the framework
after the write, and nothing done to what ``load_state`` returned,
changes what the next ``load_state`` reads. The shared store still
serializes the snapshot, byte for byte as before.
"""

import pytest

from repro.osgi.definition import simple_bundle
from repro.osgi.framework import Framework
from repro.osgi.persistence import (
    BundleRecord,
    FrameworkState,
    InMemoryFrameworkStorage,
)
from repro.storage.san import SharedStore


def written(storage):
    """A framework with two bundles, its state just written."""
    fw = Framework("env", storage=storage, properties={"mode": "a"})
    fw.start()
    for name in ("a", "b"):
        fw.install(simple_bundle(name)).start()
    fw.autopersist = False
    fw.persist()
    return fw


def stored(storage):
    return storage.load_state("env").to_dict()


def test_storage_keeps_the_written_state_until_the_next_write():
    storage = InMemoryFrameworkStorage()
    fw = written(storage)
    before = stored(storage)
    bundle = fw.get_bundle_by_name("a")
    bundle.autostart = False
    bundle.start_level = 7
    fw.properties["mode"] = "b"
    fw.properties["added"] = 1
    fw.install(simple_bundle("c"))
    assert stored(storage) == before

    fw.persist()
    after = stored(storage)
    assert after["properties"] == {"mode": "b", "added": 1}
    assert [b["symbolic_name"] for b in after["bundles"]] == ["a", "b", "c"]
    assert (after["bundles"][0]["autostart"], after["bundles"][0]["start_level"]) == (
        False,
        7,
    )


def append_a_record(state):
    state.bundles.append(BundleRecord("loc://x", "x", "1.0.0", True, 1))


def set_a_property(state):
    state.properties["mode"] = "changed"


def set_a_record_field(state):
    state.bundles[0].autostart = False


def set_the_start_level(state):
    state.start_level = 1


@pytest.mark.parametrize(
    "mutate",
    [append_a_record, set_a_property, set_a_record_field, set_the_start_level],
)
@pytest.mark.parametrize("storage_type", [InMemoryFrameworkStorage, SharedStore])
def test_a_loaded_snapshot_cannot_change_what_is_stored(storage_type, mutate):
    storage = storage_type()
    written(storage)
    before = stored(storage)
    try:
        mutate(storage.load_state("env"))
    except (AttributeError, TypeError):
        pass
    assert stored(storage) == before


def test_an_updated_bundle_persists_its_new_version():
    storage = InMemoryFrameworkStorage()
    fw = Framework("env", storage=storage)
    fw.start()
    bundle = fw.install(simple_bundle("a"), "loc://a")
    bundle.update(simple_bundle("a", version="2.0.0"))
    (record,) = storage.load_state("env").bundles
    assert (record.location, record.version) == ("loc://a", "2.0.0")


def test_the_shared_store_serializes_a_snapshot_as_before():
    state = FrameworkState(
        bundles=[
            BundleRecord("loc://a", "a", "1.0.0", True, 1),
            BundleRecord("loc://b", "b", "2.1.0.beta", False, 4),
        ],
        start_level=7,
        properties={"org.osgi.framework.vendor": "repro", "slots": 3},
    )
    store = SharedStore()
    store.save_state("env", state)
    assert store._states["env"] == {
        "bundles": [
            {
                "location": "loc://a",
                "symbolic_name": "a",
                "version": "1.0.0",
                "autostart": True,
                "start_level": 1,
            },
            {
                "location": "loc://b",
                "symbolic_name": "b",
                "version": "2.1.0.beta",
                "autostart": False,
                "start_level": 4,
            },
        ],
        "start_level": 7,
        "properties": {"org.osgi.framework.vendor": "repro", "slots": 3},
    }
    assert store.stats.bytes_written == 311
