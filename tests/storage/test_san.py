"""Shared store: global visibility, crash survival, serializability contract."""

import json

import pytest

from repro.osgi.definition import simple_bundle
from repro.osgi.persistence import BundleRecord, FrameworkState
from repro.storage.san import SharedStore, StorageError


@pytest.fixture
def store():
    return SharedStore()


def sample_state():
    return FrameworkState(
        bundles=[BundleRecord("loc://a", "a", "1.0.0", True, 1)],
        start_level=5,
    )


class TestEncodeOnce:
    @pytest.fixture
    def encodings(self, monkeypatch):
        made = []
        dumps = json.dumps

        def counted(value, *args, **kwargs):
            made.append(value)
            return dumps(value, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)
        return made

    def test_a_data_write_encodes_its_value_once(self, store, encodings):
        value = {"k": [1, "é"], "n": None}
        store.data_area("i", "b")["x"] = value
        assert encodings == [value]
        assert store.stats.bytes_written == len(json.dumps(value))

    def test_a_state_write_encodes_its_payload_once(self, store, encodings):
        store.save_state("env", sample_state())
        assert len(encodings) == 1
        assert store.stats.bytes_written == len(json.dumps(encodings[0]))

    def test_an_unserializable_write_counts_nothing(self, store, encodings):
        with pytest.raises(StorageError):
            store.data_area("i", "b")["x"] = {"k": object()}
        assert store.stats.as_dict() == SharedStore().stats.as_dict()


class TestReadOnly:
    def test_read_only_hands_over_the_stored_value_and_counts(self, store):
        area = store.data_area("i", "b")
        area["x"] = {"k": [1]}
        shared = area.read_only("x")
        assert shared == {"k": [1]} and area.read_only("x") is shared
        assert area.read_only("missing") is None
        assert store.stats.data_reads == 3

    def test_item_reads_still_copy(self, store):
        area = store.data_area("i", "b")
        area["x"] = {"k": [1]}
        area["x"]["k"].append(2)
        assert area["x"] == {"k": [1]}
        assert store.stats.data_reads == 2


class TestFrameworkStates:
    def test_save_load_roundtrip(self, store):
        store.save_state("env", sample_state())
        loaded = store.load_state("env")
        assert loaded.start_level == 5
        assert loaded.bundles[0].symbolic_name == "a"
        assert loaded.bundles[0].autostart is True

    def test_load_missing_returns_none(self, store):
        assert store.load_state("ghost") is None

    def test_loaded_state_is_a_copy(self, store):
        store.save_state("env", sample_state())
        first = store.load_state("env")
        with pytest.raises(AttributeError):
            first.bundles.clear()  # a snapshot's records are a tuple
        assert len(store.load_state("env").bundles) == 1
        assert store.load_state("env") is not first

    def test_instance_ids_enumerated(self, store):
        store.save_state("b", sample_state())
        store.save_state("a", sample_state())
        assert list(store.instance_ids()) == ["a", "b"]

    def test_has_state(self, store):
        assert not store.has_state("env")
        store.save_state("env", sample_state())
        assert store.has_state("env")


class TestDataAreas:
    def test_write_read_roundtrip(self, store):
        area = store.data_area("env", "bundle")
        area["key"] = {"list": [1, 2], "s": "x"}
        assert area["key"] == {"list": [1, 2], "s": "x"}

    def test_areas_keyed_by_instance_and_bundle(self, store):
        store.data_area("env1", "b")["k"] = 1
        assert "k" not in store.data_area("env2", "b")
        assert "k" not in store.data_area("env1", "other")

    def test_same_area_from_two_mounts_shares_data(self, store):
        """The SAN property: node 2 reads what node 1 wrote."""
        s1 = store.mount("n1").framework_storage()
        s2 = store.mount("n2").framework_storage()
        s1.bundle_data("env", "b")["shared"] = 42
        assert s2.bundle_data("env", "b")["shared"] == 42

    def test_unserializable_value_rejected(self, store):
        area = store.data_area("env", "b")
        with pytest.raises(StorageError):
            area["bad"] = object()

    def test_values_deep_copied_on_write(self, store):
        area = store.data_area("env", "b")
        value = {"inner": [1]}
        area["k"] = value
        value["inner"].append(2)
        assert area["k"] == {"inner": [1]}

    def test_mapping_protocol(self, store):
        area = store.data_area("env", "b")
        area["a"] = 1
        area["b"] = 2
        assert len(area) == 2
        assert sorted(area) == ["a", "b"]
        del area["a"]
        assert "a" not in area
        assert area.get("a", "default") == "default"


class TestMounts:
    def test_unmounted_mount_refuses_operations(self, store):
        mount = store.mount("n1")
        storage = mount.framework_storage()
        mount.unmount()
        with pytest.raises(StorageError):
            storage.load_state("env")

    def test_data_survives_unmount(self, store):
        """Node crash loses the mount, never the data."""
        mount = store.mount("n1")
        mount.framework_storage().save_state("env", sample_state())
        mount.unmount()
        fresh = store.mount("n2").framework_storage()
        assert fresh.load_state("env") is not None


class TestRepository:
    def test_definition_roundtrip(self, store):
        definition = simple_bundle("a")
        store.put_definition("loc://a", definition)
        assert store.get_definition("loc://a") is definition
        assert store.get_definition("loc://missing") is None

    def test_repository_view_snapshot(self, store):
        store.put_definition("loc://a", simple_bundle("a"))
        view = store.repository_view()
        assert "loc://a" in view
        view.clear()
        assert store.get_definition("loc://a") is not None


def test_stats_track_operations(store):
    store.save_state("env", sample_state())
    store.load_state("env")
    area = store.data_area("env", "b")
    area["k"] = 1
    _ = area["k"]
    stats = store.stats.as_dict()
    assert stats["state_writes"] == 1
    assert stats["state_reads"] == 1
    assert stats["data_writes"] == 1
    assert stats["data_reads"] == 1
    assert stats["bytes_written"] > 0
