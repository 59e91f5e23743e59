"""Customer directory on the SAN."""

import pytest

from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.sim.eventloop import EventLoop
from repro.storage.san import SharedStore


@pytest.fixture
def store():
    return SharedStore()


@pytest.fixture
def directory(store):
    return CustomerDirectory(store, EventLoop())


def test_get_reads_the_stored_value_once_without_copying(
    directory, store, monkeypatch
):
    import copy

    directory.put(CustomerDescriptor(name="acme", packages=("a.b",)))
    reads = store.stats.data_reads
    copies = []
    deepcopy = copy.deepcopy
    monkeypatch.setattr(
        copy, "deepcopy", lambda v, *a: copies.append(v) or deepcopy(v, *a)
    )
    assert directory.get("acme").packages == ("a.b",)
    assert directory.get("ghost") is None
    assert copies == []
    assert store.stats.data_reads == reads + 2


def test_put_get_roundtrip(directory):
    descriptor = CustomerDescriptor(
        name="acme",
        packages=("log",),
        services=("log.LogService",),
        cpu_share=0.3,
        priority=2,
        bundle_count_hint=4,
    )
    directory.put(descriptor)
    loaded = directory.get("acme")
    assert loaded == descriptor


def test_get_missing_returns_none(directory):
    assert directory.get("ghost") is None


def test_require_raises_for_missing(directory):
    with pytest.raises(KeyError):
        directory.require("ghost")


def test_visible_from_other_node_mount(store):
    CustomerDirectory(store, EventLoop()).put(CustomerDescriptor(name="acme"))
    assert CustomerDirectory(store, EventLoop()).get("acme") is not None


def test_remove(directory):
    directory.put(CustomerDescriptor(name="acme"))
    directory.remove("acme")
    assert directory.get("acme") is None
    directory.remove("acme")  # idempotent


def test_names_sorted(directory):
    directory.put(CustomerDescriptor(name="zeta"))
    directory.put(CustomerDescriptor(name="alpha"))
    assert directory.names() == ["alpha", "zeta"]


def test_descriptor_materializes_policy_and_quota():
    descriptor = CustomerDescriptor(
        name="acme",
        packages=("log", "http"),
        services=("log.S",),
        cpu_share=0.4,
        memory_bytes=123,
        disk_bytes=456,
    )
    policy = descriptor.policy()
    assert policy.allows_package("log")
    assert policy.allows_package("http")
    assert policy.allows_service(("log.S",))
    quota = descriptor.quota()
    assert quota.cpu_share == 0.4
    assert quota.memory_bytes == 123
    assert quota.disk_bytes == 456


def test_from_dict_defaults():
    descriptor = CustomerDescriptor.from_dict({"name": "x"})
    assert descriptor.cpu_share == 1.0
    assert descriptor.priority == 0
