"""Transactional KV workload: atomicity and migratability."""

import pytest

from repro.osgi.framework import Framework
from repro.storage.san import SharedStore
from repro.vosgi.instance import VirtualInstance
from repro.workloads.kvstore import KV_SERVICE_CLASS, kvstore_bundle


def build_instance(store, node="n1", host_name="host"):
    host = Framework(host_name)
    host.start()
    instance = VirtualInstance(
        "tenant",
        host,
        storage=store.mount(node).framework_storage(),
        repository=store,
    )
    instance.start()
    bundle = instance.install(kvstore_bundle())
    bundle.start()
    return host, instance, bundle._activator


@pytest.fixture
def store():
    return SharedStore()


def test_commit_roundtrip(store):
    host, instance, kv = build_instance(store)
    kv.begin().put("a", 1).put("b", [2, 3]).commit()
    assert kv.get("a") == 1
    assert kv.get("b") == [2, 3]
    assert kv.keys() == ["a", "b"]
    assert kv.commits == 1


def test_uncommitted_invisible_and_abortable(store):
    host, instance, kv = build_instance(store)
    txn = kv.begin().put("x", "staged")
    assert kv.get("x") is None
    txn.abort()
    assert kv.get("x") is None


def test_finished_transaction_rejects_reuse(store):
    host, instance, kv = build_instance(store)
    txn = kv.begin().put("x", 1)
    txn.commit()
    with pytest.raises(RuntimeError):
        txn.put("y", 2)
    with pytest.raises(RuntimeError):
        txn.commit()


def test_service_registered_in_instance(store):
    host, instance, kv = build_instance(store)
    reference = instance.framework.registry.get_reference(KV_SERVICE_CLASS)
    assert reference is not None
    service = instance.framework.registry.get_service(
        instance.framework.system_bundle, reference
    )
    assert service is kv


def test_committed_state_survives_migration(store):
    host, instance, kv = build_instance(store)
    kv.begin().put("order", {"items": ["anvil"]}).commit()
    instance.stop()
    host.stop()

    host2, reborn, kv2 = None, None, None
    host2 = Framework("host2")
    host2.start()
    reborn = VirtualInstance(
        "tenant",
        host2,
        storage=store.mount("n2").framework_storage(),
        repository=store,
    )
    reborn.start()
    kv2 = reborn.get_bundle_by_name("workload.kvstore")._activator
    assert kv2.get("order") == {"items": ["anvil"]}


def test_in_flight_transaction_lost_cleanly_on_crash(store):
    host, instance, kv = build_instance(store)
    kv.begin().put("committed", 1).commit()
    kv.begin().put("in-flight", 2)  # crash before commit
    # Abandon everything (crash); redeploy elsewhere.
    host2 = Framework("host2")
    host2.start()
    reborn = VirtualInstance(
        "tenant",
        host2,
        storage=store.mount("n2").framework_storage(),
        repository=store,
    )
    reborn.start()
    kv2 = reborn.get_bundle_by_name("workload.kvstore")._activator
    assert kv2.get("committed") == 1
    assert kv2.get("in-flight") is None  # atomicity held


def test_graceful_stop_aborts_open_transaction(store):
    host, instance, kv = build_instance(store)
    kv.begin().put("half", 1)
    bundle = instance.get_bundle_by_name("workload.kvstore")
    bundle.stop()
    bundle.start()
    kv2 = bundle._activator
    assert kv2.get("half") is None


def test_operations_are_metered(store):
    host, instance, kv = build_instance(store)
    kv.begin().put("a", 1).commit()
    kv.get("a")
    assert instance.usage()["cpu_seconds"] > 0


def test_api_refuses_when_stopped(store):
    host, instance, kv = build_instance(store)
    instance.get_bundle_by_name("workload.kvstore").stop()
    with pytest.raises(RuntimeError):
        kv.get("a")
    with pytest.raises(RuntimeError):
        kv.begin()


def test_operations_complete_and_count_on_an_invalidated_context(store):
    """Mid-migration the bundle's context can go invalid under a store
    that still holds it; metering is skipped, the operation is not."""
    host, instance, kv = build_instance(store)
    kv.context._invalidate()
    before = instance.usage()["cpu_seconds"]
    kv.begin().put("a", 1).commit()
    kv.begin().put("b", 2).abort()
    assert kv.get("a") == 1
    assert kv.keys() == ["a"]
    assert kv.operations == 5  # put, commit, put, get, keys
    assert instance.usage()["cpu_seconds"] == before


def test_unexpected_accounting_errors_propagate(store):
    class BrokenContext:
        def account(self, cpu=0.0, memory_delta=0, disk_delta=0):
            raise KeyError("ledger")

    host, instance, kv = build_instance(store)
    kv.context = BrokenContext()
    with pytest.raises(KeyError):
        kv.get("a")
    with pytest.raises(KeyError):
        kv.begin().put("a", 1)
