"""Live context migration: checkpoint/restore of running context."""

import pytest

from repro.migration.livemigration import (
    CHECKPOINT_KEY,
    CheckpointableActivator,
    ContextCheckpointer,
)
from repro.osgi.definition import simple_bundle
from repro.osgi.framework import Framework
from repro.sim.eventloop import EventLoop
from repro.storage.san import SharedStore
from repro.vosgi.instance import VirtualInstance


class CounterActivator(CheckpointableActivator):
    """A bundle whose running context is a counter."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def snapshot(self):
        return {"count": self.count}

    def restore(self, snapshot):
        self.count = snapshot["count"]


def build_instance(store, host_name="host", node="n1"):
    host = Framework(host_name)
    host.start()
    instance = VirtualInstance(
        "acme",
        host,
        storage=store.mount(node).framework_storage(),
        repository=store,
    )
    instance.start()
    return host, instance


def test_checkpoint_writes_to_data_area():
    store = SharedStore()
    host, instance = build_instance(store)
    activator = CounterActivator()
    instance.install(
        simple_bundle("counter", activator_factory=lambda: activator)
    ).start()
    activator.count = 7
    assert activator.checkpoint()
    assert store.data_area("vosgi:acme", "counter")[CHECKPOINT_KEY] == {"count": 7}


def test_graceful_stop_checkpoints_implicitly():
    store = SharedStore()
    host, instance = build_instance(store)
    activator = CounterActivator()
    bundle = instance.install(
        simple_bundle("counter", activator_factory=lambda: activator)
    )
    bundle.start()
    activator.count = 3
    bundle.stop()
    assert store.data_area("vosgi:acme", "counter")[CHECKPOINT_KEY] == {"count": 3}


def test_redeployed_bundle_restores_context_on_other_node():
    store = SharedStore()
    host, instance = build_instance(store)
    instance.install(
        simple_bundle("counter", activator_factory=CounterActivator)
    ).start()
    bundle = instance.get_bundle_by_name("counter")
    bundle._activator.count = 42
    bundle._activator.checkpoint()
    # Crash: instance abandoned without stop; redeploy on another node. The
    # definition (with its activator factory) comes back from the SAN
    # repository, and the fresh activator restores from the checkpoint.
    host2, reborn = build_instance(store, "host2", "n2")
    redeployed = reborn.get_bundle_by_name("counter")
    assert redeployed is not None
    fresh_activator = redeployed._activator
    assert isinstance(fresh_activator, CounterActivator)
    assert fresh_activator.restored_from_checkpoint
    assert fresh_activator.count == 42


def test_activator_restores_on_start_automatically():
    store = SharedStore()
    host, instance = build_instance(store)
    first = CounterActivator()
    bundle = instance.install(
        simple_bundle("counter", activator_factory=lambda: first)
    )
    bundle.start()
    first.count = 9
    bundle.stop()  # implicit checkpoint

    second = CounterActivator()
    bundle2 = instance.install(
        simple_bundle("counter2", activator_factory=lambda: second),
        location="bundle://counter/1.0.0",  # same location => same bundle
    )
    # New activator for the same data area:
    fresh = CounterActivator()
    bundle.definition.activator_factory = lambda: fresh
    bundle.start()
    assert fresh.count == 9
    assert fresh.restored_from_checkpoint


def test_checkpoint_returns_false_when_not_running():
    activator = CounterActivator()
    assert activator.checkpoint() is False


def test_checkpoint_returns_false_when_the_san_mount_is_lost():
    """A crashed node's checkpointer keeps ticking against a lost mount."""
    store = SharedStore()
    mount = store.mount("n1")
    host = Framework("host")
    host.start()
    instance = VirtualInstance(
        "acme", host, storage=mount.framework_storage(), repository=store
    )
    instance.start()
    activator = CounterActivator()
    instance.install(
        simple_bundle("counter", activator_factory=lambda: activator)
    ).start()
    mount.unmount()
    assert activator.checkpoint() is False


def test_a_raising_snapshot_propagates():
    class BrokenActivator(CounterActivator):
        def snapshot(self):
            raise ZeroDivisionError("broken snapshot")

    store = SharedStore()
    host, instance = build_instance(store)
    activator = BrokenActivator()
    instance.install(
        simple_bundle("counter", activator_factory=lambda: activator)
    ).start()
    with pytest.raises(ZeroDivisionError, match="broken snapshot"):
        activator.checkpoint()


class TestContextCheckpointer:
    def test_periodic_checkpointing(self):
        store = SharedStore()
        loop = EventLoop()
        host, instance = build_instance(store)
        activator = CounterActivator()
        instance.install(
            simple_bundle("counter", activator_factory=lambda: activator)
        ).start()
        checkpointer = ContextCheckpointer(loop, instance, interval=1.0)
        checkpointer.start()
        activator.count = 1
        loop.run_for(1.0)
        assert store.data_area("vosgi:acme", "counter")[CHECKPOINT_KEY] == {
            "count": 1
        }
        activator.count = 2
        loop.run_for(1.0)
        assert store.data_area("vosgi:acme", "counter")[CHECKPOINT_KEY] == {
            "count": 2
        }
        assert checkpointer.checkpoints_taken == 2

    def test_work_since_last_checkpoint_lost_on_crash(self):
        """Bounded loss: the checkpoint interval is the exposure window."""
        store = SharedStore()
        loop = EventLoop()
        host, instance = build_instance(store)
        activator = CounterActivator()
        instance.install(
            simple_bundle("counter", activator_factory=lambda: activator)
        ).start()
        checkpointer = ContextCheckpointer(loop, instance, interval=1.0)
        checkpointer.start()
        activator.count = 5
        loop.run_for(1.0)  # checkpoint at count=5
        activator.count = 99  # work after the last checkpoint
        # crash now: the stored context is 5, not 99
        stored = store.data_area("vosgi:acme", "counter")[CHECKPOINT_KEY]
        assert stored == {"count": 5}

    def test_stop_halts_checkpointing(self):
        store = SharedStore()
        loop = EventLoop()
        host, instance = build_instance(store)
        activator = CounterActivator()
        instance.install(
            simple_bundle("counter", activator_factory=lambda: activator)
        ).start()
        checkpointer = ContextCheckpointer(loop, instance, interval=1.0)
        checkpointer.start()
        loop.run_for(1.0)
        checkpointer.stop()
        loop.run_for(5.0)
        assert checkpointer.checkpoints_taken == 1

    def test_invalid_interval_rejected(self):
        store = SharedStore()
        loop = EventLoop()
        host, instance = build_instance(store)
        with pytest.raises(ValueError):
            ContextCheckpointer(loop, instance, interval=0)

    def test_non_checkpointable_bundles_skipped(self):
        store = SharedStore()
        loop = EventLoop()
        host, instance = build_instance(store)
        instance.install(simple_bundle("plain")).start()
        checkpointer = ContextCheckpointer(loop, instance, interval=1.0)
        assert checkpointer.checkpoint_now() == 0
