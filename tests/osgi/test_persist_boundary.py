"""State is written at operation boundaries, once per framework transition.

``autopersist`` means: storage equals the current state whenever a public
framework, bundle or start-level operation returns. ``Framework.start()``
and ``Framework.stop()`` are one operation each, so a restart costs two
writes however many bundles the start-level walk touches, and the stored
start level is the one the framework ran at. Each write builds one record
per bundle, and the in-memory storage keeps that snapshot as given, so a
restart builds no other record.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.osgi.bundle import BundleState
from repro.osgi.definition import simple_bundle
from repro.osgi.framework import Framework
from repro.osgi.persistence import BundleRecord, InMemoryFrameworkStorage


class CountingStorage(InMemoryFrameworkStorage):
    def __init__(self) -> None:
        super().__init__()
        self.saves = 0
        self.saved = None

    def save_state(self, instance_id, state) -> None:
        self.saves += 1
        self.saved = state
        super().save_state(instance_id, state)


def populated(storage, count):
    fw = Framework("env", storage=storage)
    fw.start()
    for i in range(count):
        bundle = fw.install(simple_bundle("b%d" % i))
        fw.start_levels.set_bundle_level(bundle, 1 + i % 9)
        bundle.start()
    return fw


def restart_writes(fw, storage):
    before = storage.saves
    fw.stop()
    fw.start()
    return storage.saves - before


@pytest.mark.parametrize("count", [4, 40])
def test_stop_start_writes_state_at_most_twice(count):
    storage = CountingStorage()
    fw = populated(storage, count)
    assert restart_writes(fw, storage) <= 2
    assert sum(b.state == BundleState.ACTIVE for b in fw.bundles()) == count


def test_restart_write_count_is_flat_in_history():
    storage = CountingStorage()
    fw = populated(storage, 4)
    assert {restart_writes(fw, storage) for _ in range(1000)} == {2}


@pytest.fixture
def records_made(monkeypatch):
    """Every ``BundleRecord`` constructed while the test runs."""
    made = []
    new = BundleRecord.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(BundleRecord, "__new__", counted)
    return made


def test_in_memory_storage_keeps_the_state_it_is_given():
    storage = CountingStorage()
    fw = populated(storage, 4)
    restart_writes(fw, storage)
    assert storage.load_state("env") is storage.saved


@pytest.mark.parametrize("count", [4, 40])
def test_restart_builds_each_record_once_per_write(count, records_made):
    storage = CountingStorage()
    fw = populated(storage, count)
    records_made.clear()
    restart_writes(fw, storage)
    assert len(records_made) == 2 * count


def test_restart_record_count_is_flat_in_history(records_made):
    storage = CountingStorage()
    fw = populated(storage, 4)
    made = set()
    for _ in range(1000):
        records_made.clear()
        restart_writes(fw, storage)
        made.add(len(records_made))
    assert made == {8}


def test_explicit_operations_still_write_through():
    storage = CountingStorage()
    fw = Framework("env", storage=storage)
    fw.start()
    operations = [
        lambda: fw.install(simple_bundle("a")),
        lambda: fw.get_bundle_by_name("a").start(),
        lambda: fw.start_levels.set_bundle_level(fw.get_bundle_by_name("a"), 4),
        lambda: fw.get_bundle_by_name("a").update(simple_bundle("a", version="2.0.0")),
        lambda: fw.start_levels.set_level(7),
        lambda: fw.get_bundle_by_name("a").stop(),
        lambda: fw.get_bundle_by_name("a").uninstall(),
    ]
    for operation in operations:
        before = storage.saves
        operation()
        assert storage.saves == before + 1


def test_framework_restarts_at_the_level_it_ran_at():
    """stop() used to persist from inside the walk to level 0, so the
    stored level was 1 and only level-1 bundles came back ACTIVE."""
    storage = InMemoryFrameworkStorage()
    fw = Framework("env", storage=storage)
    fw.start()
    assert fw.start_level == 10
    for name, level in (("low", 1), ("mid", 5), ("high", 9)):
        bundle = fw.install(simple_bundle(name))
        fw.start_levels.set_bundle_level(bundle, level)
        bundle.start()
    fw.stop()
    assert storage.load_state("env").start_level == 10

    for rebooted in (fw, Framework("env", storage=storage, repository=fw.repository)):
        rebooted.start()
        assert rebooted.start_level == 10
        assert {b.symbolic_name: b.state for b in rebooted.bundles()} == {
            "low": BundleState.ACTIVE,
            "mid": BundleState.ACTIVE,
            "high": BundleState.ACTIVE,
        }
        rebooted.stop()


def test_mark_for_activation_above_the_framework_level_is_persisted():
    storage = InMemoryFrameworkStorage()
    fw = Framework("env", storage=storage)
    fw.start(target_level=3)
    bundle = fw.install(simple_bundle("late"))
    fw.start_levels.set_bundle_level(bundle, 5)
    bundle.start()  # gated: no STARTED event, only the autostart mark
    record = storage.load_state("env").bundles[0]
    assert (record.autostart, record.start_level) == (True, 5)


# ----------------------------------------------------------------------
# Batching the walk's writes loses no crash recoverability
# ----------------------------------------------------------------------
POOL = 5
bundle_index = st.integers(0, POOL - 1)
operations = st.one_of(
    st.tuples(st.just("install"), bundle_index),
    st.tuples(st.just("start"), bundle_index),
    st.tuples(st.just("stop"), bundle_index),
    st.tuples(st.just("uninstall"), bundle_index),
    st.tuples(st.just("bundle_level"), bundle_index, st.integers(1, 12)),
    st.tuples(st.just("framework_level"), st.integers(1, 12)),
    st.tuples(st.just("restart")),
)


def view(fw):
    """What a rebooted framework must reproduce."""
    return fw.start_level, [
        (b.location, b.autostart, b.start_level, b.state == BundleState.ACTIVE)
        for b in fw.bundles()
    ]


def check_recoverable(fw, storage, expected_view):
    """Storage holds the current state, and a crash now would recover it."""
    if fw.active:
        stored = storage.load_state("env").to_dict()
        fw.persist()
        assert storage.load_state("env").to_dict() == stored
    rebooted = Framework(
        "env", storage=copy.deepcopy(storage), repository=fw.repository
    )
    rebooted.start()
    assert view(rebooted) == expected_view


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 10]), st.lists(operations, max_size=14))
def test_storage_equals_state_after_every_public_call(initial_level, script):
    storage = InMemoryFrameworkStorage()
    fw = Framework("env", storage=storage)
    fw.start(target_level=initial_level)
    check_recoverable(fw, storage, view(fw))
    for op, *args in script:
        if op == "restart":
            running = view(fw)
            fw.stop()
            check_recoverable(fw, storage, running)
            fw.start()
            assert view(fw) == running
        elif op == "framework_level":
            fw.start_levels.set_level(args[0])
        elif op == "install":
            fw.install(simple_bundle("b%d" % args[0]))
        else:
            bundle = fw.get_bundle_by_name("b%d" % args[0])
            if bundle is None:
                continue
            if op == "bundle_level":
                fw.start_levels.set_bundle_level(bundle, args[1])
            else:
                getattr(bundle, op)()
        check_recoverable(fw, storage, view(fw))
