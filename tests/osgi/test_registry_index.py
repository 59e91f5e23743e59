"""The per-objectClass registry index must be invisible semantically.

``get_references`` promises best-first ``(-ranking, service.id)`` order;
these tests pin that ordering across index maintenance (register,
unregister, set_properties ranking changes) and cross-check the indexed
implementation against a naive linear-scan model under randomized op
sequences.
"""

import random
import timeit

import pytest

from repro.osgi.events import EventDispatcher
from repro.osgi.filter import parse_filter
from repro.osgi.registry import ServiceRegistry


@pytest.fixture
def registry():
    return ServiceRegistry(EventDispatcher())


def linear_model(registry, clazz=None, flt=None):
    """The pre-index lookup semantics: full scan, then one sort."""
    out = []
    for registration in registry._registrations.values():
        props = registration._properties
        if clazz is not None and clazz not in props["objectClass"]:
            continue
        if flt is not None and not flt.matches(props):
            continue
        out.append(registration._reference)
    out.sort(key=lambda ref: (-ref.ranking, ref.service_id))
    return out


def ids(refs):
    return [r.service_id for r in refs]


def test_ranking_then_age_tie_break_survives_index(registry):
    low = registry.register(object(), "svc", object(), {"service.ranking": 1})
    high = registry.register(object(), "svc", object(), {"service.ranking": 9})
    old_tie = registry.register(object(), "svc", object(), {"service.ranking": 9})
    unranked = registry.register(object(), "svc", object())

    refs = registry.get_references("svc")
    assert refs == [high.reference, old_tie.reference, low.reference, unranked.reference]
    assert refs == linear_model(registry, "svc")
    assert registry.get_reference("svc") == high.reference


def test_set_properties_ranking_change_resorts_lookup(registry):
    a = registry.register(object(), "svc", object(), {"service.ranking": 5})
    b = registry.register(object(), "svc", object(), {"service.ranking": 1})
    assert registry.get_references("svc") == [a.reference, b.reference]

    b.set_properties({"service.ranking": 10})
    assert registry.get_references("svc") == [b.reference, a.reference]
    assert registry.get_reference("svc") == b.reference

    # Dropping the ranking property entirely falls back to 0.
    b.set_properties({})
    assert registry.get_references("svc") == [a.reference, b.reference]
    assert registry.get_references("svc") == linear_model(registry, "svc")


def test_multi_class_service_appears_in_each_bucket_once(registry):
    reg = registry.register(object(), ("a", "b"), object())
    only_a = registry.register(object(), "a", object(), {"service.ranking": 3})

    assert registry.get_references("a") == [only_a.reference, reg.reference]
    assert registry.get_references("b") == [reg.reference]
    # Unfiltered scan sees the dual-class service exactly once,
    # best-first (only_a carries ranking 3).
    assert ids(registry.get_references()) == [2, 1]


def test_filter_with_objectclass_uses_index_and_dedups(registry):
    both = registry.register(object(), ("a", "b"), object())
    registry.register(object(), "c", object())
    flt = parse_filter("(|(objectClass=a)(objectClass=b))")
    refs = registry.get_references(filter=flt)
    assert refs == [both.reference]
    assert refs == linear_model(registry, flt=flt)


def test_unregister_removes_from_every_bucket(registry):
    reg = registry.register(object(), ("a", "b"), object())
    reg.unregister()
    assert registry.get_references("a") == []
    assert registry.get_references("b") == []
    assert registry.size == 0
    assert registry._by_class == {}


def test_unregister_all_uses_keyed_registrations(registry):
    mine, other = object(), object()
    for i in range(10):
        registry.register(mine if i % 2 else other, "svc%d" % i, object())
    assert registry.unregister_all(mine) == 5
    assert registry.size == 5
    assert all(r._bundle is other for r in registry._registrations.values())


def test_randomized_ops_match_linear_model(registry):
    rng = random.Random(20260805)
    classes = ["svc.A", "svc.B", "svc.C", "svc.D"]
    live = []
    filters = [None, parse_filter("(shard>=2)"), parse_filter("(!(shard=1))")]
    for step in range(300):
        roll = rng.random()
        if roll < 0.55 or not live:
            chosen = rng.sample(classes, rng.randint(1, 2))
            live.append(
                registry.register(
                    object(),
                    tuple(chosen),
                    object(),
                    {"service.ranking": rng.randint(-3, 3), "shard": rng.randint(0, 4)},
                )
            )
        elif roll < 0.8:
            victim = live.pop(rng.randrange(len(live)))
            victim.unregister()
        else:
            target = rng.choice(live)
            target.set_properties(
                {"service.ranking": rng.randint(-3, 3), "shard": rng.randint(0, 4)}
            )
        clazz = rng.choice(classes + [None])
        flt = rng.choice(filters)
        assert registry.get_references(clazz, flt) == linear_model(
            registry, clazz, flt
        ), "divergence at step %d" % step


def test_candidate_merge_dedup_is_keyed_by_service_id(registry):
    """Regression for the ``id(r)``-keyed seen-set in the filter-driven
    candidate merge: dedup must key on ``service.id`` so results are
    stable facts about the registration, not about interpreter object
    identity (which CPython reuses across the lifetime of a process).

    A service registered under several classes matched by one OR filter
    is the merge path's worst case: it appears in every candidate
    bucket and must come back exactly once, best-first.
    """
    tri = registry.register(
        object(), ("a", "b", "c"), object(), {"service.ranking": 1}
    )
    only_b = registry.register(object(), "b", object(), {"service.ranking": 7})
    flt = parse_filter("(|(objectClass=a)(objectClass=b)(objectClass=c))")

    for _ in range(50):  # repeated merges over the same buckets
        refs = registry.get_references(filter=flt)
        assert refs == [only_b.reference, tri.reference]
        assert len(set(ids(refs))) == len(refs)
        assert refs == linear_model(registry, flt=flt)

    # Churn that recycles object identities: unregister/re-register other
    # services so fresh references reuse freed addresses, then re-query.
    for round_number in range(5):
        extras = [
            registry.register(object(), "a", object(), {"service.ranking": -1})
            for _ in range(20)
        ]
        refs = registry.get_references(filter=flt)
        assert refs[:2] == [only_b.reference, tri.reference]
        assert len(set(ids(refs))) == len(refs)
        assert refs == linear_model(registry, flt=flt)
        for extra in extras:
            extra.unregister()


def test_indexed_lookup_is_ten_times_a_linear_scan(registry):
    """The acceptance bar for the index: >= 10x over the linear scan on
    1000 services / 10 matching. Same process, same data set, so the
    ratio holds on noisy machines (typically 30-80x)."""
    for i in range(1000):
        registry.register(
            object(),
            "bench.Kind%d" % (i % 100),
            object(),
            {"shard": i % 10, "service.ranking": i % 5, "owner": "acme"},
        )
    refs = registry.get_references("bench.Kind7")
    assert len(refs) == 10
    assert refs == linear_model(registry, "bench.Kind7")

    def best_of_three(lookup):
        return min(timeit.repeat(lookup, number=200, repeat=3))

    indexed = best_of_three(lambda: registry.get_references("bench.Kind7"))
    linear = best_of_three(lambda: linear_model(registry, "bench.Kind7"))
    assert linear >= 10.0 * indexed, "speedup only %.1fx" % (linear / indexed)
