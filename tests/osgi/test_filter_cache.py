"""parse_filter LRU cache + compiled-closure correctness."""

import pytest

from repro.osgi.errors import InvalidSyntaxError
from repro.osgi.filter import (
    parse_filter,
    parse_filter_cache_clear,
    parse_filter_cache_info,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    parse_filter_cache_clear()
    yield
    parse_filter_cache_clear()


def test_same_text_hits_cache_and_keeps_semantics():
    first = parse_filter("(&(a=1)(b>=2))")
    before = parse_filter_cache_info().hits
    second = parse_filter("(&(a=1)(b>=2))")
    assert parse_filter_cache_info().hits == before + 1
    assert second is first  # memoised object
    for props, expected in [
        ({"a": "1", "b": 3}, True),
        ({"a": "1", "b": 1}, False),
        ({"A": "1", "B": 5}, True),  # case-insensitive attributes
    ]:
        assert first.matches(props) is expected
        assert second.matches(props) is expected


def test_cache_hit_does_not_leak_state_between_callers():
    flt = parse_filter("(names=x*z)")
    props_a = {"names": ["xyz", "other"]}
    props_b = {"names": ["nope"]}
    assert flt.matches(props_a) is True
    # A second caller getting the cached object sees fresh evaluation,
    # and matching must never mutate the caller's dict.
    cached = parse_filter("(names=x*z)")
    snapshot = dict(props_b)
    assert cached.matches(props_b) is False
    assert props_b == snapshot
    # Mutating a property value between calls is observed (no stale
    # result captured inside the closure).
    props_b["names"].append("xaz")
    assert cached.matches(props_b) is True


def test_distinct_texts_are_distinct_entries():
    a = parse_filter("(x=1)")
    b = parse_filter("(x=2)")
    assert a is not b
    assert a.matches({"x": 1}) and not a.matches({"x": 2})
    assert b.matches({"x": 2}) and not b.matches({"x": 1})


def test_invalid_filter_raises_every_time():
    for _ in range(2):
        with pytest.raises(InvalidSyntaxError):
            parse_filter("(unterminated")
    with pytest.raises(InvalidSyntaxError):
        parse_filter("   ")
    with pytest.raises(InvalidSyntaxError):
        parse_filter(None)


def test_compiled_coercions_decided_per_node():
    # Numeric operand: compares numerically for numbers, lexically for text.
    flt = parse_filter("(level>=10)")
    assert flt.matches({"level": 11}) is True
    assert flt.matches({"level": 9}) is False
    # Text values fall back to lexicographic comparison ('9' > '1').
    assert flt.matches({"level": "9"}) is True
