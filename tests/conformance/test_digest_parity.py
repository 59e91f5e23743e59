"""``History.digest()`` is the SHA-256 of the ``json.dumps`` oracle.

The digest encodes a batch of events at a time with the encoder behind
``json.dumps`` and escapes each distinct string once per pass. Random
histories here cover every event kind with the field shapes the recorder
writes, plus hostile strings (non-ASCII, quotes, backslashes, control
characters, lone surrogates, ``str`` subclasses), ``None`` seq / view_id,
big ints, floats that need 17 digits, non-finite floats, ``-0.0``, bools,
nested rollout extras and member sequences shared between events; fixed
cases cover the empty history and histories longer than one batch.
"""

import enum
import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.conformance import History
from repro.conformance.history import _DIGEST_BATCH, EVENT_KINDS
from tests.conformance.canonical import oracle_digest

TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "%", "s", "é",
          "\u2028", "\ud800", "\U0001f600"]

texts = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from(TRICKY)), max_size=8
)
ints = st.one_of(st.integers(-5, 5), st.integers(), st.integers(2**63, 2**200))
floats = st.one_of(
    st.floats(),
    st.sampled_from([0.1 + 0.2, 1 / 3, -0.0, 1e-10, 2.5e-7, 1e22, 123456789.123456789]),
)


class Level(enum.IntEnum):
    HIGH = 2


class Tag(str):
    pass


scalars = st.one_of(
    st.none(), st.booleans(), ints, floats, texts,
    st.just(Level.HIGH), st.builds(Tag, texts),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(texts, inner, max_size=3),
        st.dictionaries(st.integers(-3, 12), inner, max_size=3),
    ),
    max_leaves=8,
)
optional_int = st.one_of(st.none(), ints)
names = st.lists(texts, max_size=4)

DATA = {
    "view_install": st.fixed_dictionaries({
        "group": texts, "view_id": ints, "members": names, "order_seq": ints,
        "joined": names, "left": names, "incarnation": ints,
    }),
    "send": st.fixed_dictionaries({
        "group": texts, "kind": st.sampled_from(["fifo", "total"]),
        "seq": optional_int, "payload": texts, "incarnation": ints,
    }),
    "deliver": st.fixed_dictionaries({
        "group": texts, "kind": st.sampled_from(["fifo", "total"]),
        "sender": texts, "seq": optional_int, "payload": texts,
        "view_id": optional_int, "incarnation": ints,
    }),
    "op_invoke": st.fixed_dictionaries({
        "op": ints, "action": texts, "key": texts,
        "value": st.one_of(st.none(), texts),
    }),
    "op_return": st.fixed_dictionaries({
        "op": ints, "result": st.one_of(st.none(), texts), "ok": st.booleans(),
    }),
    "migration": st.fixed_dictionaries({
        "event": texts, "instance": texts, "from_node": texts,
        "to_node": texts, "reason": texts, "warm": st.booleans(),
        "downtime": st.one_of(st.none(), floats),
    }),
    "rollout": st.fixed_dictionaries(
        {"phase": texts, "instance": texts, "from_version": texts,
         "to_version": texts},
        optional={"z": values, "window": values, "%d": values, "é": values},
    ),
    "request_drop": st.fixed_dictionaries({
        "reason": texts, "endpoint": texts, "request_id": ints,
    }),
}
assert set(DATA) == set(EVENT_KINDS)


@st.composite
def histories(draw):
    """Every kind at least once, in random order, among random extras."""
    kinds = draw(st.permutations(EVENT_KINDS)) + draw(
        st.lists(st.sampled_from(EVENT_KINDS), max_size=4)
    )
    # A few member sequences shared between deliveries, as the recorder
    # records one view's members tuple for every delivery in that view.
    shared = draw(st.lists(st.one_of(names, names.map(tuple)), min_size=1, max_size=3))
    history = History()
    for kind in draw(st.permutations(kinds)):
        data = draw(DATA[kind])
        if kind == "deliver":
            data["view_members"] = draw(st.sampled_from(shared))
        span = draw(st.one_of(st.none(), texts))
        trace = draw(st.one_of(st.none(), texts))
        at = draw(st.one_of(st.floats(0, 1e7), st.integers(0, 10**6), floats))
        history.append(at, kind, draw(texts), data, trace, span)
    return history


@settings(max_examples=40, deadline=None)
@given(histories())
def test_digest_equals_sha256_of_the_json_oracle(history):
    assert history.digest() == oracle_digest(history)


@given(st.lists(st.dictionaries(texts, values, max_size=4), max_size=6))
@example([{"z": {"y": 1, "b": [1, 2.5, None]}, "a": None, "%s": "%d"}])
@example([{"k": True}, {"k": 1}, {"k": 1.0}, {"k": -0.0}, {"k": 0.0}])
@example([{"Key": "Value"}, {"key": "value"}, {"KEY": "VALUE", "k\u00e9": "\u00e9"}])
@settings(max_examples=60, deadline=None)
def test_arbitrary_data_dicts_digest_like_the_oracle(datas):
    history = History()
    for index, data in enumerate(datas):
        history.append(index * 0.1, "rollout", "n%d" % index, data)
    assert history.digest() == oracle_digest(history)


def test_empty_history_digests_the_empty_array():
    history = History()
    assert history.digest() == hashlib.sha256(b"[]").hexdigest()
    assert history.digest() == oracle_digest(history)


@pytest.mark.parametrize(
    "events", [1, _DIGEST_BATCH - 1, _DIGEST_BATCH, _DIGEST_BATCH + 1, 2 * _DIGEST_BATCH + 7]
)
def test_batch_boundaries(events):
    members = ("n1", "n2", "é")
    history = History()
    for seq in range(events):
        history.append(seq / 7, "deliver", "n%d" % (seq % 3), {
            "seq": seq, "view_members": members, "payload": "p%d" % (seq % 5),
        }, "t", None if seq % 2 else "s%d" % seq)
    assert history.digest() == oracle_digest(history)
