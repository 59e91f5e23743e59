"""History model: determinism, canonical JSON, digests, queries."""

import json

import pytest

from repro.conformance import History, payload_digest
from repro.conformance.history import EVENT_KINDS, HistoryEvent
from tests.conformance.canonical import canonical_json, oracle_digest


def sample_history():
    history = History()
    history.append(0.5, "view_install", "n1", {"group": "g", "view_id": 1})
    history.append(
        1.0, "send", "n1", {"group": "g", "kind": "fifo", "seq": 1}
    )
    history.append(
        1.2,
        "deliver",
        "n2",
        {"group": "g", "kind": "fifo", "seq": 1, "sender": "n1"},
        trace_id="t1",
        span_id="s1",
    )
    return history


class TestHistoryEvent:
    def test_indices_are_append_order(self):
        history = sample_history()
        assert [e.index for e in history] == [0, 1, 2]

    def test_to_dict_sorts_data_keys(self):
        event = HistoryEvent(
            index=0, at=1.0, kind="send", node="n1", data={"z": 1, "a": 2}
        )
        assert list(event.to_dict()["data"]) == ["a", "z"]

    def test_span_context_only_present_when_recorded(self):
        history = sample_history()
        dicts = history.to_dicts()
        assert "span_id" not in dicts[0]
        assert dicts[2]["trace_id"] == "t1"
        assert dicts[2]["span_id"] == "s1"

    def test_events_compare_field_by_field(self):
        event = HistoryEvent(0, 1.0, "send", "n1", {"a": 1}, "t", "s")
        same = HistoryEvent(
            index=0, at=1.0, kind="send", node="n1", data={"a": 1},
            trace_id="t", span_id="s",
        )
        assert event == same
        assert event != HistoryEvent(0, 1.0, "send", "n1", {"a": 2}, "t", "s")
        assert HistoryEvent(0, 1.0, "send", "n1").data == {}
        with pytest.raises(TypeError):
            hash(event)

    def test_str_sorts_data_keys(self):
        event = HistoryEvent(3, 0.5, "send", "n1", {"z": 1, "a": 2})
        assert str(event).endswith("{'a': 2, 'z': 1}")

    def test_event_kinds_catalogue_is_complete(self):
        for kind in ("view_install", "send", "deliver", "op_invoke",
                     "op_return", "migration"):
            assert kind in EVENT_KINDS


class TestHistory:
    def test_of_kind_filters(self):
        history = sample_history()
        assert len(history.of_kind("deliver")) == 1
        assert history.of_kind("deliver")[0].node == "n2"

    def test_of_kind_is_a_copy_in_index_order(self):
        history = sample_history()
        history.append(3.0, "send", "n3", {"group": "g"})
        sends = history.of_kind("send")
        assert [e.index for e in sends] == [1, 3]
        sends.clear()
        assert len(history.of_kind("send")) == 2
        assert history.of_kind("migration") == []

    def test_groups_collects_sorted_group_names(self):
        history = sample_history()
        history.append(2.0, "send", "n3", {"group": "a", "kind": "fifo"})
        assert history.groups() == ["a", "g"]

    def test_digest_is_stable_across_identical_builds(self):
        assert sample_history().digest() == sample_history().digest()

    def test_digest_changes_with_content(self):
        altered = sample_history()
        altered.append(9.0, "send", "n9", {"group": "g"})
        assert altered.digest() != sample_history().digest()

    def test_json_is_the_sorted_rendering_of_to_dicts(self):
        history = sample_history()
        history.append(2.0, "rollout", "n1", {"z": {"y": 1, "b": 2}, "a": None})
        assert history.digest() == oracle_digest(history)
        assert canonical_json(history) == json.dumps(
            history.to_dicts(), sort_keys=True, separators=(",", ":")
        )

    def test_json_is_canonical(self):
        text = canonical_json(sample_history())
        # compact separators, sorted keys: no spaces after separators
        assert ": " not in text and ", " not in text


class TestPayloadDigest:
    def test_deterministic(self):
        assert payload_digest({"x": 1}) == payload_digest({"x": 1})

    def test_distinguishes_values(self):
        assert payload_digest({"x": 1}) != payload_digest({"x": 2})

    def test_short_hex(self):
        digest = payload_digest("anything")
        assert len(digest) == 16
        int(digest, 16)  # hex
