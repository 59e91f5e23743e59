"""The recorder digests each payload object once, and a memo hit is what a
fresh digest would be.

The memo relies on payloads being read-only once sent (docs/CONFORMANCE.md).
These runs re-digest every hit, so a payload mutated after its first
recording fails here by name, and count the digests the recorder computes:
one per distinct object, directory values included (a directory read hands
over the stored value, and writes replace stored values, never mutate them).
"""

import pytest

from benchmarks.suite.spans import Spans
from benchmarks.suite.workloads import chaos_fleet
from repro.__main__ import main
from repro.conformance import recorder as recorder_module
from repro.conformance.history import payload_digest
from repro.faults import campaign as campaign_module


class ReDigestingRecorder(recorder_module.HistoryRecorder):
    """Checks every memo hit against a fresh digest."""

    made = []

    def __init__(self, clock):
        super().__init__(clock)
        self.hits = 0
        self.directory_values = 0
        ReDigestingRecorder.made.append(self)

    def _payload_digest(self, payload):
        hit = id(payload) in self._digests
        digest = super()._payload_digest(payload)
        if hit:
            self.hits += 1
            assert digest == payload_digest(payload), payload
        return digest

    def directory_op(self, process, action, name, value, result):
        self.directory_values += (value is not None) + (result is not None)
        super().directory_op(process, action, name, value, result)


@pytest.fixture
def digests(monkeypatch):
    """The recorders a run made and the number of digests they computed."""
    computed = []

    def counted(payload):
        computed.append(payload)
        return payload_digest(payload)

    ReDigestingRecorder.made = []
    monkeypatch.setattr(recorder_module, "payload_digest", counted)
    monkeypatch.setattr(campaign_module, "HistoryRecorder", ReDigestingRecorder)
    return ReDigestingRecorder.made, computed


def assert_memo_held(made, computed):
    assert made
    assert sum(r.hits for r in made) > 0
    distinct = sum(len(r._digests) for r in made)
    assert sum(r.directory_values for r in made) > 0
    assert len(computed) == distinct


@pytest.mark.parametrize("scenario", ["default", "crash", "partition", "loss"])
def test_conform_memo_hits_equal_fresh_digests(scenario, digests, capsys):
    main(["conform", "--seed", "1", "--episodes", "2", "--duration", "15",
          "--scenario", scenario])
    capsys.readouterr()
    assert_memo_held(*digests)


def test_chaos_fleet_smoke_memo_hits_equal_fresh_digests(digests):
    result = chaos_fleet(1, "smoke", Spans())
    assert result.errors == []
    assert_memo_held(*digests)
