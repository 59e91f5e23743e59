"""Pinned history digests, and every recorded history against the oracle.

The literals were recorded when the digest was ``json.dumps`` over the
whole history in one document. Run-to-run equality alone would pass a
deterministic but wrong encoder; these pin the bytes. The conform runs
are exactly ``python -m repro conform --seed 1 --episodes 2 --duration
15 --scenario S``.
"""

import json

import pytest

from benchmarks.suite.workloads import FLEET_SCALE, fleet_campaign
from repro.__main__ import main
from repro.conformance import recorder as recorder_module
from repro.faults import campaign as campaign_module
from tests.conformance.canonical import oracle_digest

CHAOS_FLEET_SMOKE = [
    "b8f8c07591d120efec8677be6e4f90e1f54596fdba590b48995fe04b5d046d94",
    "2dc7bf534ea15b825bf38455efa62d64502151a1decf7bf9e4a6826a301d9593",
]
#: ``StoreStats`` of the two smoke environments, recorded with the same
#: rendering (SAN writes then encoded each value twice).
CHAOS_FLEET_SMOKE_STORE = [
    {"state_reads": 21, "state_writes": 83, "data_reads": 478,
     "data_writes": 4, "bytes_written": 1075841},
    {"state_reads": 65, "state_writes": 83, "data_reads": 530,
     "data_writes": 4, "bytes_written": 1075841},
]
CONFORM = {
    "default": [
        "5fe04155e6058f4aff661067bc16e2e723127c41464416dcdc93b9c68fbf4c08",
        "f4bae04d51fce0d90444a51f3ab6a138b9dee77fba54015a0ddab3ec10ebf48d",
    ],
    "crash": [
        "2f3c786f5747f827718ecd75a8cd4f0f17dde2c6bfc459810f1cd51f8c944745",
        "09bc880ed38f975804ab44ebd52857b237d4e1696b39b0918219d783a53d91c6",
    ],
    "partition": [
        "124ae4232fffb568bf466c5e3cae9c67d79ef28712e3f467151b3e4091666732",
        "34dd985cb320bbc78bb1e7116e0c48f6939ef424b4d6532b26e136057633728e",
    ],
    "loss": [
        "649e9b51a490f954c8994fd59e04fc956a25d539c13a305c70961f1abcdbf2ad",
        "60f77e3093b6b1fadfddf8f2043c71dccb3dba54c1a90862e8e5c7e3ebbc8f5d",
    ],
}


@pytest.fixture
def histories(monkeypatch):
    """The histories of every recorder a run makes, in creation order."""
    made = []

    class Kept(recorder_module.HistoryRecorder):
        def __init__(self, clock):
            super().__init__(clock)
            made.append(self.history)

    monkeypatch.setattr(campaign_module, "HistoryRecorder", Kept)
    return made


def test_chaos_fleet_smoke_history_digests_and_store_stats(histories):
    built = []
    result = fleet_campaign(1, FLEET_SCALE["smoke"], built).run()
    assert [e.history_digest for e in result.episodes] == CHAOS_FLEET_SMOKE
    assert [h.digest() for h in histories] == CHAOS_FLEET_SMOKE
    assert [oracle_digest(h) for h in histories] == CHAOS_FLEET_SMOKE
    assert [
        env.cluster.store.stats.as_dict() for env in built
    ] == CHAOS_FLEET_SMOKE_STORE


@pytest.mark.parametrize("scenario", sorted(CONFORM))
def test_conform_history_digests(scenario, histories, tmp_path, capsys):
    out = tmp_path / "verdict.json"
    main(["conform", "--seed", "1", "--episodes", "2", "--duration", "15",
          "--scenario", scenario, "--out", str(out)])
    capsys.readouterr()
    verdict = json.loads(out.read_text())
    pinned = CONFORM[scenario]
    assert [e["history_digest"] for e in verdict["episodes"]] == pinned
    assert [oracle_digest(h) for h in histories] == pinned
