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

# Re-pinned when inventory gossip became change-driven (an INV only when
# a field changes, plus one per view install) and FIFO cursors were keyed
# to the sender's incarnation: every history records fewer multicasts and
# deliveries from then on. The parent literals began b8f8c075, 2dc7bf53,
# 5fe04155, f4bae04d, 2f3c786f, 09bc880e, 124ae423, 34dd985c, 649e9b51,
# 60f77e30; the SAN store stats did not move.
CHAOS_FLEET_SMOKE = [
    "9b45737081e8fef1761f8c39afe4727f57c166e1e187ebfed66d48fe96ebce2d",
    "dcec89ebe4d02d65b88c2988558dfad3e13f444371cdf7d43884b7a895347f96",
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
        "105b148fc111424410a6afb2ddb54effa8f6686e4b3e478d3eb20eb1ed8ee9ce",
        "f50a9f5fda528a6141ab6117b9a98d4dd39870d021b30bece594e11f401c9b9c",
    ],
    "crash": [
        "bee9a2f782507fde43b8b15186507c65cf381c2eac4c48105a18feed452b1198",
        "bb60b50901c45f35573185742784a4de7755865d2d70b4034ff0cc895d40dd64",
    ],
    "partition": [
        "4772b6d981e8d46d7dc3d87762e9a668e29fe8f929c741b378d4d80a22775cd2",
        "76008b8907020416ea59fcf8cac8dfbe85f12c9050a7dfea12e5fb0f0d119e21",
    ],
    "loss": [
        "7ceee58a3ef1bb352ddb6fdf3fe729050cc5dfbe7a0e18c3dd2d33c44157ba67",
        "07377e0363b2c56d81037ee70e9768d402ceaefe86ab9c5d726981d51a0aab8f",
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
