"""``python -m benchmarks.ledger.messages``: the fault-free message mix."""

from benchmarks.ledger.messages import census, frame_kind, render


def test_frame_kinds():
    assert frame_kind({"hb": "gcs/g/n1"}) == "heartbeat"
    assert frame_kind({"rc": {"kind": "ack", "id": 1, "inc": 1}}) == "ack"
    inv = {"t": "FIFO", "seq": 1, "inc": 1, "body": {"mig": "INV", "inv": {}}}
    assert frame_kind({"rc": {"kind": "data", "body": inv}}) == "INV"
    view = {"t": "VIEW", "view": {}, "order_seq": 1}
    assert frame_kind({"rc": {"kind": "data", "body": view}}) == "other"
    assert frame_kind({"probe": {}}) == "other"


def test_a_settled_fleet_spends_its_messages_on_heartbeats():
    row = census(8, seconds=5.0)
    counts = row["counts"]
    # Every node beats to its 7 peers ten times a simulated second.
    assert counts["heartbeat"] == 8 * 7 * 10 * 5
    assert counts["INV"] + counts["ack"] < 0.03 * sum(counts.values())
    assert render([row]).splitlines()[2].startswith("| 8 | ")
