"""The layer call ledger names every count and digest that moved, by
workload and layer; the red-seed ledger names every chaos seed whose
verdicts moved, by fleet and seed."""

import json

import pytest

import benchmarks.ledger
from benchmarks.ledger import (
    CHAOS_LEDGER,
    CHAOS_SEEDS,
    LEDGER,
    chaos_ledger,
    chaos_verdicts,
    differences,
    ledger_of,
)


def trace_document(calls=100, spans=7, digest="ab12"):
    return {
        "provenance": {"python": "3.12.4"},
        "workloads": {
            "chaos_fleet": {
                "digest": digest,
                "attempted": 4,
                "failed": 0,
                "correct": True,
                "layers": {
                    "gcs": {"self_s": 1.5, "share": 0.2, "calls_in": calls},
                    "conformance": {"self_s": 0.5, "share": 0.1, "calls_in": 40},
                },
                "counters": {"telemetry.spans": spans},
            }
        }
    }


def test_ledger_keeps_the_exact_columns_only():
    ledger = ledger_of(trace_document())
    assert ledger["python"] == "3.12"
    assert ledger["workloads"] == {
        "chaos_fleet": {
            "digest": "ab12",
            "attempted": 4,
            "failed": 0,
            "calls_in": {"conformance": 40, "gcs": 100},
            "counters": {"telemetry.spans": 7},
        }
    }


def test_equal_runs_differ_in_nothing():
    assert differences(ledger_of(trace_document()), ledger_of(trace_document())) == []


def test_a_moved_count_is_named_by_workload_and_layer():
    moved = differences(
        ledger_of(trace_document()), ledger_of(trace_document(calls=101, spans=8))
    )
    assert moved == [
        "chaos_fleet gcs calls_in: ledger 100, run 101",
        "chaos_fleet telemetry.spans counters: ledger 7, run 8",
    ]


def test_a_moved_digest_is_named_by_workload():
    moved = differences(
        ledger_of(trace_document()), ledger_of(trace_document(digest="cd34"))
    )
    assert moved == ["chaos_fleet digest: ledger ab12, run cd34"]


def test_another_python_is_reported():
    recorded = ledger_of(trace_document())
    recorded["python"] = "2.7"
    assert differences(recorded, ledger_of(trace_document()))[0].startswith(
        "recorded with Python 2.7"
    )


def test_another_python_is_reported_for_the_call_ledger_alone():
    recorded = ledger_of(trace_document())
    recorded["python"] = "3.11"
    assert differences(recorded, ledger_of(trace_document())) == [
        "recorded with Python 3.11, measured with 3.12"
    ]


def test_another_python_is_not_reported_for_chaos_verdicts():
    verdicts = {"fleet_3": {"verdicts": {"12": ["single-primary"], "13": []}}}
    recorded = {"python": "3.12", "workloads": verdicts}
    measured = {"python": "3.11", "workloads": verdicts}
    assert differences(recorded, measured) == []


def test_committed_ledger_covers_four_workloads_twenty_layers_seventeen_counters():
    with open(LEDGER, "r", encoding="utf-8") as handle:
        ledger = json.load(handle)
    assert ledger["python"] == "3.12"
    assert sorted(ledger["workloads"]) == [
        "chaos_fleet", "macro_day", "macro_wide", "tenant_platform"
    ]
    for row in ledger["workloads"].values():
        assert len(row["digest"]) == 64
        assert row["attempted"] > 0 and row["failed"] == 0
        assert len(row["calls_in"]) == 20
        assert len(row["counters"]) == 17


# ----------------------------------------------------------------------
# The red-seed ledger
# ----------------------------------------------------------------------
def test_a_seed_that_flips_is_named_by_fleet_and_seed():
    recorded = {
        "python": "3.12",
        "workloads": {"fleet_3": {"verdicts": {"12": ["single-primary"], "13": []}}},
    }
    measured = {
        "python": "3.12",
        "workloads": {"fleet_3": {"verdicts": {"12": [], "13": ["customers-placed"]}}},
    }
    assert differences(recorded, measured) == [
        "fleet_3 12 verdicts: ledger ['single-primary'], run []",
        "fleet_3 13 verdicts: ledger [], run ['customers-placed']",
    ]
    assert differences(recorded, recorded) == []


def test_committed_red_seed_ledger_holds_the_known_red_seeds():
    with open(CHAOS_LEDGER, "r", encoding="utf-8") as handle:
        ledger = json.load(handle)
    assert ledger["python"] == "3.12"
    fleets = ledger["workloads"]
    assert sorted(fleets) == ["fleet_16", "fleet_3", "fleet_8"]
    for nodes, seeds in CHAOS_SEEDS.items():
        verdicts = fleets["fleet_%d" % nodes]["verdicts"]
        assert sorted(verdicts) == ["%02d" % seed for seed in range(1, seeds + 1)]
    red = {
        name: {seed: names for seed, names in fleet["verdicts"].items() if names}
        for name, fleet in fleets.items()
    }
    # 3-node 12, 8-node 5, 8, 22, 31 and 16-node 5, 22, 23, 38 were
    # `single-primary` until FIFO cursors were keyed to the sender's
    # incarnation: each ended with INVs stranded in a FIFO buffer.
    assert red == {
        "fleet_3": {
            "17": ["customers-placed"],
            "23": ["customers-placed"],
            "55": ["customers-placed"],
        },
        "fleet_8": {},
        "fleet_16": {},
    }


@pytest.mark.parametrize("seed", [12, 13, 17])
def test_a_swept_seed_matches_the_committed_ledger(seed):
    with open(CHAOS_LEDGER, "r", encoding="utf-8") as handle:
        verdicts = json.load(handle)["workloads"]["fleet_3"]["verdicts"]
    assert chaos_verdicts(3, seed) == verdicts["%02d" % seed]


def test_a_sweep_logs_each_fleets_wall_time_and_records_none(monkeypatch, capsys):
    monkeypatch.setattr(benchmarks.ledger, "chaos_verdicts", lambda nodes, seed: [])
    swept = chaos_ledger([8, 3])
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" in ")[0] for line in lines] == [
        "fleet_3: 60 seeds",
        "fleet_8: 60 seeds",
    ]
    assert all(line.endswith(" s wall") for line in lines)
    assert sorted(swept["workloads"]) == ["fleet_3", "fleet_8"]
    assert swept["workloads"]["fleet_3"] == {
        "verdicts": {"%02d" % seed: [] for seed in range(1, 61)}
    }
