"""BENCHMARK.json, the metric table and what the suite prints agree."""

import json
import os

import pytest

from benchmarks.suite import cli, harness, metrics
from benchmarks.suite.micro import run_micro
from benchmarks.suite.workloads import WORKLOADS

with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    MANIFEST = json.load(_handle)


def test_manifest_names_the_suite():
    assert MANIFEST["paths"] == ["benchmarks/suite"]
    assert MANIFEST["command"] == ["python3", "-m", "benchmarks.suite", "driver"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert tuple(WORKLOADS) == cli.WORKLOAD_NAMES
    assert [w["why"] for w in MANIFEST["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]


def test_manifest_metrics_match_the_metric_table():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    ] == [
        (m.name, m.unit, m.better, m.bound)
        for m in (metrics.BY_NAME[name] for name in metrics.DRIVER_END_TO_END)
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    assert len(metrics.END_TO_END) == 10 and len(metrics.PER_LAYER) == 102
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in MANIFEST["end_to_end"])


@pytest.fixture(scope="module")
def micro():
    return run_micro()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_smoke_run_prints_exactly_the_manifest_metrics(name, micro):
    workload = WORKLOADS[name]
    measured = harness.measure(workload.unit, workload.default_seed, "smoke", 3)
    assert measured["correct"], measured["errors"]
    assert measured["failed"] == 0
    # Every end-to-end metric is either reported or absent by design.
    reported = set(measured["host"]) | set(measured["sim"])
    assert reported <= {m.name for m in metrics.END_TO_END}
    assert set(metrics.DRIVER_END_TO_END) <= set(measured["host"])

    traced = harness.trace(workload.unit, workload.default_seed, "smoke")
    assert traced["correct"], traced["errors"]
    printed = cli.per_layer_metrics(traced, micro)
    assert sorted(printed) == sorted(m["name"] for m in MANIFEST["per_layer"])
    for entry in MANIFEST["per_layer"]:
        assert printed[entry["name"]]["unit"] == entry["unit"]
    shares = [row["share"] for row in traced["layers"].values()]
    assert sum(shares) == pytest.approx(1.0)
    if name.startswith("macro"):
        assert traced["layers"]["sim.network"]["calls_in"] == 0
        assert traced["layers"]["telemetry"]["calls_in"] == 0
        assert traced["layers"]["conformance"]["calls_in"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_the_driver_entry_prints_exactly_the_manifest_metrics(name):
    """One second of slices, as the driver entry times them."""
    speed = harness.HostSpeed()
    measured = harness.measure_steady(WORKLOADS[name].unit, 5, 1.0, speed)
    assert measured["correct"], measured["errors"]
    assert measured["failed"] == 0 and measured["repeats"] >= harness.MIN_REPEATS
    # A kernel sample before the first call and one after each.
    assert len(speed.walls) == 1 + harness.STEADY_SETUPS + measured["repeats"]
    printed = cli.end_to_end_metrics(measured)
    assert list(printed) == [m["name"] for m in MANIFEST["end_to_end"]]
    assert all(entry["value"] > 0 for entry in printed.values())
    for entry in MANIFEST["end_to_end"]:
        assert printed[entry["name"]]["unit"] == entry["unit"]


def test_quiet_quartile_takes_the_good_side():
    times = [1.0, 1.1, 1.2, 1.3, 4.0, 4.0, 4.0]
    assert harness.quiet_quartile(times, "lower")["value"] == pytest.approx(1.1)
    rates = [1.0 / t for t in times]
    assert harness.quiet_quartile(rates, "higher")["value"] == pytest.approx(1 / 1.1)


def test_host_speed_states_times_at_reference_speed():
    speed = harness.HostSpeed()
    _, wall, cpu = speed.timed(speed._kernel)
    # The kernel timed against itself costs about its nominal time.
    assert 0.5 * harness.REFERENCE_S < wall < 2.0 * harness.REFERENCE_S
    assert 0.5 * harness.REFERENCE_S < cpu < 2.0 * harness.REFERENCE_S
