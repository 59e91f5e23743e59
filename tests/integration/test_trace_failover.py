"""End-to-end tracing: one client request stream through ipvs, a node
crash, and a warm-standby failover must serialise as ONE connected trace."""

import pytest

from repro.telemetry.scenarios import run_failover_scenario
from repro.telemetry.export import (
    connected_trace_ids,
    dump_chrome_json,
    trace_roots,
)


@pytest.fixture(scope="module")
def traced_run():
    env, telemetry = run_failover_scenario(seed=42)
    return env, telemetry, telemetry.export_spans()


def test_scenario_leaves_telemetry_deactivated(traced_run):
    env, _, _ = traced_run
    assert env.loop.probe is None


def test_single_connected_trace(traced_run):
    _, _, spans = traced_run
    trace_ids = {s["trace_id"] for s in spans}
    assert len(trace_ids) == 1
    assert connected_trace_ids(spans) == sorted(trace_ids)
    roots = trace_roots(spans)
    assert len(roots) == 1
    assert roots[0]["name"] == "scenario:failover"


def test_request_view_change_and_failover_spans_present(traced_run):
    _, _, spans = traced_run
    names = {s["name"] for s in spans}
    for required in (
        "ipvs.request",
        "ipvs.serve",
        "gcs.view_change",
        "standby.activate",
        "migration.failover",
    ):
        assert required in names, "missing %s in %s" % (required, sorted(names))


def test_failover_span_is_causally_linked_to_the_crash(traced_run):
    _, _, spans = traced_run
    (failover,) = [s for s in spans if s["name"] == "migration.failover"]
    assert failover["attributes"]["reason"] == "failure"
    assert failover["attributes"]["warm"] is True
    assert failover["attributes"]["ok"] is True
    (activation,) = [s for s in spans if s["name"] == "standby.activate"]
    assert activation["parent_id"] == failover["span_id"]
    assert activation["trace_id"] == failover["trace_id"]


def test_requests_survive_the_crash(traced_run):
    env, _, spans = traced_run
    requests = [s for s in spans if s["name"] == "ipvs.request"]
    assert len(requests) == 12
    victims = {s["attributes"].get("outcome") for s in requests}
    assert "ok" in victims


def test_metrics_capture_requests_and_failover_latency(traced_run):
    _, telemetry, _ = traced_run
    snap = telemetry.metrics.snapshot()
    assert snap["counters"]["ipvs.requests_total"] == 12.0
    failover = snap["histograms"]["migration.failover_seconds"]
    assert failover["count"] == 1
    assert failover["sum"] > 0.0


def test_same_seed_rerun_is_byte_identical(traced_run):
    _, _, spans = traced_run
    _, telemetry = run_failover_scenario(seed=42)
    meta = {"scenario": "failover", "seed": 42}
    assert dump_chrome_json(spans, meta) == dump_chrome_json(
        telemetry.export_spans(), meta
    )
