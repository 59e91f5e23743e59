"""Repeatable microbenchmark suite — ``python -m repro bench``.

Measures the hot paths the dependability story leans on (registry
lookup, LDAP filter matching, service-event dispatch, simulated network
fan-out, and a Figure-6 ipvs end-to-end scenario) and emits a
``BENCH_<rev>.json`` with ops/sec, p50/p99 per-op wall time, and event
counts, so successive PRs accumulate a performance trajectory.

Each benchmark times individual operations with ``perf_counter_ns``;
percentiles are over the per-op samples. The registry benchmark also
re-measures the pre-index *linear scan* strategy over the same data set
and records the speedup — the acceptance bar for the indexed path.

See ``docs/PERF.md`` for how to run the suite and read the output.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

# repro: allow-file[DET001] -- benchmarks measure real elapsed wall
# time by design; nothing here feeds back into simulated state.

__all__ = [
    "run_suite",
    "bench_main",
    "compare_reports",
    "BENCHMARK_NAMES",
    "MACRO_BENCHMARK_NAMES",
    "LINT_BENCHMARK_NAMES",
]

BENCHMARK_NAMES = (
    "registry_lookup",
    "registry_lookup_linear_baseline",
    "filter_match",
    "filter_parse_cached",
    "event_dispatch",
    "network_fanout",
    "fig6_ipvs",
)

#: The macro suite (``--suite macro``): end-to-end scenario runs from
#: :mod:`repro.macrobench` rather than isolated-operation timings.
MACRO_BENCHMARK_NAMES = ("macro_million_user_day",)

#: The lint suite (``--suite lint``): full-tree runs of the two-tier
#: analysis engine, cold (fresh AST cache) and warm (content-hash hits).
LINT_BENCHMARK_NAMES = ("lint_full_tree_cold", "lint_full_tree_warm")


def _percentile(sorted_samples: List[int], fraction: float) -> float:
    if not sorted_samples:
        return 0.0
    index = min(len(sorted_samples) - 1, int(fraction * len(sorted_samples)))
    return sorted_samples[index] / 1000.0  # ns -> us


def _time_op(
    op: Callable[[], Any], iterations: int, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Run ``op`` ``iterations`` times, timing each call individually."""
    samples: List[int] = []
    clock = time.perf_counter_ns
    append = samples.append
    total_start = clock()
    for _ in range(iterations):
        start = clock()
        op()
        append(clock() - start)
    wall_ns = clock() - total_start
    samples.sort()
    result = {
        "ops_per_sec": round(iterations / (wall_ns / 1e9), 1) if wall_ns else 0.0,
        "p50_us": round(_percentile(samples, 0.50), 3),
        "p99_us": round(_percentile(samples, 0.99), 3),
        "iterations": iterations,
        "wall_seconds": round(wall_ns / 1e9, 4),
    }
    if meta:
        result["meta"] = meta
    return result


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
REGISTRY_SERVICES = 1000
REGISTRY_CLASSES = 100  # -> 10 services per class ("10 matching")


def _build_registry():
    from repro.osgi.events import EventDispatcher
    from repro.osgi.registry import ServiceRegistry

    registry = ServiceRegistry(EventDispatcher())
    for i in range(REGISTRY_SERVICES):
        registry.register(
            object(),
            "bench.Kind%d" % (i % REGISTRY_CLASSES),
            object(),
            {"shard": i % 10, "service.ranking": i % 5, "owner": "acme"},
        )
    return registry


def _linear_get_references(registry, clazz):
    """The pre-index lookup strategy: scan every registration, then sort.

    Kept here verbatim-in-spirit so the suite can always report the
    indexed path's speedup against the same data set.
    """
    out = []
    for registration in registry._registrations.values():
        if clazz is not None and clazz not in registration._properties["objectClass"]:
            continue
        out.append(registration._reference)
    out.sort(key=lambda ref: ref._sort_key())
    return out


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------
def _bench_registry_lookup(iterations: int) -> Dict[str, Any]:
    registry = _build_registry()
    return _time_op(
        lambda: registry.get_references("bench.Kind7"),
        iterations,
        meta={"services": REGISTRY_SERVICES, "matching": 10, "strategy": "indexed"},
    )


def _bench_registry_lookup_linear(iterations: int) -> Dict[str, Any]:
    registry = _build_registry()
    return _time_op(
        lambda: _linear_get_references(registry, "bench.Kind7"),
        iterations,
        meta={"services": REGISTRY_SERVICES, "matching": 10, "strategy": "linear-scan"},
    )


def _bench_filter_match(iterations: int) -> Dict[str, Any]:
    from repro.osgi.filter import parse_filter

    flt = parse_filter(
        "(&(objectClass=bench.Kind7)(shard>=3)(owner~=Acme Corp)(name=svc-*-prod))"
    )
    props = {
        "objectClass": ("bench.Kind7",),
        "shard": 7,
        "owner": "AcmeCorp",
        "name": "svc-eu-prod",
        "service.id": 42,
    }
    return _time_op(
        lambda: flt.matches(props), iterations, meta={"filter": str(flt)}
    )


def _bench_filter_parse_cached(iterations: int) -> Dict[str, Any]:
    from repro.osgi.filter import parse_filter, parse_filter_cache_clear

    text = "(&(objectClass=bench.Kind7)(shard>=3)(!(owner=globex)))"
    parse_filter_cache_clear()
    parse_filter(text)  # warm the cache; steady state is the hit path
    return _time_op(lambda: parse_filter(text), iterations, meta={"filter": text})


def _bench_event_dispatch(iterations: int) -> Dict[str, Any]:
    from repro.osgi.events import EventDispatcher
    from repro.osgi.registry import ServiceRegistry

    listeners = 200
    dispatcher = EventDispatcher()
    registry = ServiceRegistry(dispatcher)
    hits = []
    for i in range(listeners):
        dispatcher.add_service_listener(
            lambda event: hits.append(1), classes=("bench.Listened%d" % i,)
        )
    registration = registry.register(
        object(), "bench.Listened7", object(), {"shard": 1}
    )
    result = _time_op(
        lambda: registration.set_properties({"shard": 1}),
        iterations,
        meta={"listeners": listeners, "interested": 1},
    )
    result["delivered_events"] = len(hits)
    return result


def _bench_network_fanout(iterations: int) -> Dict[str, Any]:
    from repro.sim.eventloop import EventLoop
    from repro.sim.network import Network
    from repro.sim.rng import RngStreams

    fanout = 50
    loop = EventLoop()
    network = Network(loop, rng=RngStreams(7), latency=0.001, jitter=0.0)
    received = []
    source = network.attach("src", received.append)
    for i in range(fanout):
        network.attach("sink%d" % i, received.append)

    def round_trip():
        for i in range(fanout):
            source.send("sink%d" % i, payload=i)
        loop.run_for(0.01)

    result = _time_op(
        round_trip, iterations, meta={"fanout": fanout, "messages_per_op": fanout}
    )
    result["events_fired"] = loop.fired
    result["delivered"] = network.stats.delivered
    return result


def _bench_fig6_ipvs(iterations: int) -> Dict[str, Any]:
    from repro.cluster import Cluster
    from repro.ipvs.addressing import IpEndpoint
    from repro.ipvs.server import DirectorCluster

    vip = IpEndpoint("203.0.113.1", 8080)
    request_interval = 0.02
    duration = 2.0

    def scenario():
        cluster = Cluster.build(2, seed=61)
        directors = DirectorCluster(cluster.loop, replicas=2)
        directors.add_service(vip)
        directors.add_real_server(vip, "n1", service_time=0.005)
        end = cluster.loop.clock.now + duration

        def submit():
            if cluster.loop.clock.now >= end:
                return
            directors.submit(vip)
            cluster.loop.call_after(request_interval, submit)

        cluster.loop.call_after(request_interval, submit)
        cluster.run_for(duration + 0.5)
        return cluster, directors

    # Time whole scenario runs; report sim event counts from the last one.
    last = []

    def timed():
        last[:] = scenario()

    result = _time_op(timed, iterations)
    cluster, directors = last
    result["events_fired"] = cluster.loop.fired
    stats = directors.stats()
    result["meta"] = {
        "sim_seconds": duration + 0.5,
        "submitted": stats.get("submitted", 0),
    }
    return result


def _bench_macro_day(
    quick: bool, loop_scheduler: Optional[str] = None
) -> Dict[str, Any]:
    """Run the million-user-day macro scenario and time the whole run.

    ``ops_per_sec`` is wall-clock *requests per second of benchmark
    runtime* (how fast the simulator chews through the day), while
    ``p50_us``/``p99_us`` are **virtual** request latencies in
    microseconds of simulated time — the load-balancer/queueing story.
    ``wall_seconds_per_m_events`` is the headline event-loop cost metric
    tracked PR over PR.
    """
    from repro.macrobench import MacroConfig, MacroScenario

    overrides: Dict[str, Any] = {}
    if loop_scheduler is not None:
        overrides["loop_scheduler"] = loop_scheduler
    config = (
        MacroConfig.smoke(**overrides)
        if quick
        else MacroConfig.million_user_day(**overrides)
    )
    scenario = MacroScenario(config)
    clock = time.perf_counter_ns
    start = clock()
    result = scenario.run()
    wall_seconds = (clock() - start) / 1e9
    events = max(1, result.events_fired)
    macro_report = result.report()
    report = {
        "ops_per_sec": round(result.submitted / wall_seconds, 1)
        if wall_seconds
        else 0.0,
        "p50_us": round(result.latency_p50 * 1e6, 3),
        "p99_us": round(result.latency_p99 * 1e6, 3),
        "iterations": result.submitted,
        "wall_seconds": round(wall_seconds, 4),
        "events_fired": result.events_fired,
        "wall_seconds_per_m_events": round(wall_seconds / (events / 1e6), 4),
        "meta": {
            "virtual_latency": True,
            "sim_seconds": round(result.sim_seconds, 3),
            "completed": result.completed,
            "dropped": result.dropped,
            "shards": config.shards,
            "servers": config.shards * config.servers_per_shard,
            "scheduler": macro_report["config"]["scheduler"],
            "loop_scheduler": config.loop_scheduler or "global",
            "digest": macro_report["digest"],
        },
    }
    # Stash the deterministic report so bench_main can emit it for the
    # two-run byte-identical CI guard without a second scenario run.
    report["_macro_report"] = macro_report
    return report


def _bench_lint_tree(quick: bool) -> Dict[str, Dict[str, Any]]:
    """Time full-tree analysis (both tiers) cold and warm.

    ``lint_full_tree_cold`` parses every file from scratch each run;
    ``lint_full_tree_warm`` reuses one content-hash-keyed
    :class:`~repro.analysis.astcache.AstCache` across runs, isolating
    the analysis cost from the parse cost (the delta is what CI's
    actions/cache of the AST artifacts buys). ``ops_per_sec`` is
    full-tree runs per second; ``meta.files_per_sec`` is the per-file
    throughput of the same runs.
    """
    import os

    import repro
    from repro.analysis import AstCache, analyze_paths

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.dirname(package_dir)
    iterations = 1 if quick else 3
    warm_cache = AstCache()

    def run(cache: AstCache):
        return analyze_paths([package_dir], root=root, cache=cache)

    seeded = run(warm_cache)  # file inventory + warms the shared cache
    files = len(seeded.files)
    findings = len(seeded.diagnostics)

    entries: Dict[str, Dict[str, Any]] = {}
    for name, cache_factory in (
        ("lint_full_tree_cold", lambda: AstCache()),
        ("lint_full_tree_warm", lambda: warm_cache),
    ):
        entry = _time_op(lambda: run(cache_factory()), iterations)
        entry["meta"] = {
            "files": files,
            "findings": findings,
            "files_per_sec": round(entry["ops_per_sec"] * files, 1),
            "ast_cache": "warm" if name.endswith("warm") else "cold",
        }
        entries[name] = entry
    entries["lint_full_tree_warm"]["meta"]["cache_stats"] = warm_cache.stats()
    return entries


def _metrics_snapshot() -> Dict[str, Any]:
    """Run a short telemetry-instrumented scenario and snapshot its metrics.

    Not a timed benchmark: the timed suite runs with telemetry *off* (the
    guarded hot paths must stay inside the <3% regression budget), and
    this separate pass documents what the instruments read on a known
    workload — counters, pull gauges over the hot-path counters, and the
    request-latency histogram.
    """
    from repro.cluster import Cluster
    from repro.ipvs.addressing import IpEndpoint
    from repro.ipvs.server import DirectorCluster
    from repro.telemetry import Telemetry, install_platform_gauges
    from repro.telemetry.runtime import enabled

    vip = IpEndpoint("203.0.113.1", 8080)
    cluster = Cluster.build(2, seed=61)
    telemetry = Telemetry(cluster.loop.clock, cluster.rng, scenario="bench")
    install_platform_gauges(
        telemetry.metrics, loop=cluster.loop, network=cluster.network
    )
    with enabled(telemetry):
        telemetry.open_root("bench:metrics")
        try:
            directors = DirectorCluster(cluster.loop, replicas=2)
            directors.add_service(vip)
            directors.add_real_server(vip, "n1", service_time=0.005)
            end = cluster.loop.clock.now + 2.0

            def submit() -> None:
                if cluster.loop.clock.now >= end:
                    return
                directors.submit(vip)
                cluster.loop.call_after(0.02, submit)

            cluster.loop.call_after(0.02, submit)
            cluster.run_for(2.5)
        finally:
            telemetry.close_root()
    snapshot = telemetry.metrics.snapshot()
    snapshot["spans"] = len(telemetry.tracer.spans)
    return snapshot


_SUITE = {
    "registry_lookup": (_bench_registry_lookup, 20000, 2000),
    "registry_lookup_linear_baseline": (_bench_registry_lookup_linear, 2000, 200),
    "filter_match": (_bench_filter_match, 50000, 5000),
    "filter_parse_cached": (_bench_filter_parse_cached, 50000, 5000),
    "event_dispatch": (_bench_event_dispatch, 20000, 2000),
    "network_fanout": (_bench_network_fanout, 500, 50),
    "fig6_ipvs": (_bench_fig6_ipvs, 3, 1),
}


def _revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "dev"


def run_suite(
    quick: bool = False,
    only: Optional[List[str]] = None,
    suite: str = "micro",
    loop_scheduler: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the benchmarks and return the report dict (not yet serialised).

    ``suite`` selects ``"micro"`` (the original isolated hot-path
    timings), ``"macro"`` (the million-user-day scenario), ``"lint"``
    (full-tree analysis engine timings), or ``"all"``.
    ``loop_scheduler`` picks the event-loop scheduler for the macro
    scenario ("global"/"laned"); wall-clock numbers may differ, the
    deterministic macro report may not.
    """
    if suite not in ("micro", "macro", "lint", "all"):
        raise ValueError("unknown suite: %r" % suite)
    report: Dict[str, Any] = {
        "revision": _revision(),
        "python": platform.python_version(),
        "quick": quick,
        "suite": suite,
        "benchmarks": {},
    }
    if suite in ("micro", "all"):
        for name, (fn, iterations, quick_iterations) in _SUITE.items():
            if only and name not in only:
                continue
            report["benchmarks"][name] = fn(
                quick_iterations if quick else iterations
            )
        if not only:
            report["metrics"] = _metrics_snapshot()
    if suite in ("macro", "all"):
        for name in MACRO_BENCHMARK_NAMES:
            if only and name not in only:
                continue
            entry = _bench_macro_day(quick, loop_scheduler)
            report["macro_report"] = entry.pop("_macro_report")
            report["benchmarks"][name] = entry
    if suite in ("lint", "all"):
        wanted = [n for n in LINT_BENCHMARK_NAMES if not only or n in only]
        if wanted:
            for name, entry in _bench_lint_tree(quick).items():
                if name in wanted:
                    report["benchmarks"][name] = entry
    indexed = report["benchmarks"].get("registry_lookup")
    linear = report["benchmarks"].get("registry_lookup_linear_baseline")
    if indexed and linear and linear["ops_per_sec"]:
        report["derived"] = {
            "registry_lookup_speedup_vs_linear": round(
                indexed["ops_per_sec"] / linear["ops_per_sec"], 2
            )
        }
    return report


def compare_reports(
    old: Dict[str, Any], new: Dict[str, Any], threshold: float = 0.15
) -> Dict[str, Any]:
    """Compare ``ops_per_sec`` of benchmarks shared by two reports.

    Returns ``{"rows": [...], "regressions": [...]}`` where each row is
    ``(name, old_ops, new_ops, change)`` and a regression is any shared
    benchmark whose throughput dropped by more than ``threshold``
    (default 15%). Benchmarks present in only one report are ignored, so
    the gate keeps working as the suite grows.
    """
    rows: List[Any] = []
    regressions: List[str] = []
    old_benchmarks = old.get("benchmarks", {})
    new_benchmarks = new.get("benchmarks", {})
    for name in sorted(set(old_benchmarks) & set(new_benchmarks)):
        old_ops = old_benchmarks[name].get("ops_per_sec", 0.0)
        new_ops = new_benchmarks[name].get("ops_per_sec", 0.0)
        if not old_ops:
            continue
        change = (new_ops - old_ops) / old_ops
        rows.append((name, old_ops, new_ops, change))
        if change < -threshold:
            regressions.append(name)
    return {"rows": rows, "regressions": regressions}


def bench_main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Hot-path microbenchmark suite; writes BENCH_<rev>.json",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced iterations (CI smoke)"
    )
    parser.add_argument(
        "--suite",
        choices=("micro", "macro", "lint", "all"),
        default="micro",
        help="micro hot paths, the million-user-day macro scenario, the "
        "full-tree lint engine, or all of them",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated benchmark names (default: all of %s)"
        % ",".join(BENCHMARK_NAMES + MACRO_BENCHMARK_NAMES + LINT_BENCHMARK_NAMES),
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_<rev>.json in the current directory)",
    )
    parser.add_argument(
        "--macro-report",
        default=None,
        metavar="PATH",
        help="also write the deterministic macro scenario report (no wall "
        "times; byte-identical across same-seed runs) to PATH",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="OLD.json",
        help="compare against a previous BENCH report; exit nonzero when "
        "any shared benchmark regressed past the threshold",
    )
    parser.add_argument(
        "--compare-threshold",
        type=float,
        default=0.15,
        metavar="FRACTION",
        help="relative ops/sec drop that counts as a regression "
        "(default: 0.15)",
    )
    parser.add_argument(
        "--scheduler",
        choices=("global", "laned"),
        default=None,
        help="event-loop scheduler for the macro scenario (default: the "
        "ambient repro.sim default); the deterministic macro report is "
        "byte-identical either way",
    )
    args = parser.parse_args(argv)

    all_names = BENCHMARK_NAMES + MACRO_BENCHMARK_NAMES + LINT_BENCHMARK_NAMES
    only = None
    if args.only:
        only = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = sorted(set(only) - set(all_names))
        if unknown:
            parser.error(
                "unknown benchmarks %s (choose from %s)"
                % (",".join(unknown), ",".join(all_names))
            )

    report = run_suite(
        quick=args.quick,
        only=only,
        suite=args.suite,
        loop_scheduler=args.scheduler,
    )
    path = args.out or ("BENCH_%s.json" % report["revision"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        "repro bench — revision %s, suite %s%s"
        % (report["revision"], args.suite, " (quick)" if report["quick"] else "")
    )
    for name, data in report["benchmarks"].items():
        print(
            "  %-34s %12.1f ops/s   p50 %8.2f us   p99 %8.2f us"
            % (name, data["ops_per_sec"], data["p50_us"], data["p99_us"])
        )
        if "wall_seconds_per_m_events" in data:
            print(
                "  %-34s %12.4f wall-sec per 1M sim events (%d events)"
                % ("", data["wall_seconds_per_m_events"], data["events_fired"])
            )
    derived = report.get("derived", {})
    if "registry_lookup_speedup_vs_linear" in derived:
        print(
            "  registry lookup speedup vs linear scan: %.1fx"
            % derived["registry_lookup_speedup_vs_linear"]
        )
    print("wrote %s" % path)

    if args.macro_report:
        macro_report = report.get("macro_report")
        if macro_report is None:
            parser.error("--macro-report requires --suite macro (or all)")
        with open(args.macro_report, "w", encoding="utf-8") as handle:
            json.dump(macro_report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s (deterministic macro report)" % args.macro_report)

    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            old = json.load(handle)
        outcome = compare_reports(old, report, threshold=args.compare_threshold)
        print(
            "compare vs %s (threshold %.0f%%):"
            % (args.compare, args.compare_threshold * 100)
        )
        for name, old_ops, new_ops, change in outcome["rows"]:
            marker = " !! REGRESSION" if name in outcome["regressions"] else ""
            print(
                "  %-34s %12.1f -> %12.1f ops/s  %+6.1f%%%s"
                % (name, old_ops, new_ops, change * 100, marker)
            )
        if not outcome["rows"]:
            print("  (no shared benchmarks)")
        if outcome["regressions"]:
            print(
                "FAIL: %d benchmark(s) regressed more than %.0f%%"
                % (len(outcome["regressions"]), args.compare_threshold * 100)
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(bench_main())
