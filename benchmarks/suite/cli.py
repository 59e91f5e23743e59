"""Command line of the benchmark suite.

::

    PYTHONPATH=src python -m benchmarks.suite run     [--workload NAME] [--seed N] [--out PATH] [--smoke]
    PYTHONPATH=src python -m benchmarks.suite trace   [--workload NAME] [--seed N] [--out PATH] [--smoke]
    PYTHONPATH=src python -m benchmarks.suite micro   [--out PATH]
    PYTHONPATH=src python -m benchmarks.suite compare A.json B.json
    python3 -m benchmarks.suite driver --workload NAME --seed N --seconds S --trace 0|1

``run`` and ``trace`` without ``--workload`` run each workload in a
child process of its own, one after the other, so that set-up time,
peak memory and allocator state belong to one workload. ``driver`` is
the entry ``BENCHMARK.json`` names: one workload, half-second slices of
it timed against a reference kernel for ``--seconds``
(:func:`harness.measure_steady`), its result as one JSON object on the
last line.

The modules that import ``repro`` are imported inside functions, after
:func:`main` has put the checkout's ``src`` on the path and timed the
import (it is part of ``setup_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from . import harness

SCHEMA = "benchmarks.suite/1"
SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(SUITE_DIR, "out")
DIGESTS = os.path.join(SUITE_DIR, "baseline", "digests.json")
#: Known before the platform is imported, so ``--help`` works anywhere;
#: ``tests/test_contract.py`` holds it to ``workloads.WORKLOADS``.
WORKLOAD_NAMES = ("macro_day", "macro_wide", "chaos_fleet", "tenant_platform")


def _import_platform() -> float:
    """Import ``repro`` and everything the workloads need; returns the
    host seconds it took (part of ``setup_s``). The platform under test
    is this checkout's ``src``, whatever else is installed."""
    source = os.path.join(harness.ROOT, "src")
    if os.path.isdir(os.path.join(source, "repro")) and source not in sys.path:
        sys.path.insert(0, source)
    start = time.perf_counter()
    from . import workloads  # noqa: F401  (imported for its imports)

    return time.perf_counter() - start


def _write(path: str, document: Dict[str, Any]) -> None:
    document["provenance"]["loadavg_end"] = list(os.getloadavg())
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % os.path.relpath(path))


def _document(kind: str, scale: str) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": kind,
        "scale": scale,
        "provenance": harness.provenance(),
    }


def _sim_changed(name: str, report: Dict[str, Any]) -> Optional[bool]:
    """Whether the default-seed digest moved from the recorded one;
    ``None`` when this run is not the one the record describes."""
    from .workloads import WORKLOADS

    if report["scale"] != "full" or report["seed"] != WORKLOADS[name].default_seed:
        return None
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle).get(name) != report["digest"]


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _print_measured(name: str, report: Dict[str, Any]) -> None:
    from .metrics import END_TO_END
    from .workloads import WORKLOADS

    print(
        "%s  seed %d  scale %s  %d repeats (%d of them extra)  %d %s per unit"
        % (
            name,
            report["seed"],
            report["scale"],
            report["repeats"],
            report["extra_repeats"],
            report["ops_per_unit"],
            WORKLOADS[name].ops,
        )
    )
    for metric in END_TO_END:
        if metric.kind == "host":
            row = report["host"].get(metric.name)
            if row is None:
                print("  %-30s host  -" % metric.name)
                continue
            print(
                "  %-30s host  %14.6g %-6s q1 %.6g  q3 %.6g  n %d  spread %.4f%s"
                % (
                    metric.name,
                    row["median"],
                    metric.unit,
                    row["q1"],
                    row["q3"],
                    row["n"],
                    row["spread"],
                    "  UNRESOLVED (noisy)" if row.get("unresolved") else "",
                )
            )
        else:
            value = report["sim"].get(metric.name)
            if value is None:
                print("  %-30s sim   -" % metric.name)
            else:
                print("  %-30s sim   %14.9g %s" % (metric.name, value, metric.unit))
    for phase, seconds in sorted(report["phase_s"].items()):
        print("  phase %-24s host  %14.6g s per unit" % (phase, seconds))
    print("  digest %s" % report["digest"])
    if report.get("sim_changed") is not None:
        print("  sim_changed: %s" % str(report["sim_changed"]).lower())
    _print_checks(report)


def _print_checks(report: Dict[str, Any]) -> None:
    if report["correct"]:
        print("  output checks: ok")
    else:
        print("  output checks: FAILED")
        for error in report["errors"]:
            print("    %s" % error)


def _print_traced(name: str, report: Dict[str, Any]) -> None:
    print(
        "%s  seed %d  traced %.3f s / untraced %.3f s  trace.overhead_ratio %.3f"
        % (
            name,
            report["seed"],
            report["traced_s"],
            report["untraced_s"],
            report["overhead_ratio"],
        )
    )
    print("  %-22s %12s %8s %12s" % ("layer", "self_s", "share", "calls_in"))
    for layer, row in report["layers"].items():
        print(
            "  %-22s %12.4f %8.4f %12d"
            % (layer, row["self_s"], row["share"], row["calls_in"])
        )
    for counter, value in report["counters"].items():
        print("  %-44s %14.9g" % (counter, value))
    _print_checks(report)


def _print_micro(values: Dict[str, Dict[str, Any]]) -> None:
    for name, entry in values.items():
        print("  %-44s %14.2f %s" % (name, entry["value"], entry["unit"]))


# ----------------------------------------------------------------------
# run / trace
# ----------------------------------------------------------------------
def _one_workload(command: str, name: str, args, import_s: float) -> Dict[str, Any]:
    from .workloads import WORKLOADS

    workload = WORKLOADS[name]
    seed = workload.default_seed if args.seed is None else args.seed
    if command == "run":
        report = harness.measure(
            workload.unit,
            seed,
            "smoke" if args.smoke else "full",
            harness.MIN_REPEATS if args.smoke else workload.repeats,
            import_s=import_s,
        )
        report["sim_changed"] = _sim_changed(name, report)
        del report["spans"]
        _print_measured(name, report)
    else:
        report = harness.trace(
            workload.unit, seed, "smoke" if args.smoke else "trace"
        )
        _print_traced(name, report)
    return report


def _run_or_trace(command: str, args, import_s: float) -> int:
    scale = "smoke" if args.smoke else ("full" if command == "run" else "trace")
    document = _document(command, scale)
    document["workloads"] = {}
    if args.workload is not None:
        out = args.out or os.path.join(
            OUT_DIR, "%s_%s.json" % (command, args.workload)
        )
        document["workloads"][args.workload] = _one_workload(
            command, args.workload, args, import_s
        )
        _write(out, document)
        return 0 if document["workloads"][args.workload]["correct"] else 1

    for name in WORKLOAD_NAMES:
        part = os.path.join(OUT_DIR, "%s_%s.json" % (command, name))
        child = [sys.executable, "-m", "benchmarks.suite", command]
        child += ["--workload", name, "--out", part]
        if args.seed is not None:
            child += ["--seed", str(args.seed)]
        if args.smoke:
            child.append("--smoke")
        done = subprocess.run(child, cwd=harness.ROOT)
        if done.returncode not in (0, 1):
            print("%s %s exited with %d" % (command, name, done.returncode))
            return done.returncode
        with open(part, "r", encoding="utf-8") as handle:
            document["workloads"][name] = json.load(handle)["workloads"][name]
    _write(args.out or os.path.join(OUT_DIR, "%s.json" % command), document)
    return 0 if all(w["correct"] for w in document["workloads"].values()) else 1


def _micro(args) -> int:
    from .micro import run_micro

    document = _document("micro", "full")
    document["micro"] = run_micro()
    _print_micro(document["micro"])
    _write(args.out or os.path.join(OUT_DIR, "micro.json"), document)
    return 0


def _compare(args) -> int:
    from . import compare

    documents = []
    for path in (args.base, args.new):
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    outcome = compare.compare(*documents)
    print("\n".join(compare.render(outcome)))
    return 1 if compare.regressed(outcome) else 0


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def end_to_end_metrics(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """What the driver entry prints with ``--trace 0``."""
    from .metrics import BY_NAME, DRIVER_END_TO_END

    return {
        name: {"value": report["host"][name]["value"], "unit": BY_NAME[name].unit}
        for name in DRIVER_END_TO_END
    }


def _print_steady(name: str, report: Dict[str, Any]) -> None:
    from .metrics import BY_NAME, DRIVER_END_TO_END
    from .workloads import WORKLOADS

    kernel = report["reference_kernel_s"]
    print(
        "%s  seed %d  %d slices of %d %s  reference kernel %.4f s "
        "(q1 %.4f  q3 %.4f  n %d; times are stated at %.3f s)"
        % (
            name,
            report["seed"],
            report["repeats"],
            report["ops_per_unit"],
            WORKLOADS[name].ops,
            kernel["median"],
            kernel["q1"],
            kernel["q3"],
            kernel["n"],
            harness.REFERENCE_S,
        )
    )
    for metric in DRIVER_END_TO_END:
        row = report["host"][metric]
        print(
            "  %-20s host  %14.6g %-6s q1 %.6g  median %.6g  q3 %.6g  n %d  spread %.4f"
            % (
                metric,
                row["value"],
                BY_NAME[metric].unit,
                row["q1"],
                row["median"],
                row["q3"],
                row["n"],
                row["spread"],
            )
        )
    print("  digest %s" % report["digest"])
    _print_checks(report)


def per_layer_metrics(
    report: Dict[str, Any], micro: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """What the driver entry prints with ``--trace 1``."""
    from .metrics import BY_NAME, OVERHEAD

    values = {
        "%s.%s" % (layer, column): value
        for layer, row in report["layers"].items()
        for column, value in row.items()
    }
    values.update(report["counters"])
    values[OVERHEAD.name] = report["overhead_ratio"]
    metrics = {
        name: {"value": value, "unit": BY_NAME[name].unit}
        for name, value in values.items()
    }
    metrics.update(micro)
    return metrics


def _driver(args, import_s: float, speed: "harness.HostSpeed") -> int:
    from .micro import run_micro
    from .workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        document = _document("trace", "trace")
        report = harness.trace(workload.unit, args.seed, "trace")
        _print_traced(workload.name, report)
        micro = run_micro()
        _print_micro(micro)
        metrics = per_layer_metrics(report, micro)
        document["workloads"] = {workload.name: report}
        document["micro"] = micro
        _write(os.path.join(OUT_DIR, "trace_%s.json" % workload.name), document)
    else:
        report = harness.measure_steady(
            workload.unit, args.seed, args.seconds, speed, import_s=import_s
        )
        _print_steady(workload.name, report)
        metrics = end_to_end_metrics(report)
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if report["correct"] else 1


# ----------------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="The repo benchmark: four workloads, host and simulated "
        "end-to-end metrics, per-layer attribution.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, text in (
        ("run", "timed repeats of each workload: the end-to-end metrics"),
        ("trace", "one unit per workload under cProfile: the per-layer table"),
    ):
        sub = commands.add_parser(command, help=text)
        sub.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--out", default=None, metavar="PATH")
        sub.add_argument(
            "--smoke", action="store_true", help="seconds-long units (self-tests)"
        )
    sub = commands.add_parser("micro", help="isolated per-operation costs")
    sub.add_argument("--out", default=None, metavar="PATH")
    sub = commands.add_parser("compare", help="verdict per metric and workload")
    sub.add_argument("base", metavar="A.json")
    sub.add_argument("new", metavar="B.json")
    sub = commands.add_parser("driver", help="the entry BENCHMARK.json names")
    sub.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--seconds", type=float, required=True)
    sub.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # The driver entry times the import, like everything else, against
    # the reference kernel; the kernel itself needs nothing of repro.
    speed = harness.HostSpeed() if args.command == "driver" else None
    try:
        if speed is None:
            import_s = _import_platform()
        else:
            import_s = speed.timed(_import_platform)[1]
    except ImportError as error:
        # A directory without src/repro: fail before any result is printed.
        print("cannot import the platform under test: %s" % error, file=sys.stderr)
        return 2
    if args.command in ("run", "trace"):
        return _run_or_trace(args.command, args, import_s)
    if args.command == "micro":
        return _micro(args)
    if args.command == "compare":
        return _compare(args)
    return _driver(args, import_s, speed)
