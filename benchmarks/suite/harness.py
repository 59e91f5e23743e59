"""Timing, noise guard and provenance: the parts that look at the host.

Every number this module produces is a **host** number (what the
simulator costs on this machine; noisy; summarised as a median over
repeats with its quartiles and ``spread = (q3 - q1) / median``). The
**sim** numbers (what the modelled platform does) come out of the units
in :mod:`.workloads` and repeat exactly for a seed; here they are only
checked for that.

Two ways of timing live here. :func:`measure` is what ``run`` uses: R
repeats of the full unit, medians, and a noise guard that says
``unresolved`` when the host was not steady. :func:`measure_steady` is
what the driver entry uses, where an unsteady host is no excuse: many
half-second units, each timed against a reference kernel run right
before and after it (:class:`HostSpeed`), and the quiet quartile of
those.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import os
import platform
import pstats
import resource
import statistics
import subprocess
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import layers
from .spans import Spans

#: A host metric whose within-run spread exceeds this after the extra
#: repeats is reported as unresolved rather than as a clean number.
NOISE_LIMIT = 0.10
EXTRA_REPEATS = 2
MIN_REPEATS = 3
#: Warm-up units per run; ``setup_s`` takes their median.
SETUPS = 3

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, sample count and relative interquartile spread."""
    if len(values) < 2:
        q1 = median = q3 = float(values[0])
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ("git", "-C", ROOT) + args, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> Dict[str, Any]:
    """Where and on what a result was measured. A checkout that is not a
    git work tree says so (``revision: "unversioned"``, ``dirty: null``)."""
    revision, dirty = "unversioned", None
    top = _git("rev-parse", "--show-toplevel")
    if top is not None and os.path.realpath(top) == os.path.realpath(ROOT):
        revision = _git("rev-parse", "HEAD") or "unversioned"
        status = _git("status", "--porcelain")
        dirty = bool(status) if status is not None else None
    return {
        "revision": revision,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process and its children (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _unit_errors(results: Sequence[Any]) -> List[str]:
    """Every output check a unit failed, and every unit whose digest is
    not the first one's (a unit is a pure function of seed and scale)."""
    first = results[0]
    errors = [error for result in results for error in result.errors]
    for index, result in enumerate(results[1:], start=1):
        if result.digest != first.digest:
            errors.append(
                "repeat %d digest %s differs from repeat 0 digest %s"
                % (index, result.digest, first.digest)
            )
    return errors


def measure(
    unit: Callable[[int, str, Spans], Any],
    seed: int,
    scale: str,
    repeats: int,
    import_s: float = 0.0,
) -> Dict[str, Any]:
    """Warm up, then time repeats of one unit; returns the raw report.

    ``repeats`` is the number of timed units. When their wall-time
    spread exceeds :data:`NOISE_LIMIT`, up to :data:`EXTRA_REPEATS` more
    are run and every sample kept.
    """
    spans = Spans()
    setups: List[float] = []
    with spans.span("setup"):
        for _ in range(SETUPS):
            with spans.span("warmup"):
                start = time.perf_counter()
                unit(seed, "smoke", spans)
                setups.append(time.perf_counter() - start)

    walls: List[float] = []
    cpus: List[float] = []
    results: List[Any] = []

    def one_repeat() -> None:
        gc.collect()
        with spans.span("repeat.%d" % len(results)):
            cpu_start = _cpu_seconds()
            start = time.perf_counter()
            result = unit(seed, scale, spans)
            walls.append(time.perf_counter() - start)
            cpus.append(_cpu_seconds() - cpu_start)
        results.append(result)

    for _ in range(repeats):
        one_repeat()
    extra = 0
    while extra < EXTRA_REPEATS and summarize(walls)["spread"] > NOISE_LIMIT:
        one_repeat()
        extra += 1

    first = results[0]
    errors = _unit_errors(results)

    host: Dict[str, Dict[str, float]] = {
        "throughput_ops_s": summarize([r.ops / w for r, w in zip(results, walls)]),
        "cpu_s_per_unit": summarize(cpus),
    }
    events = first.counters["sim.eventloop.events_fired"]
    if events:
        host["host_s_per_m_events"] = summarize([w / (events / 1e6) for w in walls])
    for row in host.values():
        row["unresolved"] = row["spread"] > NOISE_LIMIT
    # Not judged by their in-run spread: the first warm-up is the cold one
    # by design, and the peak is a single reading.
    host["setup_s"] = summarize([import_s + s for s in setups])
    host["peak_rss_mb"] = summarize([peak_rss_mb()])

    # Phases a unit marked inside its timed repeats, in seconds per unit.
    phase_s: Dict[str, float] = {}
    for record in spans.records:
        parent = record["parent"]
        if parent is not None and spans.records[parent]["name"].startswith("repeat."):
            phase_s[record["name"]] = phase_s.get(record["name"], 0.0) + (
                (record["end"] - record["start"]) / len(results)
            )

    sim = dict(first.sim)
    sim["failed_share"] = first.failed / first.attempted
    return {
        "seed": seed,
        "scale": scale,
        "repeats": len(results),
        "extra_repeats": extra,
        "ops_per_unit": first.ops,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "correct": not errors,
        "errors": errors,
        "digest": first.digest,
        "host": host,
        "sim": sim,
        "counters": first.counters,
        "phase_s": phase_s,
        "wall_s": walls,
        "spans": spans.records,
    }


# ----------------------------------------------------------------------
# Steady timing for the driver entry
# ----------------------------------------------------------------------
#: What the reference kernel takes on the reference box when nothing
#: else runs. Steady times are stated at this host speed.
REFERENCE_S = 0.050
#: Units the driver entry warms up with; ``setup_s`` takes their median.
STEADY_SETUPS = 5
_REFERENCE_CELLS = 1 << 12
_REFERENCE_STEPS = 64_000


class _Cell:
    __slots__ = ("key", "count", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0
        self.next: "_Cell" = self

    def touch(self) -> "_Cell":
        self.count += 1
        return self.next


class HostSpeed:
    """How fast this host is right now, sampled between timed calls.

    The reference box is a small VM on a shared host: for seconds to
    minutes at a time everything on it runs up to four times slower,
    CPU time stretching with wall time, so neither repeats nor a longer
    run average it out. What does hold still is the *ratio* of a unit's
    time to that of a fixed piece of work done next to it. The reference
    kernel is that work: the mix the platform's hot paths are made of
    (method calls on small objects, a tuple heap, a dict), about 50 ms,
    and no ``repro`` code, so no PR moves it. The ring of objects is
    4096 long on purpose: with 65536 the kernel slowed more than the
    units do when a neighbour thrashes the shared cache (1.25x against
    1.00-1.08x), and the figures came out too good on a slow host.

    :meth:`timed` divides a call's time by the faster of the two kernel
    runs around it (an interruption only ever adds to a sample) and
    multiplies by :data:`REFERENCE_S`: host seconds at reference speed.
    """

    def __init__(self) -> None:
        cells = [_Cell((i * 2654435761) & 0xFFFF) for i in range(_REFERENCE_CELLS)]
        for i, cell in enumerate(cells):
            cell.next = cells[(i * 40503 + 12345) & (_REFERENCE_CELLS - 1)]
        self._start = cells[0]
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self._kernel()  # allocator and caches warm
        self.sample()

    def _kernel(self) -> int:
        heap: List[Tuple[int, int]] = []
        table: Dict[int, Tuple[int, _Cell]] = {}
        push, pop = heapq.heappush, heapq.heappop
        cell, total = self._start, 0
        for step in range(_REFERENCE_STEPS):
            cell = cell.touch()
            table[cell.key & 8191] = (step, cell)
            push(heap, (cell.key, step))
            if step & 1:
                total += pop(heap)[0]
        return total

    def sample(self) -> None:
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        self._kernel()
        self.walls.append(time.perf_counter() - start)
        self.cpus.append(_cpu_seconds() - cpu_start)

    def timed(self, call: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``call`` and sample the kernel after it; returns its
        result, wall seconds and CPU seconds, both at reference speed."""
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu_start
        self.sample()
        return (
            result,
            wall * REFERENCE_S / min(self.walls[-2:]),
            cpu * REFERENCE_S / min(self.cpus[-2:]),
        )


def quiet_quartile(values: Sequence[float], better: str) -> Dict[str, float]:
    """:func:`summarize` plus ``value``: the quartile on the good side.
    Contention only ever makes a unit slower, so the quiet quartile is
    the steadier estimate of what the code costs; it is the same
    estimate on both sides of a comparison."""
    row = summarize(values)
    row["value"] = row["q1"] if better == "lower" else row["q3"]
    return row


def measure_steady(
    unit: Callable[[int, str, Spans], Any],
    seed: int,
    seconds: float,
    speed: HostSpeed,
    import_s: float = 0.0,
) -> Dict[str, Any]:
    """Warm up, then time ``slice`` units against the reference kernel
    until ``seconds`` of host time have passed (and :data:`MIN_REPEATS`
    units ran). ``import_s`` is the platform import, already at
    reference speed. ``report["host"][name]["value"]`` is what the
    driver entry prints."""
    spans = Spans()
    setups: List[float] = []
    with spans.span("setup"):
        for _ in range(STEADY_SETUPS):
            with spans.span("warmup"):
                _, wall, _ = speed.timed(lambda: unit(seed, "slice", spans))
                setups.append(import_s + wall)

    walls: List[float] = []
    cpus: List[float] = []
    results: List[Any] = []
    begun = time.perf_counter()
    while len(results) < MIN_REPEATS or time.perf_counter() - begun < seconds:
        gc.collect()
        with spans.span("repeat.%d" % len(results)):
            result, wall, cpu = speed.timed(lambda: unit(seed, "slice", spans))
        results.append(result)
        walls.append(wall)
        cpus.append(cpu)

    first = results[0]
    errors = _unit_errors(results)
    host = {
        "throughput_ops_s": quiet_quartile(
            [r.ops / w for r, w in zip(results, walls)], "higher"
        ),
        "cpu_s_per_unit": quiet_quartile(cpus, "lower"),
        "peak_rss_mb": summarize([peak_rss_mb()]),
        "setup_s": summarize(setups),
    }
    host["peak_rss_mb"]["value"] = host["peak_rss_mb"]["median"]
    host["setup_s"]["value"] = host["setup_s"]["median"]
    return {
        "seed": seed,
        "scale": "slice",
        "repeats": len(results),
        "ops_per_unit": first.ops,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "correct": not errors,
        "errors": errors,
        "digest": first.digest,
        "host": host,
        "reference_kernel_s": summarize(speed.walls),
        "spans": spans.records,
    }


def trace(unit: Callable[[int, str, Spans], Any], seed: int, scale: str) -> Dict[str, Any]:
    """One unit under cProfile, bucketed by layer, beside an untraced
    unit of the same size for the profiler's overhead.

    cProfile charges every Python call a fixed cost and native code
    none, so call-heavy layers look larger than they are: use the shares
    to locate a change and the untraced run to size it.
    """
    import repro  # the caller imported it; only its location is needed

    spans = Spans()
    with spans.span("setup"):
        with spans.span("warmup"):
            unit(seed, "smoke", spans)
    gc.collect()
    with spans.span("repeat.untraced"):
        start = time.perf_counter()
        plain = unit(seed, scale, spans)
        untraced_s = time.perf_counter() - start
    gc.collect()
    profile = cProfile.Profile()
    with spans.span("repeat.traced"):
        start = time.perf_counter()
        traced = profile.runcall(unit, seed, scale, spans)
        traced_s = time.perf_counter() - start
    errors = list(plain.errors) + list(traced.errors)
    if traced.digest != plain.digest:
        errors.append(
            "traced digest %s differs from untraced digest %s"
            % (traced.digest, plain.digest)
        )
    return {
        "seed": seed,
        "scale": scale,
        "correct": not errors,
        "errors": errors,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "digest": traced.digest,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_ratio": traced_s / untraced_s,
        "layers": layers.attribute(
            pstats.Stats(profile).stats,
            os.path.dirname(repro.__file__),
            os.path.dirname(os.path.abspath(__file__)),
        ),
        "counters": traced.counters,
        "spans": spans.records,
    }
