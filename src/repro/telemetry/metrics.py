"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The registry is the measurement substrate the paper's dependability prose
lacks: every instrument is a plain in-process object keyed by ``(name,
labels)``, carries **no wall-clock state** (timestamps, when a caller wants
them, come from the sim :class:`~repro.sim.clock.Clock`), and snapshots in
a single deterministic, sorted pass — so two same-seed runs serialise to
byte-identical JSON.

Three instrument kinds, mirroring the Prometheus trinity:

* :class:`Counter` — monotonically increasing count (requests routed,
  registry lookups);
* :class:`Gauge` — a point-in-time level, either set directly or *pulled*
  from a zero-argument callable at snapshot time. Pull gauges are how the
  hot paths stay untouched: the event loop's ``fired``/``pending``
  counters, the network's stats and the LDAP-filter parse cache already
  count everything the dashboard needs, and an observable gauge reads them
  only when a snapshot is taken;
* :class:`Histogram` — fixed upper-bound buckets with ``<=`` (Prometheus
  ``le``) semantics, plus sum and count, for latency distributions such as
  ``migration.failover_seconds``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "bucket_quantile",
]

#: Default histogram upper bounds, in seconds (latency-shaped).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up: %r" % amount)
        self.value += amount


class Gauge:
    """A level that can be set directly or observed through a callable."""

    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise RuntimeError("gauge %s is observable (pull-only)" % self.name)
        self._value = float(value)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (value <= bound) semantics."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        #: one slot per bound plus the +inf overflow slot.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, fraction: float) -> float:
        """Bucket-upper-bound estimate of the ``fraction`` quantile."""
        return bucket_quantile(self.buckets, self.counts, self.count, fraction)


def bucket_quantile(
    buckets: Sequence[float], counts: Sequence[int], total: int, fraction: float
) -> float:
    """Bucket-upper-bound estimate of the ``fraction`` quantile.

    ``counts`` holds one slot per bound plus the overflow slot and sums
    to ``total``. Returns the upper bound of the bucket the quantile
    falls in (the last finite bound for the overflow bucket), 0.0 when
    ``total`` is not positive.
    """
    if total <= 0:
        return 0.0
    rank = max(1, int(fraction * total + 0.999999))
    seen = 0
    for i, count in enumerate(counts):
        seen += count
        if seen >= rank:
            return buckets[min(i, len(buckets) - 1)]
    return buckets[-1]


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % kv for kv in labels))


class MetricsRegistry:
    """Get-or-create home of every instrument; snapshots deterministically."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_items(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(
        self, name: str, fn: Optional[Callable[[], float]] = None, **labels: Any
    ) -> Gauge:
        key = (name, _label_items(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1], fn=fn)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_items(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                name, key[1], buckets=buckets
            )
        return instrument

    def remove(self, name: str, **labels: Any) -> None:
        """Drop one instrument (e.g. gauges of a departed instance)."""
        key = (name, _label_items(labels))
        self._counters.pop(key, None)
        self._gauges.pop(key, None)
        self._histograms.pop(key, None)

    # ------------------------------------------------------------------
    def counters_named(self, name: str) -> List[Counter]:
        """Every counter with ``name``, across label sets, label-sorted."""
        return [
            counter
            for (key_name, _labels), counter in sorted(self._counters.items())
            if key_name == name
        ]

    def histograms_named(self, name: str) -> List[Histogram]:
        """Every histogram with ``name``, across label sets, label-sorted."""
        return [
            histogram
            for (key_name, _labels), histogram in sorted(self._histograms.items())
            if key_name == name
        ]

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Every instrument's current reading, sorted and JSON-ready."""
        counters = {
            _render_key(*key): instrument.value
            for key, instrument in sorted(self._counters.items())
        }
        gauges = {
            _render_key(*key): instrument.value
            for key, instrument in sorted(self._gauges.items())
        }
        histograms: Dict[str, Any] = {}
        for key, histogram in sorted(self._histograms.items()):
            histograms[_render_key(*key)] = {
                "buckets": list(histogram.buckets),
                "counts": list(histogram.counts),
                "sum": histogram.sum,
                "count": histogram.count,
                "p50": histogram.quantile(0.50),
                "p95": histogram.quantile(0.95),
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def __repr__(self) -> str:
        return "MetricsRegistry(counters=%d, gauges=%d, histograms=%d)" % (
            len(self._counters),
            len(self._gauges),
            len(self._histograms),
        )
