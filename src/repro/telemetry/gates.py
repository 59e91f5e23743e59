"""Health-gate evaluation over windowed metric readings.

The rollout engine (and any other SLA-style controller) needs to answer
one question: *did this metric regress during the last observation
window?* — not "what is its lifetime value". A :class:`GateWindow`
snapshots the relevant instruments of a
:class:`~repro.telemetry.metrics.MetricsRegistry` when it opens and
evaluates every :class:`GateSpec` against the **delta** accumulated since,
so a gate only sees what happened inside its own soak window:

* ``counter-max-increase`` — the counter (summed across label sets whose
  rendered key starts with the metric name) may grow by at most
  ``threshold`` during the window;
* ``histogram-quantile-max`` — the ``quantile`` of the observations added
  to the histogram during the window must stay <= ``threshold``. The
  quantile is :func:`~repro.telemetry.metrics.bucket_quantile` over the
  per-bucket count deltas, the function
  :meth:`~repro.telemetry.metrics.Histogram.quantile` uses; an empty
  window passes (no evidence of regression).

Everything reads existing instruments; opening and evaluating a window
schedules nothing and draws no randomness, so gate evaluation never
perturbs trace or history digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.telemetry.metrics import MetricsRegistry, bucket_quantile

__all__ = ["GateSpec", "GateResult", "GateWindow", "default_rollout_gates"]

#: The supported gate kinds.
GATE_KINDS = ("counter-max-increase", "histogram-quantile-max")


@dataclass(frozen=True)
class GateSpec:
    """One health condition evaluated over an observation window."""

    name: str
    kind: str
    metric: str
    threshold: float
    #: Only meaningful for ``histogram-quantile-max``.
    quantile: float = 0.95

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError("unknown gate kind: %r" % self.kind)
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]: %r" % self.quantile)


@dataclass(frozen=True)
class GateResult:
    """The verdict of one gate over one window."""

    name: str
    kind: str
    metric: str
    threshold: float
    observed: float
    ok: bool
    #: Number of window samples behind ``observed`` (histogram gates).
    samples: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "threshold": self.threshold,
            "observed": round(self.observed, 9),
            "ok": self.ok,
            "samples": self.samples,
        }

    def __str__(self) -> str:
        return "%s[%s]: observed %.6f vs threshold %.6f -> %s" % (
            self.name,
            self.metric,
            self.observed,
            self.threshold,
            "ok" if self.ok else "TRIP",
        )


class GateWindow:
    """Baseline snapshot + delta evaluation for a set of gates."""

    def __init__(
        self, registry: MetricsRegistry, gates: Sequence[GateSpec]
    ) -> None:
        self._registry = registry
        self.gates = tuple(gates)
        #: metric name -> summed counter value at open.
        self._counter_base: Dict[str, float] = {}
        #: metric name -> (buckets, counts at open).
        self._histogram_base: Dict[str, Tuple[Tuple[float, ...], List[int]]] = {}
        for gate in self.gates:
            if gate.kind == "counter-max-increase":
                self._counter_base[gate.metric] = self._counter_total(gate.metric)
            else:
                buckets, counts = self._histogram_counts(gate.metric)
                self._histogram_base[gate.metric] = (buckets, counts)

    # ------------------------------------------------------------------
    def _counter_total(self, metric: str) -> float:
        """Sum the counter across every label set of ``metric``."""
        return sum(c.value for c in self._registry.counters_named(metric))

    def _histogram_counts(
        self, metric: str
    ) -> Tuple[Tuple[float, ...], List[int]]:
        """Merged bucket counts across every label set of ``metric``."""
        buckets: Tuple[float, ...] = ()
        merged: List[int] = []
        for histogram in self._registry.histograms_named(metric):
            if not buckets:
                buckets = histogram.buckets
                merged = list(histogram.counts)
            elif histogram.buckets == buckets:
                for i, count in enumerate(histogram.counts):
                    merged[i] += count
        return buckets, merged

    # ------------------------------------------------------------------
    def evaluate(self) -> List[GateResult]:
        """Judge every gate against the deltas since the window opened."""
        results: List[GateResult] = []
        for gate in self.gates:
            if gate.kind == "counter-max-increase":
                observed = (
                    self._counter_total(gate.metric)
                    - self._counter_base[gate.metric]
                )
                results.append(
                    GateResult(
                        name=gate.name,
                        kind=gate.kind,
                        metric=gate.metric,
                        threshold=gate.threshold,
                        observed=observed,
                        ok=observed <= gate.threshold,
                        samples=int(observed),
                    )
                )
                continue
            base_buckets, base_counts = self._histogram_base[gate.metric]
            buckets, counts = self._histogram_counts(gate.metric)
            if not buckets:
                results.append(
                    GateResult(
                        name=gate.name,
                        kind=gate.kind,
                        metric=gate.metric,
                        threshold=gate.threshold,
                        observed=0.0,
                        ok=True,
                        samples=0,
                    )
                )
                continue
            if base_buckets == buckets and base_counts:
                deltas = [c - b for c, b in zip(counts, base_counts)]
            else:  # histogram created after the window opened
                deltas = list(counts)
            samples = max(0, sum(deltas))
            observed = bucket_quantile(buckets, deltas, samples, gate.quantile)
            results.append(
                GateResult(
                    name=gate.name,
                    kind=gate.kind,
                    metric=gate.metric,
                    threshold=gate.threshold,
                    observed=observed,
                    ok=samples == 0 or observed <= gate.threshold,
                    samples=samples,
                )
            )
        return results

    def trips(self) -> List[GateResult]:
        """The failed gates only (empty list means the window is healthy)."""
        return [r for r in self.evaluate() if not r.ok]

    def __repr__(self) -> str:
        return "GateWindow(%d gates)" % len(self.gates)


def default_rollout_gates(
    max_dropped: float = 0.0, p95_latency: float = 0.15
) -> Tuple[GateSpec, ...]:
    """The stock rollout health gates (see docs/ROLLOUT.md).

    * any request dropped during the soak window trips the error gate;
    * the soak window's p95 virtual request latency must stay under
      ``p95_latency`` seconds.
    """
    return (
        GateSpec(
            name="no-new-drops",
            kind="counter-max-increase",
            metric="ipvs.dropped_total",
            threshold=max_dropped,
        ),
        GateSpec(
            name="latency-p95",
            kind="histogram-quantile-max",
            metric="ipvs.request_latency_seconds",
            threshold=p95_latency,
            quantile=0.95,
        ),
    )
