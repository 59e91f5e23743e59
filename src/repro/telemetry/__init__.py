"""Causal distributed tracing + deterministic metrics for the platform.

The observability subsystem the paper's dependability prose needs to
become measurable claims (see docs/TELEMETRY.md):

* :mod:`repro.telemetry.tracer` — spans with sim-time stamps and
  RNG-stream ids, propagated through network envelopes, GCS multicasts
  and view changes, vosgi remote calls, ipvs routing and migration
  failovers;
* :mod:`repro.telemetry.metrics` — counters, gauges and fixed-bucket
  histograms, wall-clock free;
* :mod:`repro.telemetry.runtime` — the :class:`Telemetry` handle and the
  per-event-loop :class:`Probe` instrumented code reports to
  (``loop.probe``, ``None`` unless a driver attached one);
* :mod:`repro.telemetry.export` — JSON span dumps and Chrome
  ``trace_event`` files (Perfetto/chrome://tracing), byte-identical
  across same-seed runs;
* :mod:`repro.telemetry.gauges` — pull gauges over the existing hot-path
  counters, so instrumenting costs zero per-operation work;
* :mod:`repro.telemetry.scenarios` — the failover and chaos scenarios
  ``python -m repro trace`` (:mod:`repro.__main__`) runs and exports.

This package is a **suppression-free zone** for the determinism linter
(DET006): unlike the rest of the tree it may not even carry an
``allow[...]`` directive, so it can never quietly regress into wall-clock
or global-random usage.
"""

from repro.telemetry.export import (
    chrome_trace_document,
    dump_chrome_json,
    dump_spans_json,
    spans_document,
)
from repro.telemetry.gauges import install_platform_gauges
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.runtime import Probe, Telemetry, attach
from repro.telemetry.tracer import Span, SpanContext, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Probe",
    "Span",
    "SpanContext",
    "Telemetry",
    "Tracer",
    "attach",
    "chrome_trace_document",
    "dump_chrome_json",
    "dump_spans_json",
    "install_platform_gauges",
    "spans_document",
]
