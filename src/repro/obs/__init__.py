"""``repro.obs`` — the observability core of the recovery pipeline.

All pieces are process-local and dependency-free:

* :mod:`repro.obs.metrics` — counters and fixed-bucket histograms in a
  mergeable :class:`MetricsRegistry`, with :data:`NULL_REGISTRY` as the
  no-op disabled backend;
* :mod:`repro.obs.trace` — a :class:`SpanTracer` emitting structured
  JSONL span/event records (:data:`NULL_TRACER` when disabled), the
  library's phase-span sink for ``SigRec(tracer=...)``;
* :mod:`repro.obs.prom` — the Prometheus text exposition of a document;
* :mod:`repro.obs.ledger` — the append-only run ledger, one record per
  recovery (the only per-recovery record, batch units included);
* :mod:`repro.obs.profiler` — superblock hot-loop step attribution;
* :mod:`repro.obs.httpexp` / :mod:`repro.obs.report` — the live
  ``/metrics`` endpoint and the ``repro report`` document, built from a
  metrics document and a ledger (imported lazily; not re-exported here
  to keep this package import cheap).

:func:`phase_span` is the one-liner instrumented code uses at phase
boundaries: it opens a tracer span and, on exit, observes the duration
into the ``phase.seconds{phase=...}`` histogram.  When both backends
are the shared null singletons it returns a no-op context manager
without reading any clock.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    read_ledger,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    METRICS_SCHEMA_VERSION,
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    dump_metrics,
    load_metrics,
    metric_key,
    parse_key,
)
from repro.obs.profiler import HotLoopProfiler
from repro.obs.prom import render_prometheus, validate_exposition
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SpanTracer,
    read_trace,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "LEDGER_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Histogram",
    "HotLoopProfiler",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RunLedger",
    "SpanTracer",
    "dump_metrics",
    "load_metrics",
    "metric_key",
    "parse_key",
    "phase_span",
    "read_ledger",
    "read_trace",
    "render_prometheus",
    "validate_exposition",
]


class _NullPhase:
    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_PHASE = _NullPhase()


class _PhaseSpan:
    """Times one pipeline phase: tracer span + duration histogram."""

    __slots__ = ("_metrics", "_span", "_phase", "_t0")

    def __init__(
        self,
        metrics: MetricsRegistry,
        tracer: SpanTracer,
        phase: str,
        attrs: dict,
    ) -> None:
        self._metrics = metrics
        self._phase = phase
        self._span = tracer.span(phase, **attrs)
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseSpan":
        self._span.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._t0
        self._metrics.histogram("phase.seconds", phase=self._phase).observe(elapsed)
        self._span.__exit__(exc_type, exc, tb)


def phase_span(
    metrics: MetricsRegistry, tracer: SpanTracer, phase: str, **attrs: Any
):
    """A context manager timing one phase; free when both backends are null."""
    if metrics is NULL_REGISTRY and tracer is NULL_TRACER:
        return _NULL_PHASE
    return _PhaseSpan(metrics, tracer, phase, attrs)
