"""``repro.obs`` — the observability core of the recovery pipeline.

All pieces are process-local and dependency-free:

* :mod:`repro.obs.metrics` — counters and fixed-bucket histograms in a
  mergeable :class:`MetricsRegistry`, with :data:`NULL_REGISTRY` as the
  no-op disabled backend;
* :mod:`repro.obs.ledger` — the append-only run ledger, one record per
  recovery (the only per-recovery record, batch units included);
* :mod:`repro.obs.report` — the ``repro report`` document, built from a
  metrics document and a ledger, the only reader of either (imported
  lazily; not re-exported here to keep this package import cheap).

:func:`phase_span` is the one-liner instrumented code uses at phase
boundaries: on exit it observes the phase's duration into the
``phase.seconds{phase=...}`` histogram, the one sink for phase
timings (``repro report`` and every run-ledger record read it).  With
the shared :data:`NULL_REGISTRY` it returns a no-op context manager
without reading any clock.
"""

from __future__ import annotations

import time

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

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "LEDGER_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "RunLedger",
    "dump_metrics",
    "load_metrics",
    "metric_key",
    "parse_key",
    "phase_span",
    "read_ledger",
]


class _NullPhase:
    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_PHASE = _NullPhase()


class _PhaseSpan:
    """Times one pipeline phase into its duration histogram."""

    __slots__ = ("_metrics", "_phase", "_t0")

    def __init__(self, metrics: MetricsRegistry, phase: str) -> None:
        self._metrics = metrics
        self._phase = phase
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._t0
        self._metrics.histogram("phase.seconds", phase=self._phase).observe(elapsed)


def phase_span(metrics: MetricsRegistry, phase: str):
    """A context manager timing one phase; free with the null registry."""
    if metrics is NULL_REGISTRY:
        return _NULL_PHASE
    return _PhaseSpan(metrics, phase)
