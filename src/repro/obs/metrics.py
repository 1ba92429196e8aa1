"""Process-local metrics: counters and fixed-bucket histograms.

The registry is the measurement substrate for the whole recovery
pipeline (paper §5 reports per-contract time, rule hit counts, and
path-exploration cost — this is where those numbers live in the
reproduction).  Design constraints:

* **No wall-clock reads in hot loops.**  The engine keeps plain integer
  tallies while stepping and publishes them into the registry once per
  run, at the phase boundary; timers (:class:`Histogram` observations)
  are likewise sampled only when a phase starts or ends.
* **Disabled must cost ~nothing.**  :data:`NULL_REGISTRY` is a shared
  no-op backend: every instrument it hands out swallows updates, and
  instrumented code can guard label-dict construction with a single
  ``registry is not NULL_REGISTRY`` identity check.
* **Mergeable across processes.**  A worker serializes its registry
  with :meth:`MetricsRegistry.to_dict` and the parent folds it in with
  :meth:`MetricsRegistry.merge` — the same additive-counter pattern as
  :meth:`repro.sigrec.rules.RuleTracker.merge`, so a parallel batch run
  aggregates to exactly the serial run's counters.

Metrics are addressed by a name plus optional labels, flattened into a
stable string key (``rules.fired{rule=R4}``); the JSON document written
by ``--metrics-out`` maps those keys to values and is what
``repro report`` reads.
"""

from __future__ import annotations

import json
import os
import tempfile
from bisect import bisect_left
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Version of the serialized metrics document layout.
METRICS_SCHEMA_VERSION = 1

#: Default histogram boundaries for durations in seconds: sub-ms up to
#: tens of seconds, matching per-phase and per-contract recovery times.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Flatten ``name`` + labels into the canonical string key.

    Labels are sorted so the key is stable regardless of call-site
    keyword order: ``metric_key("x", {"b": 1, "a": 2})`` == ``x{a=2,b=1}``.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`metric_key`: ``x{a=2}`` -> ``("x", {"a": "2"})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: Dict[str, str] = {}
    for part in inner.split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels[label] = value
    return name, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Fixed-boundary histogram of observations (typically seconds).

    Boundaries are upper bounds of the non-cumulative buckets; one
    overflow bucket catches everything above the last boundary.  Fixed
    boundaries make cross-process merging exact: same-key histograms
    from different workers add bucket-by-bucket.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_TIME_BUCKETS) -> None:
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Creates-on-first-use registry of named, labelled instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors ------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    # -- serialization / merging ---------------------------------------

    def to_dict(self) -> dict:
        """The JSON-serializable metrics document."""
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "histograms": {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.bucket_counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "MetricsRegistry":
        registry = cls()
        registry.merge(doc)
        return registry

    def merge(self, other: Union["MetricsRegistry", Mapping]) -> None:
        """Fold another registry (or its document) into this one.

        Counters and histogram buckets add.  Merging is how per-worker
        registries aggregate in the batch parent and how
        ``--metrics-out`` accumulates across runs.  A ``gauges`` section
        (written by older versions) is ignored.
        """
        doc = other.to_dict() if isinstance(other, MetricsRegistry) else other
        for key, value in doc.get("counters", {}).items():
            self._counters.setdefault(key, Counter()).value += int(value)
        for key, payload in doc.get("histograms", {}).items():
            bounds = tuple(payload["bounds"])
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(bounds)
            elif histogram.bounds != bounds:
                raise ValueError(
                    f"histogram {key!r}: cannot merge bucket bounds "
                    f"{bounds} into {histogram.bounds}"
                )
            for index, count in enumerate(payload["counts"]):
                histogram.bucket_counts[index] += int(count)
            histogram.sum += float(payload["sum"])
            histogram.count += int(payload["count"])

    def counter_values(self) -> Dict[str, int]:
        """Plain ``key -> value`` view of every counter (for tests)."""
        return {k: c.value for k, c in self._counters.items()}

    def histogram_sums(
        self, name: str, label: str
    ) -> Dict[str, Tuple[float, int]]:
        """``label value -> (sum, count)`` across every ``name`` series.

        The run ledger snapshots this for ``phase.seconds`` before and
        after each ``recover`` call; the deltas are the per-record phase
        attribution and reconcile exactly with the histogram totals.
        """
        out: Dict[str, Tuple[float, int]] = {}
        for key, histogram in self._histograms.items():
            base, labels = parse_key(key)
            if base == name and label in labels:
                out[labels[label]] = (histogram.sum, histogram.count)
        return out


# ----------------------------------------------------------------------
# The null backend
# ----------------------------------------------------------------------


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """The disabled backend: hands out shared swallow-everything
    instruments and serializes to an empty document.

    Instrumented code may additionally guard on
    ``registry is not NULL_REGISTRY`` to skip even building the label
    keyword arguments — that identity check is the entire cost of
    disabled observability.
    """

    def counter(self, name: str, **labels: object) -> Counter:
        return _NULL_COUNTER

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def merge(self, other: Union[MetricsRegistry, Mapping]) -> None:
        pass


#: The shared disabled backend; compare by identity.
NULL_REGISTRY = NullRegistry()


# ----------------------------------------------------------------------
# Document I/O
# ----------------------------------------------------------------------


def load_metrics(path: str) -> Optional[dict]:
    """Read a metrics document; ``None`` on absence or corruption."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or "counters" not in doc:
        return None
    return doc


def dump_metrics(
    registry: MetricsRegistry, path: str, merge_existing: bool = True
) -> dict:
    """Write ``registry`` to ``path`` atomically; returns the document.

    With ``merge_existing`` (the default for ``--metrics-out``) an
    existing valid document at ``path`` is folded in first, so repeated
    runs accumulate — a cold run's cache misses and the warm rerun's
    hits end up in one document.  Delete the file to reset.

    The load+merge+replace sequence is guarded by an advisory ``fcntl``
    lock on a ``<path>.lock`` sidecar, so two processes finishing at
    the same moment serialize instead of one silently overwriting the
    other's merge.  The sidecar (not the data file) is locked because
    ``os.replace`` swaps the data file's inode out from under any lock
    held on it.  On platforms without ``fcntl`` the lock degrades to a
    no-op — the pre-lock (single-writer) behavior.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    lock_handle = None
    if fcntl is not None:
        lock_handle = open(path + ".lock", "a")
        fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
    try:
        combined = MetricsRegistry()
        if merge_existing:
            existing = load_metrics(path)
            if existing is not None:
                combined.merge(existing)
        combined.merge(registry)
        doc = combined.to_dict()
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2)
                handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    finally:
        if lock_handle is not None:
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)
            lock_handle.close()
    return doc
