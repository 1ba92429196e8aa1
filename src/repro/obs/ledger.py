"""Append-only run ledger: one JSONL record per recovery.

The aggregate registry answers "how is the pipeline doing"; the ledger
answers "which contracts were slow and why".  Every :meth:`SigRec.recover
<repro.sigrec.api.SigRec.recover>` call with a ledger attached appends
one record — code hash, options fingerprint, strategy, per-phase
seconds (deltas of the ``phase.seconds`` histograms, so the ledger's
sums reconcile exactly with the registry), the cache/memo tier outcome,
TASE step/fork/truncation tallies, and diagnostics — and
:class:`~repro.sigrec.batch.BatchRecovery` merges worker records
additively, the same pattern as the metrics documents, tagging each
with its batch ``job``.  It is the only per-recovery
record: ``repro report`` ranks its slowest recoveries from it.

Two storage modes:

* ``path=None`` — records accumulate in memory on :attr:`RunLedger.records`
  (the batch-worker mode: the parent ships the list home and appends it
  to its own ledger);
* a file path — each record is one appended JSON line, with size-based
  rotation (``ledger.jsonl`` -> ``ledger.jsonl.1`` -> ... up to
  ``backups``), so an always-on service never grows one file without
  bound.

The query helpers (:func:`top_by_elapsed`, :func:`summarize`) operate
on plain record lists so they work equally on a live in-memory ledger
and on :func:`read_ledger` output.  ``repro report`` can rank only the
records a file ledger still holds: with the default rotation (16 MiB,
3 backups) that is the newest ~86,000 records at ~780 bytes each.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "ledger_paths",
    "phase_delta",
    "phase_snapshot",
    "read_ledger",
    "summarize",
    "top_by_elapsed",
]

#: Version of the ledger record layout.
LEDGER_SCHEMA_VERSION = 1

#: Default rotation threshold (bytes) and number of rotated backups.
DEFAULT_MAX_BYTES = 16 * 1024 * 1024
DEFAULT_BACKUPS = 3


class RunLedger:
    """Append-only JSONL ledger with size-based rotation.

    Thread-safe: the batch parent appends cache-hit records while the
    telemetry endpoint may be summarizing from another thread.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        backups: int = DEFAULT_BACKUPS,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.path = path
        self.max_bytes = max_bytes
        self.backups = max(0, backups)
        #: In-memory records (``path=None`` mode only).
        self.records: List[dict] = []
        #: Total records appended through this instance.
        self.written = 0
        self._lock = threading.Lock()
        if path:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)

    # -- writing -------------------------------------------------------

    def append(self, record: Mapping) -> None:
        """Append one record (a ``schema`` field is added if missing)."""
        payload = dict(record)
        payload.setdefault("schema", LEDGER_SCHEMA_VERSION)
        with self._lock:
            self.written += 1
            if self.path is None:
                self.records.append(payload)
                return
            line = json.dumps(payload, sort_keys=True) + "\n"
            self._rotate_if_needed(len(line))
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)

    def extend(self, records: Iterable[Mapping]) -> None:
        """Append many records (the batch parent merging worker output)."""
        for record in records:
            self.append(record)

    def _rotate_if_needed(self, incoming: int) -> None:
        """Rotate ``path`` -> ``path.1`` -> ... when the next write would
        push the active file past ``max_bytes``."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size == 0 or size + incoming <= self.max_bytes:
            return
        if self.backups == 0:
            os.unlink(self.path)
            return
        oldest = f"{self.path}.{self.backups}"
        if os.path.exists(oldest):
            os.unlink(oldest)
        for index in range(self.backups - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")

    # -- reading -------------------------------------------------------

    def all_records(self) -> List[dict]:
        """Every record this ledger can see, oldest first.

        In-memory mode returns a copy of :attr:`records`; file mode
        re-reads the rotation chain, so records appended by other
        processes to the same path are visible too.
        """
        with self._lock:
            if self.path is None:
                return list(self.records)
        return read_ledger(self.path)


def ledger_paths(path: str) -> List[str]:
    """The rotation chain for ``path`` that exists on disk, oldest first."""
    backups = []
    index = 1
    while os.path.exists(f"{path}.{index}"):
        backups.append(f"{path}.{index}")
        index += 1
    chain = list(reversed(backups))
    if os.path.exists(path):
        chain.append(path)
    return chain


def read_ledger(path: str) -> List[dict]:
    """Parse a ledger (including rotated backups), oldest record first.

    Malformed lines — e.g. a final line truncated mid-write — are
    skipped.
    """
    records: List[dict] = []
    for chunk in ledger_paths(path):
        try:
            handle = open(chunk, "r", encoding="utf-8")
        except OSError:
            continue
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
    return records


# ----------------------------------------------------------------------
# Phase accounting helpers
# ----------------------------------------------------------------------


def phase_snapshot(registry) -> Dict[str, float]:
    """``phase -> cumulative seconds`` from ``phase.seconds`` histograms.

    ``SigRec.recover`` snapshots before and after each call; the delta
    is the per-record phase attribution, which by construction sums to
    the registry's histogram totals.
    """
    return {
        phase: total
        for phase, (total, _count) in registry.histogram_sums(
            "phase.seconds", "phase"
        ).items()
    }


def phase_delta(
    before: Mapping[str, float], after: Mapping[str, float]
) -> Dict[str, float]:
    """Per-phase second deltas between two snapshots (positive only)."""
    deltas: Dict[str, float] = {}
    for phase, total in after.items():
        delta = total - before.get(phase, 0.0)
        if delta > 0:
            deltas[phase] = delta
    return deltas


# ----------------------------------------------------------------------
# Query API
# ----------------------------------------------------------------------


def _is_truncated(record: Mapping) -> bool:
    tase = record.get("tase")
    if not isinstance(tase, Mapping):
        return False
    return bool(tase.get("truncated_paths") or tase.get("truncated_steps"))


def top_by_elapsed(records: Iterable[Mapping], n: int = 10) -> List[Mapping]:
    """The ``n`` slowest records by total elapsed seconds."""
    return sorted(
        records,
        key=lambda record: float(record.get("elapsed_seconds", 0.0)),
        reverse=True,
    )[:n]


def summarize(records: Iterable[Mapping]) -> dict:
    """Aggregate view of a record list (the ``/ledger/summary`` payload)."""
    records = list(records)
    strategies: Dict[str, int] = {}
    tiers: Dict[str, int] = {}
    phase_seconds: Dict[str, float] = {}
    functions = 0
    truncated = 0
    elapsed = 0.0
    for record in records:
        strategies[record.get("strategy", "unknown")] = (
            strategies.get(record.get("strategy", "unknown"), 0) + 1
        )
        tiers[record.get("tier", "unknown")] = (
            tiers.get(record.get("tier", "unknown"), 0) + 1
        )
        functions += int(record.get("functions", 0))
        elapsed += float(record.get("elapsed_seconds", 0.0))
        if _is_truncated(record):
            truncated += 1
        phases = record.get("phases")
        if isinstance(phases, Mapping):
            for phase, seconds in phases.items():
                phase_seconds[phase] = (
                    phase_seconds.get(phase, 0.0) + float(seconds)
                )
    return {
        "schema": LEDGER_SCHEMA_VERSION,
        "records": len(records),
        "functions": functions,
        "elapsed_seconds": round(elapsed, 9),
        "strategies": dict(sorted(strategies.items())),
        "tiers": dict(sorted(tiers.items())),
        "phase_seconds": {
            phase: round(seconds, 9)
            for phase, seconds in sorted(phase_seconds.items())
        },
        "truncated": truncated,
    }
