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
* a file path — each record is one appended JSON line.  The file keeps
  every record written to it, so ``repro report`` sees a whole run
  however large; delete the file to start fresh.

The query helpers (:func:`top_by_elapsed`, :func:`summarize`) operate
on plain record lists so they work equally on an in-memory ledger and
on :func:`read_ledger` output.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "phase_delta",
    "phase_snapshot",
    "read_ledger",
    "summarize",
    "top_by_elapsed",
]

#: Version of the ledger record layout.
LEDGER_SCHEMA_VERSION = 1


class RunLedger:
    """Append-only JSONL ledger, or an in-memory record list."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        #: In-memory records (``path=None`` mode only).
        self.records: List[dict] = []
        #: Total records appended through this instance.
        self.written = 0
        if path:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)

    # -- writing -------------------------------------------------------

    def append(self, record: Mapping) -> None:
        """Append one record (a ``schema`` field is added if missing)."""
        payload = dict(record)
        payload.setdefault("schema", LEDGER_SCHEMA_VERSION)
        self.written += 1
        if self.path is None:
            self.records.append(payload)
            return
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")

    def extend(self, records: Iterable[Mapping]) -> None:
        """Append many records (the batch parent merging worker output)."""
        for record in records:
            self.append(record)

    # -- reading -------------------------------------------------------

    def all_records(self) -> List[dict]:
        """Every record this ledger holds, oldest first.

        In-memory mode returns a copy of :attr:`records`; file mode
        re-reads the file, so records appended by other processes to the
        same path are visible too.
        """
        if self.path is None:
            return list(self.records)
        return read_ledger(self.path)


def read_ledger(path: str) -> List[dict]:
    """Parse the ledger file at ``path``, oldest record first.

    A file not yet written reads as no records.  Malformed lines — e.g.
    a final line truncated mid-write — are skipped.
    """
    records: List[dict] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError:
        return records
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
    """Aggregate view of a record list (the report's ledger section)."""
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
