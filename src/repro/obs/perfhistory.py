"""Per-PR performance trajectory over ``BENCH_throughput.json``.

Every perf-relevant PR appends a snapshot of the machine-readable
benchmark document to ``benchmarks/history/`` (monotonic sequence
numbers, no timestamps — diffs stay deterministic), and CI's perf-smoke
job fails when the freshly measured document regresses more than 20%
against the previous entry on any tracked tier:

* ``tase.steps_per_second`` — cold single-core symbolic throughput,
* ``sharded_memo.speedup`` — warm-memo speedup (a ratio),
* ``throughput.contracts_per_second`` — batch recovery throughput,
* ``analysis.throughput_ratio`` — full-pipeline vs core-pass recovery
  throughput (bounds what the storage/lint passes cost).

Absolute rates are machine-dependent, so each snapshot stores a
``calibration`` figure — the ops/s of a fixed pure-Python workload
measured on the recording machine — and the regression check compares
*calibrated* rates (value / calibration).  Ratio tiers (the memo
speedup) compare raw.  This keeps a snapshot recorded on a fast
development box comparable to a CI runner to first order.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "TIERS",
    "append_snapshot",
    "calibrate",
    "check_improvement",
    "check_regression",
    "history_entries",
    "main",
]

#: (section, key, calibrated?) per tracked tier.  ``calibrated`` tiers
#: are machine-rate metrics normalized by the snapshot's calibration;
#: the rest are dimensionless ratios compared raw.
TIERS: Tuple[Tuple[str, str, bool], ...] = (
    ("tase", "steps_per_second", True),
    ("sharded_memo", "speedup", False),
    ("throughput", "contracts_per_second", True),
    # Full-pipeline recovery throughput relative to the core passes: a
    # drop means the framework's added analysis passes got slower.
    ("analysis", "throughput_ratio", False),
    # ABI-completion overhead: full pipeline vs core passes on the ABI
    # corpus; a drop means mutability/returns recovery got slower.
    ("abi", "throughput_ratio", False),
    # Type-inference throughput (indexed event analysis): events
    # consumed per second by the inference pass alone.
    ("inference", "events_per_second", True),
    # Indexed-vs-reference inference speedup (a ratio): a drop means
    # the index/memoization layers stopped paying for themselves.
    ("inference", "speedup_vs_baseline", False),
)

_CALIBRATION_N = 200_000


def calibrate(rounds: int = 5) -> float:
    """Machine-speed figure: ops/s of a fixed integer workload.

    Best-of-``rounds`` — the statistic a throughput measurement on
    shared hardware needs.  The workload is arbitrary but frozen: only
    its ratio between two machines ever matters.
    """
    best = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_N):
            acc += i * i & 0xFFFF
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, _CALIBRATION_N / elapsed)
    return best


def _load(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def history_entries(history_dir: str) -> List[Tuple[int, Dict]]:
    """All snapshots in ``history_dir``, sorted by sequence number."""
    entries: List[Tuple[int, Dict]] = []
    if not os.path.isdir(history_dir):
        return entries
    for name in os.listdir(history_dir):
        stem, ext = os.path.splitext(name)
        if ext != ".json" or not stem.isdigit():
            continue
        entries.append((int(stem), _load(os.path.join(history_dir, name))))
    entries.sort(key=lambda pair: pair[0])
    return entries


def append_snapshot(
    bench_path: str,
    history_dir: str,
    note: str = "",
    calibration: Optional[float] = None,
) -> str:
    """Write the next ``NNNN.json`` snapshot; returns its path."""
    bench = _load(bench_path)
    entries = history_entries(history_dir)
    sequence = entries[-1][0] + 1 if entries else 1
    snapshot = {
        "sequence": sequence,
        "calibration": round(
            calibrate() if calibration is None else calibration, 2
        ),
        "note": note,
        "bench": bench,
    }
    os.makedirs(history_dir, exist_ok=True)
    path = os.path.join(history_dir, f"{sequence:04d}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _tier_value(bench: Mapping, section: str, key: str) -> Optional[float]:
    payload = bench.get(section)
    if not isinstance(payload, Mapping):
        return None
    value = payload.get(key)
    return float(value) if isinstance(value, (int, float)) else None


def _compare(
    bench_path: str,
    history_dir: str,
    threshold: float,
    calibration: Optional[float],
    direction: int,
) -> List[str]:
    """One message per tier whose value moved past ``threshold`` against
    the newest history snapshot: downward for ``direction`` -1, upward
    for +1.  Tiers missing on either side are skipped — a snapshot
    recorded before a tier existed must not fail every future run."""
    entries = history_entries(history_dir)
    if not entries:
        return []
    _, previous = entries[-1]
    prev_bench = previous.get("bench", {})
    prev_calibration = float(previous.get("calibration", 0) or 0)
    current = _load(bench_path)
    live_calibration = calibrate() if calibration is None else calibration

    messages: List[str] = []
    for section, key, calibrated in TIERS:
        prev_value = _tier_value(prev_bench, section, key)
        cur_value = _tier_value(current, section, key)
        if prev_value is None or cur_value is None:
            continue
        if calibrated:
            if not prev_calibration or not live_calibration:
                continue
            prev_norm = prev_value / prev_calibration
            cur_norm = cur_value / live_calibration
        else:
            prev_norm, cur_norm = prev_value, cur_value
        if prev_norm <= 0:
            continue
        bound = prev_norm * (1.0 + direction * threshold)
        if direction * (cur_norm - bound) <= 0:
            continue
        change = direction * (cur_norm / prev_norm - 1.0)
        message = (
            f"{section}.{key}: {cur_value:,.2f} is {change:.0%} "
            f"{'above' if direction > 0 else 'below'} the previous "
            f"entry's {prev_value:,.2f}"
            + (" (calibrated)" if calibrated else "")
        )
        if direction < 0:
            message += f" — more than the {threshold:.0%} budget"
        messages.append(message)
    return messages


def check_regression(
    bench_path: str,
    history_dir: str,
    threshold: float = 0.2,
    calibration: Optional[float] = None,
) -> List[str]:
    """Compare ``bench_path`` against the newest history snapshot.

    Returns one message per tier regressing by more than ``threshold``
    (empty list: no regression).
    """
    return _compare(bench_path, history_dir, threshold, calibration, -1)


def check_improvement(
    bench_path: str,
    history_dir: str,
    threshold: float = 0.2,
    calibration: Optional[float] = None,
) -> List[str]:
    """The mirror of :func:`check_regression`: tiers that got *better*.

    Returns one message per tier improving by more than ``threshold``
    over the newest history snapshot.  Purely informational — ``repro
    report --check-perf`` surfaces these as info lines so a successful
    optimisation shows up in the report instead of passing silently.
    """
    return _compare(bench_path, history_dir, threshold, calibration, +1)


def main(argv: List[str], repo_root: Optional[str] = None) -> int:
    """``perf_history.py append|check`` CLI body (returns exit code)."""
    root = repo_root or os.getcwd()
    bench_path = os.path.join(root, "BENCH_throughput.json")
    history_dir = os.path.join(root, "benchmarks", "history")
    if not argv or argv[0] not in ("append", "check"):
        print("usage: perf_history.py append [note] | check [threshold]")
        return 2
    if argv[0] == "append":
        note = argv[1] if len(argv) > 1 else ""
        path = append_snapshot(bench_path, history_dir, note=note)
        print(f"appended {path}")
        return 0
    threshold = float(argv[1]) if len(argv) > 1 else 0.2
    failures = check_regression(bench_path, history_dir, threshold=threshold)
    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}")
        return 1
    entries = history_entries(history_dir)
    print(
        f"perf trajectory OK: no >{threshold:.0%} regression vs entry "
        f"{entries[-1][0] if entries else '(none)'} on any tier"
    )
    return 0
