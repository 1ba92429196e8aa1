"""Human rendering of a metrics document: the ``repro stats`` command.

Takes the JSON document written by ``--metrics-out`` (optionally plus
the JSONL trace from ``--trace-out``) and answers the questions the
paper's evaluation answers with tables: how much work did TASE do,
which rules carry the recovery, how effective is the cache, where did
the wall-clock go, and which contracts were slowest.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import parse_key


def _labelled_counters(
    counters: Mapping[str, int], name: str, label: str
) -> Dict[str, int]:
    """``label value -> count`` for every ``name{label=...}`` counter."""
    out: Dict[str, int] = defaultdict(int)
    for key, value in counters.items():
        base, labels = parse_key(key)
        if base == name and label in labels:
            out[labels[label]] += value
    return dict(out)


def _ratio(part: float, whole: float) -> str:
    return f"{part / whole:.1%}" if whole else "n/a"


def render_stats(
    doc: Mapping,
    trace_records: Optional[Sequence[Mapping]] = None,
    top: int = 10,
) -> str:
    """The ``repro stats`` text for one metrics document."""
    counters: Mapping[str, int] = doc.get("counters", {})
    histograms: Mapping[str, Mapping] = doc.get("histograms", {})
    lines: List[str] = []

    # -- engine work ---------------------------------------------------
    paths = counters.get("tase.paths", 0)
    steps = counters.get("tase.steps", 0)
    runs = counters.get("tase.runs", 0)
    forks = counters.get("tase.forks", 0)
    exhaustions = counters.get("tase.budget_exhaustions", 0)
    # Single-core symbolic throughput: steps over the tase phase's
    # wall-clock (the same ratio BENCH_throughput.json freezes as
    # ``tase.steps_per_second``).
    tase_seconds = 0.0
    for key, payload in histograms.items():
        base, labels = parse_key(key)
        if base == "phase.seconds" and labels.get("phase") == "tase":
            tase_seconds += float(payload["sum"])
    lines.append("engine")
    lines.append(
        f"  runs {runs:,} | paths {paths:,} | steps {steps:,}"
        + (f" ({steps / max(1, runs):,.0f} steps/run)" if runs else "")
        + (
            f" | {steps / tase_seconds:,.0f} steps/s"
            if steps and tase_seconds
            else ""
        )
    )
    lines.append(
        f"  forks taken {forks:,} | branch-budget exhaustions {exhaustions:,}"
    )
    truncations = _labelled_counters(counters, "tase.truncations", "reason")
    if truncations:
        detail = ", ".join(
            f"{reason}: {count}" for reason, count in sorted(truncations.items())
        )
        lines.append(f"  truncated runs: {detail} (recovery may be incomplete)")

    # -- recovery outcome ----------------------------------------------
    recovers = counters.get("recover.calls", 0)
    functions = counters.get("recover.functions", 0)
    if recovers or functions:
        lines.append("recovery")
        lines.append(
            f"  recover() calls {recovers:,} | functions recovered {functions:,}"
        )

    # -- rules ---------------------------------------------------------
    fired = _labelled_counters(counters, "rules.fired", "rule")
    if fired:
        total_fired = sum(fired.values())
        ranked = sorted(fired.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        lines.append(f"rules (fired {total_fired:,} times, top {len(ranked)})")
        for rule, count in ranked:
            lines.append(f"  {rule:<4} {count:>8,}  {_ratio(count, total_fired)}")
        conflicts = _labelled_counters(counters, "rules.conflicts", "rule")
        if conflicts:
            shadowed = ", ".join(
                f"{rule}: {count}"
                for rule, count in sorted(
                    conflicts.items(), key=lambda kv: (-kv[1], kv[0])
                )[:top]
            )
            lines.append(f"  shadowed candidates: {shadowed}")

    # -- cache ---------------------------------------------------------
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    invalidations = counters.get("cache.invalidations", 0)
    if hits or misses or invalidations:
        lines.append("cache")
        lines.append(
            f"  hits {hits:,} | misses {misses:,} "
            f"(hit rate {_ratio(hits, hits + misses)}) | "
            f"invalidations {invalidations:,}"
        )

    # -- function-body memo --------------------------------------------
    memo_tiers = _labelled_counters(counters, "memo.hits", "tier")
    memo_hits = sum(memo_tiers.values()) + counters.get("memo.hits", 0)
    memo_misses = counters.get("memo.misses", 0)
    if memo_hits or memo_misses:
        tier_note = ""
        if memo_tiers:
            tier_note = " [" + ", ".join(
                f"{tier}: {count:,}"
                for tier, count in sorted(memo_tiers.items())
            ) + "]"
        lines.append("function memo")
        lines.append(
            f"  hits {memo_hits:,}{tier_note} | misses {memo_misses:,} "
            f"(hit rate {_ratio(memo_hits, memo_hits + memo_misses)}) | "
            f"writes {counters.get('memo.writes', 0):,}"
        )

    # -- inference memo ------------------------------------------------
    inf_tiers = _labelled_counters(counters, "infmemo.hits", "tier")
    inf_hits = sum(inf_tiers.values()) + counters.get("infmemo.hits", 0)
    inf_misses = counters.get("infmemo.misses", 0)
    if inf_hits or inf_misses:
        tier_note = ""
        if inf_tiers:
            tier_note = " [" + ", ".join(
                f"{tier}: {count:,}"
                for tier, count in sorted(inf_tiers.items())
            ) + "]"
        lines.append("inference memo")
        lines.append(
            f"  hits {inf_hits:,}{tier_note} | misses {inf_misses:,} "
            f"(hit rate {_ratio(inf_hits, inf_hits + inf_misses)}) | "
            f"writes {counters.get('infmemo.writes', 0):,}"
        )

    # -- batch scheduler -----------------------------------------------
    units = counters.get("batch.units", 0)
    if units:
        gauges: Mapping[str, float] = doc.get("gauges", {})
        sharded_runs = counters.get("tase.sharded_runs", 0)
        shards = counters.get("tase.shards", 0)
        lines.append("scheduler")
        lines.append(
            f"  units {units:,} | sharded recoveries {sharded_runs:,} "
            f"({shards:,} shards) | last run: "
            f"queue peak {gauges.get('batch.queue_peak', 0):,.0f}, "
            f"steals {gauges.get('batch.steals', 0):,.0f}"
        )

    # -- evaluation ----------------------------------------------------
    eval_contracts = counters.get("eval.contracts", 0)
    if eval_contracts:
        eval_functions = counters.get("eval.functions", 0)
        eval_correct = counters.get("eval.correct", 0)
        lines.append("evaluation")
        lines.append(
            f"  contracts {eval_contracts:,} | functions {eval_functions:,} | "
            f"correct {eval_correct:,} "
            f"(accuracy {_ratio(eval_correct, eval_functions)})"
        )

    # -- phase timing --------------------------------------------------
    phase_rows: List[Tuple[str, float, int]] = []
    for key, payload in histograms.items():
        base, labels = parse_key(key)
        if base == "phase.seconds" and "phase" in labels:
            phase_rows.append(
                (labels["phase"], float(payload["sum"]), int(payload["count"]))
            )
    if phase_rows:
        total_time = sum(row[1] for row in phase_rows)
        lines.append("phases")
        for phase, seconds, count in sorted(phase_rows, key=lambda r: -r[1]):
            lines.append(
                f"  {phase:<16} {seconds:>9.3f}s  {_ratio(seconds, total_time):>6}"
                f"  ({count:,} spans)"
            )

    # -- slowest contracts (from the trace) ----------------------------
    if trace_records:
        timed = []
        for record in trace_records:
            if record.get("type") != "event":
                continue
            attrs = record.get("attrs", {})
            elapsed = attrs.get("elapsed")
            if record.get("name") in ("contract", "contract_eval") and elapsed:
                timed.append((float(elapsed), attrs))
        timed.sort(key=lambda pair: -pair[0])
        if timed:
            lines.append(f"slowest contracts (top {min(top, len(timed))})")
            for elapsed, attrs in timed[:top]:
                ident = attrs.get("sha") or f"#{attrs.get('index', '?')}"
                functions = attrs.get("functions")
                suffix = f"  {functions} function(s)" if functions is not None else ""
                lines.append(f"  {ident:<18} {elapsed:>9.3f}s{suffix}")

    if not lines:
        return "empty metrics document\n"
    return "\n".join(lines) + "\n"
