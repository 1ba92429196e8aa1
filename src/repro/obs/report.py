"""``repro report`` — one document over a run's telemetry.

Builds a structured report (and its human rendering) from a metrics
document (``--metrics-out``), a run ledger (``--ledger-out``), or both.
Sections:

* **phases** — per-phase time attribution from the ``phase.seconds``
  histograms, with each phase's share of the attributable wall time
  (the ``recover`` span nests the others and is excluded from shares);
* **engine / recovery / rules** — TASE work (runs, paths, steps, steps/s
  over the ``tase`` phase, forks, budget exhaustions, truncations),
  ``recover()`` calls, and the rules fired and shadowed;
* **tiers** — result-cache / function-memo / inference-memo hit rates,
  memo writes and cache invalidations from the counters, plus the
  per-record tier outcome counts from the ledger;
* **scheduler / evaluation** — batch units and sharding, and accuracy
  when the run scored against ground truth;
* **hotspots** — profiler step attribution aggregated across ledger
  records;
* **slowest** — the slowest ledger records, each with its batch
  job, per-phase seconds and diagnostics.

``repro report --metrics m.json --prometheus`` prints the Prometheus
exposition of the same metrics document instead
(:func:`repro.obs.prom.render_prometheus`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.obs.metrics import parse_key
from repro.obs.ledger import summarize, top_by_elapsed
from repro.obs.profiler import render_hotspots, top_hotspots

__all__ = [
    "build_report",
    "render_report",
]

#: The non-overlapping top-level pipeline phases: shares are computed
#: over these four only.  ``recover`` nests all of them and the
#: ``analysis.*`` passes nest inside ``static_analysis``, so folding
#: either into the denominator would double-count wall time.
_TOP_PHASES = ("disasm", "static_analysis", "tase", "inference")


def _labelled(counters: Mapping[str, int], name: str, label: str) -> Dict[str, int]:
    """``label value -> count`` for every ``name{label=...}`` counter."""
    out: Dict[str, int] = {}
    for key, value in counters.items():
        base, labels = parse_key(key)
        if base == name and label in labels:
            out[labels[label]] = out.get(labels[label], 0) + int(value)
    return out


def _phase_section(doc: Mapping) -> Dict[str, dict]:
    """Per-phase seconds/count/share from a metrics document."""
    phases: Dict[str, dict] = {}
    for key, payload in doc.get("histograms", {}).items():
        name, labels = parse_key(key)
        if name != "phase.seconds" or "phase" not in labels:
            continue
        phases[labels["phase"]] = {
            "seconds": float(payload.get("sum", 0.0)),
            "count": int(payload.get("count", 0)),
        }
    attributable = sum(
        entry["seconds"]
        for phase, entry in phases.items()
        if phase in _TOP_PHASES
    )
    for phase, entry in phases.items():
        if phase in _TOP_PHASES and attributable > 0:
            entry["share"] = entry["seconds"] / attributable
    return dict(sorted(phases.items()))


def _counter_sections(doc: Mapping, phases: Mapping[str, dict]) -> dict:
    """Tier, engine, recovery, rule, scheduler and evaluation counts."""
    counters = doc.get("counters", {})

    def value(key: str) -> int:
        return int(counters.get(key, 0))

    def memo(prefix: str) -> dict:
        memory = value(f"{prefix}.hits{{tier=memory}}")
        disk = value(f"{prefix}.hits{{tier=disk}}")
        misses = value(f"{prefix}.misses")
        probes = memory + disk + misses
        return {
            "hits_memory": memory,
            "hits_disk": disk,
            "misses": misses,
            "writes": value(f"{prefix}.writes"),
            "hit_rate": (memory + disk) / probes if probes else None,
        }

    cache_hits, cache_misses = value("cache.hits"), value("cache.misses")
    cache_probes = cache_hits + cache_misses
    steps = value("tase.steps")
    # Single-core symbolic throughput: steps over the tase phase's
    # wall-clock.
    tase_seconds = phases.get("tase", {}).get("seconds", 0.0)
    functions, correct = value("eval.functions"), value("eval.correct")
    return {
        "tiers": {
            "result_cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "invalidations": value("cache.invalidations"),
                "hit_rate": cache_hits / cache_probes if cache_probes else None,
            },
            "function_memo": memo("memo"),
            "inference_memo": memo("infmemo"),
        },
        "engine": {
            "runs": value("tase.runs"),
            "paths": value("tase.paths"),
            "steps": steps,
            "steps_per_second": (
                steps / tase_seconds if steps and tase_seconds else None
            ),
            "forks": value("tase.forks"),
            "budget_exhaustions": value("tase.budget_exhaustions"),
            "truncations": _labelled(counters, "tase.truncations", "reason"),
        },
        "recovery": {
            "calls": value("recover.calls"),
            "functions": value("recover.functions"),
        },
        "rules": {
            "fired": _labelled(counters, "rules.fired", "rule"),
            "shadowed": _labelled(counters, "rules.conflicts", "rule"),
        },
        "scheduler": {
            "units": value("batch.units"),
            "sharded_runs": value("tase.sharded_runs"),
            "shards": value("tase.shards"),
        },
        "evaluation": {
            "contracts": value("eval.contracts"),
            "functions": functions,
            "correct": correct,
            "accuracy": correct / functions if functions else None,
        },
    }


def _aggregate_hotspots(records: Iterable[Mapping]) -> Dict[int, int]:
    """Sum per-record ``hotspots`` tables across the ledger."""
    counts: Dict[int, int] = {}
    for record in records:
        for entry in record.get("hotspots", []) or []:
            pc, steps = int(entry[0]), int(entry[1])
            counts[pc] = counts.get(pc, 0) + steps
    return counts


def _dominant_phase(record: Mapping) -> Optional[str]:
    phases = record.get("phases")
    if not isinstance(phases, Mapping) or not phases:
        return None
    candidates = {
        phase: seconds
        for phase, seconds in phases.items()
        if phase in _TOP_PHASES
    } or dict(phases)
    return max(candidates.items(), key=lambda item: item[1])[0]


def _slowest_section(records: List[Mapping], top: int) -> List[dict]:
    """The ``top`` slowest records, with the evidence each one carries."""
    out = []
    for record in top_by_elapsed(records, top):
        entry = {
            "code_sha256": str(record.get("code_sha256", "?"))[:16],
            "elapsed_seconds": float(record.get("elapsed_seconds", 0.0)),
            "strategy": record.get("strategy"),
            "tier": record.get("tier"),
            "functions": record.get("functions"),
            "dominant_phase": _dominant_phase(record),
            "phases": dict(record.get("phases") or {}),
            "diagnostics": list(record.get("diagnostics") or []),
        }
        if "job" in record:
            entry["job"] = record["job"]
        out.append(entry)
    return out


def build_report(
    metrics_doc: Optional[Mapping] = None,
    ledger_records: Optional[List[Mapping]] = None,
    top: int = 10,
) -> dict:
    """Assemble the report document from a metrics document, a ledger
    or both."""
    report: dict = {"schema": 1}
    if metrics_doc is not None:
        report["phases"] = _phase_section(metrics_doc)
        report.update(_counter_sections(metrics_doc, report["phases"]))
    if ledger_records is not None:
        report["ledger"] = summarize(ledger_records)
        hotspots = _aggregate_hotspots(ledger_records)
        if hotspots:
            report["hotspots"] = [
                [pc, steps] for pc, steps in top_hotspots(hotspots, top)
            ]
        report["slowest"] = _slowest_section(list(ledger_records), top)
    return report


def _ratio(part: float, whole: float) -> str:
    return f"{part / whole:.1%}" if whole else "n/a"


def _render_phases(report: dict, lines: List[str]) -> None:
    phases = report.get("phases")
    ledger = report.get("ledger")
    if not phases:
        return
    lines.append("phase time attribution (share of the top-level phases)")
    ledger_phases = (
        ledger.get("phase_seconds", {}) if isinstance(ledger, Mapping) else {}
    )
    width = max(len(phase) for phase in phases)
    for phase, entry in phases.items():
        share = entry.get("share")
        share_note = f"  {share:6.1%}" if share is not None else "        "
        note = ""
        if phase in ledger_phases:
            note = f"  [ledger {ledger_phases[phase]:.3f}s]"
        lines.append(
            f"  {phase:<{width}} {entry['seconds']:>9.3f}s{share_note}"
            f"  ({entry['count']} spans){note}"
        )
    lines.append("")


def _render_work(report: dict, lines: List[str], top: int) -> None:
    engine = report.get("engine")
    if engine is not None:
        runs, steps = engine["runs"], engine["steps"]
        rate = engine.get("steps_per_second")
        lines.append("engine")
        lines.append(
            f"  runs {runs:,} | paths {engine['paths']:,} | steps {steps:,}"
            + (f" ({steps / runs:,.0f} steps/run)" if runs else "")
            + (f" | {rate:,.0f} steps/s" if rate else "")
        )
        lines.append(
            f"  forks taken {engine['forks']:,} | branch-budget exhaustions "
            f"{engine['budget_exhaustions']:,}"
        )
        truncations = engine.get("truncations")
        if truncations:
            detail = ", ".join(
                f"{reason}: {count}"
                for reason, count in sorted(truncations.items())
            )
            lines.append(
                f"  truncated runs: {detail} (recovery may be incomplete)"
            )
        lines.append("")

    recovery = report.get("recovery")
    if recovery and (recovery["calls"] or recovery["functions"]):
        lines.append("recovery")
        lines.append(
            f"  recover() calls {recovery['calls']:,} | "
            f"functions recovered {recovery['functions']:,}"
        )
        lines.append("")

    rules = report.get("rules")
    if rules and rules["fired"]:
        fired = rules["fired"]
        total = sum(fired.values())
        ranked = sorted(fired.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        lines.append(f"rules (fired {total:,} times, top {len(ranked)})")
        for rule, count in ranked:
            lines.append(f"  {rule:<4} {count:>8,}  {_ratio(count, total)}")
        if rules["shadowed"]:
            shadowed = ", ".join(
                f"{rule}: {count}"
                for rule, count in sorted(
                    rules["shadowed"].items(), key=lambda kv: (-kv[1], kv[0])
                )[:top]
            )
            lines.append(f"  shadowed candidates: {shadowed}")
        lines.append("")


def _render_tiers(report: dict, lines: List[str]) -> None:
    tiers = report.get("tiers") or {}
    ledger = report.get("ledger")
    body: List[str] = []
    cache = tiers.get("result_cache")
    if cache and (cache["hits"] or cache["misses"] or cache["invalidations"]):
        hits, misses = cache["hits"], cache["misses"]
        body.append(
            f"  {'result cache':<15} hits {hits:,} | misses {misses:,} "
            f"(hit rate {_ratio(hits, hits + misses)}) | "
            f"invalidations {cache['invalidations']:,}"
        )
    # Older report documents predate the inference-memo tier and the
    # memo write counts.
    for key, label in (("function_memo", "function memo"),
                       ("inference_memo", "inference memo")):
        memo = tiers.get(key) or {}
        memory, disk = memo.get("hits_memory", 0), memo.get("hits_disk", 0)
        misses, writes = memo.get("misses", 0), memo.get("writes", 0)
        hits = memory + disk
        if hits or misses or writes:
            body.append(
                f"  {label:<15} {memory} memory + {disk} disk hits / {misses} misses"
            )
            body.append(
                f"  {'':<15} hits {hits:,} [disk: {disk:,}, memory: {memory:,}] | "
                f"misses {misses:,} (hit rate {_ratio(hits, hits + misses)}) | "
                f"writes {writes:,}"
            )
    if isinstance(ledger, Mapping) and ledger.get("tiers"):
        rendered = ", ".join(
            f"{tier} {count}" for tier, count in ledger["tiers"].items()
        )
        body.append(f"  ledger outcomes {rendered}")
    if body:
        lines.append("tier hit rates")
        lines.extend(body)
        lines.append("")


def _render_batch(report: dict, lines: List[str]) -> None:
    scheduler = report.get("scheduler")
    if scheduler and scheduler["units"]:
        lines.append("scheduler")
        lines.append(
            f"  units {scheduler['units']:,} | sharded recoveries "
            f"{scheduler['sharded_runs']:,} ({scheduler['shards']:,} shards)"
        )
        lines.append("")
    evaluation = report.get("evaluation")
    if evaluation and evaluation["contracts"]:
        lines.append("evaluation")
        lines.append(
            f"  contracts {evaluation['contracts']:,} | functions "
            f"{evaluation['functions']:,} | correct {evaluation['correct']:,}"
            f" (accuracy "
            f"{_ratio(evaluation['correct'], evaluation['functions'])})"
        )
        lines.append("")


def _render_ledger(report: dict, lines: List[str]) -> None:
    ledger = report.get("ledger")
    if not isinstance(ledger, Mapping):
        return
    lines.append(
        f"run ledger: {ledger.get('records', 0)} records, "
        f"{ledger.get('functions', 0)} functions, "
        f"{ledger.get('truncated', 0)} truncated"
    )
    strategies = ledger.get("strategies", {})
    if strategies:
        rendered = ", ".join(
            f"{name} {count}" for name, count in strategies.items()
        )
        lines.append(f"  strategies: {rendered}")
    lines.append("")


def _render_slowest(report: dict, lines: List[str], top: int) -> None:
    slowest = report.get("slowest")
    if not slowest:
        return
    lines.append("slowest recoveries")
    for entry in slowest[:top]:
        where = ""
        if "job" in entry:
            where = f"  job {entry['job']}"
        functions = entry.get("functions")
        dominant = entry.get("dominant_phase")
        lines.append(
            f"  {entry['code_sha256']}{where}  "
            f"{entry['elapsed_seconds']:.3f}s  "
            f"{entry.get('strategy')}/{entry.get('tier')}"
            + (f"  {functions} function(s)" if functions is not None else "")
            + (f"  mostly {dominant}" if dominant else "")
        )
        # Older report documents predate the per-entry evidence.
        for phase, seconds in entry.get("phases", {}).items():
            lines.append(f"    {phase:<20} {seconds:.3f}s")
        for diagnostic in entry.get("diagnostics", []):
            lines.append(
                f"    ! {diagnostic.get('kind')}: {diagnostic.get('detail')}"
            )
    lines.append("")


def render_report(report: dict, top: int = 10) -> str:
    """The human rendering of :func:`build_report`'s document."""
    lines: List[str] = []
    _render_phases(report, lines)
    _render_work(report, lines, top)
    _render_tiers(report, lines)
    _render_batch(report, lines)
    _render_ledger(report, lines)
    hotspots = report.get("hotspots")
    if hotspots:
        counts = {int(pc): int(steps) for pc, steps in hotspots}
        lines.append(render_hotspots(counts, n=top).rstrip("\n"))
        lines.append("")
    _render_slowest(report, lines, top)
    while lines and not lines[-1]:
        lines.pop()
    return ("\n".join(lines) + "\n") if lines else "(empty report)\n"
