"""Storage-layout recovery accuracy and analysis-pass overhead.

Two gates for the multi-pass analysis framework:

* **Accuracy** — the storage pass, run over corpora whose compiled
  contracts carry ground-truth layouts (packed slots, nested mappings,
  dynamic arrays), must identify slot, intra-slot offset/width, kind,
  rendered type and mapping depth for at least 95% of variables.  The
  measured number feeds ``EXPERIMENTS.md``.
* **Overhead** — the passes the framework added after the
  pre-framework analysis (storage, lint, and the ABI passes) must cost
  under 5% of cold end-to-end recovery.  Measured as a throughput ratio
  between recovery under the full default pipeline and under the core
  pipeline (cfg/jumps/stack/dispatcher only — exactly the
  pre-framework analysis), exported as ``analysis.throughput_ratio``
  for the perf-history trajectory.  Recovery reads none of the added
  products and the analysis context computes products on demand, so
  the ratio stays near 1.0 unless a recovery path starts reading one.
"""

import time

from repro.analysis import analyze
from repro.analysis import framework as _framework
from repro.analysis.framework import AnalysisPipeline
from repro.corpus.datasets import build_clone_corpus, build_storage_corpus
from repro.sigrec.api import SigRec

ACCURACY_FLOOR = 0.95
OVERHEAD_LIMIT = 1.05
ROUNDS = 7


def _score(corpus):
    """(hits, total, misses) of recovered layouts vs ground truth."""
    hits = total = 0
    misses = []
    for case in corpus.cases:
        layout = analyze(case.contract.bytecode).storage
        recovered = {(v.slot, v.offset, v.width): v for v in layout.variables}
        for truth in case.contract.storage:
            total += 1
            variable = recovered.get(
                (truth["slot"], truth["offset"], truth["width"])
            )
            if (
                variable is not None
                and variable.kind == truth["kind"]
                and variable.type == truth["type"]
                and variable.depth == truth["depth"]
            ):
                hits += 1
            else:
                misses.append((truth, variable))
    return hits, total, misses


def test_storage_layout_accuracy(benchmark, record, bench_json):
    storage_corpus = build_storage_corpus(n_contracts=24, seed=21)
    clone_corpus = build_clone_corpus(seed=11, storage_rate=0.5)

    def run():
        return _score(storage_corpus), _score(clone_corpus)

    (s_hit, s_total, s_miss), (c_hit, c_total, c_miss) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    accuracy = (s_hit + c_hit) / (s_total + c_total)
    record(
        "storage_accuracy",
        [
            "Storage-layout recovery accuracy (ground-truth corpora)",
            f"storage corpus: {s_hit}/{s_total} variables "
            f"({s_hit / s_total:.1%}) over {len(storage_corpus.cases)} "
            "contracts",
            f"clone corpus (storage_rate=0.5): {c_hit}/{c_total} "
            f"({c_hit / c_total:.1%}) over {len(clone_corpus.cases)} "
            "contracts",
            f"overall: {accuracy:.1%} (floor {ACCURACY_FLOOR:.0%})",
        ],
    )
    bench_json(
        "storage",
        {
            "variables": s_total + c_total,
            "layout_accuracy": round(accuracy, 4),
        },
    )
    assert s_total and c_total
    assert accuracy >= ACCURACY_FLOOR, (
        f"layout accuracy {accuracy:.1%}; first misses: "
        f"{(s_miss + c_miss)[:3]}"
    )


def _cold_recovery_pass(bytecodes):
    recovered = 0
    for code in bytecodes:
        # Fresh tool per contract: every memo tier cold, so the analysis
        # pipeline runs once per contract like a first-sight batch.
        recovered += len(SigRec(static_check=False).recover(code))
    return recovered


def test_analysis_pass_overhead_under_five_percent(benchmark, record,
                                                   bench_json):
    bytecodes = [
        case.contract.bytecode
        for case in build_clone_corpus(n_families=10, clones_per_family=2,
                                       seed=11, storage_rate=0.5).cases
    ]

    def run():
        original = _framework.DEFAULT_PIPELINE
        core = AnalysisPipeline(tuple(
            p for p in original.passes
            if p.name in ("cfg", "jumps", "stack", "dispatcher")
        ))
        try:
            ratios = []
            full_n = core_n = 0
            # Paired CPU-time rounds, gate on the minimum ratio: noise
            # inflates individual rounds, a real overhead regression
            # lifts all of them (same scheme as the obs-overhead gate).
            _cold_recovery_pass(bytecodes)  # untimed warmup
            for _round in range(ROUNDS):
                _framework.DEFAULT_PIPELINE = original
                start = time.process_time()
                full_n = _cold_recovery_pass(bytecodes)
                full_elapsed = time.process_time() - start
                _framework.DEFAULT_PIPELINE = core
                start = time.process_time()
                core_n = _cold_recovery_pass(bytecodes)
                core_elapsed = time.process_time() - start
                ratios.append(full_elapsed / core_elapsed)
            return ratios, full_n, core_n
        finally:
            _framework.DEFAULT_PIPELINE = original

    ratios, full_n, core_n = benchmark.pedantic(run, rounds=1, iterations=1)
    assert full_n == core_n > 0
    best = min(ratios)
    median = sorted(ratios)[len(ratios) // 2]
    record(
        "analysis_overhead",
        [
            "Analysis-pass overhead on cold recovery "
            "(full pipeline vs core passes)",
            f"contracts: {len(bytecodes)} | functions: {full_n}",
            f"paired rounds: {ROUNDS} (CPU time)",
            f"overhead ratio: best {best:.4f}, median {median:.4f} "
            f"(limit {OVERHEAD_LIMIT})",
        ],
    )
    bench_json(
        "analysis",
        {
            "contracts": len(bytecodes),
            "overhead_ratio": round(best, 4),
            # Perf-history tier: full-pipeline throughput relative to
            # the core passes — drops mean the added passes got slower.
            "throughput_ratio": round(1.0 / best, 4),
        },
    )
    assert best < OVERHEAD_LIMIT, (
        f"analysis passes cost {best:.4f}x core recovery in every round "
        f"(per-round: {', '.join(f'{r:.3f}' for r in ratios)})"
    )
