"""ABI-completion accuracy and recovery overhead.

Two gates for the mutability/returns passes:

* **Accuracy** — over corpora whose compiled contracts carry
  ground-truth ``stateMutability`` and output skeletons (CALLVALUE
  guards, effect markers, RETURN buffers — including the obfuscated
  guard form), the recovered verdicts must match at least 95% of
  functions on each axis.  The measured numbers feed
  ``EXPERIMENTS.md``.
* **Overhead** — the three passes the ABI work added to the pipeline
  (reach, mutability, returns) must cost under 5% of cold end-to-end
  recovery.  Measured as a throughput ratio between recovery under the
  full default pipeline and under the pre-ABI pipeline (the default
  minus exactly those three passes — the storage/lint cost relative to
  the core passes is gated by ``test_storage_accuracy``), exported as
  ``abi.throughput_ratio`` for the perf-history trajectory.  Only
  ``abi`` and ``profile`` read the three products, so recovery never
  runs them and the ratio stays near 1.0.
"""

import time

from repro.analysis import analyze
from repro.analysis import framework as _framework
from repro.analysis.framework import AnalysisPipeline
from repro.corpus.datasets import build_abi_corpus, build_storage_corpus
from repro.sigrec.api import SigRec

ACCURACY_FLOOR = 0.95
OVERHEAD_LIMIT = 1.05
ROUNDS = 7


def _score(corpus):
    """Per-axis (hits, total) plus misses vs the compiled ground truth."""
    mut_hits = ret_hits = total = 0
    misses = []
    for case in corpus.cases:
        analysis = analyze(case.contract.bytecode)
        for i, sig in enumerate(case.contract.signatures):
            selector = int.from_bytes(sig.selector, "big")
            truth_mut = case.contract.mutability[i]
            truth_ret = case.contract.returns[i]
            got_mut = analysis.mutability.functions.get(selector)
            got = analysis.returns.functions.get(selector)
            got_ret = got.shape if got is not None else None
            total += 1
            if got_mut == truth_mut:
                mut_hits += 1
            else:
                misses.append((str(sig), "mutability", truth_mut, got_mut))
            if got_ret == truth_ret:
                ret_hits += 1
            else:
                misses.append((str(sig), "returns", truth_ret, got_ret))
    return mut_hits, ret_hits, total, misses


def test_abi_recovery_accuracy(benchmark, record, bench_json):
    abi_corpus = build_abi_corpus(n_contracts=24, seed=23)
    # Legacy emission (no guards, STOP epilogues): everything must read
    # as payable with an empty output skeleton — no false guards.
    legacy_corpus = build_storage_corpus(n_contracts=8, seed=21)

    def run():
        return _score(abi_corpus), _score(legacy_corpus)

    (a_mut, a_ret, a_total, a_miss), (l_mut, l_ret, l_total, l_miss) = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    mut_accuracy = (a_mut + l_mut) / (a_total + l_total)
    ret_accuracy = (a_ret + l_ret) / (a_total + l_total)
    record(
        "abi_accuracy",
        [
            "ABI completion accuracy (ground-truth corpora)",
            f"abi corpus: mutability {a_mut}/{a_total}, returns "
            f"{a_ret}/{a_total} over {len(abi_corpus.cases)} contracts",
            f"legacy corpus (payable/STOP): mutability {l_mut}/{l_total}, "
            f"returns {l_ret}/{l_total} over {len(legacy_corpus.cases)} "
            "contracts",
            f"overall: mutability {mut_accuracy:.1%}, returns "
            f"{ret_accuracy:.1%} (floor {ACCURACY_FLOOR:.0%})",
        ],
    )
    bench_json(
        "abi",
        {
            "functions": a_total + l_total,
            "mutability_accuracy": round(mut_accuracy, 4),
            "returns_accuracy": round(ret_accuracy, 4),
        },
    )
    assert a_total and l_total
    assert mut_accuracy >= ACCURACY_FLOOR, (
        f"mutability accuracy {mut_accuracy:.1%}; first misses: "
        f"{(a_miss + l_miss)[:3]}"
    )
    assert ret_accuracy >= ACCURACY_FLOOR, (
        f"return-shape accuracy {ret_accuracy:.1%}; first misses: "
        f"{(a_miss + l_miss)[:3]}"
    )


def _cold_recovery_pass(bytecodes):
    recovered = 0
    for code in bytecodes:
        # Fresh tool per contract: every memo tier cold, so the analysis
        # pipeline runs once per contract like a first-sight batch.
        recovered += len(SigRec(static_check=False).recover(code))
    return recovered


def test_abi_pass_overhead_under_five_percent(benchmark, record, bench_json):
    bytecodes = [
        case.contract.bytecode
        for case in build_abi_corpus(n_contracts=14, seed=23).cases
    ]

    def run():
        original = _framework.DEFAULT_PIPELINE
        pre_abi = AnalysisPipeline(tuple(
            p for p in original.passes
            if p.name not in ("reach", "mutability", "returns")
        ))
        try:
            ratios = []
            full_n = core_n = 0
            # Paired CPU-time rounds, gate on the minimum ratio: noise
            # inflates individual rounds, a real overhead regression
            # lifts all of them (same scheme as the storage gate).
            _cold_recovery_pass(bytecodes)  # untimed warmup
            for _round in range(ROUNDS):
                _framework.DEFAULT_PIPELINE = original
                start = time.process_time()
                full_n = _cold_recovery_pass(bytecodes)
                full_elapsed = time.process_time() - start
                _framework.DEFAULT_PIPELINE = pre_abi
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
        "abi_overhead",
        [
            "ABI-pass overhead on cold recovery "
            "(full pipeline vs pre-ABI pipeline)",
            f"contracts: {len(bytecodes)} | functions: {full_n}",
            f"paired rounds: {ROUNDS} (CPU time)",
            f"overhead ratio: best {best:.4f}, median {median:.4f} "
            f"(limit {OVERHEAD_LIMIT})",
        ],
    )
    bench_json(
        "abi",
        {
            "contracts": len(bytecodes),
            "overhead_ratio": round(best, 4),
            # Perf-history tier: full-pipeline throughput relative to
            # the pre-ABI passes — drops mean the ABI passes got
            # slower.  The median round, not the min: the gate's min is
            # noise-biased downward, and a flukishly low round would
            # seed the history with a "speedup" later runs cannot hold.
            "throughput_ratio": round(1.0 / median, 4),
        },
    )
    assert best < OVERHEAD_LIMIT, (
        f"ABI passes cost {best:.4f}x core recovery in every round "
        f"(per-round: {', '.join(f'{r:.3f}' for r in ratios)})"
    )
