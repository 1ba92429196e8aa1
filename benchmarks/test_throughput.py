"""Throughput: chain-scale recovery with deduplication.

The paper's corpus is 37M deployed contracts with only 368,679 unique
bytecodes (~1% unique).  Recovery at chain scale is therefore dominated
by dedup: this benchmark measures contracts/second with and without
memoizing per unique bytecode, at mainnet's duplication ratio.
"""

import time

from repro.corpus.signatures import SignatureGenerator
from repro.compiler import compile_contract
from repro.evm.predecode import clear_program_cache
from repro.obs import MetricsRegistry
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery
from repro.sigrec.engine import TASEEngine

#: Single-core TASE steps/s implied by the *committed seed*
#: ``BENCH_throughput.json`` — the file carried no explicit rate, so
#: the baseline is derived from its throughput section: 4,603 TASE
#: steps executed while recovering 720 contracts at 10,753.17
#: contracts/s, i.e. ``4603 / (720 / 10753.17) = 68,745`` steps/s.
#: Frozen here (not recomputed from the live file) because this run
#: rewrites the file with post-superblock numbers.
SEED_BASELINE_STEPS_PER_SECOND = 68_745.0


def _steps_corpus():
    """60 unique contracts with struct/nested-heavy signatures."""
    codes = []
    for seed in (7, 11, 23):
        gen = SignatureGenerator(seed=seed, struct_weight=2, nested_weight=2)
        codes.extend(
            compile_contract(gen.signatures(6)).bytecode for _ in range(20)
        )
    return codes


def _measure_steps_rate(codes, trials=3):
    """Cold single-core steps/s, best of ``trials`` passes.

    Cold: the decode cache is dropped before every pass and each engine
    owns a fresh expression arena, so the measurement includes the full
    pre-decode cost.  Best-of is the standard noise-resistant statistic
    for a throughput gate on shared hardware.
    """
    best_rate, steps = 0.0, 0
    for _ in range(trials):
        clear_program_cache()
        start = time.perf_counter()
        steps = 0
        for code in codes:
            steps += TASEEngine(code).run().total_steps
        elapsed = time.perf_counter() - start
        best_rate = max(best_rate, steps / elapsed)
    return best_rate, steps


def test_tase_steps_per_second(record, bench_json):
    """ROADMAP item 5: ≥2x single-core TASE steps/s over the committed
    ``BENCH_throughput.json`` baseline (superblock driver + priority
    scheduling + per-engine arena)."""
    codes = _steps_corpus()
    rate, steps = _measure_steps_rate(codes)

    record(
        "tase_steps",
        [
            "TASE single-core throughput (cold, superblock driver)",
            f"corpus: {len(codes)} unique contracts, {steps:,} steps",
            f"superblock+priority: {rate:,.0f} steps/s",
            f"committed seed baseline: "
            f"{SEED_BASELINE_STEPS_PER_SECOND:,.0f} steps/s "
            "(derived from the seed throughput section)",
            f"speedup vs committed baseline: "
            f"{rate / SEED_BASELINE_STEPS_PER_SECOND:.2f}x (gate: >=2x)",
        ],
    )
    bench_json(
        "tase",
        {
            "contracts": len(codes),
            "steps": steps,
            "steps_per_second": round(rate, 2),
            "baseline_steps_per_second": SEED_BASELINE_STEPS_PER_SECOND,
            "speedup_vs_baseline": round(
                rate / SEED_BASELINE_STEPS_PER_SECOND, 3
            ),
        },
    )
    assert rate >= 2.0 * SEED_BASELINE_STEPS_PER_SECOND


def _duplicated_population(unique: int = 12, copies: int = 60, seed: int = 70):
    """~1/copies unique ratio, echoing mainnet's duplication."""
    gen = SignatureGenerator(seed=seed, struct_weight=0, nested_weight=0)
    uniques = [
        compile_contract(gen.signatures(3)).bytecode for _ in range(unique)
    ]
    population = []
    for code in uniques:
        population.extend([code] * copies)
    return population


def test_throughput_with_dedup(benchmark, record, bench_json):
    population = _duplicated_population()

    def run():
        registry = MetricsRegistry()
        tool = SigRec(metrics=registry)
        runner = BatchRecovery(tool=tool, workers=0)
        start = time.perf_counter()
        runner.recover_all(population)
        dedup_elapsed = time.perf_counter() - start
        steps = registry.counter_values().get("tase.steps", 0)
        # Naive baseline: a fresh tool per contract (the batch-worker
        # pattern), so neither the in-instance result memo nor the
        # per-bytecode analysis memo short-circuits the engine.
        start = time.perf_counter()
        for code in population[:120]:
            SigRec().recover(code)
        raw_elapsed = (time.perf_counter() - start) * (len(population) / 120)
        return dedup_elapsed, raw_elapsed, runner.stats, steps

    dedup_elapsed, raw_elapsed, stats, steps = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    dedup_rate = len(population) / dedup_elapsed
    raw_rate = len(population) / raw_elapsed
    record(
        "throughput",
        [
            "Throughput: chain-scale recovery (mainnet-style duplication)",
            f"population: {len(population)} contracts, "
            f"{len(set(population))} unique (~{len(set(population))/len(population):.0%})",
            f"with dedup   : {dedup_rate:,.0f} contracts/s",
            f"without dedup: {raw_rate:,.0f} contracts/s (extrapolated)",
            f"speedup: {dedup_rate / raw_rate:.0f}x",
            f"batch stats: {stats.summary()}",
            "paper context: 37,009,570 deployed contracts, 368,679 unique",
            "see parallel_speedup.txt / warm_cache.txt for the worker-pool "
            "and persistent-cache numbers on a no-duplicate corpus",
        ],
    )
    bench_json(
        "throughput",
        {
            "contracts": len(population),
            "unique": len(set(population)),
            "contracts_per_second": round(dedup_rate, 2),
            "contracts_per_second_no_dedup": round(raw_rate, 2),
            "tase_steps": steps,
            "memo_hit_rate": round(stats.memo_hit_rate, 4),
            "memo_hits": stats.memo_hits,
            "cache_hits": stats.cache_hits,
        },
    )
    benchmark.extra_info["contracts_per_second"] = dedup_rate
    assert dedup_rate > raw_rate * 5
