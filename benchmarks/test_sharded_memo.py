"""Sharded TASE + warm function-body memo vs the monolithic baseline.

Real chains are clone-heavy: proxy factories deploy thousands of
near-identical bodies that differ only in trailing metadata, so their
bytecode hashes (and hence the whole-contract cache keys) all differ
while every function body is shared.  This benchmark builds such a
corpus (>=50% shared bodies), primes the on-disk function memo, and
requires the warm sharded+memoized batch to beat the pre-memo
monolithic batch by at least 1.5x while producing byte-identical
signatures.
"""

import os
import time

import pytest

from repro.corpus.datasets import build_clone_corpus
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery, shutdown_pool

WORKERS = 4


def _keys(results):
    """Timing-free view of a batch result (test_sharded idiom)."""
    return [
        [
            (s.selector, s.param_types, s.language, s.fired_rules, s.confidences)
            for s in sigs
        ]
        for sigs in results
    ]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup gate needs >=4 cores to be meaningful",
)
def test_warm_memo_batch_beats_monolithic_baseline(record, bench_json, tmp_path):
    corpus = build_clone_corpus(n_families=6, clones_per_family=4, seed=17)
    codes = [case.contract.bytecode for case in corpus.cases]
    assert len(set(codes)) == len(codes)  # every clone is a distinct bytecode

    # PR 4 baseline: monolithic TASE, no function memo, same worker pool.
    # Each timed side forks its own pool and joins it inside the timing,
    # so the warm side cannot reuse the pool the baseline forked.
    baseline_runner = BatchRecovery(
        tool=SigRec(memo=False), workers=WORKERS
    )
    shutdown_pool()
    start = time.perf_counter()
    baseline_results = baseline_runner.recover_all(codes)
    shutdown_pool()
    baseline_elapsed = time.perf_counter() - start

    # Prime the disk tier of the function memo from one clone per family
    # (untimed: this is the "the chain has been crawled before" state).
    memo_dir = os.path.join(str(tmp_path), "fnmemo")
    primer = SigRec(memo_dir=memo_dir)
    for family in range(0, len(codes), 4):
        primer.recover(codes[family])
    assert primer.function_memo().writes > 0

    # Warm run: sharded recovery, memo hits from disk, cold contract cache.
    warm_runner = BatchRecovery(
        tool=SigRec(), workers=WORKERS, cache_dir=str(tmp_path)
    )
    shutdown_pool()
    start = time.perf_counter()
    warm_results = warm_runner.recover_all(codes)
    shutdown_pool()
    warm_elapsed = time.perf_counter() - start

    assert _keys(warm_results) == _keys(baseline_results)
    stats = warm_runner.stats
    assert stats.cache_hits == 0  # speedup must come from the memo alone
    assert stats.memo_hit_rate >= 0.5

    speedup = baseline_elapsed / warm_elapsed
    record(
        "sharded_memo",
        [
            "Warm function-body memo vs monolithic batch (clone-heavy corpus)",
            f"corpus: {len(codes)} contracts, 6 families x 4 clones "
            "(75% shared bodies, all distinct bytecode hashes)",
            f"monolithic baseline: {baseline_elapsed:.3f}s "
            f"({len(codes) / baseline_elapsed:,.1f} contracts/s)",
            f"warm sharded+memo : {warm_elapsed:.3f}s "
            f"({len(codes) / warm_elapsed:,.1f} contracts/s)",
            f"speedup: {speedup:.2f}x (gate: >=1.5x)",
            f"memo hit rate: {stats.memo_hit_rate:.0%} "
            f"({stats.memo_hits} hits / {stats.memo_misses} misses)",
            f"batch stats: {stats.summary()}",
        ],
    )
    bench_json(
        "sharded_memo",
        {
            "contracts": len(codes),
            "workers": WORKERS,
            "baseline_seconds": round(baseline_elapsed, 4),
            "warm_seconds": round(warm_elapsed, 4),
            "speedup": round(speedup, 3),
            "contracts_per_second": round(len(codes) / warm_elapsed, 2),
            "memo_hit_rate": round(stats.memo_hit_rate, 4),
            "memo_hits": stats.memo_hits,
            "memo_misses": stats.memo_misses,
        },
    )
    assert speedup >= 1.5
