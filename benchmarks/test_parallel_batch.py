"""Parallel + cached batch recovery at chain scale.

Two claims, measured separately:

* **Parallel speedup** — on a no-duplicate corpus (the worst case for
  memoization: every job must run the engine), sharding across a
  process pool beats the serial path by >= 2x on machines with >= 4
  cores.  Per-contract analysis shares nothing, so the workload scales
  with cores; the paper's 368,679 unique mainnet bytecodes are exactly
  this shape.
* **Warm cache** — a second run over the same corpus with a persistent
  cache directory runs zero engine executions (100% hit rate) and still
  reproduces the identical signatures and rule-usage statistics.
"""

import os
import time

import pytest

from repro.corpus.signatures import SignatureGenerator
from repro.compiler import compile_contract
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery, shutdown_pool


def _unique_corpus(n_contracts: int = 48, seed: int = 77):
    """No-duplicate bytecodes: every contract is real engine work."""
    gen = SignatureGenerator(seed=seed)
    codes = []
    seen = set()
    while len(codes) < n_contracts:
        code = compile_contract(gen.signatures(6)).bytecode
        if code not in seen:
            seen.add(code)
            codes.append(code)
    return codes


def _timed_run(codes, workers, cache_dir=None):
    """One timed call.  A pooled call forks its own pool and joins it
    inside the timing, as if the pool lived for this call alone: a pool
    left warm by an earlier call would flatter the speedup."""
    runner = BatchRecovery(tool=SigRec(), workers=workers, cache_dir=cache_dir)
    shutdown_pool()
    start = time.perf_counter()
    results = runner.recover_all(codes)
    shutdown_pool()
    elapsed = time.perf_counter() - start
    return results, runner, elapsed


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup is only demonstrable on >= 4 cores",
)
def test_parallel_speedup_on_unique_corpus(record):
    codes = _unique_corpus()
    workers = min(os.cpu_count() or 1, 8)

    _, _, serial_elapsed = _timed_run(codes, workers=0)
    parallel_results, runner, parallel_elapsed = _timed_run(codes, workers=workers)
    speedup = serial_elapsed / parallel_elapsed

    record(
        "parallel_speedup",
        [
            "Parallel batch recovery: no-duplicate corpus (worst case for dedup)",
            f"corpus: {len(codes)} unique contracts",
            f"serial   : {serial_elapsed:.2f}s "
            f"({len(codes) / serial_elapsed:,.0f} contracts/s)",
            f"parallel : {parallel_elapsed:.2f}s with {workers} workers "
            f"({len(codes) / parallel_elapsed:,.0f} contracts/s)",
            f"speedup  : {speedup:.1f}x",
            f"stats    : {runner.stats.summary()}",
        ],
    )
    assert len(parallel_results) == len(codes)
    assert speedup >= 2.0


def test_warm_cache_skips_engine_entirely(record, tmp_path):
    codes = _unique_corpus(n_contracts=12, seed=78)
    cache_dir = str(tmp_path / "sigcache")

    cold_results, cold_runner, cold_elapsed = _timed_run(
        codes, workers=0, cache_dir=cache_dir
    )
    warm_results, warm_runner, warm_elapsed = _timed_run(
        codes, workers=0, cache_dir=cache_dir
    )

    record(
        "warm_cache",
        [
            "Persistent result cache: repeat run over an unchanged corpus",
            f"corpus: {len(codes)} unique contracts",
            f"cold: {cold_elapsed:.3f}s ({cold_runner.stats.summary()})",
            f"warm: {warm_elapsed:.3f}s ({warm_runner.stats.summary()})",
            f"warm speedup: {cold_elapsed / warm_elapsed:.0f}x",
            "paper context: 37,009,570 deployed contracts re-scanned daily "
            "need only diff against 368,679 cached uniques",
        ],
    )
    assert cold_runner.stats.cache_misses == len(codes)
    assert warm_runner.stats.cache_hits == len(codes)
    assert warm_runner.stats.cache_hit_rate == 1.0
    assert warm_runner.stats.analyzed == 0  # no engine executions at all
    assert warm_elapsed < cold_elapsed

    def essence(results):
        return [
            [(s.selector, s.param_types, s.fired_rules) for s in contract]
            for contract in results
        ]

    assert essence(warm_results) == essence(cold_results)
