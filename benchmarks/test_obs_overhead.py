"""Observability overhead gates on the recovery path.

Two bounds, two configurations:

* **disabled** — every layer carries instrumentation hooks (engine
  tallies, phase spans, per-recover counters), all guarded by an
  identity check against the shared null singletons.  A fully
  instrumented ``SigRec.recover`` with the default null backends must
  stay within 3% of a hand-rolled engine+inference loop that bypasses
  the instrumented wrapper entirely, over one 80-contract corpus
  (closed-source, Vyper and obfuscated contracts).
* **ledger-enabled** — turning the run ledger on (which auto-creates a
  real registry for phase attribution) must cost under 5% on a serial
  batch over the throughput corpus.
"""

import time

from repro.compiler import compile_contract
from repro.corpus.datasets import (
    build_closed_source_corpus,
    build_obfuscated_corpus,
    build_vyper_corpus,
)
from repro.corpus.signatures import SignatureGenerator
from repro.obs import NULL_REGISTRY, NULL_TRACER, RunLedger
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery
from repro.sigrec.engine import TASEEngine
from repro.sigrec.inference import infer_function
from repro.sigrec.rules import RuleTracker

OVERHEAD_LIMIT = 1.03
ROUNDS = 9

LEDGER_OVERHEAD_LIMIT = 1.05
LEDGER_ROUNDS = 7


def _bytecodes():
    out = []
    for corpus in (
        build_closed_source_corpus(n_contracts=40, seed=2),
        build_vyper_corpus(n_contracts=20, seed=4),
        build_obfuscated_corpus(n_contracts=20, seed=9),
    ):
        out.extend(case.contract.bytecode for case in corpus.cases)
    return out


def _bare_pass(bytecodes):
    """Engine + inference with no wrapper: the uninstrumented floor."""
    recovered = 0
    for code in bytecodes:
        result = TASEEngine(code).run()
        tracker = RuleTracker()
        for selector in result.selectors:
            infer_function(result.functions[selector], tracker)
            recovered += 1
    return recovered


def _instrumented_pass(bytecodes):
    """The production path, observability disabled (null backends)."""
    recovered = 0
    for code in bytecodes:
        # Fresh tool per contract (the batch-worker pattern) so the
        # result memo never short-circuits the engine, and the same
        # monolithic strategy as the bare loop — sharded exploration
        # runs one engine per selector, which would make the ratio
        # measure strategy cost instead of instrumentation guards.
        # The inference memo is off for the same reason: its event
        # digest is real caching work (bounded by its own benchmark),
        # not a null-backend guard.
        tool = SigRec(
            static_check=False, memo=False, inference_memo=False,
        )
        assert tool.metrics is NULL_REGISTRY and tool.tracer is NULL_TRACER
        recovered += len(tool.recover(code))
    return recovered


def test_null_backend_overhead_under_three_percent(benchmark, record):
    bytecodes = _bytecodes()

    def run():
        # Untimed warmup: first-touch costs (bytecode caches, allocator
        # arenas) must not land on either timed side.
        _bare_pass(bytecodes)
        _instrumented_pass(bytecodes)
        bare_n = instrumented_n = 0
        ratios = []
        # CPU time, not wall clock: the workload is deterministic and
        # the interesting quantity is instruction cost, so scheduler
        # preemption on a busy host must not count against either side.
        # Rounds are paired back-to-back so host-wide slowdowns (cgroup
        # throttling, SMT contention) inflate both sides of one round
        # together and cancel in the ratio; the gate is the *minimum*
        # paired ratio — the run's least-noisy estimate.  Noise only
        # inflates individual ratios, while a genuine guard-cost
        # regression lifts every round's ratio, so the minimum stays a
        # faithful detector without flaking on busy machines.
        for _round in range(ROUNDS):
            start = time.process_time()
            bare_n = _bare_pass(bytecodes)
            bare_elapsed = time.process_time() - start
            start = time.process_time()
            instrumented_n = _instrumented_pass(bytecodes)
            instrumented_elapsed = time.process_time() - start
            ratios.append(instrumented_elapsed / bare_elapsed)
        return ratios, bare_n, instrumented_n

    ratios, bare_n, instrumented_n = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert instrumented_n == bare_n > 0
    best_ratio = min(ratios)
    median_ratio = sorted(ratios)[len(ratios) // 2]
    record(
        "obs_overhead",
        [
            "Observability null-backend overhead (serial recovery)",
            f"contracts: {len(bytecodes)} | functions: {bare_n}",
            f"paired rounds: {ROUNDS} (bare vs instrumented CPU time)",
            f"overhead ratio: best {best_ratio:.4f}, "
            f"median {median_ratio:.4f} (limit {OVERHEAD_LIMIT})",
        ],
    )
    assert best_ratio < OVERHEAD_LIMIT, (
        f"null-backend overhead {best_ratio:.4f} exceeds {OVERHEAD_LIMIT} "
        f"in every round (per-round ratios: "
        f"{', '.join(f'{r:.3f}' for r in ratios)})"
    )


def _throughput_corpus():
    """60 unique contracts, the steps-per-second benchmark's recipe."""
    codes = []
    for seed in (7, 11, 23):
        gen = SignatureGenerator(seed=seed, struct_weight=2, nested_weight=2)
        codes.extend(
            compile_contract(gen.signatures(6)).bytecode for _ in range(20)
        )
    return codes


def _plain_batch(codes):
    runner = BatchRecovery(tool=SigRec(), workers=0)
    return sum(len(r) for r in runner.recover_all(codes))


def _ledgered_batch(codes):
    """The full bookkeeping path: ledger + auto-created registry."""
    ledger = RunLedger()
    runner = BatchRecovery(tool=SigRec(ledger=ledger), workers=0)
    n = sum(len(r) for r in runner.recover_all(codes))
    return n, ledger


def test_ledger_enabled_batch_overhead_under_five_percent(benchmark, record):
    codes = _throughput_corpus()

    def run():
        # Untimed warmup on both sides (see the null-backend gate).
        _plain_batch(codes)
        _ledgered_batch(codes)
        ratios = []
        plain_n = ledgered_n = 0
        ledger = None
        for _round in range(LEDGER_ROUNDS):
            start = time.process_time()
            plain_n = _plain_batch(codes)
            plain_elapsed = time.process_time() - start
            start = time.process_time()
            ledgered_n, ledger = _ledgered_batch(codes)
            ledgered_elapsed = time.process_time() - start
            ratios.append(ledgered_elapsed / plain_elapsed)
        return ratios, plain_n, ledgered_n, ledger

    ratios, plain_n, ledgered_n, ledger = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert ledgered_n == plain_n > 0
    assert len(ledger.all_records()) == len(codes)

    best_ratio = min(ratios)
    median_ratio = sorted(ratios)[len(ratios) // 2]
    record(
        "obs_ledger_overhead",
        [
            "Run-ledger overhead (serial batch, throughput corpus)",
            f"contracts: {len(codes)} | functions: {plain_n}",
            f"paired rounds: {LEDGER_ROUNDS} (plain vs ledgered CPU time)",
            f"overhead ratio: best {best_ratio:.4f}, "
            f"median {median_ratio:.4f} (limit {LEDGER_OVERHEAD_LIMIT})",
        ],
    )
    assert best_ratio < LEDGER_OVERHEAD_LIMIT, (
        f"ledger-enabled overhead {best_ratio:.4f} exceeds "
        f"{LEDGER_OVERHEAD_LIMIT} in every round (per-round ratios: "
        f"{', '.join(f'{r:.3f}' for r in ratios)})"
    )
