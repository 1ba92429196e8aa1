"""Inference throughput: indexed event analysis vs the reference path.

The seed profile put type inference at ~83% of attributable recovery
wall time — the pass rescanned the whole load list for every load and
re-walked expression trees for every predicate probe.  The indexed
rewrite builds the load/copy derivation graph and the label inverted
index once per function and memoizes the structural predicates, so this
benchmark gates two figures:

* **inference alone**: events/second through ``infer_function`` with
  ``indexed=True`` must be at least 3x the retained reference path
  (``indexed=False`` — the original quadratic scans, kept as the
  differential oracle);
* **cold end-to-end**: full ``SigRec.recover`` with indexed inference
  must beat the same corpus with the reference path forced, by 1.5x.

Both figures land in ``BENCH_throughput.json`` under ``inference``.
"""

import time

from repro.corpus.signatures import SignatureGenerator
from repro.compiler import compile_contract
from repro.evm.predecode import clear_program_cache
from repro.sigrec import api as api_module
from repro.sigrec.api import SigRec
from repro.sigrec.engine import TASEEngine
from repro.sigrec.inference import infer_function
from repro.sigrec.rules import RuleTracker

INFERENCE_SPEEDUP_GATE = 3.0
COLD_E2E_SPEEDUP_GATE = 1.5


def _corpus():
    """Struct/nested-heavy contracts: the inference-dominated shape."""
    codes = []
    for seed in (7, 11, 23):
        gen = SignatureGenerator(seed=seed, struct_weight=2, nested_weight=2)
        codes.extend(compile_contract(gen.signatures(6)).bytecode
                     for _ in range(10))
    return codes


def _collect_events(codes):
    """One TASE pass per contract; the inference inputs, selector order."""
    collected = []
    for code in codes:
        result = TASEEngine(code).run()
        for selector in sorted(result.functions):
            collected.append(result.functions[selector])
    return collected


def _event_count(events_list):
    return sum(
        len(ev.loads) + len(ev.copies) + len(ev.uses) for ev in events_list
    )


def _measure_inference(events_list, indexed, trials=3):
    """Best-of-``trials`` events/s through the inference pass alone."""
    n_events = _event_count(events_list)
    best = 0.0
    for _ in range(trials):
        start = time.perf_counter()
        for events in events_list:
            infer_function(events, RuleTracker(), indexed=indexed)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, n_events / elapsed)
    return best


def _measure_cold_recovery(codes, trials=2):
    """Best-of cold full-pipeline contracts/s (fresh tool per contract,
    memo tiers off, decode cache dropped per pass)."""
    best = 0.0
    for _ in range(trials):
        clear_program_cache()
        start = time.perf_counter()
        for code in codes:
            SigRec(memo=False, inference_memo=False).recover(code)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, len(codes) / elapsed)
    return best


def test_inference_events_per_second(record, bench_json):
    """Indexed inference >=3x the reference path; cold end-to-end
    recovery >=1.5x with the index in place."""
    codes = _corpus()
    events_list = _collect_events(codes)
    n_events = _event_count(events_list)

    indexed_rate = _measure_inference(events_list, indexed=True)
    reference_rate = _measure_inference(events_list, indexed=False)
    speedup = indexed_rate / reference_rate if reference_rate else 0.0

    # End-to-end, both sides cold: the reference side forces
    # ``indexed=False`` through the one seam both recovery strategies
    # share — the module-level ``infer_function`` binding in the API.
    e2e_indexed = _measure_cold_recovery(codes)
    original = api_module.infer_function

    def reference_infer(events, tracker, **kwargs):
        kwargs["indexed"] = False
        return original(events, tracker, **kwargs)

    api_module.infer_function = reference_infer
    try:
        e2e_reference = _measure_cold_recovery(codes)
    finally:
        api_module.infer_function = original
    e2e_speedup = e2e_indexed / e2e_reference if e2e_reference else 0.0

    record(
        "inference_speed",
        [
            "Type-inference throughput (indexed event analysis)",
            f"corpus: {len(codes)} contracts, {len(events_list)} functions, "
            f"{n_events:,} events",
            f"indexed  : {indexed_rate:,.0f} events/s",
            f"reference: {reference_rate:,.0f} events/s "
            "(retained quadratic path, the differential oracle)",
            f"inference speedup: {speedup:.2f}x "
            f"(gate: >={INFERENCE_SPEEDUP_GATE:.0f}x)",
            f"cold end-to-end: {e2e_indexed:,.1f} vs "
            f"{e2e_reference:,.1f} contracts/s -> {e2e_speedup:.2f}x "
            f"(gate: >={COLD_E2E_SPEEDUP_GATE:.1f}x)",
        ],
    )
    bench_json(
        "inference",
        {
            "contracts": len(codes),
            "functions": len(events_list),
            "events": n_events,
            "events_per_second": round(indexed_rate, 2),
            "events_per_second_reference": round(reference_rate, 2),
            "speedup_vs_baseline": round(speedup, 3),
            "cold_e2e_contracts_per_second": round(e2e_indexed, 2),
            "cold_e2e_speedup": round(e2e_speedup, 3),
        },
    )
    assert speedup >= INFERENCE_SPEEDUP_GATE
    assert e2e_speedup >= COLD_E2E_SPEEDUP_GATE
