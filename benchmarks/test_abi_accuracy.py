"""ABI-completion accuracy.

Over corpora whose compiled contracts carry ground-truth
``stateMutability`` and output skeletons (CALLVALUE guards, effect
markers, RETURN buffers — including the obfuscated guard form), the
recovered verdicts must match at least 95% of functions on each axis.
The measured numbers feed ``EXPERIMENTS.md``.

Only ``abi`` and ``profile`` read the reach, mutability and returns
products; ``recover`` pulls only cfg, jumps and dispatcher, which
``tests/sigrec/test_obs_integration.py`` pins span by span.  The
passes' cost is visible as perfbench's traced ``analysis.<pass>.s``.
"""

from repro.analysis import analyze
from repro.corpus.datasets import build_abi_corpus, build_storage_corpus

ACCURACY_FLOOR = 0.95


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
