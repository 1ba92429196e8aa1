"""Storage-layout recovery accuracy.

The storage pass, run over corpora whose compiled contracts carry
ground-truth layouts (packed slots, nested mappings, dynamic arrays),
must identify slot, intra-slot offset/width, kind, rendered type and
mapping depth for at least 95% of variables.  The measured number
feeds ``EXPERIMENTS.md``.

Cold recovery never runs the storage pass: ``recover`` pulls only
cfg, jumps and dispatcher, which
``tests/sigrec/test_obs_integration.py`` pins span by span.  The
pass's cost is visible as perfbench's traced ``analysis.storage.s``.
"""

from repro.analysis import analyze
from repro.corpus.datasets import build_clone_corpus, build_storage_corpus

ACCURACY_FLOOR = 0.95


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
