"""RQ1 (§5.2): overall recovery accuracy.

Paper: 98.7% overall — 98.74% over 210,869 Solidity signatures and
97.77% over 1,076 Vyper signatures; the errors fall into five
documented cases.

The gate is this reproduction's committed figure
(``benchmarks/results/rq1_accuracy.txt``), not a loose floor: a change
may raise the correct counts but never lower them, and every error
must be one of the documented cases.
"""

from repro.corpus.evaluate import evaluate_corpus
from repro.sigrec.api import SigRec

#: (correct, total) functions at the committed figure.
SOLIDITY_FIGURE = (1118, 1139)
VYPER_FIGURE = (290, 301)


def test_rq1_overall_accuracy(benchmark, open_corpus, vyper_corpus, record):
    tool = SigRec()

    def run():
        sol = evaluate_corpus(open_corpus, tool)
        vy = evaluate_corpus(vyper_corpus, tool)
        return sol, vy

    sol, vy = benchmark.pedantic(run, rounds=1, iterations=1)
    total = sol.total + vy.total
    correct = sol.correct + vy.correct
    overall = correct / total

    record(
        "rq1_accuracy",
        [
            "RQ1: accuracy of SigRec (paper vs measured)",
            f"overall   paper=98.7%   measured={overall:.1%}  ({total} functions)",
            f"solidity  paper=98.74%  measured={sol.accuracy:.1%}  ({sol.total} functions)",
            f"vyper     paper=97.77%  measured={vy.accuracy:.1%}  ({vy.total} functions)",
            f"error attribution: {sol.errors_by_quirk()}",
        ],
    )
    benchmark.extra_info["overall_accuracy"] = overall

    # No fewer correct functions than the committed figure, and every
    # error is one of the paper's documented cases.
    assert sol.total == SOLIDITY_FIGURE[1] and vy.total == VYPER_FIGURE[1]
    assert sol.correct >= SOLIDITY_FIGURE[0], (
        f"solidity {sol.correct}/{sol.total}, committed "
        f"{SOLIDITY_FIGURE[0]}/{SOLIDITY_FIGURE[1]}"
    )
    assert vy.correct >= VYPER_FIGURE[0], (
        f"vyper {vy.correct}/{vy.total}, committed "
        f"{VYPER_FIGURE[0]}/{VYPER_FIGURE[1]}"
    )
    unexplained = [
        o for o in sol.outcomes + vy.outcomes if not o.correct and o.quirk is None
    ]
    assert not unexplained
