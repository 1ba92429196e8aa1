"""Accuracy evaluation harness shared by the RQ benchmarks.

A recovered signature is *correct* iff the function id, the number and
order of parameters, and every parameter type match the declared
ground truth exactly (the paper's §5.2 criterion).
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.corpus.datasets import Corpus
from repro.obs import NULL_REGISTRY
from repro.sigrec.api import SigRec


@dataclass
class FunctionOutcome:
    selector: int
    declared: str  # declared canonical parameter list
    recovered: Optional[str]  # None when the tool produced nothing
    quirk: Optional[str]
    version_key: str
    elapsed_seconds: float = 0.0

    @property
    def correct(self) -> bool:
        return self.recovered == self.declared


@dataclass
class EvalReport:
    outcomes: List[FunctionOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def correct(self) -> int:
        return sum(1 for o in self.outcomes if o.correct)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.outcomes else 0.0

    def accuracy_by_version(self) -> Dict[str, float]:
        buckets: Dict[str, List[FunctionOutcome]] = defaultdict(list)
        for outcome in self.outcomes:
            buckets[outcome.version_key].append(outcome)
        return {
            version: sum(o.correct for o in outs) / len(outs)
            for version, outs in buckets.items()
        }

    def errors_by_quirk(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for outcome in self.outcomes:
            if not outcome.correct:
                counts[outcome.quirk or "other"] += 1
        return dict(counts)

    def timing_seconds(self) -> List[float]:
        return [o.elapsed_seconds for o in self.outcomes]


@dataclass
class BaselineReport:
    """Per-function outcomes of one baseline tool over a corpus."""

    tool_name: str
    outcomes: List[FunctionOutcome] = field(default_factory=list)
    aborted_contracts: int = 0
    total_contracts: int = 0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def correct(self) -> int:
        return sum(1 for o in self.outcomes if o.correct)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.outcomes else 0.0

    @property
    def abort_ratio(self) -> float:
        return (
            self.aborted_contracts / self.total_contracts
            if self.total_contracts
            else 0.0
        )

    @property
    def no_answer(self) -> int:
        return sum(1 for o in self.outcomes if o.recovered is None)

    def wrong_param_count(self) -> int:
        """Functions where the number of parameters is wrong."""
        wrong = 0
        for o in self.outcomes:
            if o.recovered is None or o.correct:
                continue
            declared_n = len(o.declared.split(",")) if o.declared else 0
            recovered_n = len(o.recovered.split(",")) if o.recovered else 0
            if declared_n != recovered_n:
                wrong += 1
        return wrong

    def wrong_types_only(self) -> int:
        """Wrong answers that at least got the parameter count right."""
        wrong = 0
        for o in self.outcomes:
            if o.recovered is None or o.correct:
                continue
            declared_n = len(o.declared.split(",")) if o.declared else 0
            recovered_n = len(o.recovered.split(",")) if o.recovered else 0
            if declared_n == recovered_n:
                wrong += 1
        return wrong


def evaluate_baseline(corpus: Corpus, tool) -> BaselineReport:
    """Run a baseline tool over the corpus against ground truth.

    Splitting parameter lists at top-level commas is deliberately naive
    here (tuples contain commas) — baseline tools do not produce tuple
    types, so the count comparison stays meaningful.
    """
    report = BaselineReport(tool_name=tool.name)
    for case in corpus.cases:
        report.total_contracts += 1
        output = tool.recover(case.contract.bytecode)
        if output.aborted:
            report.aborted_contracts += 1
        for sig, quirk in zip(case.declared, case.quirks):
            selector = int.from_bytes(sig.selector, "big")
            recovered = None if output.aborted else output.functions.get(selector)
            report.outcomes.append(
                FunctionOutcome(
                    selector=selector,
                    declared=sig.param_list(),
                    recovered=recovered,
                    quirk=quirk,
                    version_key=case.options.version_key,
                )
            )
    return report


def evaluate_corpus(
    corpus: Corpus,
    tool: Optional[SigRec] = None,
    workers: int = 0,
    cache_dir: Optional[str] = None,
) -> EvalReport:
    """Run SigRec over every contract, compare against ground truth.

    ``workers`` / ``cache_dir`` route the recovery through the batch
    executor (process pool, persistent cache); accuracy is identical to
    the serial path, only wall-clock changes.  In batch mode the whole
    corpus is timed at once, so per-function ``elapsed_seconds`` is the
    batch average rather than a per-contract measurement.

    When the tool carries a metrics registry (``SigRec(metrics=...)``),
    every contract additionally updates the
    ``eval.{contracts,functions,correct}`` counters (and, serially, the
    ``eval.contract_seconds`` histogram).
    """
    tool = tool or SigRec()
    report = EvalReport()
    metrics = tool.metrics
    observing = metrics is not NULL_REGISTRY
    if workers or cache_dir is not None:
        from repro.sigrec.batch import BatchRecovery

        runner = BatchRecovery(tool=tool, workers=workers, cache_dir=cache_dir)
        bytecodes = [case.contract.bytecode for case in corpus.cases]
        batch_results = runner.recover_all(bytecodes)
        total_functions = max(
            1, sum(len(case.declared) for case in corpus.cases)
        )
        per_function = runner.stats.elapsed_seconds / total_functions
        for case, recovered_list in zip(corpus.cases, batch_results):
            recovered = {sig.selector: sig for sig in recovered_list}
            functions, correct = _append_case_outcomes(
                report, case, recovered, per_function
            )
            if observing:
                _record_case(metrics, functions, correct, elapsed=None)
        return report
    for case in corpus.cases:
        start = time.perf_counter()
        recovered = tool.recover_map(case.contract.bytecode)
        contract_elapsed = time.perf_counter() - start
        n_functions = max(1, len(case.declared))
        functions, correct = _append_case_outcomes(
            report, case, recovered, contract_elapsed / n_functions
        )
        if observing:
            _record_case(metrics, functions, correct, contract_elapsed)
    return report


def _record_case(
    metrics, functions: int, correct: int, elapsed: Optional[float]
) -> None:
    """One contract's evaluation outcome, as counters."""
    metrics.counter("eval.contracts").inc()
    metrics.counter("eval.functions").inc(functions)
    metrics.counter("eval.correct").inc(correct)
    if elapsed is not None:
        metrics.histogram("eval.contract_seconds").observe(elapsed)


def _append_case_outcomes(
    report: EvalReport, case, recovered: Dict[int, object], per_function: float
) -> "Tuple[int, int]":
    """Append one case's outcomes; returns (functions, correct)."""
    functions = correct = 0
    for sig, quirk in zip(case.declared, case.quirks):
        selector = int.from_bytes(sig.selector, "big")
        got = recovered.get(selector)
        outcome = FunctionOutcome(
            selector=selector,
            declared=sig.param_list(),
            recovered=got.param_list if got is not None else None,
            quirk=quirk,
            version_key=case.options.version_key,
            elapsed_seconds=per_function,
        )
        report.outcomes.append(outcome)
        functions += 1
        correct += outcome.correct
    return functions, correct
