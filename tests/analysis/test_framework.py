"""The analysis pass manager: wiring, validation, versions, observability."""

import pytest

from repro.abi.signature import FunctionSignature
from repro.analysis import analyze
from repro.analysis import framework
from repro.analysis.framework import (
    DEFAULT_PIPELINE,
    AnalysisContext,
    AnalysisPass,
    AnalysisPipeline,
    PipelineError,
    pass_versions,
)
from repro.compiler import compile_contract
from repro.corpus.datasets import (
    build_closed_source_corpus,
    build_obfuscated_corpus,
    build_vyper_corpus,
)
from repro.obs import MetricsRegistry
from repro.sigrec.api import SigRec


def _code(signature="f(uint8)"):
    return compile_contract([FunctionSignature.parse(signature)]).bytecode


def test_default_pipeline_runs_all_passes():
    context = DEFAULT_PIPELINE.run(_code())
    assert DEFAULT_PIPELINE.names() == (
        "cfg", "jumps", "stack", "dispatcher", "reach",
        "storage", "mutability", "returns", "lint",
    )
    for name in DEFAULT_PIPELINE.names():
        assert name in context
    assert context["jumps"].blocks


def test_products_shared_not_recomputed():
    calls = []

    def provider(ctx):
        calls.append("base")
        return 41

    def consumer_a(ctx):
        return ctx["base"] + 1

    def consumer_b(ctx):
        return ctx["base"] + 2

    pipeline = AnalysisPipeline((
        AnalysisPass("base", 1, provider),
        AnalysisPass("a", 1, consumer_a, requires=("base",)),
        AnalysisPass("b", 1, consumer_b, requires=("base",)),
    ))
    context = pipeline.run(b"")
    assert calls == ["base"]
    assert context["a"] == 42 and context["b"] == 43


def test_duplicate_pass_name_rejected():
    p = AnalysisPass("x", 1, lambda ctx: None)
    with pytest.raises(PipelineError, match="duplicate"):
        AnalysisPipeline((p, p))


def test_unsatisfied_requirement_rejected():
    with pytest.raises(PipelineError, match="requires 'missing'"):
        AnalysisPipeline((
            AnalysisPass("x", 1, lambda ctx: None, requires=("missing",)),
        ))


def test_requirement_ordering_rejected():
    early = AnalysisPass("late_user", 1, lambda ctx: None, requires=("late",))
    late = AnalysisPass("late", 1, lambda ctx: None)
    with pytest.raises(PipelineError):
        AnalysisPipeline((early, late))
    AnalysisPipeline((late, early))  # the valid order constructs fine


def test_missing_product_raises_helpfully():
    context = AnalysisContext(b"")
    with pytest.raises(KeyError, match="not available"):
        context["nothing"]


def test_replace_swaps_one_pass():
    bumped = DEFAULT_PIPELINE.replace(
        storage=AnalysisPass(
            "storage", 7, framework._run_storage,
            requires=("jumps", "dispatcher"),
        )
    )
    assert bumped.versions()["storage"] == 7
    assert bumped.versions()["cfg"] == DEFAULT_PIPELINE.versions()["cfg"]
    with pytest.raises(PipelineError, match="no such pass"):
        DEFAULT_PIPELINE.replace(nope=AnalysisPass("nope", 1, lambda c: None))


def test_pass_versions_follow_monkeypatched_pipeline(monkeypatch):
    bumped = DEFAULT_PIPELINE.replace(
        lint=AnalysisPass(
            "lint", 9, framework._run_lint,
            requires=("jumps", "stack", "dispatcher", "storage"),
        )
    )
    monkeypatch.setattr(framework, "DEFAULT_PIPELINE", bumped)
    assert pass_versions()["lint"] == 9


def _pass_runs(metrics):
    return {
        key[len("analysis.pass_runs{pass="):-1]: value
        for key, value in metrics.counter_values().items()
        if key.startswith("analysis.pass_runs{")
    }


def test_entry_points_pull_only_the_passes_they_read():
    """recover runs cfg/dispatcher; abi adds the ABI passes;
    profile adds the rest — and the shared context never reruns one."""
    metrics = MetricsRegistry()
    tool = SigRec(metrics=metrics)
    code = _code("f(uint8,bytes)")
    signatures = tool.recover(code)
    assert _pass_runs(metrics) == {"cfg": 1, "dispatcher": 1}
    tool.abi(code, signatures)
    assert _pass_runs(metrics) == {
        "cfg": 1, "jumps": 1, "dispatcher": 1,
        "reach": 1, "mutability": 1, "returns": 1,
    }
    tool.profile(code, signatures)
    everything_once = dict.fromkeys(DEFAULT_PIPELINE.names(), 1)
    assert _pass_runs(metrics) == everything_once
    tool.recover(code)
    tool.abi(code, signatures)
    tool.profile(code, signatures)
    assert _pass_runs(metrics) == everything_once


def _sample_codes():
    return [
        case.contract.bytecode
        for corpus in (
            build_closed_source_corpus(n_contracts=25, seed=2),
            build_vyper_corpus(n_contracts=10, seed=4),
            build_obfuscated_corpus(n_contracts=10, seed=9),
        )
        for case in corpus.cases
    ]


def test_outputs_do_not_depend_on_product_access_order():
    """On-demand products equal products forced up front: no pass reads
    anything that depends on which other products already exist."""
    for code in _sample_codes():
        lazy = SigRec()
        signatures = lazy.recover(code)
        lazy_abi = lazy.abi(code, signatures)
        lazy_profile = lazy.profile(code, signatures).to_json()

        forced = SigRec()
        forced._analyze(code).context.pull(*DEFAULT_PIPELINE.names())
        forced_signatures = forced.recover(code)
        assert forced.profile(code, forced_signatures).to_json() == (
            lazy_profile
        )
        assert forced.abi(code, forced_signatures) == lazy_abi


def test_analyze_default_carries_storage_and_lint():
    analysis = analyze(_code())
    assert analysis.storage is not None
    assert analysis.lint_findings is not None
    assert analysis.reach is not None
    assert analysis.mutability is not None
    assert analysis.returns is not None


def test_pass_spans_and_counters_when_observing():
    metrics = MetricsRegistry()
    DEFAULT_PIPELINE.run(_code(), metrics=metrics)
    phases = metrics.histogram_sums("phase.seconds", "phase")
    for name in DEFAULT_PIPELINE.names():
        assert phases[f"analysis.{name}"][1] == 1, name
    runs = metrics.counter("analysis.pass_runs", **{"pass": "storage"}).value
    assert runs == 1
