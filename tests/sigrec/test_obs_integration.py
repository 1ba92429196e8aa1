"""Observability wiring across engine, API, cache, and batch layers."""

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.obs import NULL_REGISTRY, MetricsRegistry, SpanTracer
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery
from repro.sigrec.cache import ResultCache
from repro.sigrec.engine import TASEEngine


def _bytecode(*sigs):
    parsed = [FunctionSignature.parse(s) for s in sigs]
    return compile_contract(parsed).bytecode


def test_engine_publishes_run_counters():
    code = _bytecode("a(uint8)", "b(address,uint256)")
    registry = MetricsRegistry()
    result = TASEEngine(code, metrics=registry).run()
    values = registry.counter_values()
    assert values["tase.runs"] == 1
    assert values["tase.steps"] == result.total_steps > 0
    assert values["tase.paths"] == result.paths_explored > 0
    assert values["tase.functions"] == len(result.selectors) == 2
    assert "tase.truncations{reason=max_paths}" not in values


def test_engine_without_registry_publishes_nothing():
    code = _bytecode("a(uint8)")
    engine = TASEEngine(code)
    assert engine.metrics is NULL_REGISTRY
    engine.run()
    assert NULL_REGISTRY.to_dict()["counters"] == {}


def test_recover_emits_phase_spans_and_rule_counters():
    code = _bytecode("a(uint8)", "b(bool)")
    registry = MetricsRegistry()
    tracer = SpanTracer()
    tool = SigRec(metrics=registry, tracer=tracer)
    recovered = tool.recover(code)
    assert recovered
    values = registry.counter_values()
    assert values["recover.calls"] == 1
    assert values["recover.functions"] == len(recovered)
    assert any(key.startswith("rules.fired{rule=") for key in values)
    # Per-phase histograms, sampled only at phase boundaries.
    histogram_keys = set(registry.to_dict()["histograms"])
    for phase in ("recover", "static_analysis", "tase", "inference"):
        assert f"phase.seconds{{phase={phase}}}" in histogram_keys
    # The trace reconstructs the phase tree: recover is the root span.
    starts = [r for r in tracer.records if r["type"] == "span_start"]
    by_name = {r["name"]: r for r in starts}
    assert by_name["recover"]["parent"] is None
    for child in ("static_analysis", "tase", "inference"):
        assert by_name[child]["parent"] == by_name["recover"]["id"]


def test_passes_pulled_after_recover_nest_under_static_analysis():
    """recover() pulls exactly cfg and dispatcher — none when it
    neither shards nor cross-checks; profile() runs storage long after
    recover(), and its span must still sit inside a static_analysis
    phase span, one of the top-level phases ``repro report`` attributes
    shares to."""
    from repro.obs.report import _TOP_PHASES

    code = _bytecode("a(uint8)", "b(bool)")
    core = {"analysis.cfg", "analysis.dispatcher"}
    for options, pulled in (
        ({}, core),
        ({"static_check": False}, set()),
    ):
        tracer = SpanTracer()
        SigRec(tracer=tracer, **options).recover(code)
        names = {r["name"] for r in tracer.records if r["type"] == "span_start"}
        assert {n for n in names if n.startswith("analysis.")} == pulled, options

    tracer = SpanTracer()
    tool = SigRec(metrics=MetricsRegistry(), tracer=tracer)
    signatures = tool.recover(code)
    starts = [r for r in tracer.records if r["type"] == "span_start"]
    assert {
        r["name"] for r in starts if r["name"].startswith("analysis.")
    } == core
    tool.profile(code, signatures)
    starts = [r for r in tracer.records if r["type"] == "span_start"]
    by_id = {r["id"]: r for r in starts}
    storage = [r for r in starts if r["name"] == "analysis.storage"]
    assert len(storage) == 1
    phase = by_id[storage[0]["parent"]]
    assert phase["name"] == "static_analysis"
    assert phase["name"] in _TOP_PHASES
    assert phase["parent"] is None


def test_metrics_do_not_perturb_options_fingerprint():
    plain = SigRec()
    instrumented = SigRec(metrics=MetricsRegistry(), tracer=SpanTracer())
    assert plain.options() == instrumented.options()


def test_max_paths_truncation_is_metered_and_diagnosed():
    """Satellite: a tiny path cap must be visible, not silent."""
    code = _bytecode("a(uint8)", "b(bool)", "c(address)", "d(uint256)")
    registry = MetricsRegistry()
    tool = SigRec(max_paths=1, metrics=registry)
    tool.recover(code)
    values = registry.counter_values()
    assert values.get("tase.truncations{reason=max_paths}", 0) >= 1
    kinds = [d.kind for d in tool.last_diagnostics]
    assert "tase-truncated-paths" in kinds
    truncated = next(
        d for d in tool.last_diagnostics if d.kind == "tase-truncated-paths"
    )
    assert "max_paths=1" in truncated.detail

    # The same contract under the default cap runs clean.
    clean_tool = SigRec(metrics=MetricsRegistry())
    clean_tool.recover(code)
    assert "tase-truncated-paths" not in [
        d.kind for d in clean_tool.last_diagnostics
    ]


def test_cache_metrics_distinguish_miss_hit_invalidation(tmp_path):
    registry = MetricsRegistry()
    options = SigRec().options()
    cache = ResultCache(str(tmp_path), options, metrics=registry)
    code = _bytecode("a(uint8)")
    tool = SigRec()
    assert cache.get(code) is None  # absent -> miss
    cache.put(code, tool.recover(code), dict(tool.tracker.counts))
    assert cache.get(code) is not None  # hit
    # Corrupt the entry in place: present-but-unreadable -> invalidation.
    entry_path = cache._entry_path(code)
    with open(entry_path, "w", encoding="utf-8") as handle:
        handle.write("garbage")
    assert cache.get(code) is None
    values = registry.counter_values()
    assert values["cache.misses"] == 2
    assert values["cache.hits"] == 1
    assert values["cache.invalidations"] == 1
    assert values["cache.writes"] == 1


def _aggregate(workers):
    codes = [
        _bytecode("a(uint8)"),
        _bytecode("b(bool,address)"),
        _bytecode("c(uint256)", "d(bytes)"),
        _bytecode("a(uint8)"),  # duplicate: one job, counted once
    ]
    registry = MetricsRegistry()
    runner = BatchRecovery(tool=SigRec(metrics=registry), workers=workers)
    results = runner.recover_all(codes)
    return registry, [
        [sig.param_types for sig in contract] for contract in results
    ]


def test_parallel_batch_merges_worker_registries_exactly():
    """Satellite: pool-worker metrics aggregate identically to serial."""
    serial_registry, serial_results = _aggregate(workers=0)
    parallel_registry, parallel_results = _aggregate(workers=2)
    assert parallel_results == serial_results
    # Counters are additive and timing-free, so the merged parallel
    # document must equal the serial one exactly.  Histograms carry
    # wall-clock sums and are excluded by design.
    assert (
        parallel_registry.counter_values() == serial_registry.counter_values()
    )
    values = serial_registry.counter_values()
    assert values["batch.contracts"] == 4
    assert values["batch.unique"] == 3
    assert values["batch.analyzed"] == 3
    assert values["tase.runs"] == 3
    assert values["recover.calls"] == 3


def test_uninstrumented_batch_stays_silent():
    runner = BatchRecovery(tool=SigRec(), workers=0)
    runner.recover_all([_bytecode("a(uint8)")])
    assert runner.metrics is NULL_REGISTRY
    assert NULL_REGISTRY.to_dict()["counters"] == {}
