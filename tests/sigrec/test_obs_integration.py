"""Observability wiring across engine, API, cache, and batch layers."""

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery
from repro.sigrec.cache import ResultCache
from repro.sigrec.engine import TASEEngine
from tests.sigrec.test_strategy import _pass_runs


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
    tool = SigRec(metrics=registry)
    recovered = tool.recover(code)
    assert recovered
    values = registry.counter_values()
    assert values["recover.calls"] == 1
    assert values["recover.functions"] == len(recovered)
    assert any(key.startswith("rules.fired{rule=") for key in values)
    # One (seconds, samples) per phase, taken only at phase boundaries.
    # recover encloses the others, so their seconds fit inside its own.
    phases = registry.histogram_sums("phase.seconds", "phase")
    for phase in ("recover", "static_analysis", "tase", "inference"):
        assert phases[phase][1] == 1, phase
    inner = sum(
        phases[phase][0] for phase in ("static_analysis", "tase", "inference")
    )
    assert inner <= phases["recover"][0]


def test_passes_pulled_after_recover_nest_under_static_analysis(monkeypatch):
    """recover() pulls exactly cfg and dispatcher — none when it
    neither shards nor cross-checks; profile() runs storage long after
    recover(), and it must still be timed inside a static_analysis
    phase, one of the top-level phases ``repro report`` attributes
    shares to."""
    import repro.obs as obs
    from repro.obs.report import _TOP_PHASES

    code = _bytecode("a(uint8)", "b(bool)")
    core = {"cfg": 1, "dispatcher": 1}
    for options, pulled in (
        ({}, core),
        ({"static_check": False}, {}),
    ):
        registry = MetricsRegistry()
        SigRec(metrics=registry, **options).recover(code)
        assert _pass_runs(registry) == pulled, options

    registry = MetricsRegistry()
    tool = SigRec(metrics=registry)
    signatures = tool.recover(code)
    assert _pass_runs(registry) == core

    open_phases = []
    around_storage = []

    class _OpenPhases(obs._PhaseSpan):
        def __enter__(self):
            if self._phase == "analysis.storage":
                around_storage.append(tuple(open_phases))
            open_phases.append(self._phase)
            return super().__enter__()

        def __exit__(self, exc_type, exc, tb):
            open_phases.pop()
            super().__exit__(exc_type, exc, tb)

    monkeypatch.setattr(obs, "_PhaseSpan", _OpenPhases)
    tool.profile(code, signatures)
    assert around_storage == [("static_analysis",)]
    assert "static_analysis" in _TOP_PHASES


def test_null_registry_recover_builds_no_phase_span(monkeypatch):
    import repro.obs as obs

    def refuse(*args, **kwargs):
        raise AssertionError("a phase span was built for the null registry")

    monkeypatch.setattr(obs, "_PhaseSpan", refuse)
    assert SigRec().recover(_bytecode("a(uint8)", "b(bool)"))


def test_metrics_do_not_perturb_options_fingerprint():
    plain = SigRec()
    instrumented = SigRec(metrics=MetricsRegistry())
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
