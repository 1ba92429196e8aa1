"""Prometheus text exposition of a metrics document."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import _parse_sample, render_prometheus, validate_exposition


def _sample_doc():
    registry = MetricsRegistry()
    registry.counter("tase.runs").inc(4)
    registry.counter("tase.paths").inc(40)
    registry.counter("tase.steps").inc(4000)
    registry.counter("tase.forks").inc(30)
    registry.counter("tase.truncations", reason="max_paths").inc(2)
    registry.counter("recover.calls").inc(4)
    registry.counter("recover.functions").inc(9)
    registry.counter("rules.fired", rule="R4").inc(9)
    registry.counter("rules.fired", rule="R11").inc(3)
    registry.counter("rules.conflicts", rule="R15").inc(2)
    registry.counter("cache.hits").inc(3)
    registry.counter("cache.misses").inc(1)
    registry.counter("cache.invalidations").inc(1)
    registry.counter("eval.contracts").inc(4)
    registry.counter("eval.functions").inc(9)
    registry.counter("eval.correct").inc(8)
    registry.histogram("phase.seconds", phase="tase").observe(0.3)
    registry.histogram("phase.seconds", phase="inference").observe(0.1)
    return registry.to_dict()


def test_prometheus_exposition_shape():
    registry = MetricsRegistry()
    registry.counter("cache.hits").inc(3)
    registry.counter("rules.fired", rule="R4").inc(2)
    histogram = registry.histogram("phase.seconds", phase="tase", buckets=(0.5, 1.0))
    histogram.observe(0.2)
    histogram.observe(2.0)
    text = render_prometheus(registry)
    assert "# TYPE cache_hits counter" in text
    assert "cache_hits 3" in text
    assert 'rules_fired{rule="R4"} 2' in text
    assert "# TYPE phase_seconds histogram" in text
    assert 'phase_seconds_bucket{phase="tase",le="0.5"} 1' in text
    assert 'phase_seconds_bucket{phase="tase",le="1.0"} 1' in text
    assert 'phase_seconds_bucket{phase="tase",le="+Inf"} 2' in text
    assert 'phase_seconds_count{phase="tase"} 2' in text
    # Renders identically from the serialized document.
    assert render_prometheus(registry.to_dict()) == text


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("c", tag='quo"te').inc()
    text = render_prometheus(registry)
    assert 'tag="quo\\"te"' in text


def test_prometheus_escapes_backslash_quote_and_newline():
    registry = MetricsRegistry()
    registry.counter("c", tag="back\\slash").inc()
    registry.counter("d", tag="multi\nline").inc()
    text = render_prometheus(registry)
    assert 'tag="back\\\\slash"' in text
    assert 'tag="multi\\nline"' in text
    # The escaped newline keeps the exposition one-sample-per-line.
    assert all(" 1" in line for line in text.splitlines() if line[0] != "#")
    assert validate_exposition(text) == []
    # Backslash and quote escapes round-trip through the parser.
    name, labels, value = _parse_sample('c{tag="back\\\\sl\\"ash"} 4')
    assert (name, labels, value) == ("c", {"tag": 'back\\sl"ash'}, 4.0)


def test_prometheus_renders_non_finite_histogram_sums():
    registry = MetricsRegistry()
    registry.histogram("h_nan").observe(float("nan"))
    registry.histogram("h_pos").observe(float("inf"))
    registry.histogram("h_neg").observe(float("-inf"))
    text = render_prometheus(registry)
    assert "h_nan_sum NaN" in text
    assert "h_pos_sum +Inf" in text
    assert "h_neg_sum -Inf" in text
    # The spellings are the ones a scraper's float() accepts.
    assert validate_exposition(text) == []


def test_validate_exposition_accepts_renderer_output():
    assert validate_exposition(render_prometheus(_sample_doc())) == []
    assert validate_exposition("") == []


def test_validate_exposition_flags_structural_breakage():
    assert validate_exposition("bad-name 1\n")
    assert validate_exposition("# TYPE x teapot\nx 1\n")
    assert validate_exposition("x nope\n")
    non_monotone = (
        '# TYPE h histogram\n'
        'h_bucket{le="0.5"} 3\n'
        'h_bucket{le="1.0"} 2\n'
        'h_bucket{le="+Inf"} 3\n'
        "h_count 3\n"
    )
    assert any("not cumulative" in e for e in validate_exposition(non_monotone))
    no_inf = '# TYPE h histogram\nh_bucket{le="0.5"} 1\nh_count 1\n'
    assert any("+Inf" in e for e in validate_exposition(no_inf))
    mismatch = (
        '# TYPE h histogram\n'
        'h_bucket{le="+Inf"} 2\n'
        "h_count 3\n"
    )
    assert any("_count" in e for e in validate_exposition(mismatch))
