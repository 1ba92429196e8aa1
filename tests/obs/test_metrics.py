"""Metrics registry: instruments, keys, serialization, merging, null."""

import json
import multiprocessing

import pytest

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    dump_metrics,
    load_metrics,
    metric_key,
    parse_key,
)


def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.counter("a").inc(4)
    assert registry.counter("a").value == 5
    # There is no gauge instrument (older documents: see below).
    assert not hasattr(registry, "gauge")


def test_metric_key_is_label_order_stable():
    assert metric_key("x", {}) == "x"
    assert metric_key("x", {"b": 1, "a": 2}) == "x{a=2,b=1}"
    assert parse_key("x{a=2,b=1}") == ("x", {"a": "2", "b": "1"})
    assert parse_key("plain") == ("plain", {})


def test_labelled_counters_are_distinct_series():
    registry = MetricsRegistry()
    registry.counter("rules.fired", rule="R4").inc(3)
    registry.counter("rules.fired", rule="R11").inc()
    values = registry.counter_values()
    assert values["rules.fired{rule=R4}"] == 3
    assert values["rules.fired{rule=R11}"] == 1


def test_histogram_buckets_and_mean():
    histogram = Histogram(bounds=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        histogram.observe(value)
    assert histogram.bucket_counts == [1, 2, 1]  # <=0.1, <=1.0, overflow
    assert histogram.count == 4
    assert abs(histogram.mean - (0.05 + 0.5 + 0.5 + 5.0) / 4) < 1e-12


def test_histogram_boundary_value_lands_in_its_bucket():
    histogram = Histogram(bounds=(1.0, 2.0))
    histogram.observe(1.0)
    assert histogram.bucket_counts == [1, 0, 0]


def test_round_trip_and_merge():
    a = MetricsRegistry()
    a.counter("c").inc(2)
    a.histogram("h", buckets=(0.5, 1.5)).observe(1.0)
    b = MetricsRegistry.from_dict(a.to_dict())
    b.merge(a)  # registry merge, not just document merge
    assert b.counter("c").value == 4
    assert b.histogram("h", buckets=(0.5, 1.5)).count == 2
    # Serialized documents stay JSON-clean.
    json.dumps(b.to_dict())


def test_older_document_with_gauges_still_loads_and_merges(tmp_path):
    # Documents written before gauges were removed carry a ``gauges``
    # section; reading and merging them keeps everything else.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "schema": 1,
        "counters": {"batch.units": 31},
        "gauges": {"batch.queue_peak": 31.0, "batch.steals": 4.0},
        "histograms": {},
    }))
    doc = load_metrics(str(path))
    assert doc is not None and doc["counters"] == {"batch.units": 31}
    registry = MetricsRegistry.from_dict(doc)
    registry.merge(doc)
    assert registry.counter("batch.units").value == 62
    assert "gauges" not in registry.to_dict()
    run = MetricsRegistry()
    run.counter("batch.units").inc(9)
    merged = dump_metrics(run, str(path))
    assert merged["counters"] == {"batch.units": 40}
    assert "gauges" not in merged
    assert "gauges" not in json.loads(path.read_text())


def test_merge_rejects_mismatched_histogram_bounds():
    a = MetricsRegistry()
    a.histogram("h", buckets=(0.5,)).observe(0.1)
    b = MetricsRegistry()
    b.histogram("h", buckets=(0.9,)).observe(0.1)
    with pytest.raises(ValueError):
        a.merge(b)


def test_null_registry_swallows_everything():
    NULL_REGISTRY.counter("x", rule="R4").inc(10)
    NULL_REGISTRY.histogram("z").observe(0.2)
    doc = NULL_REGISTRY.to_dict()
    assert doc["counters"] == {}
    assert doc["histograms"] == {}
    # Null instruments are shared singletons: creation allocates nothing.
    assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")


def test_dump_metrics_accumulates_across_runs(tmp_path):
    path = str(tmp_path / "m.json")
    cold = MetricsRegistry()
    cold.counter("cache.misses").inc(5)
    dump_metrics(cold, path)
    warm = MetricsRegistry()
    warm.counter("cache.hits").inc(5)
    doc = dump_metrics(warm, path)
    assert doc["counters"] == {"cache.hits": 5, "cache.misses": 5}
    assert load_metrics(path)["counters"]["cache.misses"] == 5


def test_dump_metrics_without_merge_overwrites(tmp_path):
    path = str(tmp_path / "m.json")
    first = MetricsRegistry()
    first.counter("c").inc()
    dump_metrics(first, path)
    second = MetricsRegistry()
    second.counter("d").inc()
    doc = dump_metrics(second, path, merge_existing=False)
    assert doc["counters"] == {"d": 1}


def test_load_metrics_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    assert load_metrics(str(path)) is None
    path.write_text(json.dumps([1, 2, 3]))
    assert load_metrics(str(path)) is None
    assert load_metrics(str(tmp_path / "absent.json")) is None


def test_default_buckets_are_sorted():
    assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)


def test_histogram_sums_extracts_one_label_family():
    registry = MetricsRegistry()
    registry.histogram("phase.seconds", phase="tase").observe(0.3)
    registry.histogram("phase.seconds", phase="tase").observe(0.2)
    registry.histogram("phase.seconds", phase="disasm").observe(0.01)
    registry.histogram("other.seconds", phase="tase").observe(9.0)
    sums = registry.histogram_sums("phase.seconds", "phase")
    assert sums["tase"] == (pytest.approx(0.5), 2)
    assert sums["disasm"] == (pytest.approx(0.01), 1)
    assert set(sums) == {"tase", "disasm"}


def _dump_worker(args):
    # Module-level so the pool can pickle it.
    path, rounds = args
    for _ in range(rounds):
        registry = MetricsRegistry()
        registry.counter("race.total").inc()
        dump_metrics(registry, path)
    return rounds


def test_dump_metrics_merge_is_atomic_across_processes(tmp_path):
    path = str(tmp_path / "m.json")
    workers, rounds = 4, 25
    with multiprocessing.Pool(workers) as pool:
        done = pool.map(_dump_worker, [(path, rounds)] * workers)
    assert done == [rounds] * workers
    # Without the advisory lock concurrent read-merge-replace cycles
    # lose increments; with it the final count is exact.
    assert load_metrics(path)["counters"]["race.total"] == workers * rounds
