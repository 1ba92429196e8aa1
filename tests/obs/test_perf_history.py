"""Perf-trajectory bookkeeping: snapshots and the regression gate."""

import json

import pytest

from repro.obs import perfhistory


def _write_bench(tmp_path, tase=250_000.0, memo=1.6, batch=7_500.0):
    doc = {
        "schema": "sigrec-bench:v1",
        "tase": {"steps_per_second": tase},
        "sharded_memo": {"speedup": memo},
        "throughput": {"contracts_per_second": batch},
    }
    path = tmp_path / "BENCH_throughput.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_append_assigns_monotonic_sequence_numbers(tmp_path):
    bench = _write_bench(tmp_path)
    history = str(tmp_path / "history")
    first = perfhistory.append_snapshot(bench, history, calibration=1e6)
    second = perfhistory.append_snapshot(
        bench, history, note="second", calibration=1e6
    )
    assert first.endswith("0001.json")
    assert second.endswith("0002.json")
    entries = perfhistory.history_entries(history)
    assert [seq for seq, _ in entries] == [1, 2]
    assert entries[1][1]["note"] == "second"
    assert entries[1][1]["bench"]["tase"]["steps_per_second"] == 250_000.0


def test_check_passes_when_rates_hold(tmp_path):
    bench = _write_bench(tmp_path)
    history = str(tmp_path / "history")
    perfhistory.append_snapshot(bench, history, calibration=1e6)
    failures = perfhistory.check_regression(bench, history, calibration=1e6)
    assert failures == []


def test_check_flags_each_regressing_tier(tmp_path):
    history = str(tmp_path / "history")
    perfhistory.append_snapshot(
        _write_bench(tmp_path), history, calibration=1e6
    )
    # 30% slower TASE and batch, memo speedup collapsed to 1.0.
    current = _write_bench(
        tmp_path, tase=175_000.0, memo=1.0, batch=5_250.0
    )
    failures = perfhistory.check_regression(current, history, calibration=1e6)
    assert len(failures) == 3
    assert any("tase.steps_per_second" in f for f in failures)
    assert any("sharded_memo.speedup" in f for f in failures)
    assert any("throughput.contracts_per_second" in f for f in failures)


def test_check_normalizes_rates_by_calibration(tmp_path):
    """A slower machine (half calibration, half measured rate) is fine,
    but the dimensionless memo speedup must hold absolutely."""
    history = str(tmp_path / "history")
    perfhistory.append_snapshot(
        _write_bench(tmp_path), history, calibration=2e6
    )
    halved = _write_bench(tmp_path, tase=125_000.0, memo=1.6, batch=3_750.0)
    assert perfhistory.check_regression(halved, history, calibration=1e6) == []
    # The same absolute drop WITHOUT the calibration excuse fails.
    failures = perfhistory.check_regression(halved, history, calibration=2e6)
    assert len(failures) == 2


def test_check_skips_missing_tiers_and_empty_history(tmp_path):
    bench = _write_bench(tmp_path)
    history = str(tmp_path / "history")
    assert perfhistory.check_regression(bench, history, calibration=1e6) == []
    # Previous entry predates the tase section: that tier is skipped.
    old = {"schema": "sigrec-bench:v1", "sharded_memo": {"speedup": 1.6}}
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(old))
    perfhistory.append_snapshot(str(old_path), history, calibration=1e6)
    failures = perfhistory.check_regression(bench, history, calibration=1e6)
    assert failures == []


def test_threshold_is_respected(tmp_path):
    history = str(tmp_path / "history")
    perfhistory.append_snapshot(
        _write_bench(tmp_path), history, calibration=1e6
    )
    # 15% drop: inside the default 20% budget, outside a 10% one.
    current = _write_bench(tmp_path, tase=212_500.0)
    assert perfhistory.check_regression(current, history, calibration=1e6) == []
    failures = perfhistory.check_regression(
        current, history, threshold=0.10, calibration=1e6
    )
    assert len(failures) == 1 and "tase.steps_per_second" in failures[0]


def test_calibrate_returns_positive_rate():
    assert perfhistory.calibrate(rounds=1) > 0


def test_cli_append_then_check(tmp_path, capsys, monkeypatch):
    # append and check each take a live calibration; a core changing
    # speed between the two would read as a regression of unchanged
    # numbers.  Calibration normalisation has its own test above.
    monkeypatch.setattr(perfhistory, "calibrate", lambda rounds=5: 1e6)
    root = tmp_path
    (root / "benchmarks").mkdir()
    _write_bench(root)
    assert perfhistory.main(["append", "initial"], repo_root=str(root)) == 0
    assert perfhistory.main(["check"], repo_root=str(root)) == 0
    out = capsys.readouterr().out
    assert "0001.json" in out and "perf trajectory OK" in out
    assert perfhistory.main(["bogus"], repo_root=str(root)) == 2


def test_cli_check_reports_regression(tmp_path, capsys):
    root = tmp_path
    (root / "benchmarks").mkdir()
    _write_bench(root)
    assert perfhistory.main(["append"], repo_root=str(root)) == 0
    _write_bench(root, memo=1.0)
    assert perfhistory.main(["check"], repo_root=str(root)) == 1
    assert "PERF REGRESSION" in capsys.readouterr().out


@pytest.mark.parametrize("section,key", [(s, k) for s, k, _ in perfhistory.TIERS])
def test_tracked_tiers_exist_in_committed_bench(section, key):
    """The committed BENCH document carries every tracked tier, so the
    CI check is never vacuously green."""
    import os

    repo_root = os.path.join(os.path.dirname(__file__), "..", "..")
    with open(os.path.join(repo_root, "BENCH_throughput.json")) as handle:
        doc = json.load(handle)
    assert key in doc[section]
