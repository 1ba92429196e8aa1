"""Run-ledger tests: storage modes, queries, and recovery integration."""

import importlib
import json

import pytest

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.obs import MetricsRegistry, RunLedger
from repro.obs.ledger import (
    phase_delta,
    read_ledger,
    summarize,
    top_by_elapsed,
)
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery


def _bytecode(*sigs):
    return compile_contract(
        [FunctionSignature.parse(s) for s in sigs]
    ).bytecode


# ----------------------------------------------------------------------
# Storage modes
# ----------------------------------------------------------------------


def test_in_memory_ledger_accumulates_records():
    ledger = RunLedger()
    ledger.append({"strategy": "sharded"})
    ledger.extend([{"strategy": "cached"}, {"strategy": "monolithic"}])
    records = ledger.all_records()
    assert len(records) == 3
    assert ledger.written == 3
    # A schema field is stamped on every record.
    assert all(record["schema"] == 1 for record in records)
    # all_records returns a copy, not the live list.
    records.append({"bogus": True})
    assert len(ledger.all_records()) == 3


def test_file_ledger_round_trips(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    # A numbered file beside the ledger is not part of it.
    with open(path + ".1", "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"index": -1}) + "\n")
    ledger = RunLedger(path)
    for index in range(5):
        ledger.append({"index": index})
    records = read_ledger(path)
    assert [record["index"] for record in records] == list(range(5))
    assert ledger.all_records() == records


def test_read_ledger_skips_truncated_final_line(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    ledger = RunLedger(path)
    ledger.append({"index": 0})
    ledger.append({"index": 1})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"index": 2, "truncat')  # died mid-write
    records = read_ledger(path)
    assert [record["index"] for record in records] == [0, 1]


def test_ledger_takes_only_a_path(tmp_path):
    with pytest.raises(TypeError):
        RunLedger(str(tmp_path / "ledger.jsonl"), max_bytes=200)


@pytest.mark.parametrize(
    "module", ["repro.obs.httpexp", "repro.obs.prom", "repro.obs.profiler"]
)
def test_no_telemetry_endpoint_or_exposition_module(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


# ----------------------------------------------------------------------
# Query API
# ----------------------------------------------------------------------


_RECORDS = [
    {"strategy": "sharded", "tier": "cold", "elapsed_seconds": 0.5,
     "phases": {"tase": 0.4, "inference": 0.1},
     "tase": {"truncated_paths": False, "truncated_steps": False}},
    {"strategy": "sharded", "tier": "memo", "elapsed_seconds": 0.1,
     "phases": {"tase": 0.01, "inference": 0.05},
     "tase": {"truncated_paths": True, "truncated_steps": False}},
    {"strategy": "cached", "tier": "result-cache", "elapsed_seconds": 0.0,
     "phases": {}},
]


def test_top_by_elapsed_ranks_slowest_first():
    top = top_by_elapsed(_RECORDS, n=2)
    assert [record["elapsed_seconds"] for record in top] == [0.5, 0.1]


def test_summarize_aggregates():
    summary = summarize(_RECORDS)
    assert summary["records"] == 3
    assert summary["strategies"] == {"cached": 1, "sharded": 2}
    assert summary["tiers"] == {
        "cold": 1, "memo": 1, "result-cache": 1
    }
    assert summary["truncated"] == 1
    assert summary["phase_seconds"]["tase"] == pytest.approx(0.41)


def test_phase_delta_positive_only():
    assert phase_delta(
        {"tase": 1.0, "gone": 2.0}, {"tase": 1.5, "new": 0.25, "gone": 2.0}
    ) == {"tase": pytest.approx(0.5), "new": pytest.approx(0.25)}


# ----------------------------------------------------------------------
# SigRec integration
# ----------------------------------------------------------------------


def test_recover_appends_one_record_per_call():
    ledger = RunLedger()
    tool = SigRec(ledger=ledger)
    code = _bytecode("transfer(address,uint256)", "balanceOf(address)")
    recovered = tool.recover(code)
    (record,) = ledger.all_records()
    assert record["functions"] == len(recovered) == 2
    assert record["strategy"] == tool.last_strategy
    assert record["tier"] == "cold"
    assert "partial" not in record
    assert record["bytes"] == len(code)
    assert len(record["code_sha256"]) == 64
    assert record["memo"] == {"hits": 0, "misses": 0}
    assert record["tase"]["steps"] > 0
    assert record["elapsed_seconds"] > 0
    # Phase attribution covers the whole pipeline.
    for phase in ("disasm", "static_analysis", "tase", "inference"):
        assert record["phases"][phase] >= 0


def test_ledger_auto_creates_a_real_registry():
    tool = SigRec(ledger=RunLedger())
    assert isinstance(tool.metrics, MetricsRegistry)
    assert tool.metrics.to_dict()["counters"] == {}


def test_ledger_does_not_perturb_options_fingerprint():
    assert SigRec(ledger=RunLedger()).options() == SigRec().options()


def test_second_recover_hits_the_memo_tier(tmp_path):
    ledger = RunLedger()
    tool = SigRec(ledger=ledger, memo=True, memo_dir=str(tmp_path))
    code = _bytecode("transfer(address,uint256)")
    tool.recover(code)
    tool.recover(code)
    first, second = ledger.all_records()
    assert first["tier"] == "cold"
    assert second["tier"] == "memo"
    assert second["memo"]["hits"] == 1


def test_ledger_phase_seconds_reconcile_with_histograms():
    registry = MetricsRegistry()
    ledger = RunLedger()
    tool = SigRec(metrics=registry, ledger=ledger)
    for code in (
        _bytecode("a(uint256)", "b(address,bool)"),
        _bytecode("c(bytes)"),
    ):
        tool.recover(code)
    summed = summarize(ledger.all_records())["phase_seconds"]
    histograms = registry.histogram_sums("phase.seconds", "phase")
    for phase, (total, _count) in histograms.items():
        assert summed.get(phase, 0.0) == pytest.approx(total, rel=1e-6,
                                                       abs=1e-9)


# ----------------------------------------------------------------------
# Batch integration
# ----------------------------------------------------------------------


def _corpus():
    unique = [
        _bytecode("transfer(address,uint256)", "balanceOf(address)"),
        _bytecode("approve(address,uint256)"),
        _bytecode("mint(address,uint256)", "burn(uint256)"),
    ]
    return unique + [unique[0]]  # one duplicate


def _batch_records(workers):
    ledger = RunLedger()
    # The inference memo is off: its hit pattern (and with it the
    # ledger tier) legitimately depends on how units land on workers —
    # transfer/approve/mint share one parameter shape — and these
    # tests assert worker-count-independent records.
    runner = BatchRecovery(
        tool=SigRec(ledger=ledger, inference_memo=False), workers=workers
    )
    runner.recover_all(_corpus())
    return ledger.all_records()


def test_batch_serial_and_parallel_ledgers_agree():
    serial = _batch_records(0)
    parallel = _batch_records(2)
    assert len(serial) == len(parallel) == 3  # deduped corpus
    for left, right in zip(serial, parallel):
        for field in ("code_sha256", "strategy", "tier", "functions", "job"):
            assert left[field] == right[field]
        assert "unit" not in left and "unit" not in right


def test_batch_cache_hits_record_the_result_cache_tier(tmp_path):
    cache_dir = str(tmp_path / "cache")
    corpus = _corpus()
    cold = RunLedger()
    BatchRecovery(
        tool=SigRec(ledger=cold, inference_memo=False),
        workers=0, cache_dir=cache_dir,
    ).recover_all(corpus)
    assert {record["tier"] for record in cold.all_records()} == {"cold"}
    warm = RunLedger()
    BatchRecovery(
        tool=SigRec(ledger=warm, inference_memo=False),
        workers=0, cache_dir=cache_dir,
    ).recover_all(corpus)
    records = warm.all_records()
    assert len(records) == 3
    assert {record["tier"] for record in records} == {"result-cache"}
    assert {record["strategy"] for record in records} == {"cached"}
    assert all(record["elapsed_seconds"] == 0.0 for record in records)


def test_batch_file_ledger_is_json_parseable(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    runner = BatchRecovery(tool=SigRec(ledger=RunLedger(path)), workers=0)
    runner.recover_all(_corpus())
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    assert len(lines) == 3
    assert all("code_sha256" in record for record in lines)
