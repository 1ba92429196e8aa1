"""``repro report`` tests: sections, parity, rendering."""

import re

import pytest

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.obs import MetricsRegistry, RunLedger
from repro.obs.report import build_report, render_report
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery


def _bytecode(*sigs):
    return compile_contract(
        [FunctionSignature.parse(s) for s in sigs]
    ).bytecode


@pytest.fixture()
def run_sources():
    """One instrumented recovery run: (metrics doc, ledger records)."""
    registry = MetricsRegistry()
    ledger = RunLedger()
    tool = SigRec(metrics=registry, ledger=ledger)
    tool.recover(_bytecode("transfer(address,uint256)", "balanceOf(address)"))
    tool.recover(_bytecode("approve(address,uint256)"))
    return registry.to_dict(), ledger.all_records()


def test_phase_section_reproduces_histogram_seconds(run_sources):
    doc, records = run_sources
    report = build_report(metrics_doc=doc, ledger_records=records)
    phases = report["phases"]
    for key, payload in doc["histograms"].items():
        if not key.startswith("phase.seconds{"):
            continue
        phase = key[len("phase.seconds{phase="):-1]
        assert phases[phase]["seconds"] == pytest.approx(payload["sum"])
        assert phases[phase]["count"] == payload["count"]
    # Shares exist for the top-level pipeline phases only and sum to 1.
    shared = [p for p, entry in phases.items() if "share" in entry]
    assert sorted(shared) == [
        "disasm", "inference", "static_analysis", "tase",
    ]
    assert sum(phases[p]["share"] for p in shared) == pytest.approx(1.0)
    assert "share" not in phases["recover"]


def test_ledger_section_matches_summarize(run_sources):
    doc, records = run_sources
    report = build_report(metrics_doc=doc, ledger_records=records)
    assert report["ledger"]["records"] == 2
    # The acceptance cross-check: ledger phase sums reproduce the
    # registry's per-phase seconds within rounding.
    for phase, entry in report["phases"].items():
        assert report["ledger"]["phase_seconds"][phase] == pytest.approx(
            entry["seconds"], rel=1e-6, abs=1e-9
        )


def test_tier_section_hit_rates():
    doc = {
        "counters": {
            "cache.hits": 6, "cache.misses": 2,
            "memo.hits{tier=memory}": 3, "memo.hits{tier=disk}": 1,
            "memo.misses": 4,
        },
        "gauges": {}, "histograms": {},
    }
    tiers = build_report(metrics_doc=doc)["tiers"]
    assert tiers["result_cache"]["hit_rate"] == pytest.approx(0.75)
    assert tiers["function_memo"]["hit_rate"] == pytest.approx(0.5)
    empty = build_report(metrics_doc={"counters": {}})["tiers"]
    assert empty["result_cache"]["hit_rate"] is None


def test_report_ignores_hotspots_in_older_ledger_records():
    # Older ledgers carry a per-record ``hotspots`` list of (pc, steps);
    # a pc names a block only within one bytecode, so the report sums
    # no such table.
    records = [
        {"elapsed_seconds": 0.2, "hotspots": [[16, 100], [32, 50]]},
        {"elapsed_seconds": 0.1, "hotspots": [[16, 25]]},
    ]
    report = build_report(ledger_records=records)
    assert "hotspots" not in report
    assert report["ledger"]["records"] == 2
    assert "hot superblocks" not in render_report(report)


def test_slowest_section_names_the_dominant_phase():
    records = [
        {"code_sha256": "a" * 64, "elapsed_seconds": 2.0,
         "strategy": "sharded", "tier": "cold", "functions": 3,
         "phases": {"recover": 2.0, "tase": 1.5, "inference": 0.2}},
        {"code_sha256": "b" * 64, "elapsed_seconds": 0.5,
         "strategy": "cached", "tier": "result-cache", "functions": 1,
         "phases": {}},
    ]
    slowest = build_report(ledger_records=records)["slowest"]
    assert slowest[0]["code_sha256"] == "a" * 16
    assert slowest[0]["dominant_phase"] == "tase"  # not the outer span
    assert slowest[1]["dominant_phase"] is None


@pytest.mark.parametrize("workers", [0, 2])
def test_slowest_section_shows_each_units_phases_and_diagnostics(workers):
    # Each contract is one unit with one record, and max_paths=3
    # truncates the walks over the five- and two-selector contracts
    # only: a mix of records with and without a diagnostic.
    ledger = RunLedger()
    tool = SigRec(metrics=MetricsRegistry(), ledger=ledger, max_paths=3)
    runner = BatchRecovery(tool=tool, workers=workers)
    runner.recover_all([
        _bytecode("a(uint8)", "b(bool)", "c(address)", "d(uint256)",
                  "e(bytes)"),
        _bytecode("f(uint8)"),
        _bytecode("g(uint256[])", "h(string)"),
        _bytecode("k(bytes32)"),
    ])
    records = ledger.all_records()
    by_job = {r["job"]: r for r in records}
    assert len(by_job) == len(records) == 4

    report = build_report(ledger_records=records, top=len(records))
    slowest = report["slowest"]
    assert {e["job"] for e in slowest} == set(by_job)
    elapsed = [entry["elapsed_seconds"] for entry in slowest]
    assert elapsed == sorted(elapsed, reverse=True)
    for entry in slowest:
        record = by_job[entry["job"]]
        assert entry["phases"] and entry["phases"] == record["phases"]
        assert entry["diagnostics"] == record["diagnostics"]
    flagged = [entry for entry in slowest if entry["diagnostics"]]
    assert {entry["job"] for entry in flagged} == {0, 2}

    text = render_report(report, top=len(records))
    for entry in slowest:
        assert f"  job {entry['job']}  " in text
    assert " unit " not in text
    first = slowest[0]
    for phase, seconds in first["phases"].items():
        assert f"    {phase:<20} {seconds:.3f}s" in text
    diagnostic = flagged[0]["diagnostics"][0]
    assert diagnostic["kind"] == "tase-truncated-paths"
    assert f"    ! {diagnostic['kind']}: {diagnostic['detail']}" in text


def test_render_report_has_every_section(run_sources):
    doc, records = run_sources
    text = render_report(build_report(metrics_doc=doc, ledger_records=records))
    assert "phase time attribution" in text
    assert "tier hit rates" in text
    assert "run ledger: 2 records" in text
    assert "slowest recoveries" in text


def test_phase_rows_align_their_seconds_column(run_sources):
    doc, records = run_sources
    report = build_report(metrics_doc=doc, ledger_records=records)
    assert "analysis.dispatcher" in report["phases"]  # 19 characters
    lines = render_report(report).splitlines()
    first = lines.index(
        "phase time attribution (share of the top-level phases)"
    ) + 1
    rows = lines[first:first + len(report["phases"])]
    ends = {re.search(r"\d\.\d{3}s", row).end() for row in rows}
    assert len(ends) == 1


def test_render_empty_report():
    assert render_report({}) == "(empty report)\n"


def test_tier_section_includes_inference_memo():
    doc = {
        "counters": {
            "infmemo.hits{tier=memory}": 3, "infmemo.hits{tier=disk}": 1,
            "infmemo.misses": 4,
        },
        "gauges": {}, "histograms": {},
    }
    report = build_report(metrics_doc=doc)
    assert report["tiers"]["inference_memo"]["hit_rate"] == pytest.approx(0.5)
    text = render_report(report)
    assert "inference memo  3 memory + 1 disk hits / 4 misses" in text
    # Reports built before the tier existed still render.
    legacy = {"tiers": {
        "result_cache": {"hits": 0, "misses": 0, "invalidations": 0,
                         "hit_rate": None},
        "function_memo": {"hits_memory": 0, "hits_disk": 0, "misses": 0,
                          "hit_rate": None},
    }}
    assert "inference memo" not in render_report(legacy)


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


def test_render_report_covers_every_metrics_section():
    report = build_report(metrics_doc=_sample_doc())
    text = render_report(report)
    for needle in (
        "engine",
        "paths 40",
        "max_paths: 2",
        "recovery",
        "rules (fired 12 times",
        "R4",
        "shadowed candidates: R15: 2",
        "cache",
        "hit rate 75.0%",
        "invalidations 1",
        "evaluation",
        "accuracy 88.9%",
        "phases",
        "tase",
    ):
        assert needle in text, needle
    # The machine-readable document carries the same figures: steps/s
    # over the tase phase only, accuracy over scored functions.
    assert report["engine"]["steps_per_second"] == pytest.approx(4000 / 0.3)
    assert report["engine"]["truncations"] == {"max_paths": 2}
    assert report["rules"] == {
        "fired": {"R4": 9, "R11": 3}, "shadowed": {"R15": 2},
    }
    assert report["evaluation"]["accuracy"] == pytest.approx(8 / 9)


def test_render_report_empty_metrics_document():
    text = render_report(
        build_report(metrics_doc={"counters": {}, "gauges": {}, "histograms": {}})
    )
    # Engine section always renders (all-zero), never crashes.
    assert "engine" in text


def test_render_report_memo_tiers():
    registry = MetricsRegistry()
    registry.counter("memo.hits", tier="memory").inc(3)
    registry.counter("memo.hits", tier="disk").inc(1)
    registry.counter("memo.misses").inc(4)
    registry.counter("memo.writes").inc(4)
    registry.counter("infmemo.hits", tier="memory").inc(5)
    registry.counter("infmemo.hits", tier="disk").inc(1)
    registry.counter("infmemo.misses").inc(2)
    registry.counter("infmemo.writes").inc(2)
    report = build_report(metrics_doc=registry.to_dict())
    assert report["tiers"]["function_memo"]["writes"] == 4
    text = render_report(report)
    assert "function memo" in text
    assert "inference memo" in text
    assert "hits 6 [disk: 1, memory: 5] | misses 2 (hit rate 75.0%)" in text
    assert "writes 2" in text
    # A document without inference-memo activity omits the section.
    silent = MetricsRegistry()
    silent.counter("memo.hits", tier="memory").inc(1)
    assert "inference memo" not in render_report(
        build_report(metrics_doc=silent.to_dict())
    )
