"""Hot-loop profiler tests: exactness, neutrality, aggregation."""

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.obs import HotLoopProfiler
from repro.obs.profiler import render_hotspots, top_hotspots
from repro.sigrec.engine import TASEEngine


def _bytecode(*sigs):
    return compile_contract(
        [FunctionSignature.parse(s) for s in sigs]
    ).bytecode


_CODE = _bytecode(
    "transfer(address,uint256)", "balanceOf(address)", "approve(address,uint256)"
)


def test_counting_mode_is_exact():
    profiler = HotLoopProfiler()
    result = TASEEngine(_CODE, profiler=profiler).run()
    assert profiler.total_steps == result.total_steps
    assert profiler.counts  # attribution actually happened
    assert all(pc >= 0 and steps > 0 for pc, steps in profiler.counts.items())


def test_profiler_does_not_change_the_result():
    plain = TASEEngine(_CODE).run()
    profiled = TASEEngine(_CODE, profiler=HotLoopProfiler()).run()
    assert profiled.selectors == plain.selectors
    assert profiled.total_steps == plain.total_steps
    assert profiled.paths_explored == plain.paths_explored
    assert profiled.forks_taken == plain.forks_taken


def test_snapshot_delta_and_merge():
    profiler = HotLoopProfiler()
    profiler.record_block(1, 10)
    before = profiler.snapshot()
    profiler.record_block(1, 5)
    profiler.record_block(2, 7)
    assert profiler.delta(before) == {1: 5, 2: 7}
    other = HotLoopProfiler()
    other.record_block(2, 3)
    profiler.merge(other)
    assert profiler.counts == {1: 15, 2: 10}
    profiler.merge({1: 1})
    assert profiler.counts[1] == 16
    profiler.clear()
    assert profiler.counts == {} and profiler.total_steps == 0


def test_top_hotspots_ordering_breaks_ties_by_pc():
    counts = {5: 10, 3: 10, 7: 99, 9: 1}
    assert top_hotspots(counts, 3) == [(7, 99), (3, 10), (5, 10)]


def test_render_hotspots_table():
    text = render_hotspots({0x40: 75, 0x80: 25}, n=10)
    assert "hot superblocks: 100 steps over 2 blocks" in text
    assert "0x000040" in text and "75.0%" in text


def test_run_ledger_records_carry_hotspots():
    from repro.obs import RunLedger
    from repro.sigrec.api import SigRec

    ledger = RunLedger()
    tool = SigRec(ledger=ledger, profiler=HotLoopProfiler())
    tool.recover(_CODE)
    (record,) = ledger.all_records()
    assert record["hotspots"]
    assert all(
        isinstance(pc, int) and steps > 0 for pc, steps in record["hotspots"]
    )
