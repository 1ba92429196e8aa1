"""When ``recover`` shards: only where per-selector shards can save work.

A fresh tool runs one monolithic TASE walk over cfg + dispatcher and
writes no function-memo records.  A tool whose function memo can hold
bodies the call did not write (a ``memo_dir``, an attached store, the
store a serial ``recover_batch`` holds) and a selector-group call shard,
exactly as before.
"""

import pytest

from repro.abi.signature import FunctionSignature
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.framework import DEFAULT_PIPELINE
from repro.cli import main
from repro.compiler import compile_contract
from repro.evm.asm import Assembler
from repro.obs import MetricsRegistry, RunLedger
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery
from repro.sigrec.cache import FunctionMemo
from repro.sigrec.engine import TASEEngine


def _code(*signatures):
    return compile_contract(
        [FunctionSignature.parse(s) for s in signatures]
    ).bytecode


CODE = _code("transfer(address,uint256)", "flag()", "set(bytes)")


def _pass_runs(metrics):
    return {
        key[len("analysis.pass_runs{pass="):-1]: value
        for key, value in metrics.counter_values().items()
        if key.startswith("analysis.pass_runs{")
    }


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts of engine runs and function-memo probes/writes."""
    calls = {}
    for owner, name in ((TASEEngine, "run"), (TASEEngine, "run_selector"),
                        (TASEEngine, "run_residual"), (FunctionMemo, "get"),
                        (FunctionMemo, "put")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _key=name, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_fresh_tool_runs_one_walk_over_cfg_and_dispatcher(engine_calls):
    metrics = MetricsRegistry()
    tool = SigRec(metrics=metrics)
    assert len(tool.recover(CODE)) == 3
    assert tool.last_strategy == "monolithic"
    assert _pass_runs(metrics) == {"cfg": 1, "dispatcher": 1}
    assert engine_calls == {"run": 1}


def test_static_check_off_pulls_no_analysis(engine_calls):
    metrics = MetricsRegistry()
    tool = SigRec(static_check=False, metrics=metrics)
    tool.recover(CODE)
    assert tool.last_strategy == "monolithic"
    assert _pass_runs(metrics) == {}
    assert engine_calls == {"run": 1}


def test_reused_tool_without_memo_dir_stays_monolithic(engine_calls):
    tool = SigRec()
    for code in (CODE, _code("a(uint8)"), CODE):
        tool.recover(code)
        assert tool.last_strategy == "monolithic"
    assert set(engine_calls) == {"run"}


def test_memo_dir_tool_shards(tmp_path, engine_calls):
    tool = SigRec(memo_dir=str(tmp_path))
    tool.recover(CODE)
    assert tool.last_strategy == "sharded"
    assert engine_calls["run_selector"] == 3
    assert engine_calls["put"] == 3


def test_attached_store_shards():
    tool = SigRec()
    tool.attach_store(FunctionMemo(tool.options()))
    tool.recover(CODE)
    assert tool.last_strategy == "sharded"


def test_batch_units_shard():
    ledger = RunLedger()
    BatchRecovery(tool=SigRec(ledger=ledger), workers=0).recover_all(
        [CODE, _code("a(uint8)")]
    )
    records = ledger.all_records()
    assert len(records) == 2
    assert {record["strategy"] for record in records} == {"sharded"}


def test_serial_recover_batch_shares_the_function_memo():
    from repro.corpus.datasets import build_clone_corpus

    corpus = build_clone_corpus(n_families=2, clones_per_family=3, seed=11)
    codes = [case.contract.bytecode for case in corpus.cases]
    tool = SigRec()
    tool.recover_batch(codes)
    assert tool.last_strategy == "sharded"
    assert tool.function_memo().hits > 0


def test_selector_group_calls_shard():
    selectors = sorted(s.selector for s in SigRec().recover(CODE))
    tool = SigRec(memo=False)
    tool.recover(CODE, only=frozenset(selectors[:1]))
    assert tool.last_strategy == "sharded"
    tool.recover(CODE, exclude=frozenset(selectors[:1]))
    assert tool.last_strategy == "sharded"


def test_memo_tool_without_dispatcher_falls_back(tmp_path):
    asm = Assembler()
    asm.push(0).op("CALLDATALOAD").op("POP").op("STOP")
    tool = SigRec(memo_dir=str(tmp_path))
    assert tool.recover(asm.assemble()) == []
    assert tool.last_strategy == "monolithic"


def test_follow_up_abi_and_profile_reuse_cfg_and_dispatcher():
    metrics = MetricsRegistry()
    tool = SigRec(metrics=metrics)
    signatures = tool.recover(CODE)
    tool.abi(CODE, signatures)
    tool.profile(CODE, signatures)
    assert _pass_runs(metrics) == dict.fromkeys(DEFAULT_PIPELINE.names(), 1)


def test_the_sharded_option_is_gone(capsys):
    with pytest.raises(TypeError):
        SigRec(sharded=False)
    options = SigRec().options()
    assert "sharded" not in options
    assert SigRec(**options).options() == options
    with pytest.raises(SystemExit):
        main(["batch", "--help"])
    assert "--no-shard" not in capsys.readouterr().out


def test_dispatcher_pass_needs_only_the_cfg():
    (dispatcher,) = [p for p in DEFAULT_PIPELINE if p.name == "dispatcher"]
    assert dispatcher.requires == ("cfg",)
    assert not hasattr(DispatcherReport(), "regions")
    assert not hasattr(DispatcherReport(), "unreachable")
