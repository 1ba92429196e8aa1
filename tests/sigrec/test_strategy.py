"""When ``recover`` shards: only where per-selector shards can save work.

A fresh tool runs one monolithic TASE walk over cfg + dispatcher and
writes no function-memo records, and so does a default batch unit.  A
tool that opts into the function memo (``memo=True``) and holds one (a
``memo_dir`` or an attached store) shards, and so does a selector-group
call.  The rule reads the tool's configuration and the call alone: an
earlier call never switches a later one to shards.
"""

import pytest

from repro.abi.signature import FunctionSignature
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.framework import DEFAULT_PIPELINE
from repro.cli import main
from repro.compiler import compile_contract
from repro.corpus.datasets import build_clone_corpus
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


SIGNATURES = ("transfer(address,uint256)", "flag()", "set(bytes)")
CODE = _code(*SIGNATURES)
SELECTORS = sorted(
    int.from_bytes(FunctionSignature.parse(s).selector, "big")
    for s in SIGNATURES
)


def _essence(signatures):
    """Everything except the wall-clock timing."""
    return [
        (s.selector, s.param_types, s.language, s.fired_rules, s.confidences)
        for s in signatures
    ]


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
    tool = SigRec(memo=True, memo_dir=str(tmp_path))
    tool.recover(CODE)
    assert tool.last_strategy == "sharded"
    assert engine_calls["run_selector"] == 3
    assert engine_calls["put"] == 3


def test_memo_dir_alone_keys_no_function_memo(tmp_path, engine_calls):
    """Without ``memo=True`` a ``memo_dir`` does nothing for the function
    memo: one walk, no probes, nothing written."""
    tool = SigRec(memo_dir=str(tmp_path))
    tool.recover(CODE)
    assert tool.last_strategy == "monolithic"
    assert tool.function_memo() is None
    assert engine_calls == {"run": 1}
    assert list(tmp_path.iterdir()) == []


def test_attached_store_shards():
    tool = SigRec(memo=True)
    tool.attach_store(FunctionMemo(tool.options()))
    tool.recover(CODE)
    assert tool.last_strategy == "sharded"


def test_batch_units_shard():
    """Default units run one walk; units of an opted-in tool shard."""
    codes = [CODE, _code("a(uint8)")]
    for memo, strategy in ((False, "monolithic"), (True, "sharded")):
        ledger = RunLedger()
        BatchRecovery(
            tool=SigRec(memo=memo, ledger=ledger), workers=0
        ).recover_all(codes)
        records = ledger.all_records()
        assert len(records) == 2
        assert {record["strategy"] for record in records} == {strategy}


def test_default_batch_keys_and_writes_no_function_memo(tmp_path):
    corpus = build_clone_corpus(n_families=3, clones_per_family=3, seed=11)
    ledger = RunLedger()
    runner = BatchRecovery(
        tool=SigRec(ledger=ledger), workers=0, cache_dir=str(tmp_path)
    )
    runner.recover_all([case.contract.bytecode for case in corpus.cases])
    assert not (tmp_path / "fnmemo").exists()
    assert (runner.stats.memo_hits, runner.stats.memo_misses) == (0, 0)
    assert runner.stats.split_contracts == 0
    records = ledger.all_records()
    assert len(records) == runner.stats.units > 0
    for record in records:
        assert record["strategy"] == "monolithic"
        assert record["memo"] == {"hits": 0, "misses": 0}


def test_default_batch_unit_recovers_what_plain_recover_does():
    """``max_paths`` truncates these walks: a default unit spends one
    path budget on its contract, as a plain ``recover`` does, and so
    returns the same signatures and the same truncation diagnostics."""
    codes = [
        _code("a(uint8)", "b(bool)", "c(address)", "d(uint256)", "e(bytes)"),
        _code("f(uint8)"),
        _code("g(uint256[])", "h(string)"),
    ]
    ledger = RunLedger()
    runner = BatchRecovery(tool=SigRec(max_paths=2, ledger=ledger), workers=0)
    batch = runner.recover_all(codes)
    assert runner.stats.split_contracts == 0
    plain = []
    for code in codes:
        tool = SigRec(max_paths=2)
        signatures = _essence(tool.recover(code))
        plain.append((signatures, [
            {"kind": d.kind, "detail": d.detail} for d in tool.last_diagnostics
        ]))
    got = [
        (_essence(signatures), record["diagnostics"])
        for signatures, record in zip(batch, ledger.all_records())
    ]
    assert got == plain
    assert any(diagnostics for _, diagnostics in plain)


def test_partial_call_without_a_memo_pulls_no_reach():
    """A selector-group call on a store-less tool shards without a memo:
    no preimages (so no ``reach``), no probes, no writes."""
    metrics = MetricsRegistry()
    ledger = RunLedger()
    tool = SigRec(metrics=metrics, ledger=ledger)
    tool.recover(CODE, only=frozenset(SELECTORS[:1]))
    assert tool.last_strategy == "sharded"
    assert _pass_runs(metrics) == {"cfg": 1, "dispatcher": 1, "jumps": 1}
    (record,) = ledger.all_records()
    assert record["memo"] == {"hits": 0, "misses": 0}
    assert tool.function_memo() is None


def test_partial_call_leaves_the_next_call_monolithic(engine_calls):
    tool = SigRec()
    tool.recover(CODE, only=frozenset(SELECTORS[:1]))
    engine_calls.clear()
    tool.recover(_code("a(uint8)"))
    assert tool.last_strategy == "monolithic"
    assert engine_calls == {"run": 1}


def test_selector_group_calls_shard():
    tool = SigRec(memo=False)
    tool.recover(CODE, only=frozenset(SELECTORS[:1]))
    assert tool.last_strategy == "sharded"
    tool.recover(CODE, exclude=frozenset(SELECTORS[:1]))
    assert tool.last_strategy == "sharded"


def test_memo_tool_without_dispatcher_falls_back(tmp_path):
    asm = Assembler()
    asm.push(0).op("CALLDATALOAD").op("POP").op("STOP")
    tool = SigRec(memo=True, memo_dir=str(tmp_path))
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
