"""The static/TASE cross-check: the dispatcher analysis and TASE must
agree on every corpus contract's selector set, and a divergence is
reported in both directions as a structured diagnostic.
"""

from repro.abi.signature import FunctionSignature
from repro.analysis import analyze, cross_check
from repro.compiler import compile_contract
from repro.corpus.datasets import (
    build_closed_source_corpus,
    build_vyper_corpus,
)
from repro.sigrec.api import SigRec


def _cases():
    for corpus in (
        build_closed_source_corpus(n_contracts=8, seed=7),
        build_vyper_corpus(n_contracts=4, seed=5),
    ):
        yield from corpus.cases


def test_no_diagnostics_on_corpus():
    tool = SigRec()
    for case in _cases():
        tool.recover(case.contract.bytecode)
        assert tool.last_diagnostics == ()


def test_static_check_off_produces_no_diagnostics():
    contract = compile_contract([FunctionSignature.parse("a(uint8)")])
    tool = SigRec(static_check=False)
    tool.recover(contract.bytecode)
    assert tool.last_diagnostics == ()


def test_cross_check_reports_divergence_both_ways():
    contract = compile_contract(
        [
            FunctionSignature.parse("a(uint8)"),
            FunctionSignature.parse("b(bool)"),
        ]
    )
    analysis = analyze(contract.bytecode)
    static = list(analysis.selectors)
    # TASE "missed" one selector and "invented" another.
    diags = cross_check(analysis, static[:1] + [0xDEADBEEF])
    kinds = {d.kind: d for d in diags}
    assert set(kinds) == {
        "selector-missed-by-tase", "selector-missed-statically",
    }
    assert kinds["selector-missed-by-tase"].selectors == (static[1],)
    assert kinds["selector-missed-statically"].selectors == (0xDEADBEEF,)
    assert "0xdeadbeef" in kinds["selector-missed-statically"].render()


def test_options_round_trip_includes_analysis_flags():
    tool = SigRec(static_check=False)
    options = tool.options()
    assert options["static_check"] is False
    clone = SigRec(**options)
    assert not clone.static_check


#: The only diagnostics a fresh tool reports on the 100 byte-mutated
#: contracts of the pass-product pins: index -> the selectors the static
#: dispatcher walk sees but TASE never explores.
_MISSED_BY_TASE = {
    26: (0x4D7DE710, 0x8A6226AD, 0xA72C5044, 0xB2AD4FD6),
    34: (0xA50934A0,),
    94: (0x0395BE6A, 0x428D22C7, 0xE76D3C70),
}


def _mutated_diagnostics(make_tool):
    """Index -> (strategy, diagnostics) of every mutated contract on
    which a fresh ``make_tool()`` reports a diagnostic."""
    from tests.analysis.test_pass_products import _mutated

    found = {}
    for index, code in enumerate(_mutated()):
        tool = make_tool()
        tool.recover(code)
        if tool.last_diagnostics:
            found[index] = (
                tool.last_strategy,
                [(d.kind, d.selectors) for d in tool.last_diagnostics],
            )
    return found


def _missed_by_tase(strategy):
    return {
        index: (strategy, [("selector-missed-by-tase", selectors)])
        for index, selectors in _MISSED_BY_TASE.items()
    }


def test_cross_check_pins_on_mutated_contracts():
    assert _mutated_diagnostics(SigRec) == _missed_by_tase("monolithic")


def test_cross_check_pins_hold_when_sharded(tmp_path):
    # A whole-contract call shards only for a tool that opts into the
    # function memo and holds one; every diagnosed contract must shard.
    assert _mutated_diagnostics(
        lambda: SigRec(memo=True, memo_dir=str(tmp_path))
    ) == _missed_by_tase("sharded")
