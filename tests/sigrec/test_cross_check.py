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
