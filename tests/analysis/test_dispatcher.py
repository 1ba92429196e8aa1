"""Static dispatcher extraction across every dispatcher shape."""

import pytest

from repro.abi.signature import FunctionSignature
from repro.analysis import analyze
from repro.compiler import compile_contract
from repro.compiler.contract import CodegenOptions, DispatcherStyle, Language

SIGS = [
    FunctionSignature.parse("transfer(address,uint256)"),
    FunctionSignature.parse("approve(address,uint256)"),
    FunctionSignature.parse("paused()"),
]


def _expected(contract):
    return {int.from_bytes(s.selector, "big") for s in contract.signatures}


@pytest.mark.parametrize("style", list(DispatcherStyle))
@pytest.mark.parametrize("optimize", [False, True])
def test_selectors_recovered_for_every_style(style, optimize):
    contract = compile_contract(
        SIGS, CodegenOptions(dispatcher=style, optimize=optimize)
    )
    analysis = analyze(contract.bytecode)
    assert set(analysis.selectors) == _expected(contract)


def test_entries_are_valid_jumpdests():
    contract = compile_contract(SIGS)
    analysis = analyze(contract.bytecode)
    for selector, entry in analysis.dispatcher.entries.items():
        assert entry in analysis.cfg.valid_jumpdests
        assert entry in analysis.reach.regions[selector]


def test_binary_search_dispatcher():
    """Many functions force the GT-split binary-search dispatcher."""
    sigs = [FunctionSignature.parse(f"fn{i}(uint{8 * (i + 1)})") for i in range(8)]
    contract = compile_contract(sigs, CodegenOptions(optimize=True))
    analysis = analyze(contract.bytecode)
    assert set(analysis.selectors) == _expected(contract)


def test_vyper_dispatcher():
    contract = compile_contract(
        [
            FunctionSignature.parse("deposit(uint256)"),
            FunctionSignature.parse("owner()"),
        ],
        CodegenOptions(language=Language.VYPER, version="0.2.8"),
    )
    analysis = analyze(contract.bytecode)
    assert set(analysis.selectors) == _expected(contract)


def test_obfuscated_dispatcher():
    contract = compile_contract(SIGS, CodegenOptions(obfuscate=True))
    analysis = analyze(contract.bytecode)
    assert set(analysis.selectors) == _expected(contract)


def test_no_dispatcher_no_selectors():
    from repro.evm.asm import Assembler

    a = Assembler()
    a.push(0).push(0).op("RETURN")
    analysis = analyze(a.assemble())
    assert analysis.selectors == ()
    assert analysis.dispatcher.entries == {}


def test_unreachable_code_detected():
    from repro.evm.asm import Assembler

    a = Assembler()
    a.op("STOP")
    a.label("dead").op("JUMPDEST").op("STOP")  # nothing jumps here
    analysis = analyze(a.assemble())
    assert analysis.reach.unreachable == frozenset({1})


def test_function_bodies_not_walked():
    """The dispatcher walk stops at selector matches: entry blocks are
    recorded but never visited."""
    contract = compile_contract(SIGS)
    analysis = analyze(contract.bytecode)
    entries = set(analysis.dispatcher.entries.values())
    assert entries
    assert not entries & analysis.dispatcher.dispatcher_blocks
