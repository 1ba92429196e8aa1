"""Static selector extraction."""

from repro.abi.signature import FunctionSignature
from repro.compiler import CodegenOptions, compile_contract
from repro.compiler.options import DispatcherStyle
from repro.evm.asm import Assembler
from repro.sigrec.selectors import extract_selectors


def test_extracts_all_selectors():
    sigs = [
        FunctionSignature.parse("transfer(address,uint256)"),
        FunctionSignature.parse("approve(address,uint256)"),
        FunctionSignature.parse("totalSupply()"),
    ]
    contract = compile_contract(sigs)
    found = extract_selectors(contract.bytecode)
    assert found == sorted(int.from_bytes(s.selector, "big") for s in sigs)


def test_styles_equivalent():
    sigs = [FunctionSignature.parse("f(uint256)")]
    per_style = {
        style: extract_selectors(compile_contract(sigs, CodegenOptions(dispatcher=style)).bytecode)
        for style in DispatcherStyle
    }
    values = list(per_style.values())
    assert all(v == values[0] for v in values)


def test_empty_bytecode():
    assert extract_selectors(b"") == []


def test_push4_without_eq_not_counted():
    # A PUSH4 used as a plain constant is not a dispatcher comparison.
    asm = Assembler()
    asm.push(0xAABBCCDD, width=4).op("POP").op("STOP")
    assert extract_selectors(asm.assemble()) == []

