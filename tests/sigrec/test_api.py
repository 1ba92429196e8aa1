"""SigRec public API: per-type recovery across modes and languages.

These are the round-trip acceptance tests for the paper's §2 accessing
patterns: compile a declared signature with the Solidity/Vyper-like
codegen, recover it from the bytecode alone, and compare canonically.
"""

import pytest

from repro.abi.signature import FunctionSignature, Language, Visibility
from repro.abi.types import BoundedBytesType, BoundedStringType
from repro.compiler import CodegenOptions, compile_contract
from repro.sigrec.api import SigRec


def roundtrip(text, vis=Visibility.EXTERNAL, language=Language.SOLIDITY, **opt):
    sig = FunctionSignature.parse(text, vis, language)
    options = CodegenOptions(language=language, **opt)
    contract = compile_contract([sig], options)
    tool = SigRec()
    out = tool.recover_map(contract.bytecode)
    selector = int.from_bytes(sig.selector, "big")
    assert selector in out, f"selector of {text} not found"
    return out[selector].param_list


BASIC_CASES = [
    "f(uint8)", "f(uint32)", "f(uint128)", "f(uint160)", "f(uint256)",
    "f(int8)", "f(int64)", "f(int256)",
    "f(address)", "f(bool)",
    "f(bytes1)", "f(bytes20)", "f(bytes32)",
]


@pytest.mark.parametrize("text", BASIC_CASES)
@pytest.mark.parametrize("vis", [Visibility.PUBLIC, Visibility.EXTERNAL])
def test_basic_types(text, vis):
    sig = FunctionSignature.parse(text, vis)
    assert roundtrip(text, vis) == sig.param_list()


ARRAY_CASES = [
    "f(uint256[3])", "f(uint8[2][3])", "f(bool[4])",
    "f(uint256[])", "f(uint8[2][])", "f(address[])",
    "f(int16[3][])",
]


@pytest.mark.parametrize("text", ARRAY_CASES)
@pytest.mark.parametrize("vis", [Visibility.PUBLIC, Visibility.EXTERNAL])
def test_arrays(text, vis):
    sig = FunctionSignature.parse(text, vis)
    assert roundtrip(text, vis) == sig.param_list()


@pytest.mark.parametrize("text", ["f(bytes)", "f(string)", "f(bytes,string)"])
@pytest.mark.parametrize("vis", [Visibility.PUBLIC, Visibility.EXTERNAL])
def test_blobs(text, vis):
    sig = FunctionSignature.parse(text, vis)
    assert roundtrip(text, vis) == sig.param_list()


@pytest.mark.parametrize(
    "text",
    ["f(uint8[][])", "f(uint256[][][])", "f((uint256,uint256[]))",
     "f((address,bytes,uint8[]))"],
)
def test_nested_and_struct(text):
    sig = FunctionSignature.parse(text)
    assert roundtrip(text, Visibility.EXTERNAL) == sig.param_list()


def test_multi_param_ordering():
    text = "f(uint8,bytes,address[],bool,string)"
    for vis in (Visibility.PUBLIC, Visibility.EXTERNAL):
        sig = FunctionSignature.parse(text, vis)
        assert roundtrip(text, vis) == sig.param_list()


def test_optimization_does_not_break_recovery():
    for text in ["f(uint8,address)", "f(uint256[],bytes)"]:
        sig = FunctionSignature.parse(text)
        assert roundtrip(text, optimize=True) == sig.param_list()


VYPER_CASES = [
    "f(address)", "f(bool)", "f(int128)", "f(fixed168x10)",
    "f(uint256)", "f(bytes32)", "f(uint256[3])", "f(int128[2][2])",
]


@pytest.mark.parametrize("text", VYPER_CASES)
def test_vyper_types(text):
    sig = FunctionSignature.parse(text, Visibility.PUBLIC, Language.VYPER)
    assert roundtrip(text, Visibility.PUBLIC, Language.VYPER) == sig.param_list()


@pytest.mark.parametrize(
    "param,expected",
    [(BoundedBytesType(50), "bytes"), (BoundedStringType(33), "string")],
)
def test_vyper_bounded_blobs(param, expected):
    sig = FunctionSignature("f", (param,), Visibility.PUBLIC, Language.VYPER)
    contract = compile_contract([sig], CodegenOptions(language=Language.VYPER))
    out = SigRec().recover(contract.bytecode)
    assert out[0].param_list == expected


def test_no_params():
    sig = FunctionSignature.parse("ping()")
    contract = compile_contract([sig])
    out = SigRec().recover_map(contract.bytecode)
    rec = out[int.from_bytes(sig.selector, "big")]
    assert rec.param_list == ""


def test_rule_tracker_accumulates():
    tool = SigRec()
    contract = compile_contract([FunctionSignature.parse("f(uint8,bytes)")])
    tool.recover(contract.bytecode)
    assert tool.tracker.total() > 0
    assert tool.tracker.counts["R1"] >= 1  # the bytes parameter
    assert tool.tracker.counts["R4"] >= 1  # the uint8 parameter


def test_recovered_signature_str():
    contract = compile_contract([FunctionSignature.parse("f(uint8)")])
    rec = SigRec().recover(contract.bytecode)[0]
    assert rec.selector_hex.startswith("0x")
    assert "uint8" in str(rec)
    assert rec.canonical("guess") == "guess(uint8)"


def test_timing_populated():
    contract = compile_contract([FunctionSignature.parse("f(uint8)")])
    rec = SigRec().recover(contract.bytecode)[0]
    assert rec.elapsed_seconds >= 0


def test_extract_function_ids_static():
    sigs = [FunctionSignature.parse("a(uint256)"), FunctionSignature.parse("b()")]
    contract = compile_contract(sigs)
    ids = SigRec.extract_function_ids(contract.bytecode)
    assert ids == sorted(int.from_bytes(s.selector, "big") for s in sigs)


def test_explain_runs_engine_for_unseen_bytecode():
    contract = compile_contract([FunctionSignature.parse("f(uint8)")])
    tool = SigRec()
    selector = int.from_bytes(
        FunctionSignature.parse("f(uint8)").selector, "big"
    )
    assert "rules fired" in tool.explain(contract.bytecode, selector)


def test_options_round_trip():
    tool = SigRec(loop_bound=99, coarse_only=True)
    clone = SigRec(**tool.options())
    assert clone.options() == tool.options()
    assert clone.coarse_only is True
