"""Storage-layout recovery: idioms, classification, determinism."""

from repro.abi.signature import FunctionSignature
from repro.analysis import analyze, recover_storage_layout
from repro.analysis.dataflow import resolve_jumps
from repro.compiler import compile_contract
from repro.compiler.contract import FunctionSpec
from repro.compiler.storage import StorageVariableSpec, storage_ground_truth
from repro.corpus.datasets import build_storage_corpus
from repro.evm.asm import Assembler
from repro.evm.cfg import build_cfg
from repro.sigrec.api import SigRec


def _layout(asm: Assembler):
    return recover_storage_layout(resolve_jumps(build_cfg(asm.assemble())))


def _spec(signature, *ops):
    return FunctionSpec(FunctionSignature.parse(signature), storage_ops=ops)


def _one(layout, slot, offset=0):
    matches = [
        v for v in layout.variables if v.slot == slot and v.offset == offset
    ]
    assert len(matches) == 1, layout.variables
    return matches[0]


# -- hand-written idioms ------------------------------------------------


def test_plain_value_slot():
    asm = Assembler()
    asm.push(3).op("SLOAD").op("POP")
    asm.push(7).push(3).op("SSTORE").op("STOP")
    layout = _layout(asm)
    variable = _one(layout, 3)
    assert (variable.kind, variable.type) == ("value", "uint256")
    assert variable.reads == 1 and variable.writes == 1
    assert layout.unresolved == 0


def test_shr_and_mask_packed_read():
    asm = Assembler()
    asm.push(5).op("SLOAD")
    asm.push(64).op("SHR")
    asm.push(0xFFFF, width=2).op("AND").op("POP").op("STOP")
    variable = _one(_layout(asm), 5, offset=8)
    assert (variable.width, variable.type) == (2, "uint16")


def test_div_by_power_of_two_packed_read():
    asm = Assembler()
    asm.push(5).op("SLOAD")
    asm.push(1 << 160, width=21).op("SWAP1").op("DIV")
    asm.push((1 << 64) - 1, width=8).op("AND").op("POP").op("STOP")
    variable = _one(_layout(asm), 5, offset=20)
    assert (variable.width, variable.type) == (8, "uint64")


def test_div_of_a_loaded_word_by_zero_is_no_shift():
    # PUSH1 0 PUSH1 0 SLOAD DIV STOP: only a positive power of two is a
    # shift (a divisor of 0 used to raise on ``1 << -1``).
    code = bytes.fromhex("60006000540400")
    variable = _one(recover_storage_layout(resolve_jumps(build_cfg(code))), 0)
    assert (variable.width, variable.type, variable.reads) == (32, "uint256", 1)
    profile = SigRec().profile(code)
    assert profile.storage["variables"][0]["type"] == "uint256"


def test_signextend_marks_signed():
    asm = Assembler()
    asm.push(2).op("SLOAD")
    asm.push(1).op("SIGNEXTEND").op("POP").op("STOP")
    variable = _one(_layout(asm), 2)
    assert (variable.width, variable.type) == (2, "int16")


def test_rmw_clear_mask_is_a_packed_write():
    clear = ((1 << 256) - 1) ^ (0xFFFF << 64)
    asm = Assembler()
    asm.push(6).op("SLOAD")
    asm.push(clear, width=32).op("AND")
    asm.push(1 << 64, width=9).op("OR")
    asm.push(6).op("SSTORE").op("STOP")
    variable = _one(_layout(asm), 6, offset=8)
    assert (variable.width, variable.type) == (2, "uint16")


def test_caller_keyed_mapping():
    asm = Assembler()
    asm.op("CALLER").push(0).op("MSTORE")
    asm.push(7).push(0x20).op("MSTORE")
    asm.push(0x40).push(0).op("SHA3")
    asm.op("SLOAD").op("POP").op("STOP")
    variable = _one(_layout(asm), 7)
    assert (variable.kind, variable.depth) == ("mapping", 1)
    assert variable.type == "mapping(address => uint256)"


def test_nested_mapping_depth_two():
    asm = Assembler()
    asm.op("CALLER").push(0).op("MSTORE")
    asm.push(8).push(0x20).op("MSTORE")
    asm.push(0x40).push(0).op("SHA3")
    asm.op("CALLER").push(0).op("MSTORE")
    asm.push(0x20).op("MSTORE")
    asm.push(0x40).push(0).op("SHA3")
    asm.push(1).op("SWAP1").op("SSTORE").op("STOP")
    variable = _one(_layout(asm), 8)
    assert (variable.kind, variable.depth) == ("mapping", 2)
    assert variable.type == "mapping(address => mapping(address => uint256))"


def test_dynamic_array_element():
    asm = Assembler()
    asm.push(9).op("SLOAD").op("POP")  # length read
    asm.push(9).push(0).op("MSTORE")
    asm.push(0x20).push(0).op("SHA3")
    asm.push(2).op("ADD").op("SLOAD").op("POP").op("STOP")
    layout = _layout(asm)
    variable = _one(layout, 9)
    assert (variable.kind, variable.type) == ("dynamic_array", "uint256[]")
    assert variable.reads == 2  # length word + element


def test_unknown_slot_counts_unresolved():
    asm = Assembler()
    asm.op("CALLDATASIZE").op("SLOAD").op("POP").op("STOP")
    layout = _layout(asm)
    assert layout.unresolved == 1
    assert not layout.variables


def test_layout_render_text_mentions_slots():
    asm = Assembler()
    asm.push(3).op("SLOAD").op("POP").op("STOP")
    text = _layout(asm).render_text()
    assert "slot 3" in text and "uint256" in text


# -- through the codegen + full pipeline --------------------------------


def test_codegen_packed_slot_recovers_fields():
    contract = compile_contract([
        _spec(
            "f(uint8)",
            ("read", StorageVariableSpec(0, "packed", offset=0, width=20)),
            ("read", StorageVariableSpec(0, "packed", offset=20, width=2)),
            ("write", StorageVariableSpec(0, "packed", offset=22, width=1)),
        ),
    ])
    layout = analyze(contract.bytecode).storage
    by_key = {(v.offset, v.width): v.type for v in layout.variables_at(0)}
    assert by_key == {(0, 20): "address", (20, 2): "uint16", (22, 1): "uint8"}


def test_codegen_matches_ground_truth_on_archetypes():
    corpus = build_storage_corpus(n_contracts=3)  # the fixed archetypes
    for case in corpus.cases:
        layout = analyze(case.contract.bytecode).storage
        recovered = {
            (v.slot, v.offset, v.width):
                (v.kind, v.type, v.depth) for v in layout.variables
        }
        expected = {
            (t["slot"], t["offset"], t["width"]):
                (t["kind"], t["type"], t["depth"])
            for t in case.contract.storage
        }
        assert recovered == expected


def test_selector_attribution():
    read_spec = _spec("f()", ("read", StorageVariableSpec(0, "value")))
    write_spec = _spec("g()", ("write", StorageVariableSpec(1, "value")))
    contract = compile_contract([read_spec, write_spec])
    layout = analyze(contract.bytecode).storage
    selector_f = int.from_bytes(FunctionSignature.parse("f()").selector, "big")
    selector_g = int.from_bytes(FunctionSignature.parse("g()").selector, "big")
    assert _one(layout, 0).selectors == (selector_f,)
    assert _one(layout, 1).selectors == (selector_g,)


def test_layout_is_deterministic():
    corpus = build_storage_corpus(n_contracts=6)
    for case in corpus.cases:
        first = analyze(case.contract.bytecode).storage.to_dict()
        again = analyze(case.contract.bytecode).storage.to_dict()
        assert first == again


def test_ground_truth_write_only_signed_field_is_unsigned():
    signed = StorageVariableSpec(0, "packed", offset=0, width=8, signed=True)
    write_only = storage_ground_truth([[("write", signed)]])
    assert write_only[0]["type"] == "uint64"
    with_read = storage_ground_truth(
        [[("write", signed), ("read", signed)]]
    )
    assert with_read[0]["type"] == "int64"
