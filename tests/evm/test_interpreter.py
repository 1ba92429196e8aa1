"""Concrete interpreter: semantics, control flow, failure modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evm.asm import Assembler, assemble
from repro.evm.interpreter import Interpreter
from repro.evm.keccak import keccak256

WORD = 1 << 256


def run(program, calldata=b"", **kw):
    return Interpreter(assemble(program), **kw).call(calldata)


def run_return_word(program, calldata=b""):
    """Run a program that leaves one value on the stack; RETURN it."""
    code = program + [("PUSH1", 0), "MSTORE", ("PUSH1", 32), ("PUSH1", 0), "RETURN"]
    result = run(code, calldata)
    assert result.success, result.error
    return int.from_bytes(result.return_data, "big")


def test_stop_succeeds():
    assert run(["STOP"]).success


def test_add_wraps():
    value = run_return_word([("PUSH32", WORD - 1), ("PUSH1", 2), "ADD"])
    assert value == 1


def test_sub_order():
    # SUB computes top - second.
    value = run_return_word([("PUSH1", 3), ("PUSH1", 10), "SUB"])
    assert value == 7


def test_div_by_zero_is_zero():
    assert run_return_word([("PUSH1", 0), ("PUSH1", 10), "DIV"]) == 0


def test_sdiv_negative():
    minus_ten = WORD - 10
    value = run_return_word([("PUSH1", 3), ("PUSH32", minus_ten), "SDIV"])
    assert value == WORD - 3  # -10 // 3 -> -3 truncated toward zero


def test_smod_sign_follows_dividend():
    minus_ten = WORD - 10
    value = run_return_word([("PUSH1", 3), ("PUSH32", minus_ten), "SMOD"])
    assert value == WORD - 1  # -10 smod 3 == -1


def test_signextend():
    value = run_return_word([("PUSH1", 0xFF), ("PUSH1", 0), "SIGNEXTEND"])
    assert value == WORD - 1


def test_byte():
    value = run_return_word([("PUSH32", 0xAABB << 240), ("PUSH1", 1), "BYTE"])
    assert value == 0xBB


def test_shifts():
    assert run_return_word([("PUSH1", 1), ("PUSH1", 8), "SHL"]) == 0x100
    assert run_return_word([("PUSH2", 0x100), ("PUSH1", 8), "SHR"]) == 1
    minus_one = WORD - 1
    assert run_return_word([("PUSH32", minus_one), ("PUSH1", 8), "SAR"]) == minus_one


def test_comparisons():
    assert run_return_word([("PUSH1", 2), ("PUSH1", 1), "LT"]) == 1
    assert run_return_word([("PUSH1", 1), ("PUSH1", 2), "GT"]) == 1
    minus_one = WORD - 1
    assert run_return_word([("PUSH1", 0), ("PUSH32", minus_one), "SLT"]) == 1
    assert run_return_word([("PUSH1", 5), ("PUSH1", 5), "EQ"]) == 1
    assert run_return_word([("PUSH1", 0), "ISZERO"]) == 1


def test_calldataload_pads_with_zeros():
    value = run_return_word([("PUSH1", 0), "CALLDATALOAD"], calldata=b"\xAB")
    assert value == 0xAB << 248


def test_calldatacopy_and_mload():
    calldata = bytes(range(64))
    value = run_return_word(
        [
            ("PUSH1", 32),  # length
            ("PUSH1", 16),  # src offset
            ("PUSH1", 64),  # dst
            "CALLDATACOPY",
            ("PUSH1", 64),
            "MLOAD",
        ],
        calldata=calldata,
    )
    assert value == int.from_bytes(calldata[16:48], "big")


def test_mstore8():
    value = run_return_word(
        [("PUSH2", 0x1234), ("PUSH1", 31), "MSTORE8", ("PUSH1", 0), "MLOAD"]
    )
    assert value == 0x34  # only the low byte is stored, at offset 31


def test_storage_roundtrip():
    interp = Interpreter(
        assemble(
            [("PUSH1", 42), ("PUSH1", 7), "SSTORE", ("PUSH1", 7), "SLOAD",
             ("PUSH1", 0), "MSTORE", ("PUSH1", 32), ("PUSH1", 0), "RETURN"]
        )
    )
    result = interp.call(b"")
    assert int.from_bytes(result.return_data, "big") == 42
    assert interp.storage[7] == 42
    assert result.storage_writes == {7: 42}


def test_sha3_uses_keccak():
    result = run(
        [
            ("PUSH1", 0), ("PUSH1", 0), "MSTORE",  # 32 zero bytes at 0
            ("PUSH1", 32), ("PUSH1", 0), "SHA3",
            ("PUSH1", 0), "MSTORE", ("PUSH1", 32), ("PUSH1", 0), "RETURN",
        ]
    )
    assert result.return_data == keccak256(b"\x00" * 32)


def test_jump_and_jumpi():
    asm = Assembler()
    asm.push(1).push_label("yes").op("JUMPI")
    asm.op("INVALID")
    asm.label("yes").op("JUMPDEST").op("STOP")
    result = Interpreter(asm.assemble()).call(b"")
    assert result.success


def test_invalid_jump_fails():
    result = run([("PUSH1", 1), "JUMP", "JUMPDEST", "STOP"])
    assert not result.success
    assert result.error == "InvalidJump"


def test_stack_underflow():
    result = run(["POP"])
    assert result.error == "StackUnderflow"


def test_revert_carries_data():
    result = run(
        [("PUSH4", 0xDEADBEEF), ("PUSH1", 0), "MSTORE",
         ("PUSH1", 32), ("PUSH1", 0), "REVERT"]
    )
    assert not result.success
    assert result.error == "revert"
    assert result.return_data[28:] == bytes.fromhex("deadbeef")


def test_invalid_sets_bug_oracle():
    result = run(["INVALID"])
    assert not result.success
    assert result.invalid_hit


def test_step_limit():
    asm = Assembler()
    asm.label("loop").op("JUMPDEST").push_label("loop").op("JUMP")
    result = Interpreter(asm.assemble(), max_steps=1000).call(b"")
    assert result.error == "OutOfGas"


def test_memory_growth_past_the_gas_is_out_of_gas():
    # COINBASE MLOAD: a load at offset ~5.4e16 would need that many bytes.
    result = Interpreter(b"AQ").call(b"\x01\x02\x03\x04")
    assert result.success is False
    assert result.error == "OutOfGas"


def test_memory_growth_within_the_gas_is_not_charged():
    # 64 KiB of memory costs 6,144 + 8,192 gas, far below the default
    # budget; only the base costs of PUSH1, PUSH3 and MSTORE are charged.
    result = run([("PUSH1", 1), ("PUSH3", 0xFFE0), "MSTORE", "STOP"])
    assert result.success
    assert result.gas_used == 3 + 3 + 3


def test_zero_length_return_at_a_huge_offset_succeeds():
    # PUSH1 0, PUSH8 2**56, RETURN: an empty range grows no memory.
    result = Interpreter(bytes.fromhex("6000670100000000000000f3")).call(b"")
    assert result.success, result.error
    assert result.return_data == b""
    near = Interpreter(bytes.fromhex("6000600000f3")).call(b"")
    assert result.gas_used == near.gas_used


def test_zero_length_sha3_at_a_huge_offset_succeeds():
    digest = run_return_word([("PUSH1", 0), ("PUSH8", 1 << 56), "SHA3"])
    assert digest == int.from_bytes(keccak256(b""), "big")


def test_zero_length_accesses_leave_msize_at_zero():
    program = [
        ("PUSH1", 0), ("PUSH1", 100), "SHA3", "POP",
        ("PUSH1", 0), ("PUSH1", 0), ("PUSH1", 100), "CALLDATACOPY",
        "MSIZE",
    ]
    assert run_return_word(program, b"\x01\x02") == 0


def test_call_stubs_push_success():
    result = run(
        ["GAS", ("PUSH1", 0), ("PUSH1", 0), ("PUSH1", 0), ("PUSH1", 0),
         ("PUSH1", 0), ("PUSH1", 0), "CALL",
         ("PUSH1", 0), "MSTORE", ("PUSH1", 32), ("PUSH1", 0), "RETURN"]
    )
    # Our CALL stub pushes 1 (success).
    assert int.from_bytes(result.return_data, "big") == 1


def test_pcs_executed_recorded():
    result = run([("PUSH1", 1), "POP", "STOP"])
    assert result.pcs_executed == {0, 2, 3}


def test_logs_captured():
    result = run(
        [("PUSH4", 0xCAFEBABE), ("PUSH1", 0), "MSTORE",
         ("PUSH1", 32), ("PUSH1", 0), "LOG0", "STOP"]
    )
    assert result.success
    assert len(result.logs) == 1
    assert result.logs[0][28:] == bytes.fromhex("cafebabe")


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, WORD - 1), b=st.integers(0, WORD - 1))
def test_arithmetic_matches_python(a, b):
    assert run_return_word([("PUSH32", b), ("PUSH32", a), "ADD"]) == (a + b) % WORD
    assert run_return_word([("PUSH32", b), ("PUSH32", a), "MUL"]) == (a * b) % WORD
    assert run_return_word([("PUSH32", b), ("PUSH32", a), "SUB"]) == (a - b) % WORD
    assert run_return_word([("PUSH32", b), ("PUSH32", a), "AND"]) == a & b
    assert run_return_word([("PUSH32", b), ("PUSH32", a), "XOR"]) == a ^ b
    if b:
        assert run_return_word([("PUSH32", b), ("PUSH32", a), "DIV"]) == a // b
        assert run_return_word([("PUSH32", b), ("PUSH32", a), "MOD"]) == a % b
