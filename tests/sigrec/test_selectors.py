"""Static selector extraction, and the bound the batch split reads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abi.signature import FunctionSignature
from repro.compiler import CodegenOptions, compile_contract
from repro.compiler.options import DispatcherStyle
from repro.evm.asm import Assembler
from repro.sigrec.batch import BatchRecovery
from repro.sigrec.selectors import extract_selectors, selector_bound


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


#: PUSH4, EQ, some DUPn and PUSHn: the bytes a dispatcher comparison
#: and its neighbours are made of.
_DISPATCH_BYTES = (0x63, 0x14, 0x80, 0x81, 0x8F, 0x60, 0x61, 0x62, 0x64, 0x7F)


@settings(max_examples=300, deadline=None)
@given(
    body=st.lists(
        st.one_of(st.sampled_from(_DISPATCH_BYTES), st.integers(0, 255)),
        max_size=96,
    ),
    tail=st.binary(max_size=3),
)
def test_selector_count_never_exceeds_push4_bytes(body, tail):
    # The tail ends the code inside a PUSH4 immediate: a truncated PUSH4.
    for code in (bytes(body), bytes(body) + b"\x63" + tail):
        assert len(extract_selectors(code)) <= selector_bound(code)
        assert selector_bound(code) == code.count(0x63)


def _full_scan_units(job_index, code, unit_size):
    """The split rule that scans every contract: the reference."""
    selectors = extract_selectors(code) if unit_size else []
    if unit_size == 0 or len(selectors) <= unit_size:
        return [(job_index, 0, code, None, frozenset())]
    groups = [
        selectors[i:i + unit_size] for i in range(0, len(selectors), unit_size)
    ]
    return [(job_index, 0, code, None, frozenset().union(*groups[1:]))] + [
        (job_index, index, code, frozenset(group), frozenset())
        for index, group in enumerate(groups[1:], start=1)
    ]


def test_units_equal_the_full_scan_rule():
    names = [
        "a(uint8)", "b(bytes)", "c(address,uint256)", "d(bool)", "e(string)",
        "f(uint16[])", "g(int8)", "h(bytes32)", "i(uint64)", "j(address[])",
    ]
    codes = [
        compile_contract([FunctionSignature.parse(n) for n in names[:k]]).bytecode
        for k in range(1, 11)
    ]
    # One selector, and PUSH32 immediates holding 64 more 0x63 bytes: its
    # bound exceeds every unit size, so the scan runs and keeps one unit.
    padding = Assembler()
    for _ in range(2):
        padding.push(int.from_bytes(b"\x63" * 32, "big"), width=32).op("POP")
    padded = codes[0] + padding.assemble()
    codes.append(padded)
    assert len(extract_selectors(padded)) == 1
    assert selector_bound(padded) > 64
    for unit_size in (0, 2, 8):
        runner = BatchRecovery(workers=0, unit_size=unit_size)
        for index, code in enumerate(codes):
            assert runner._units_for(index, code) == _full_scan_units(
                index, code, unit_size
            )
