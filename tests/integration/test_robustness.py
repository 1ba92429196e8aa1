"""Robustness: the analyzers never crash on arbitrary bytecode.

Mainnet bytecode includes hand-written assembly, truncated pushes,
metadata trailers and plain garbage; every front-facing component must
degrade gracefully (empty or partial results), never raise.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.erays import Erays, EraysPlus
from repro.apps.structurer import Structurer
from repro.evm.cfg import build_cfg
from repro.evm.disasm import disassemble
from repro.evm.interpreter import Interpreter
from repro.sigrec.api import SigRec
from repro.sigrec.selectors import extract_selectors


@settings(max_examples=80, deadline=None)
@given(data=st.binary(min_size=0, max_size=400))
def test_sigrec_never_crashes_on_garbage(data):
    recovered = SigRec().recover(data)
    assert isinstance(recovered, list)


@settings(max_examples=80, deadline=None)
@given(data=st.binary(min_size=0, max_size=400))
@example(b"AQ")  # COINBASE MLOAD: a load at offset ~5.4e16
def test_interpreter_never_crashes_on_garbage(data):
    result = Interpreter(data, max_steps=5_000).call(b"\x01\x02\x03\x04")
    assert result.success in (True, False)


@settings(max_examples=60, deadline=None)
@given(data=st.binary(min_size=0, max_size=300))
def test_lifter_and_structurer_never_crash(data):
    lifted = Erays().lift(data, fold=True)
    assert lifted.line_count >= 0
    structured = Structurer().structure(data)
    assert isinstance(structured.render(), str)


@settings(max_examples=60, deadline=None)
@given(data=st.binary(min_size=0, max_size=300))
def test_cfg_and_selectors_never_crash(data):
    build_cfg(data)
    extract_selectors(data)
    disassemble(data)


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=0, max_size=200), seed=st.integers(0, 2**32))
def test_erays_plus_never_crashes(data, seed):
    # Recovered signatures from garbage are empty or partial; the IR
    # enhancer must cope either way.
    recovered = SigRec().recover(data)
    result = EraysPlus(recovered).enhance(data)
    assert isinstance(result.text, str)


def test_metadata_trailer_tolerated():
    """Solidity appends a CBOR metadata blob after the code."""
    from repro.abi.signature import FunctionSignature
    from repro.compiler import compile_contract

    sig = FunctionSignature.parse("f(uint8,address)")
    contract = compile_contract([sig])
    trailer = bytes.fromhex("a26469706673") + bytes(range(40)) + b"\x00\x33"
    recovered = SigRec().recover_map(contract.bytecode + trailer)
    selector = int.from_bytes(sig.selector, "big")
    assert recovered[selector].param_list == "uint8,address"


def test_fifty_function_contract():
    """Scale smoke: a contract at real-token dispatcher size."""
    from repro.corpus.signatures import SignatureGenerator
    from repro.compiler import compile_contract

    gen = SignatureGenerator(seed=77, struct_weight=0, nested_weight=0)
    sigs = gen.signatures(50)
    contract = compile_contract(sigs)
    recovered = SigRec().recover_map(contract.bytecode)
    correct = sum(
        1
        for sig in sigs
        if recovered.get(int.from_bytes(sig.selector, "big"))
        and recovered[int.from_bytes(sig.selector, "big")].param_list
        == sig.param_list()
    )
    assert correct >= 48  # near-perfect at dispatcher scale
