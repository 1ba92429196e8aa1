"""Jump resolution via the push-constant stack dataflow."""

import hashlib

import pytest

from repro.abi.signature import FunctionSignature
from repro.analysis.dataflow import (
    MAX_SET,
    _join_stacks,
    _join_values,
    resolve_bytecode,
    resolve_jumps,
)
from repro.compiler import compile_contract
from repro.compiler.contract import CodegenOptions, DispatcherStyle, Language
from repro.corpus.datasets import (
    build_closed_source_corpus,
    build_obfuscated_corpus,
    build_vyper_corpus,
)
from repro.evm.asm import Assembler
from repro.evm.cfg import build_cfg


def test_adjacent_push_jump_resolved():
    a = Assembler()
    a.push_label("end").op("JUMP")
    a.label("end").op("JUMPDEST").op("STOP")
    rcfg = resolve_bytecode(a.assemble())
    assert not rcfg.incomplete
    assert not rcfg.unresolved_jumps
    (targets,) = rcfg.resolved_targets.values()
    assert targets == frozenset({3})


def test_separated_push_jump_resolved():
    """The base CFG only handles push+jump pairs; the dataflow tracks
    a target pushed early and shuffled below other operands."""
    a = Assembler()
    a.push_label("end")          # target, pushed first
    a.push(1).push(2).op("ADD").op("POP")
    a.op("JUMP")
    a.label("end").op("JUMPDEST").op("STOP")
    bytecode = a.assemble()
    rcfg = resolve_bytecode(bytecode)
    assert not rcfg.unresolved_jumps
    (targets,) = rcfg.resolved_targets.values()
    assert len(targets) == 1
    # The resolved edge is in the successor map too.
    (target,) = targets
    assert any(target in succ for succ in rcfg.successors.values())


def test_constant_folded_target():
    """A target computed as PUSH a; PUSH b; ADD still resolves."""
    a = Assembler()
    a.push(3).push(4).op("ADD")  # 7 = pc of the dest below
    a.op("JUMP")
    a.raw(b"\x00")               # padding so the dest lands at 7
    a.label("end").op("JUMPDEST").op("STOP")
    bytecode = a.assemble()
    assert bytecode[7] == 0x5B  # JUMPDEST where the fold should land
    rcfg = resolve_bytecode(bytecode)
    assert frozenset({7}) in rcfg.resolved_targets.values()


def _shuffled_target(op):
    """The target, two constants above it, then ``op`` brings it back."""
    a = Assembler()
    a.push_label("end").push(1).push(2).op(op).op("JUMP")
    a.label("end").op("JUMPDEST").op("STOP")
    return a.assemble()


def _subtracted_target():
    a = Assembler()
    a.push(3).push(10).op("SUB")  # top minus next: 10 - 3 = 7
    a.op("JUMP").op("STOP")
    a.label("end").op("JUMPDEST").op("STOP")
    return a.assemble()


@pytest.mark.parametrize(
    "bytecode",
    [_shuffled_target("DUP3"), _shuffled_target("SWAP2"), _subtracted_target()],
    ids=["dup-depth", "swap-depth", "fold-operand-order"],
)
def test_stack_ops_keep_depth_and_operand_order(bytecode):
    """DUPn/SWAPn reach the n-th entry below the top, and a fold takes
    the top as its first operand: each snippet jumps to its JUMPDEST."""
    rcfg = resolve_bytecode(bytecode)
    assert not rcfg.unresolved_jumps
    assert not rcfg.invalid_targets
    (targets,) = rcfg.resolved_targets.values()
    assert targets == frozenset({bytecode.index(0x5B)})


def test_return_address_dispatch_resolves_to_both_callers():
    """Two call sites pushing different return addresses into one shared
    block give that block's JUMP a two-target resolution."""
    a = Assembler()
    # call 1: push return address, jump to sub
    a.push_label("ret1").push_label("sub").op("JUMP")
    a.label("ret1").op("JUMPDEST")
    # call 2
    a.push_label("ret2").push_label("sub").op("JUMP")
    a.label("ret2").op("JUMPDEST").op("STOP")
    # the shared subroutine returns via the pushed address
    a.label("sub").op("JUMPDEST").op("JUMP")
    bytecode = a.assemble()
    rcfg = resolve_bytecode(bytecode)
    assert not rcfg.unresolved_jumps
    two_target = [t for t in rcfg.resolved_targets.values() if len(t) == 2]
    assert len(two_target) == 1


def test_input_dependent_jump_stays_unresolved():
    a = Assembler()
    a.push(0).op("CALLDATALOAD").op("JUMP")
    a.op("JUMPDEST").op("STOP")
    rcfg = resolve_bytecode(a.assemble())
    assert len(rcfg.unresolved_jumps) == 1
    assert not rcfg.resolved_targets


def test_constant_non_jumpdest_target_is_invalid():
    a = Assembler()
    a.push(2).push(2).op("MUL")  # 4: not a JUMPDEST
    a.op("JUMP")
    a.op("STOP").op("STOP")
    rcfg = resolve_bytecode(a.assemble())
    assert not rcfg.unresolved_jumps
    (bad,) = rcfg.invalid_targets.values()
    assert bad == frozenset({4})


def test_join_values_respects_set_cap():
    small = frozenset(range(MAX_SET // 2))
    assert _join_values(small, small) == small
    assert _join_values(small, None) is None
    big_a = frozenset(range(MAX_SET))
    big_b = frozenset(range(MAX_SET, 2 * MAX_SET))
    assert _join_values(big_a, big_b) is None


def test_join_stacks_aligns_at_top():
    # Stacks are bottom-first: the top is the last entry.
    a = (frozenset({3}), frozenset({2}), frozenset({1}))
    b = (frozenset({9}), frozenset({1}))
    joined = _join_stacks(a, b)
    assert len(joined) == 2
    assert joined[-1] == frozenset({1})
    assert joined[-2] == frozenset({2, 9})


# ----------------------------------------------------------------------
# Pinned products: the CFG blocks and the resolved jump table must not
# move when the front end or the fixpoint is reimplemented.


def _ci_sample():
    """The 45-contract corpus sample the CI lint/profile/ABI smokes use."""
    codes = []
    for corpus in (
        build_closed_source_corpus(n_contracts=25, seed=2),
        build_vyper_corpus(n_contracts=10, seed=4),
        build_obfuscated_corpus(n_contracts=10, seed=9),
    ):
        codes += [case.contract.bytecode for case in corpus.cases]
    return codes


def _codegen_variants():
    """One contract per codegen variant."""
    signatures = [
        FunctionSignature.parse("transfer(address,uint256)"),
        FunctionSignature.parse("setData(bytes,uint256[3])"),
        FunctionSignature.parse("flag()"),
    ]
    variants = [
        CodegenOptions(dispatcher=style, optimize=optimize, obfuscate=obfuscate)
        for style in DispatcherStyle
        for optimize in (False, True)
        for obfuscate in (False, True)
    ] + [CodegenOptions(language=Language.VYPER, version="0.2.8")]
    return [compile_contract(signatures, options).bytecode for options in variants]


def _sorted_sets(mapping):
    return sorted((key, sorted(values)) for key, values in mapping.items())


def _products_digest(bytecodes):
    """sha256 over every block (instructions, successors, jump flags)
    and the resolved CFG (successors, resolved and invalid targets,
    unresolved jumps, ``incomplete``) of each bytecode."""
    digest = hashlib.sha256()
    for code in bytecodes:
        cfg = build_cfg(code)
        for start in sorted(cfg.blocks):
            block = cfg.blocks[start]
            digest.update(repr((
                start,
                [(ins.pc, ins.op.code, ins.operand) for ins in block.instructions],
                sorted(block.successors),
                block.has_dynamic_jump,
                block.invalid_static_jump,
            )).encode())
        rcfg = resolve_jumps(cfg)
        digest.update(repr((
            _sorted_sets(rcfg.successors),
            _sorted_sets(rcfg.resolved_targets),
            _sorted_sets(rcfg.invalid_targets),
            sorted(rcfg.unresolved_jumps),
            rcfg.incomplete,
        )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "corpus,count,expected",
    [
        (_ci_sample, 45,
         "3e4ca29d6f594de6980180fd17ca245dea7756e87d49762187947bbac271b0b4"),
        (_codegen_variants, 13,
         "49375ccb6f3379185be94861cd4f74e07790be3d024b1c566375daac23f7135f"),
    ],
    ids=["ci-sample", "codegen-variants"],
)
def test_cfg_and_jump_products_are_pinned(corpus, count, expected):
    codes = corpus()
    assert len(codes) == count
    assert _products_digest(codes) == expected
