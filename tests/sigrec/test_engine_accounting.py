"""Exact TASE accounting: pinned tallies of truncated and malformed runs.

The driver's per-instruction accounting (see ``TASEEngine._drive``)
decides which paths a budget trip cuts, so every tally a recovery
reports is pinned here: ``total_steps``, ``paths_explored``,
``forks_taken``, ``budget_exhaustions``, ``abandoned_states``, the two
truncation flags, the number of ``step_hook`` calls, and the
per-selector event counts.  Each case runs twice, once through the
fused block loop (no hook) and once through the per-step loop (with a
hook), and both must give the pinned values.

The values were recorded from two independent drivers that agreed on
every run: a per-opcode loop with one dispatch lookup per instruction,
and the superblock driver.  The bytecodes are a struct-heavy and a
Vyper contract under step, path, fork and loop budgets, plus tiny
malformed programs under budgets of a step or two: a stack underflow at
the first instruction, mid-block and at a JUMP; code that ends without
a terminator; a JUMPI that falls off the end of code; and a jump into
PUSH data.
"""

from functools import lru_cache

import pytest

from repro.abi.signature import FunctionSignature, Language, Visibility
from repro.compiler import CodegenOptions, compile_contract
from repro.sigrec.engine import TASEEngine


def _struct_contract():
    return compile_contract([
        FunctionSignature.parse("s((uint256,address)[],uint8)"),
        FunctionSignature.parse("t((uint256,bool),bytes)"),
        FunctionSignature.parse("n(((uint8,bool),uint256),uint256[2][])"),
        FunctionSignature.parse(
            "e((uint32,int64)[],bytes)", Visibility.EXTERNAL
        ),
    ]).bytecode


def _vyper_contract():
    return compile_contract(
        [
            FunctionSignature.parse(
                "v(address,bool)", Visibility.PUBLIC, Language.VYPER
            ),
            FunctionSignature.parse(
                "w(int128,uint256[3])", Visibility.PUBLIC, Language.VYPER
            ),
        ],
        CodegenOptions(language=Language.VYPER),
    ).bytecode


_CONTRACT_BUDGETS = {
    "default": {},
    "total_50": dict(max_total_steps=50),
    "total_137": dict(max_total_steps=137),
    "total_1000": dict(max_total_steps=1000),
    "path_10": dict(max_path_steps=10),
    "path_33": dict(max_path_steps=33),
    "paths_1": dict(max_paths=1),
    "paths_3": dict(max_paths=3),
    "fork_1": dict(fork_bound=1),
    "loop_2": dict(loop_bound=2),
}

_TINY_BUDGETS = {
    "default": {},
    "total_1": dict(max_total_steps=1),
    "total_2": dict(max_total_steps=2),
    "total_3": dict(max_total_steps=3),
    "path_0": dict(max_path_steps=0),
    "path_1": dict(max_path_steps=1),
    "path_2": dict(max_path_steps=2),
}

#: case -> (bytecode factory, budgets)
_CASES = {
    "struct": (_struct_contract, _CONTRACT_BUDGETS),
    "vyper": (_vyper_contract, _CONTRACT_BUDGETS),
    # ADD STOP
    "underflow": (lambda: bytes.fromhex("0100"), _TINY_BUDGETS),
    # PUSH1 1  PUSH1 2  ADD  ADD  STOP
    "underflow_mid_block": (
        lambda: bytes.fromhex("60016002010100"), _TINY_BUDGETS
    ),
    # JUMP
    "underflow_at_jump": (lambda: bytes.fromhex("56"), _TINY_BUDGETS),
    # PUSH1 1  PUSH1 2  ADD
    "no_terminator": (lambda: bytes.fromhex("6001600201"), _TINY_BUDGETS),
    # PUSH1 0  PUSH1 5  JUMPI: not taken, falls through to pc 5 = end
    "off_end_jumpi": (lambda: bytes.fromhex("6000600557"), _TINY_BUDGETS),
    # PUSH1 4  JUMP  PUSH1 0x5b  STOP: pc 4 is a 0x5b byte of PUSH data
    "push_data_jump": (lambda: bytes.fromhex("600456605b00"), _TINY_BUDGETS),
}

#: (case, budget) -> (total_steps, paths_explored, forks_taken,
#: budget_exhaustions, abandoned_states, truncated_paths,
#: truncated_steps, step_hook calls,
#: ((selector, loads, copies, uses, vyper_markers), ...))
EXPECTED = {
    ("struct", "default"): (
        318, 11, 10, 1, 0, False, False, 318,
        ((0x40c885a7, 4, 1, 5, 0), (0x71752418, 3, 1, 4, 0),
         (0xc5bc577c, 6, 0, 5, 0), (0xf30af6dc, 5, 3, 6, 0)),
    ),
    ("struct", "total_50"): (
        52, 3, 2, 0, 0, False, True, 50,
        ((0x40c885a7, 4, 1, 4, 0),),
    ),
    ("struct", "total_137"): (
        140, 7, 6, 0, 0, False, True, 137,
        ((0x40c885a7, 4, 1, 5, 0), (0x71752418, 3, 1, 4, 0),
         (0xc5bc577c, 2, 0, 1, 0), (0xf30af6dc, 3, 0, 4, 0)),
    ),
    ("struct", "total_1000"): (
        318, 11, 10, 1, 0, False, False, 318,
        ((0x40c885a7, 4, 1, 5, 0), (0x71752418, 3, 1, 4, 0),
         (0xc5bc577c, 6, 0, 5, 0), (0xf30af6dc, 5, 3, 6, 0)),
    ),
    ("struct", "path_10"): (14, 2, 1, 0, 0, False, True, 13, ()),
    ("struct", "path_33"): (
        83, 6, 5, 0, 0, False, True, 78,
        ((0x40c885a7, 4, 0, 3, 0), (0x71752418, 2, 0, 2, 0),
         (0xc5bc577c, 2, 0, 1, 0), (0xf30af6dc, 0, 0, 0, 0)),
    ),
    ("struct", "paths_1"): (8, 2, 1, 0, 1, True, False, 8, ()),
    ("struct", "paths_3"): (
        88, 4, 3, 0, 1, True, False, 88,
        ((0x40c885a7, 4, 1, 5, 0), (0x71752418, 3, 1, 4, 0)),
    ),
    ("struct", "fork_1"): (
        244, 9, 8, 1, 0, False, False, 244,
        ((0x40c885a7, 4, 1, 5, 0), (0x71752418, 3, 1, 4, 0),
         (0xc5bc577c, 6, 0, 5, 0), (0xf30af6dc, 5, 1, 5, 0)),
    ),
    ("struct", "loop_2"): (
        309, 11, 10, 0, 0, False, False, 309,
        ((0x40c885a7, 4, 1, 5, 0), (0x71752418, 3, 1, 4, 0),
         (0xc5bc577c, 6, 0, 5, 0), (0xf30af6dc, 5, 3, 6, 0)),
    ),
    ("vyper", "default"): (
        112, 9, 8, 0, 0, False, False, 112,
        ((0xd2808260, 2, 0, 4, 2), (0xf234049e, 2, 0, 2, 2)),
    ),
    ("vyper", "total_50"): (
        54, 6, 5, 0, 0, False, True, 50,
        ((0xd2808260, 1, 0, 1, 1), (0xf234049e, 1, 0, 1, 1)),
    ),
    ("vyper", "total_137"): (
        112, 9, 8, 0, 0, False, False, 112,
        ((0xd2808260, 2, 0, 4, 2), (0xf234049e, 2, 0, 2, 2)),
    ),
    ("vyper", "total_1000"): (
        112, 9, 8, 0, 0, False, False, 112,
        ((0xd2808260, 2, 0, 4, 2), (0xf234049e, 2, 0, 2, 2)),
    ),
    ("vyper", "path_10"): (14, 2, 1, 0, 0, False, True, 13, ()),
    ("vyper", "path_33"): (
        70, 7, 6, 0, 0, False, True, 66,
        ((0xd2808260, 1, 0, 3, 2), (0xf234049e, 1, 0, 1, 1)),
    ),
    ("vyper", "paths_1"): (8, 2, 1, 0, 1, True, False, 8, ()),
    ("vyper", "paths_3"): (
        52, 4, 5, 0, 3, True, False, 52,
        ((0xd2808260, 1, 0, 1, 1), (0xf234049e, 1, 0, 1, 1)),
    ),
    ("vyper", "fork_1"): (
        112, 9, 8, 0, 0, False, False, 112,
        ((0xd2808260, 2, 0, 4, 2), (0xf234049e, 2, 0, 2, 2)),
    ),
    ("vyper", "loop_2"): (
        112, 9, 8, 0, 0, False, False, 112,
        ((0xd2808260, 2, 0, 4, 2), (0xf234049e, 2, 0, 2, 2)),
    ),
    ("underflow", "default"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow", "total_1"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow", "total_2"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow", "total_3"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow", "path_0"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow", "path_1"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow", "path_2"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow_mid_block", "default"): (4, 1, 0, 0, 0, False, False, 4, ()),
    ("underflow_mid_block", "total_1"): (2, 1, 0, 0, 0, False, True, 1, ()),
    ("underflow_mid_block", "total_2"): (3, 1, 0, 0, 0, False, True, 2, ()),
    ("underflow_mid_block", "total_3"): (4, 1, 0, 0, 0, False, True, 3, ()),
    ("underflow_mid_block", "path_0"): (2, 1, 0, 0, 0, False, True, 1, ()),
    ("underflow_mid_block", "path_1"): (3, 1, 0, 0, 0, False, True, 2, ()),
    ("underflow_mid_block", "path_2"): (4, 1, 0, 0, 0, False, True, 3, ()),
    ("underflow_at_jump", "default"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow_at_jump", "total_1"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow_at_jump", "total_2"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow_at_jump", "total_3"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow_at_jump", "path_0"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow_at_jump", "path_1"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("underflow_at_jump", "path_2"): (1, 1, 0, 0, 0, False, False, 1, ()),
    ("no_terminator", "default"): (4, 1, 0, 0, 0, False, False, 3, ()),
    ("no_terminator", "total_1"): (2, 1, 0, 0, 0, False, True, 1, ()),
    ("no_terminator", "total_2"): (3, 1, 0, 0, 0, False, True, 2, ()),
    ("no_terminator", "total_3"): (4, 1, 0, 0, 0, False, True, 3, ()),
    ("no_terminator", "path_0"): (2, 1, 0, 0, 0, False, True, 1, ()),
    ("no_terminator", "path_1"): (3, 1, 0, 0, 0, False, True, 2, ()),
    ("no_terminator", "path_2"): (4, 1, 0, 0, 0, False, True, 3, ()),
    ("off_end_jumpi", "default"): (4, 1, 0, 0, 0, False, False, 3, ()),
    ("off_end_jumpi", "total_1"): (2, 1, 0, 0, 0, False, True, 1, ()),
    ("off_end_jumpi", "total_2"): (3, 1, 0, 0, 0, False, True, 2, ()),
    ("off_end_jumpi", "total_3"): (4, 1, 0, 0, 0, False, True, 3, ()),
    ("off_end_jumpi", "path_0"): (2, 1, 0, 0, 0, False, True, 1, ()),
    ("off_end_jumpi", "path_1"): (3, 1, 0, 0, 0, False, True, 2, ()),
    ("off_end_jumpi", "path_2"): (4, 1, 0, 0, 0, False, True, 3, ()),
    ("push_data_jump", "default"): (2, 1, 0, 0, 0, False, False, 2, ()),
    ("push_data_jump", "total_1"): (2, 1, 0, 0, 0, False, True, 1, ()),
    ("push_data_jump", "total_2"): (2, 1, 0, 0, 0, False, False, 2, ()),
    ("push_data_jump", "total_3"): (2, 1, 0, 0, 0, False, False, 2, ()),
    ("push_data_jump", "path_0"): (2, 1, 0, 0, 0, False, True, 1, ()),
    ("push_data_jump", "path_1"): (2, 1, 0, 0, 0, False, False, 2, ()),
    ("push_data_jump", "path_2"): (2, 1, 0, 0, 0, False, False, 2, ()),
}


@lru_cache(maxsize=None)
def _bytecode(case):
    return _CASES[case][0]()


def _tallies(result):
    return (
        result.total_steps,
        result.paths_explored,
        result.forks_taken,
        result.budget_exhaustions,
        result.abandoned_states,
        result.truncated_paths,
        result.truncated_steps,
    )


def _event_counts(result):
    return tuple(
        (selector, len(ev.loads), len(ev.copies), len(ev.uses),
         ev.vyper_markers)
        for selector, ev in sorted(result.functions.items())
    )


@pytest.mark.parametrize("case, budget", [
    (case, budget) for case, (_, budgets) in _CASES.items()
    for budget in budgets
])
@pytest.mark.parametrize("hooked", [False, True], ids=["fused", "hooked"])
def test_engine_accounting_matches_pinned(case, budget, hooked):
    *tallies, hook_calls, events = EXPECTED[(case, budget)]
    calls = []
    hook = (lambda pc, stack: calls.append(pc)) if hooked else None
    result = TASEEngine(
        _bytecode(case), step_hook=hook, **_CASES[case][1][budget]
    ).run()
    assert _tallies(result) == tuple(tallies)
    assert _event_counts(result) == events
    assert result.hit_limits == (
        result.truncated_paths or result.truncated_steps
    )
    if hooked:
        assert len(calls) == hook_calls
