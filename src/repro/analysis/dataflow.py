"""Jump-target resolution via push-constant stack dataflow.

The base CFG (:mod:`repro.evm.cfg`) only resolves jumps whose ``PUSH``
target immediately precedes them; everything else is left to the
symbolic executor.  This pass closes most of that gap statically: it
runs a fixpoint over the CFG with an abstract stack whose values are
small *sets of constants* (or unknown), executing PUSH/DUP/SWAP/POP and
constant-foldable arithmetic exactly on the shared abstract-stack
machine (:mod:`repro.analysis.absint`).  A jump whose abstract target is a
constant set becomes a set of static edges — including the
return-address dispatch of internal calls, where several callers push
different return targets into one shared block.

The result is a :class:`ResolvedCFG`: the base CFG plus the augmented
edge set, a per-jump resolution table, and the jumps that remain
genuinely input-dependent.  Soundness: an abstract value is either the
exact set of every constant that can occupy that slot, or unknown —
operations the fold does not model always produce unknown, so a
resolved target set over-approximates nothing and misses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.analysis.absint import FOLD, MASK, Machine, walk
from repro.evm.cfg import BasicBlock, ControlFlowGraph, build_cfg

#: An abstract stack slot: a frozenset of possible constants, or None
#: for "any value".
AbsValue = Optional[FrozenSet[int]]

#: Constant sets wider than this collapse to unknown.
MAX_SET = 8
#: Abstract stacks deeper than this drop their bottom entries.
MAX_STACK = 64
#: Fixpoint safety valve: worklist pops before the pass gives up and
#: reports itself incomplete (monotone lattice ⇒ normally unreachable).
_MAX_VISITS_PER_BLOCK = 4 * (MAX_SET + 2) * MAX_STACK


@dataclass
class ResolvedCFG:
    """The base CFG with dataflow-resolved jump edges layered on top."""

    base: ControlFlowGraph
    #: Block start -> full successor set (static + resolved edges).
    successors: Dict[int, FrozenSet[int]]
    #: Jump pc -> the valid-JUMPDEST targets the dataflow proved.
    resolved_targets: Dict[int, FrozenSet[int]]
    #: Jump pcs whose target remains input-dependent after the pass.
    unresolved_jumps: FrozenSet[int]
    #: Jump pc -> constant targets that are *not* valid JUMPDESTs
    #: (taking the jump with one of these always throws).
    invalid_targets: Dict[int, FrozenSet[int]]
    #: True when the fixpoint hit its safety valve; resolution data is
    #: then a partial under-approximation and must not drive sharding
    #: or function-memo keys.
    incomplete: bool = False

    @property
    def blocks(self) -> Dict[int, BasicBlock]:
        return self.base.blocks

    @property
    def entry(self) -> int:
        return self.base.entry

    @property
    def valid_jumpdests(self) -> FrozenSet[int]:
        return self.base.valid_jumpdests

    def reachable_from(self, start: int) -> FrozenSet[int]:
        """Block starts reachable from ``start`` along resolved edges."""
        seen: Set[int] = set()
        work = [start]
        blocks = self.base.blocks
        while work:
            current = work.pop()
            if current in seen or current not in blocks:
                continue
            seen.add(current)
            work.extend(self.successors.get(current, ()))
        return frozenset(seen)


def _join_values(a: AbsValue, b: AbsValue) -> AbsValue:
    if a is None or b is None:
        return None
    union = a | b
    return union if len(union) <= MAX_SET else None


def _join_stacks(
    a: Tuple[AbsValue, ...], b: Tuple[AbsValue, ...]
) -> Tuple[AbsValue, ...]:
    """Elementwise join, aligned at the stack top.

    Stacks are bottom-first (the top is the last entry), so the join
    keeps the shorter depth and pairs the entries counted from the end.
    """
    depth = min(len(a), len(b))
    return tuple(map(_join_values, a[len(a) - depth:], b[len(b) - depth:]))


def _cross_fold(fold, a: FrozenSet[int], b: FrozenSet[int]) -> AbsValue:
    """``fold`` over every pair of constants, or None past ``MAX_SET``."""
    out: Set[int] = set()
    for x in a:
        for y in b:
            out.add(fold(x, y))
            if len(out) > MAX_SET:
                return None
    return frozenset(out)


_MACHINE = Machine(
    const=lambda value: frozenset((value,)),
    unknown=None,
    cap=MAX_STACK,
    handlers={
        "NOT": lambda _ctx, _pc, x: (
            None if x is None else frozenset((~v) & MASK for v in x)
        ),
    },
    binops=FOLD,
    binop=_cross_fold,
)


def resolve_jumps(cfg: ControlFlowGraph) -> ResolvedCFG:
    """Run the push-constant dataflow and return the augmented CFG.

    A join fixpoint on :func:`~repro.analysis.absint.walk`: every block
    is lowered once up front, and each visit re-runs its ops from the
    block's joined in-state.  ``resolved``/``invalid``/``unresolved``
    accumulate across visits in LIFO worklist order: once a target set
    widens to unknown, the result depends on that order.
    """
    blocks = cfg.blocks
    dests = cfg.valid_jumpdests
    resolved: Dict[int, Set[int]] = {}
    invalid: Dict[int, Set[int]] = {}
    unresolved: Set[int] = set()
    edges: Dict[int, Set[int]] = {
        start: set(block.successors) for start, block in blocks.items()
    }
    lowered = {start: _MACHINE.lower(block) for start, block in blocks.items()}
    run = _MACHINE.run

    def step(start: int, in_stack: Tuple[AbsValue, ...]) -> Tuple:
        ops, fall_pc = lowered[start]
        stack = list(in_stack)
        jump = run(ops, stack)
        successors = []
        if jump is not None:
            jump_pc = ops[-1][2]
            if jump[0] is None:
                unresolved.add(jump_pc)
            else:
                unresolved.discard(jump_pc)
                good = resolved.setdefault(jump_pc, set())
                bad = invalid.setdefault(jump_pc, set())
                for target in jump[0]:
                    (good if target in dests else bad).add(target)
                edges[start].update(good)
                for target in good:
                    if target in blocks:
                        successors.append(target)
                if not bad:
                    invalid.pop(jump_pc, None)
        if fall_pc in blocks:
            successors.append(fall_pc)
        return tuple(stack), successors

    incomplete = False
    if cfg.entry in blocks:
        _, incomplete = walk(
            cfg.entry, (), step, _MAX_VISITS_PER_BLOCK, _join_stacks
        )
    # A jump that stayed unresolved on every visit but also never saw a
    # constant is input-dependent; one resolved on a later visit leaves
    # the unresolved set above.  Jumps in blocks the fixpoint never
    # reached (dead code) are reported as neither.
    return ResolvedCFG(
        base=cfg,
        successors={s: frozenset(v) for s, v in edges.items()},
        resolved_targets={pc: frozenset(v) for pc, v in resolved.items()},
        unresolved_jumps=frozenset(unresolved),
        invalid_targets={pc: frozenset(v) for pc, v in invalid.items()},
        incomplete=incomplete,
    )


def resolve_bytecode(bytecode: bytes) -> ResolvedCFG:
    """Convenience: CFG construction plus jump resolution."""
    return resolve_jumps(build_cfg(bytecode))
