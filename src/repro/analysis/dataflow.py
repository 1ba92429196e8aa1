"""Jump-target resolution via push-constant stack dataflow.

The base CFG (:mod:`repro.evm.cfg`) only resolves jumps whose ``PUSH``
target immediately precedes them; everything else is left to the
symbolic executor.  This pass closes most of that gap statically: it
runs a fixpoint over the CFG with an abstract stack whose values are
small *sets of constants* (or unknown), executing PUSH/DUP/SWAP/POP and
constant-foldable arithmetic exactly.  A jump whose abstract target is a
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

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.evm.cfg import BasicBlock, ControlFlowGraph, build_cfg
from repro.evm.opcodes import OPCODES

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

_WORD = 1 << 256
_MASK = _WORD - 1

_FOLD = {
    "ADD": lambda a, b: (a + b) & _MASK,
    "SUB": lambda a, b: (a - b) & _MASK,
    "MUL": lambda a, b: (a * b) & _MASK,
    "DIV": lambda a, b: (a // b) & _MASK if b else 0,
    "MOD": lambda a, b: (a % b) & _MASK if b else 0,
    "EXP": lambda a, b: pow(a, b, _WORD),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: (b << a) & _MASK if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
}


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
    out: Set[int] = set()
    for x in a:
        for y in b:
            out.add(fold(x, y))
            if len(out) > MAX_SET:
                return None
    return frozenset(out)


#: Compiled op kinds.  Every compiled op is a ``(kind, a, b)`` triple.
_PUSH = 0    # a = the pushed constant set
_DUP = 1     # a = depth n: push the n-th entry from the top
_SWAP = 2    # a = depth n: swap the top and the (n+1)-th entry
_EFFECT = 3  # a = pops, b = pushes (each pushed value unknown)
_FOLD_OP = 4  # a = fold function over the top two entries
_NOT = 5
_JUMP = 6    # a = the jump's pc
_JUMPI = 7   # a = the jump's pc


def _template(op) -> Tuple:
    if op.is_push:
        return (_PUSH, None, 0)
    if op.is_dup:
        return (_DUP, op.code - 0x7F, 0)
    if op.is_swap:
        return (_SWAP, op.code - 0x8F, 0)
    if op.name == "JUMP":
        return (_JUMP, None, 0)
    if op.name == "JUMPI":
        return (_JUMPI, None, 0)
    if op.name in _FOLD:
        return (_FOLD_OP, _FOLD[op.name], 0)
    if op.name == "NOT":
        return (_NOT, 0, 0)
    return (_EFFECT, op.pops, op.pushes)


#: Opcode byte -> compiled-op template (``-1`` is the disassembler's
#: placeholder for bytes that are not opcodes: no stack effect).
_TEMPLATES: Dict[int, Tuple] = {
    op.code: _template(op) for op in OPCODES.values()
}
_TEMPLATES[-1] = (_EFFECT, 0, 0)


def _compile(block: BasicBlock) -> Tuple[Tuple[Tuple, ...], Optional[int]]:
    """``block`` lowered to op triples, plus the pc it falls through to
    (None when it ends in a JUMP, a terminator or an invalid byte).

    No-op instructions (zero pops and pushes: JUMPDEST, STOP, ...) are
    dropped; a jump becomes its own op so every visit reports its pc.
    """
    ops: List[Tuple] = []
    jumps = False
    for ins in block.instructions:
        template = _TEMPLATES[ins.op.code]
        kind = template[0]
        if kind == _PUSH:
            ops.append((_PUSH, frozenset((ins.operand or 0,)), 0))
        elif kind == _JUMP or kind == _JUMPI:
            jumps = True
            ops.append((kind, ins.pc, 0))
        elif kind != _EFFECT or template[1] or template[2]:
            ops.append(template)
    terminator = block.terminator
    name = terminator.op.name
    falls = name == "JUMPI" or (
        not jumps and not terminator.op.is_terminator and name != "UNKNOWN"
    )
    return tuple(ops), terminator.next_pc if falls else None


def _transfer(
    ops: Tuple[Tuple, ...], in_stack: Tuple[AbsValue, ...]
) -> Tuple[Tuple[AbsValue, ...], Optional[int], AbsValue]:
    """Abstractly execute compiled ``ops`` from ``in_stack``.

    Stacks are bottom-first lists, so every push and pop works at the
    end.  Returns ``(out stack, jump pc or None, jump targets)``; the
    targets are None (unknown) when the block has no jump.
    """
    stack: List[AbsValue] = list(in_stack)
    pop = stack.pop
    push = stack.append
    jump_pc: Optional[int] = None
    targets: AbsValue = None
    for kind, a, b in ops:
        if kind == _PUSH:
            push(a)
            if len(stack) > MAX_STACK:
                del stack[0]
        elif kind == _DUP:
            push(stack[-a] if a <= len(stack) else None)
            if len(stack) > MAX_STACK:
                del stack[0]
        elif kind == _SWAP:
            if len(stack) <= a:
                stack[:0] = [None] * (a + 1 - len(stack))
            stack[-1], stack[-1 - a] = stack[-1 - a], stack[-1]
        elif kind == _EFFECT:
            if a:
                del stack[-a:]
            if b:
                stack.extend([None] * b)
                if len(stack) > MAX_STACK:
                    del stack[:len(stack) - MAX_STACK]
        elif kind == _FOLD_OP:
            x = pop() if stack else None
            y = pop() if stack else None
            push(
                _cross_fold(a, x, y) if x is not None and y is not None
                else None
            )
        elif kind == _NOT:
            x = pop() if stack else None
            push(frozenset((~v) & _MASK for v in x) if x is not None else None)
        else:  # _JUMP / _JUMPI
            jump_pc = a
            targets = pop() if stack else None
            if kind == _JUMPI and stack:
                pop()
    return tuple(stack), jump_pc, targets


def resolve_jumps(cfg: ControlFlowGraph) -> ResolvedCFG:
    """Run the push-constant dataflow and return the augmented CFG.

    Each reached block is compiled once into op triples
    (:func:`_compile`); every later visit only re-runs the compiled ops
    from the block's joined in-state.  Visits keep the LIFO worklist
    order, and ``resolved``/``invalid``/``unresolved`` accumulate across
    visits: once a target set widens to unknown, the result depends on
    that order.
    """
    blocks = cfg.blocks
    dests = cfg.valid_jumpdests

    in_states: Dict[int, Tuple[AbsValue, ...]] = {cfg.entry: ()}
    resolved: Dict[int, Set[int]] = {}
    invalid: Dict[int, Set[int]] = {}
    unresolved: Set[int] = set()
    successors: Dict[int, Set[int]] = {
        start: set(block.successors) for start, block in blocks.items()
    }
    compiled: Dict[int, Tuple[Tuple[Tuple, ...], Optional[int]]] = {}

    visits: Dict[int, int] = {}
    incomplete = False
    work: List[int] = [cfg.entry] if cfg.entry in blocks else []
    on_work: Set[int] = set(work)

    def propagate(target: int, out_stack: Tuple[AbsValue, ...]) -> None:
        if target not in blocks:
            return
        current = in_states.get(target)
        joined = out_stack if current is None else _join_stacks(current, out_stack)
        if current is None or joined != current:
            in_states[target] = joined
            if target not in on_work:
                work.append(target)
                on_work.add(target)

    while work:
        start = work.pop()
        on_work.discard(start)
        count = visits.get(start, 0) + 1
        visits[start] = count
        if count > _MAX_VISITS_PER_BLOCK:
            incomplete = True
            continue
        lowered = compiled.get(start)
        if lowered is None:
            lowered = compiled[start] = _compile(blocks[start])
        ops, fall_pc = lowered
        out_stack, jump_pc, jump_targets = _transfer(
            ops, in_states.get(start, ())
        )

        if jump_pc is not None:
            if jump_targets is None:
                unresolved.add(jump_pc)
            else:
                unresolved.discard(jump_pc)
                good = resolved.setdefault(jump_pc, set())
                bad = invalid.setdefault(jump_pc, set())
                for target in jump_targets:
                    (good if target in dests else bad).add(target)
                for target in good:
                    if target not in successors[start]:
                        successors[start].add(target)
                    propagate(target, out_stack)
                if not bad:
                    invalid.pop(jump_pc, None)
        if fall_pc is not None:
            propagate(fall_pc, out_stack)

    # A jump that stayed unresolved on every visit but also never saw a
    # constant is input-dependent; one resolved on a later visit leaves
    # the unresolved set above.  Jumps in blocks the fixpoint never
    # reached (dead code) are reported as neither.
    return ResolvedCFG(
        base=cfg,
        successors={s: frozenset(v) for s, v in successors.items()},
        resolved_targets={pc: frozenset(v) for pc, v in resolved.items()},
        unresolved_jumps=frozenset(unresolved),
        invalid_targets={pc: frozenset(v) for pc, v in invalid.items()},
        incomplete=incomplete,
    )


def resolve_bytecode(bytecode: bytes) -> ResolvedCFG:
    """Convenience: CFG construction plus jump resolution."""
    return resolve_jumps(build_cfg(bytecode))
