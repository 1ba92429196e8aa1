"""Basic-block recovery and control-flow graph construction.

SigRec's front end (paper §4.1) disassembles the bytecode and recognizes
basic blocks before running TASE.  Block boundaries are the standard
ones: JUMPDEST starts a block; JUMP/JUMPI/terminators end one.  Edges
for direct jumps (``PUSH addr; JUMP``) are resolved statically; computed
jumps are left for the symbolic executor to resolve, so the CFG exposes
both static successors and an ``has_dynamic_jump`` flag per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.evm.disasm import Instruction
from repro.evm.predecode import CONTROL_OPS, instruction_stream


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence."""

    start: int
    instructions: List[Instruction] = field(default_factory=list)
    successors: Set[int] = field(default_factory=set)
    predecessors: Set[int] = field(default_factory=set)
    has_dynamic_jump: bool = False
    # The terminator is a JUMP/JUMPI whose statically-known PUSH target
    # is not a valid JUMPDEST: taking that jump always throws.  The
    # block keeps no (taken) successor, but the defect is recorded
    # instead of silently dropped.
    invalid_static_jump: bool = False

    @property
    def end(self) -> int:
        last = self.instructions[-1]
        return last.pc + last.size

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BasicBlock({self.start:#x}..{self.end:#x}, succ={sorted(self.successors)})"


@dataclass
class ControlFlowGraph:
    """CFG over the basic blocks of one runtime bytecode."""

    blocks: Dict[int, BasicBlock]
    entry: int
    valid_jumpdests: FrozenSet[int]

    def block_at(self, pc: int) -> Optional[BasicBlock]:
        return self.blocks.get(pc)

    def reachable_from(self, start: int) -> Set[int]:
        """Block starts reachable from ``start`` along static edges."""
        seen: Set[int] = set()
        work = [start]
        while work:
            current = work.pop()
            if current in seen or current not in self.blocks:
                continue
            seen.add(current)
            work.extend(self.blocks[current].successors)
        return seen

    def __len__(self) -> int:
        return len(self.blocks)


def _leaders(instructions: List[Instruction]) -> List[int]:
    """Block-leader pcs: the first instruction, every JUMPDEST, and every
    instruction following a control transfer (JUMP, JUMPI, a terminator
    or an invalid byte — exactly :data:`~repro.evm.predecode.CONTROL_OPS`).

    Valid JUMPDESTs need no separate treatment as jump *targets*: being
    JUMPDESTs already makes them leaders.
    """
    if not instructions:
        return []
    end = instructions[-1].next_pc
    leaders = {instructions[0].pc}
    for ins in instructions:
        name = ins.op.name
        if name == "JUMPDEST":
            leaders.add(ins.pc)
        elif name in CONTROL_OPS and ins.next_pc < end:
            leaders.add(ins.next_pc)
    return sorted(leaders)


def build_cfg(bytecode: bytes) -> ControlFlowGraph:
    """Build the CFG of ``bytecode`` over its shared instruction stream.

    Static edges cover fall-through, JUMPI both-ways when the target is a
    ``PUSH`` immediately preceding the jump, and direct JUMPs.  Jumps
    whose target is not a preceding PUSH set ``has_dynamic_jump``; a
    pushed target that is *not* a valid JUMPDEST sets
    ``invalid_static_jump`` (the jump always throws at runtime).

    The blocks slice the cached stream of
    :func:`repro.evm.predecode.instruction_stream`, so they hold the
    same :class:`Instruction` objects the TASE engine executes.
    """
    stream = instruction_stream(bytecode)
    instructions = stream.instructions
    dests = stream.jumpdests
    pc_index = stream.pc_index
    bounds = [pc_index[pc] for pc in _leaders(instructions)]
    bounds.append(len(instructions))

    blocks: Dict[int, BasicBlock] = {}
    for first, stop in zip(bounds, bounds[1:]):
        start = instructions[first].pc
        blocks[start] = BasicBlock(
            start=start, instructions=instructions[first:stop]
        )

    for block in blocks.values():
        last = block.terminator
        name = last.op.name
        prev = block.instructions[-2] if len(block.instructions) >= 2 else None
        static_target = (
            prev.operand
            if prev is not None and prev.op.is_push and prev.operand is not None
            else None
        )
        if name == "JUMP":
            if static_target is not None and static_target in dests:
                block.successors.add(static_target)
            elif static_target is None:
                block.has_dynamic_jump = True
            else:
                block.invalid_static_jump = True
        elif name == "JUMPI":
            if static_target is not None and static_target in dests:
                block.successors.add(static_target)
            elif static_target is None:
                block.has_dynamic_jump = True
            else:
                block.invalid_static_jump = True
            if last.next_pc in blocks:
                block.successors.add(last.next_pc)
        elif not last.op.is_terminator and name != "UNKNOWN":
            if last.next_pc in blocks:
                block.successors.add(last.next_pc)

    for block in blocks.values():
        for succ in block.successors:
            if succ in blocks:
                blocks[succ].predecessors.add(block.start)

    entry = instructions[0].pc if instructions else 0
    return ControlFlowGraph(blocks=blocks, entry=entry, valid_jumpdests=dests)
