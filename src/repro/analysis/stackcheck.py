"""Stack-height verification: a bytecode sanitizer.

Abstract interpretation over the resolved CFG with the interval domain
on stack depth: every block gets the ``[lo, hi]`` range of heights it
can be entered with, and every instruction is checked against the EVM's
two hard limits — popping below zero and growing past 1024 items.

Join points may legitimately merge different heights (a shared revert
block is entered from arbitrary mid-expression stacks), so a mere
``lo != hi`` is not an error.  What *is* rejected:

* ``stack-underflow`` — an instruction pops below empty on **every**
  incoming height;
* ``unbalanced-join`` — an instruction pops below empty only on *some*
  incoming heights: the paths into the block disagree in a way the
  block's own code cannot tolerate;
* ``stack-overflow`` — some incoming height pushes the stack past 1024;
* ``invalid-jump-target`` — a statically-known jump target that is not
  a JUMPDEST (from the base CFG flag or the dataflow pass).

The verifier runs over everything our own compilers emit (see
``tests/compiler/test_verifier.py``): codegen bugs that corrupt the
stack surface here before they surface as wrong recovered types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.absint import walk
from repro.analysis.dataflow import ResolvedCFG

#: The EVM's hard stack-size limit.
STACK_LIMIT = 1024
#: Every in-interval ``[lo, hi]`` lies within ``0..STACK_LIMIT`` and
#: only grows (``lo`` falls, ``hi`` rises), so no block is stepped more
#: than once plus once per growth: the walk can never exhaust this.
_MAX_VISITS = 2 * STACK_LIMIT + 1


@dataclass(frozen=True)
class Finding:
    """One analysis finding, shared by every pass and the linter."""

    kind: str
    pc: int
    detail: str
    severity: str = "error"  # "error" | "warning" | "info"

    def render(self) -> str:
        return f"{self.severity}: {self.kind} at {self.pc:#06x}: {self.detail}"


@dataclass
class StackReport:
    """Verifier output: per-block entry-height intervals plus findings."""

    entry_heights: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    findings: Tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)


def _block_effect(block) -> Tuple[int, int, List[Tuple[int, int, int]]]:
    """(net, max_rel, [(pc, pops_at, rel_before)]) for a block.

    ``max_rel`` is the highest height relative to entry reached inside
    the block.
    """
    rel = 0
    max_rel = 0
    per_ins: List[Tuple[int, int, int]] = []
    for ins in block.instructions:
        per_ins.append((ins.pc, ins.op.pops, rel))
        rel += ins.op.pushes - ins.op.pops
        if rel > max_rel:
            max_rel = rel
    return rel, max_rel, per_ins


def _hull(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    return (a[0] if a[0] < b[0] else b[0], a[1] if a[1] > b[1] else b[1])


def verify_stack(rcfg: ResolvedCFG) -> StackReport:
    """Verify stack discipline over all code reachable from the entry.

    A join fixpoint on :func:`~repro.analysis.absint.walk` whose states
    are entry-height intervals, joined by their hull.
    """
    blocks = rcfg.blocks
    findings: List[Finding] = []
    seen_keys: Set[Tuple[str, int]] = set()

    def report(kind: str, pc: int, detail: str, severity: str = "error") -> None:
        key = (kind, pc)
        if key not in seen_keys:
            seen_keys.add(key)
            findings.append(Finding(kind, pc, detail, severity))

    # Statically invalid jump targets, wherever they were discovered.
    for start, block in sorted(blocks.items()):
        if block.invalid_static_jump:
            report(
                "invalid-jump-target",
                block.terminator.pc,
                "pushed jump target is not a JUMPDEST",
            )
    for pc, targets in sorted(rcfg.invalid_targets.items()):
        shown = ", ".join(f"{t:#x}" for t in sorted(targets))
        report(
            "invalid-jump-target", pc,
            f"resolved jump target(s) {shown} are not JUMPDESTs",
        )

    if rcfg.entry not in blocks:
        return StackReport(entry_heights={}, findings=tuple(findings))

    effects = {start: _block_effect(block) for start, block in blocks.items()}

    def step(start: int, heights: Tuple[int, int]) -> Tuple:
        lo, hi = heights
        net, max_rel, per_ins = effects[start]
        for pc, pops, rel_before in per_ins:
            if pops and hi + rel_before - pops < 0:
                report(
                    "stack-underflow", pc,
                    f"pops {pops} with at most {hi + rel_before} on the stack",
                )
                return None, ()  # garbage heights downstream would cascade
            if pops and lo + rel_before - pops < 0:
                report(
                    "unbalanced-join", pc,
                    f"pops {pops}, but some path enters block {start:#x} "
                    f"with only {lo + rel_before} on the stack "
                    f"(heights {lo}..{hi})",
                )
                # Keep going with the surviving (higher) heights.
                lo = pops - rel_before
        if hi + max_rel > STACK_LIMIT:
            report(
                "stack-overflow",
                block_pc_of_max(blocks[start], max_rel),
                f"stack grows to {hi + max_rel} (> {STACK_LIMIT})",
            )
            return None, ()
        # The jump/jumpi operands are already popped in `net`.
        successors = rcfg.successors.get(start, ())
        return (lo + net, hi + net), filter(blocks.__contains__, successors)

    intervals, _ = walk(rcfg.entry, (0, 0), step, _MAX_VISITS, _hull)
    return StackReport(entry_heights=intervals, findings=tuple(findings))


def block_pc_of_max(block, max_rel: int) -> int:
    """The pc at which the block first reaches its peak relative height."""
    rel = 0
    for ins in block.instructions:
        rel += ins.op.pushes - ins.op.pops
        if rel >= max_rel:
            return ins.pc
    return block.terminator.pc
