"""Per-selector reachability: which instructions can a function touch?

Each selector's *region* is the set of blocks statically reachable from
its dispatcher entry over the jump fixpoint's resolved edges.  Because
jump resolution follows the return-address dispatch of internal calls
(several callers pushing different return targets into one shared
block), a region is naturally **interprocedural**: the blocks of every
internal function a body can call are part of it.

This pass turns regions into an explicit reachability product that the
storage, mutability, returns and lint passes, the function-memo
preimage and the profile consume:

* ``blocks`` — the region's block starts;
* ``ops`` — the set of opcode names appearing anywhere in the region
  (the input to "does this function ever write state?" questions);
* ``complete`` — the safety valve.  ``True`` only when the CFG fixpoint
  finished (``not rcfg.incomplete``) *and* every ``JUMP``/``JUMPI``
  terminator inside the region was classified (resolved or provably
  invalid, never unresolved).  An open region may reach code the static
  walk cannot see, so downstream passes must degrade to "unknown"
  instead of trusting the op set, and only a complete (*closed*)
  region yields a function-memo preimage.

The report also carries ``unreachable``, the blocks no resolved edge
reaches from the contract entry (dead code or trailing data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport


@dataclass(frozen=True)
class ReachableFunction:
    """The statically reachable footprint of one public function."""

    selector: int
    entry: int
    blocks: FrozenSet[int]
    #: Opcode names appearing anywhere in the region.
    ops: FrozenSet[str]
    #: True when the region is closed: every jump inside it classified
    #: and the CFG fixpoint complete.  When False the footprint is a
    #: lower bound only — never base a verdict on it.
    complete: bool


@dataclass
class ReachabilityReport:
    """selector -> :class:`ReachableFunction`, plus the global valve."""

    functions: Dict[int, ReachableFunction]
    #: Mirrors ``ResolvedCFG.incomplete``: the fixpoint hit its safety
    #: valve, so *every* function is incomplete regardless of region.
    incomplete: bool
    #: Block starts unreachable from the contract entry (dead code or
    #: trailing data).
    unreachable: FrozenSet[int]

    @property
    def regions(self) -> Dict[int, FrozenSet[int]]:
        """selector -> its region's block starts."""
        return {s: f.blocks for s, f in self.functions.items()}

    def complete_for(self, selector: int) -> bool:
        function = self.functions.get(selector)
        return bool(function and function.complete)


def region_closed(rcfg: ResolvedCFG, region: FrozenSet[int]) -> bool:
    """Every jump terminator in the region classified by the dataflow.

    A jump the fixpoint never classified at all (possible only in corner
    cases) leaves the region open: stay conservative.
    """
    blocks = rcfg.blocks
    for start in region:
        block = blocks.get(start)
        if block is None:
            return False
        terminator = block.terminator
        if terminator.op.name in ("JUMP", "JUMPI"):
            if terminator.pc in rcfg.unresolved_jumps:
                return False
            if (
                terminator.pc not in rcfg.resolved_targets
                and terminator.pc not in rcfg.invalid_targets
            ):
                return False
    return True


def compute_reachability(
    rcfg: ResolvedCFG, dispatcher: DispatcherReport
) -> ReachabilityReport:
    """Per-selector regions over the resolved jumps, with their facts."""
    functions: Dict[int, ReachableFunction] = {}
    for selector, entry in dispatcher.entries.items():
        region = rcfg.reachable_from(entry)
        complete = not rcfg.incomplete and region_closed(rcfg, region)
        ops = set()
        for start in region:
            block = rcfg.blocks.get(start)
            if block is None:
                continue
            for ins in block.instructions:
                ops.add(ins.op.name)
        functions[selector] = ReachableFunction(
            selector=selector,
            entry=entry,
            blocks=region,
            ops=frozenset(ops),
            complete=complete,
        )
    return ReachabilityReport(
        functions=functions,
        incomplete=bool(rcfg.incomplete),
        unreachable=frozenset(rcfg.blocks) - rcfg.reachable_from(rcfg.entry),
    )


def region_preimage(
    rcfg: ResolvedCFG,
    dispatcher: DispatcherReport,
    function: ReachableFunction,
    bytecode: bytes,
) -> Optional[bytes]:
    """The byte string that determines one function's recovery.

    A selector-sharded TASE run is a deterministic function of (a) the
    dispatcher spine it walks from pc 0 to the function entry and (b)
    the function's statically reachable region — both taken as raw
    (start, bytes) block spans, so absolute jump targets are part of
    the key and two layouts never collide.  Hashing this preimage
    (together with the selector and the engine-options fingerprint) is
    what lets a proxy/clone corpus — identical code bodies under
    differing metadata trailers or sibling constants — recover each
    shared body once.

    The caller must gate on ``function.complete`` (every jump in the
    region resolved) before trusting the preimage.
    """
    blocks = rcfg.blocks
    parts = [b"sigrec-fn-region:v1", function.selector.to_bytes(4, "big")]
    for label, starts in ((b"spine", dispatcher.dispatcher_blocks),
                          (b"region", function.blocks)):
        parts.append(label)
        for start in sorted(starts):
            block = blocks.get(start)
            if block is None:
                return None
            parts.append(start.to_bytes(4, "big"))
            parts.append(bytecode[block.start:block.end])
    return b"\x00".join(parts)
