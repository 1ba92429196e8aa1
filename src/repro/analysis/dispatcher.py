"""Static dispatcher analysis: the selector → entry-block map.

Walks the base CFG from the entry with a four-value token domain —
constants, "the first call-data word", "the extracted function id", and
"a comparison of the function id with constant *c*" — precise enough to
recognize every dispatcher shape our compilers (and real solc/vyper)
emit without executing anything:

* ``DIV 2^224`` (pre-Constantinople), ``DIV`` + ``AND 0xffffffff``, and
  ``SHR 224`` function-id extraction;
* linear ``EQ`` chains and binary-search trees (``GT`` splits whose
  leaves are short ``EQ`` chains);
* the optional ``CALLDATASIZE < 4`` fallback check.

A ``JUMPI`` whose condition is ``EQ(<id>, c)`` and whose target is a
valid ``JUMPDEST`` constant records ``c → target``; the walk continues
down the not-matched side only, so function bodies are never entered.
Every other spine jump is followed to the constant its token holds when
that constant is a valid ``JUMPDEST`` (and a ``JUMPI`` also falls
through), so the walk needs the CFG but no whole-program jump
resolution.

The selector set is the cross-check oracle for TASE's symbolic
dispatcher walk; the per-selector regions over resolved jumps are the
``reach`` pass's (:mod:`repro.analysis.reachability`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.analysis.absint import Machine, walk
from repro.analysis.stackcheck import Finding
from repro.evm.cfg import ControlFlowGraph

_SELECTOR_MASK = 0xFFFFFFFF

# Tokens: ("c", v) a constant, ("sel", v) the comparison EQ(<id>, v),
# and three singletons.
_CONST = "c"
_SELCMP = "sel"
_CD0 = ("cd0",)  # CALLDATALOAD(0): the raw first call-data word
_FID = ("fid",)  # the extracted 4-byte function id
_UNKNOWN = ("?",)

#: How often one block may be (re)walked with distinct abstract states;
#: real dispatchers are acyclic, so this only guards crafted loops.
_MAX_VISITS = 32


def _eq(a: Tuple, b: Tuple) -> Tuple:
    for x, y in ((a, b), (b, a)):
        if x == _FID and y[0] == _CONST and y[1] <= _SELECTOR_MASK:
            return (_SELCMP, y[1])
    return _UNKNOWN


_MACHINE = Machine(
    const=lambda value: (_CONST, value),
    unknown=_UNKNOWN,
    cap=32,
    handlers={
        "CALLDATALOAD": lambda _ctx, _pc, loc: (
            _CD0 if loc == (_CONST, 0) else _UNKNOWN
        ),
    },
    # Operands are (top, next).  DIV by 2^224, SHR by 224 and an AND
    # with the 4-byte mask extract the function id.
    binops={
        "DIV": lambda a, b: (
            _FID if a == _CD0 and b == (_CONST, 1 << 224) else _UNKNOWN
        ),
        "SHR": lambda a, b: _FID if a == (_CONST, 224) and b == _CD0 else _UNKNOWN,
        "AND": lambda a, b: (
            _FID if _FID in (a, b) and (_CONST, _SELECTOR_MASK) in (a, b)
            else _UNKNOWN
        ),
        "EQ": _eq,
    },
)


@dataclass
class DispatcherReport:
    """Everything the static dispatcher walk discovered.

    Per-selector regions and the blocks unreachable from the entry need
    the jump fixpoint, so they live in the ``reach`` product
    (:class:`~repro.analysis.reachability.ReachabilityReport`).
    """

    selectors: Tuple[int, ...] = ()
    #: selector -> entry-block start pc.
    entries: Dict[int, int] = field(default_factory=dict)
    #: Block starts visited while walking the dispatcher itself.
    dispatcher_blocks: FrozenSet[int] = frozenset()
    findings: Tuple[Finding, ...] = ()


def extract_dispatch(cfg: ControlFlowGraph) -> DispatcherReport:
    """Walk the dispatcher statically and map selectors to entry blocks.

    A path-sensitive :func:`~repro.analysis.absint.walk` over the base
    CFG: each distinct (block, token stack) pair is stepped once.
    """
    blocks = cfg.blocks
    if cfg.entry not in blocks:
        return DispatcherReport()
    dests = cfg.valid_jumpdests
    findings: List[Finding] = []
    entries: Dict[int, int] = {}
    # Lowered on first visit: the walk reaches only the dispatcher spine.
    lowered: Dict[int, Tuple] = {}

    def step(start: int, in_stack: Tuple) -> Tuple:
        code = lowered.get(start)
        if code is None:
            code = lowered[start] = _MACHINE.lower(blocks[start])
        ops, fall_pc = code
        stack = list(in_stack)
        jump = _MACHINE.run(ops, stack)
        if jump is None:
            successors = [fall_pc]
        elif jump[1] is not None and jump[1][0] == _SELCMP:
            selector = jump[1][1]
            target = jump[0]
            if target[0] == _CONST and target[1] in dests:
                previous = entries.get(selector)
                if previous is not None and previous != target[1]:
                    findings.append(Finding(
                        "dispatcher-conflict",
                        ops[-1][2],
                        f"selector 0x{selector:08x} dispatched to "
                        f"both {previous:#x} and {target[1]:#x}",
                        severity="warning",
                    ))
                else:
                    entries[selector] = target[1]
            # Continue down the not-matched side only.
            successors = [fall_pc]
        else:
            # Follow the jump only to a valid JUMPDEST its token holds.
            target = jump[0]
            valid = target[0] == _CONST and target[1] in dests
            successors = [target[1] if valid else None, fall_pc]
        return tuple(stack), filter(blocks.__contains__, successors)

    visited, _ = walk(cfg.entry, (), step, _MAX_VISITS)
    return DispatcherReport(
        selectors=tuple(sorted(entries)),
        entries=entries,
        dispatcher_blocks=frozenset(visited),
        findings=tuple(findings),
    )
