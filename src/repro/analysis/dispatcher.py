"""Static dispatcher analysis: the selector → entry-block map.

Walks the resolved CFG from the entry with a four-value token domain —
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
resolved constant records ``c → target``; the walk continues down the
not-matched side only, so function bodies are never entered.  Everything
else (size checks, ``GT`` splits) is followed both ways.

The per-selector *region* — the blocks statically reachable from the
entry block along resolved edges — is what the TASE engine uses to
restrict exploration, and the full selector set is the cross-check
oracle for the symbolic dispatcher walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.absint import Machine, walk
from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.stackcheck import Finding

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
    """Everything the static dispatcher walk discovered."""

    selectors: Tuple[int, ...] = ()
    #: selector -> entry-block start pc.
    entries: Dict[int, int] = field(default_factory=dict)
    #: Block starts visited while walking the dispatcher itself.
    dispatcher_blocks: FrozenSet[int] = frozenset()
    #: selector -> block starts statically reachable from its entry.
    regions: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    #: Block starts unreachable from the contract entry (dead code or
    #: trailing data).
    unreachable: FrozenSet[int] = frozenset()
    findings: Tuple[Finding, ...] = ()


def region_preimage(
    rcfg, report: "DispatcherReport", bytecode: bytes, selector: int
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

    Returns ``None`` when the selector has no entry or its region is
    unknown; the caller must additionally gate on the region being
    *closed* (every jump resolved) before trusting the preimage.
    """
    if selector not in report.entries:
        return None
    region = report.regions.get(selector)
    if region is None:
        return None
    blocks = rcfg.blocks
    parts = [b"sigrec-fn-region:v1", selector.to_bytes(4, "big")]
    for label, starts in ((b"spine", report.dispatcher_blocks),
                         (b"region", region)):
        parts.append(label)
        for start in sorted(starts):
            block = blocks.get(start)
            if block is None:
                return None
            parts.append(start.to_bytes(4, "big"))
            parts.append(bytecode[block.start:block.end])
    return b"\x00".join(parts)


def extract_dispatch(rcfg: ResolvedCFG) -> DispatcherReport:
    """Walk the dispatcher statically and map selectors to entry blocks.

    A path-sensitive :func:`~repro.analysis.absint.walk`: each distinct
    (block, token stack) pair is stepped once.
    """
    blocks = rcfg.blocks
    if rcfg.entry not in blocks:
        return DispatcherReport()
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
            if target[0] == _CONST and target[1] in rcfg.valid_jumpdests:
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
            successors = [*rcfg.resolved_targets.get(ops[-1][2], ()), fall_pc]
        return tuple(stack), filter(blocks.__contains__, successors)

    visited, _ = walk(rcfg.entry, (), step, _MAX_VISITS)
    regions = {
        selector: rcfg.reachable_from(entry)
        for selector, entry in entries.items()
    }
    unreachable = frozenset(blocks) - rcfg.reachable_from(rcfg.entry)
    return DispatcherReport(
        selectors=tuple(sorted(entries)),
        entries=entries,
        dispatcher_blocks=frozenset(visited),
        regions=regions,
        unreachable=unreachable,
        findings=tuple(findings),
    )
