"""Storage-layout recovery: slot/offset/type from SLOAD/SSTORE shapes.

Calldata signatures describe a contract's *inputs*; its persistent
state lives in the 2^256-slot storage array, addressed by compiler-
fixed layout rules ("Precise Static Identification of Ethereum Storage
Variables", PAPERS.md):

* plain variables sit at small constant slots, several small ones
  *packed* into one slot and extracted with shift+mask idioms
  (``SHR k`` / ``DIV 2^k`` followed by ``AND (2^m - 1)``);
* a mapping's values live at ``keccak256(key . slot)`` — the compiler
  stores the key at scratch memory 0x00 and the declaration slot at
  0x20, then hashes 0x40 bytes (nested mappings chain the pattern,
  hashing the previous hash as the new slot);
* a dynamic array keeps its length at the declaration slot and its
  data from ``keccak256(slot)`` upward (``SHA3`` over 0x20 bytes),
  elements addressed base-plus-index.

This pass walks the resolved CFG (the jump-resolution product the
pipeline already computes) path-sensitively on the shared core
(:mod:`repro.analysis.absint`) with a small token domain — constants,
environment values, hash-derived slot expressions, and tagged storage
words — plus an abstract scratch memory for constant-offset ``MSTORE``s
below 0x60, which is exactly the region solc's hashing idiom uses.
Every ``SLOAD``/``SSTORE`` site is recorded with its resolved slot
expression (or counted as unresolved), shift/mask refinements on loaded
words become packed sub-slot fields, and the fold classifies each root
slot as a value variable, a mapping (with nesting depth and key tags),
or a dynamic array.

Soundness posture: like the dispatcher walk this is a *recognizer*, not
a verifier — an unrecognized shape degrades to an unresolved access,
never a wrong variable.  The one deliberate heuristic: ``MSTORE``s at
unknown offsets do not clobber the tracked scratch region (solc's free
memory pointer starts at 0x80, so computed stores never alias the
hashing scratch); hand-written assembly violating that convention can
at worst mislabel a mapping's key tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.absint import FOLD, MASK, Machine, walk
from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.reachability import ReachabilityReport

# Token kinds.
_CONST = "c"
_ENV = "env"  # CALLER / ORIGIN / ADDRESS — address-typed environment
_HASH = "h"  # a hash-derived slot expression (see expr grammar below)
_SVAL = "sv"  # a word loaded from storage: ("sv", access id, shift bits)
_UNKNOWN = ("?",)

# Slot-expression grammar (nested tuples, innermost = declaration slot):
#   ("const", n)                      a constant slot
#   ("map", keytag, inner)            keccak(key . inner); keytag is
#                                     "address" or "word"
#   ("arr", inner)                    keccak(inner): dynamic-array data
#   ("elt", inner)                    inner + offset (array element /
#                                     struct member past the hash)
_EXPR_DEPTH_LIMIT = 6

#: Environment opcodes that push a 160-bit address-typed word.
_ADDRESS_ENVS = frozenset(["CALLER", "ORIGIN", "ADDRESS", "COINBASE"])

#: The ops this pass constant-folds.
_FOLDS = {
    name: FOLD[name] for name in ("ADD", "SUB", "MUL", "AND", "OR", "SHL", "SHR")
}

#: Re-walk budget per block; dispatcher-style loops are bounded, this
#: only guards crafted cyclic storage code.
_MAX_VISITS = 24
#: Scratch memory offsets tracked for the keccak idiom (solc hashes
#: from 0x00; 0x40/0x50 appear in some layouts).
_SCRATCH_LIMIT = 0x60


@dataclass(frozen=True)
class StorageAccess:
    """One classified SLOAD/SSTORE site."""

    pc: int
    op: str  # "load" | "store"
    expr: Optional[Tuple]  # slot expression, or None when unresolved


@dataclass(frozen=True)
class StorageVariable:
    """One recovered storage variable (or packed sub-slot field)."""

    slot: int
    offset: int  # byte offset inside the slot (packed fields)
    width: int  # bytes; 32 for whole-slot variables
    kind: str  # "value" | "mapping" | "dynamic_array"
    type: str  # rendered solidity-style type
    depth: int = 0  # mapping nesting depth
    reads: int = 0  # distinct SLOAD sites touching this root slot
    writes: int = 0  # distinct SSTORE sites touching this root slot
    selectors: Tuple[int, ...] = ()  # functions whose region touches it

    def render(self) -> str:
        sel = ""
        if self.selectors:
            sel = "  [" + ", ".join(f"0x{s:08x}" for s in self.selectors) + "]"
        where = f"slot {self.slot}"
        if self.kind == "value" and self.width != 32:
            where += f" bytes {self.offset}..{self.offset + self.width - 1}"
        return (
            f"{where}: {self.type}  "
            f"({self.reads} reads, {self.writes} writes){sel}"
        )

    def to_dict(self) -> dict:
        return {
            "slot": self.slot,
            "offset": self.offset,
            "width": self.width,
            "kind": self.kind,
            "type": self.type,
            "depth": self.depth,
            "reads": self.reads,
            "writes": self.writes,
            "selectors": [f"0x{s:08x}" for s in self.selectors],
        }


@dataclass
class StorageLayout:
    """The recovered layout: variables plus access accounting."""

    variables: Tuple[StorageVariable, ...] = ()
    accesses: Tuple[StorageAccess, ...] = ()
    #: Distinct SLOAD/SSTORE pcs whose slot stayed unrecognized.
    unresolved: int = 0

    @property
    def resolved(self) -> int:
        return sum(1 for access in self.accesses if access.expr is not None)

    def variables_at(self, slot: int) -> Tuple[StorageVariable, ...]:
        return tuple(v for v in self.variables if v.slot == slot)

    def to_dict(self) -> dict:
        return {
            "variables": [v.to_dict() for v in self.variables],
            "access_sites": len(self.accesses),
            "resolved_sites": self.resolved,
            "unresolved_sites": self.unresolved,
        }

    def render_text(self) -> str:
        if not self.variables and not self.accesses and not self.unresolved:
            return "storage: none"
        lines = [
            f"storage: {len(self.variables)} variable(s), "
            f"{self.resolved}/{self.resolved + self.unresolved} "
            "access sites resolved"
        ]
        for variable in self.variables:
            lines.append("  " + variable.render())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The abstract walk.


def _expr_depth(expr: Tuple) -> int:
    depth = 0
    while expr[0] != "const":
        depth += 1
        expr = expr[-1]
    return depth


def _slot_expr(token: Tuple) -> Optional[Tuple]:
    """The slot expression a token addresses, or None."""
    if token[0] == _CONST:
        return ("const", token[1])
    return token[1] if token[0] == _HASH else None


def _low_mask_bits(value: int) -> Optional[int]:
    """``value == 2^m - 1`` -> m (byte-aligned only), else None."""
    bits = value.bit_length()
    if value and value == (1 << bits) - 1 and bits % 8 == 0:
        return bits
    return None


def _fold_consts(fold, a: Tuple, b: Tuple) -> Tuple:
    """a = stack top (popped first), b = next — EVM operand order."""
    if a[0] == _CONST and b[0] == _CONST:
        return (_CONST, fold(a[1], b[1]))
    return _UNKNOWN


def _add(_facts, _pc: int, a: Tuple, b: Tuple) -> Tuple:
    for x in (a, b):
        if x[0] == _HASH:
            inner = x[1]
            if inner[0] == "elt":  # keep elt chains flat
                return x
            if _expr_depth(inner) >= _EXPR_DEPTH_LIMIT:
                return _UNKNOWN
            return (_HASH, ("elt", inner))
    return _fold_consts(_FOLDS["ADD"], a, b)


def _shr(_facts, _pc: int, a: Tuple, b: Tuple) -> Tuple:
    if a[0] == _CONST and b[0] == _SVAL:
        return (_SVAL, b[1], b[2] + a[1])
    return _fold_consts(_FOLDS["SHR"], a, b)


def _div(_facts, _pc: int, a: Tuple, b: Tuple) -> Tuple:
    """A loaded word divided by a positive power of two is a shift."""
    if a[0] == _SVAL and b[0] == _CONST and b[1] and not b[1] & (b[1] - 1):
        return (_SVAL, a[1], a[2] + b[1].bit_length() - 1)
    return _UNKNOWN


class _Facts:
    """What one storage walk observed; the context of its handlers."""

    def __init__(self) -> None:
        # (pc, op, expr-or-None), deduplicated: revisit order and count
        # must not perturb the layout (determinism under any schedule).
        self.sites: Set[Tuple[int, str, Optional[Tuple]]] = set()
        # access id -> (pc, slot) for loaded-word field refinement.
        self.loads: List[Tuple[int, int]] = []
        # (slot, offset bytes, width bytes, signed) field observations.
        self.fields: Set[Tuple[int, int, int, bool]] = set()
        # The stepped block's scratch memory: offset -> token.
        self.memory: Dict[int, Tuple] = {}

    def _field(self, access_id: int, shift_bits: int, mask_bits: int,
               signed: bool = False) -> None:
        if shift_bits % 8 or shift_bits >= 256:
            return
        _pc, slot = self.loads[access_id]
        self.fields.add((slot, shift_bits // 8, mask_bits // 8, signed))

    # -- handlers: (pc, operands top first) -> the pushed token --------

    def sload(self, pc: int, slot: Tuple) -> Tuple:
        self.sites.add((pc, "load", _slot_expr(slot)))
        if slot[0] != _CONST:
            return _UNKNOWN
        self.loads.append((pc, slot[1]))
        return (_SVAL, len(self.loads) - 1, 0)

    def sstore(self, pc: int, slot: Tuple, _value: Tuple) -> None:
        self.sites.add((pc, "store", _slot_expr(slot)))

    def mstore(self, _pc: int, loc: Tuple, value: Tuple) -> None:
        if loc[0] == _CONST and loc[1] < _SCRATCH_LIMIT:
            self.memory[loc[1]] = value
        # Unknown/high offsets: scratch survives (see module doc).

    def sha3(self, _pc: int, offset: Tuple, length: Tuple) -> Tuple:
        if offset[0] != _CONST or length[0] != _CONST:
            return _UNKNOWN
        base = offset[1]
        if length[1] == 0x40:
            key = self.memory.get(base, _UNKNOWN)
            inner = _slot_expr(self.memory.get(base + 0x20, _UNKNOWN))
            head: Tuple = ("map", "address" if key[0] == _ENV else "word")
        elif length[1] == 0x20:
            inner = _slot_expr(self.memory.get(base, _UNKNOWN))
            head = ("arr",)
        else:
            return _UNKNOWN
        if inner is None or _expr_depth(inner) >= _EXPR_DEPTH_LIMIT:
            return _UNKNOWN
        return (_HASH, head + (inner,))

    def and_(self, _pc: int, a: Tuple, b: Tuple) -> Tuple:
        for value, mask in ((a, b), (b, a)):
            if value[0] == _SVAL and mask[0] == _CONST:
                bits = _low_mask_bits(mask[1])
                if bits is not None:
                    # shift-then-mask: a packed field read.
                    self._field(value[1], value[2], bits)
                    return value
                # Read-modify-write clear mask: ~mask is a contiguous
                # byte-aligned field — the write side of a packed slot.
                hole = (~mask[1]) & MASK
                if hole:
                    low = (hole & -hole).bit_length() - 1
                    width = hole.bit_length() - low
                    if (
                        hole == ((1 << width) - 1) << low
                        and low % 8 == 0 and width % 8 == 0
                    ):
                        _pc, slot = self.loads[value[1]]
                        self.fields.add((slot, low // 8, width // 8, False))
                    return value
                return _UNKNOWN
        return _fold_consts(_FOLDS["AND"], a, b)

    def signextend(self, _pc: int, a: Tuple, b: Tuple) -> Tuple:
        if a[0] == _CONST and b[0] == _SVAL and a[1] < 32:
            self._field(b[1], b[2], 8 * (a[1] + 1), signed=True)
            return b
        return _UNKNOWN


_MACHINE = Machine(
    const=lambda value: (_CONST, value),
    unknown=_UNKNOWN,
    cap=24,
    handlers={
        "ADD": _add, "SHR": _shr, "DIV": _div,
        "SLOAD": _Facts.sload, "SSTORE": _Facts.sstore,
        "MSTORE": _Facts.mstore, "SHA3": _Facts.sha3,
        "AND": _Facts.and_, "SIGNEXTEND": _Facts.signextend,
        **{
            name: lambda _facts, _pc, name=name: (_ENV, name)
            for name in _ADDRESS_ENVS
        },
    },
    binops=_FOLDS,
    binop=_fold_consts,
)


def _root_slot(expr: Tuple) -> Optional[int]:
    """The declaration slot at the bottom of a slot expression."""
    while expr[0] != "const":
        expr = expr[-1]
    return expr[1]


def _classify(expr: Tuple) -> Tuple[str, int, Tuple[str, ...]]:
    """(kind, mapping depth, key tags outermost-first) of an expression."""
    depth = 0
    keytags: List[str] = []
    is_array = False
    node = expr
    while node[0] != "const":
        if node[0] == "map":
            depth += 1
            keytags.append(node[1])
        elif node[0] == "arr":
            is_array = True
        node = node[-1]
    if depth:
        return "mapping", depth, tuple(keytags)
    if is_array:
        return "dynamic_array", 0, ()
    return "value", 0, ()


def _value_type(width: int, signed: bool) -> str:
    if signed:
        return f"int{width * 8}"
    if width == 32:
        return "uint256"
    if width == 20:
        return "address"
    if width == 1:
        return "uint8"
    return f"uint{width * 8}"


def _mapping_type(keytags: Tuple[str, ...]) -> str:
    rendered = "uint256"
    for tag in reversed(keytags):
        key = "address" if tag == "address" else "uint256"
        rendered = f"mapping({key} => {rendered})"
    return rendered


def recover_storage_layout(
    rcfg: ResolvedCFG, reach: Optional[ReachabilityReport] = None
) -> StorageLayout:
    """Recover the storage layout from a resolved CFG.

    Each distinct (block, stack, scratch memory) state is stepped once,
    at most ``_MAX_VISITS`` times per block.  ``reach`` (when available)
    attributes each variable to the selectors whose region — the blocks
    reachable from the selector's entry over resolved jumps — touches it.
    """
    facts = _Facts()
    blocks = rcfg.blocks
    lowered = {start: _MACHINE.lower(block) for start, block in blocks.items()}

    def step(start: int, state: Tuple) -> Tuple:
        stack = list(state[0])
        facts.memory = dict(state[1])
        _MACHINE.run(lowered[start][0], stack, facts)
        successors = sorted(rcfg.successors.get(start, ()))
        return (
            (tuple(stack), tuple(sorted(facts.memory.items()))),
            filter(blocks.__contains__, successors),
        )

    if rcfg.entry in blocks:
        walk(rcfg.entry, ((), ()), step, _MAX_VISITS)

    accesses = tuple(
        StorageAccess(pc, op, expr)
        for pc, op, expr in sorted(
            facts.sites, key=lambda site: (site[0], site[1], repr(site[2]))
        )
    )
    unresolved = len({a.pc for a in accesses if a.expr is None})

    # -- fold sites into per-root-slot variables -----------------------
    by_root: Dict[int, List[StorageAccess]] = {}
    for access in accesses:
        if access.expr is None:
            continue
        root = _root_slot(access.expr)
        if root is None:
            continue
        by_root.setdefault(root, []).append(access)

    selector_of_pc = (
        _selector_index(rcfg, reach.regions) if reach is not None else {}
    )

    variables: List[StorageVariable] = []
    for root in sorted(by_root):
        root_accesses = by_root[root]
        reads = len({a.pc for a in root_accesses if a.op == "load"})
        writes = len({a.pc for a in root_accesses if a.op == "store"})
        selectors = tuple(sorted({
            selector
            for access in root_accesses
            for selector in selector_of_pc.get(access.pc, ())
        }))
        kinds = [_classify(a.expr) for a in root_accesses]
        map_depth = max((depth for _k, depth, _t in kinds), default=0)
        if map_depth:
            keytags = max(
                (tags for _k, depth, tags in kinds if depth == map_depth),
                key=len,
                default=(),
            )
            variables.append(StorageVariable(
                slot=root, offset=0, width=32, kind="mapping",
                type=_mapping_type(keytags), depth=map_depth,
                reads=reads, writes=writes, selectors=selectors,
            ))
            continue
        if any(kind == "dynamic_array" for kind, _d, _t in kinds):
            # Direct loads/stores of the root slot are the length word.
            variables.append(StorageVariable(
                slot=root, offset=0, width=32, kind="dynamic_array",
                type="uint256[]", reads=reads, writes=writes,
                selectors=selectors,
            ))
            continue
        fields = sorted(
            (offset, width, signed)
            for slot, offset, width, signed in facts.fields
            if slot == root
        )
        if not fields:
            variables.append(StorageVariable(
                slot=root, offset=0, width=32, kind="value",
                type="uint256", reads=reads, writes=writes,
                selectors=selectors,
            ))
            continue
        # Packed slot: one variable per distinct (offset, width); a
        # signed observation wins over an unsigned one at the same spot.
        merged: Dict[Tuple[int, int], bool] = {}
        for offset, width, signed in fields:
            merged[(offset, width)] = merged.get((offset, width), False) or signed
        for (offset, width), signed in sorted(merged.items()):
            variables.append(StorageVariable(
                slot=root, offset=offset, width=width, kind="value",
                type=_value_type(width, signed),
                reads=reads, writes=writes, selectors=selectors,
            ))

    return StorageLayout(
        variables=tuple(variables), accesses=accesses, unresolved=unresolved
    )


def _selector_index(
    rcfg: ResolvedCFG, regions: Dict[int, FrozenSet[int]]
) -> Dict[int, Tuple[int, ...]]:
    """pc -> selectors whose region contains that pc's block."""
    block_of_pc: Dict[int, int] = {}
    for start, block in rcfg.blocks.items():
        for ins in block.instructions:
            block_of_pc[ins.pc] = start
    selectors_of_block: Dict[int, Set[int]] = {}
    for selector, region in regions.items():
        for start in region:
            selectors_of_block.setdefault(start, set()).add(selector)
    return {
        pc: tuple(sorted(selectors_of_block.get(start, ())))
        for pc, start in block_of_pc.items()
    }
