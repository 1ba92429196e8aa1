"""Symbolic expressions for TASE.

Immutable, structurally-hashed expression trees over 256-bit words.  The
leaves are constants, 32-byte call-data reads (``calldata(loc)``), reads
from memory regions that were filled from the call data (``mem``), and
free environment symbols (``env``) — TASE treats every value read from
the environment as a free symbol because it cares about how parameters
are *used*, not about program logic (paper §4.2).

Two design points matter for the rules:

* **Constant folding and light normalization.**  Operations on constants
  fold; commutative operations order a constant operand first; nested
  constant additions collapse.  This keeps the location expressions the
  rules inspect (e.g. ``add(4, calldata(4))`` for a num-field read) in a
  predictable shape regardless of the operand order the compiler emitted.
* **Taint labels.**  Every node carries the frozen set of call-data
  *sources* it transitively depends on.  A source is ``("cd", loc_key)``
  for a CALLDATALOAD or ``("cdc", region_id)`` for a CALLDATACOPY'd
  memory region.  Step 3 of TASE ("introducing parameter-related
  symbols") maps sources to parameters; usage rules (R11-R18, R26-R31)
  then fire on any expression whose labels intersect a parameter.

Interning lives in :class:`ExprArena`: a structural hash-consing arena
keyed by the *identities* of already-interned children (integer object
ids), so a cache hit costs one small-tuple hash and never a recursive
structural comparison.  Because two nodes share an arena slot only when
their children are the *same objects*, label provenance is preserved by
construction — no label-purity analysis is needed, unlike the old
module-global caches.  The TASE engine owns one arena per contract
(``TASEEngine.arena``); the module-level constructors below delegate to
a bounded default arena for cold-path callers (tests, the differential
replay).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Tuple

_WORD = 1 << 256
_MASK = _WORD - 1
_SIGN_BIT = 1 << 255

Label = Tuple[str, object]

#: The shared empty label set (CPython interns the empty frozenset, but
#: naming it keeps the hot constructor free of even the call).
_NO_LABELS: FrozenSet[Label] = frozenset()


def _signed(value: int) -> int:
    return value - _WORD if value & _SIGN_BIT else value


_setattr = object.__setattr__


class Expr:
    """One immutable symbolic expression node.

    Construction is the hottest allocation in TASE, so ``__init__``
    does the minimum: the structural hash and the ``eval_const`` memo
    live in *lazy* slots, materialized on first use — most nodes
    (intermediate stack values) are never hashed and never re-folded,
    and paying one tuple hash per constructed node dominated the old
    eager scheme.
    """

    __slots__ = ("op", "args", "val", "labels", "_hash", "_const_memo",
                 "_node_set", "_repr")

    def __init__(
        self,
        op: str,
        args: Tuple["Expr", ...] = (),
        val: object = None,
        labels: Optional[FrozenSet[Label]] = None,
    ) -> None:
        sa = _setattr
        sa(self, "op", op)
        sa(self, "args", args)
        sa(self, "val", val)
        if labels is None:
            if args:
                labels = args[0].labels
                for arg in args[1:]:
                    labels = labels | arg.labels
            else:
                labels = _NO_LABELS
        sa(self, "labels", labels)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Expr is immutable")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.op, self.args, self.val))
            _setattr(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return (
            hash(self) == hash(other)
            and self.op == other.op
            and self.val == other.val
            and self.args == other.args
        )

    # ------------------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def value(self) -> int:
        if self.op != "const":
            raise ValueError(f"not a constant: {self}")
        return self.val  # type: ignore[return-value]

    def iter_nodes(self) -> Iterator["Expr"]:
        """All nodes in the tree, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.args)

    def contains(self, sub: "Expr") -> bool:
        """Structural containment: does ``sub`` occur anywhere in self?"""
        return any(node == sub for node in self.iter_nodes())

    def node_set(self) -> FrozenSet["Expr"]:
        """The structural node set, materialized lazily and cached.

        ``sub in expr.node_set()`` answers :meth:`contains` in O(1)
        after the first call — the indexed inference path batches its
        derivation queries through this instead of re-walking the tree
        per probe.
        """
        try:
            return self._node_set
        except AttributeError:
            nodes = frozenset(self.iter_nodes())
            _setattr(self, "_node_set", nodes)
            return nodes

    def const_term(self) -> int:
        """The constant addend of a sum expression (0 when none).

        ``add(36, mul(32, i))`` -> 36; a bare constant returns itself.
        """
        if self.is_const:
            return self.value
        if self.op == "add":
            return sum(arg.value for arg in self.args if arg.is_const) & _MASK
        return 0

    def __repr__(self) -> str:
        # Cached on the node: reprs recurse structurally, and the event
        # digest sorts nested label expressions by repr, so an uncached
        # repr re-walks shared subtrees once per ancestor.
        try:
            return self._repr
        except AttributeError:
            pass
        if self.op == "const":
            text = f"{self.value:#x}"
        elif self.op == "env":
            text = f"env({self.val})"
        elif self.op == "mem":
            text = (
                f"mem({self.val},{self.args[0]!r})"
                if self.args
                else f"mem({self.val})"
            )
        else:
            inner = ",".join(repr(a) for a in self.args)
            text = f"{self.op}({inner})"
        _setattr(self, "_repr", text)
        return text


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------

_COMMUTATIVE = frozenset(["add", "mul", "and", "or", "xor", "eq"])

_FOLD = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "sub": lambda a, b: a - b,
    "div": lambda a, b: 0 if b == 0 else a // b,
    "sdiv": lambda a, b: 0 if b == 0 else _sdiv(a, b),
    "mod": lambda a, b: 0 if b == 0 else a % b,
    "smod": lambda a, b: 0 if b == 0 else _smod(a, b),
    "exp": lambda a, b: pow(a, b, _WORD),
    "signextend": lambda a, b: _signextend(a, b),
    "lt": lambda a, b: 1 if a < b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "slt": lambda a, b: 1 if _signed(a) < _signed(b) else 0,
    "sgt": lambda a, b: 1 if _signed(a) > _signed(b) else 0,
    "eq": lambda a, b: 1 if a == b else 0,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "byte": lambda a, b: (b >> (8 * (31 - a))) & 0xFF if a < 32 else 0,
    "shl": lambda a, b: 0 if a >= 256 else (b << a) & _MASK,
    "shr": lambda a, b: 0 if a >= 256 else b >> a,
    "sar": lambda a, b: _sar(a, b),
}


def _sdiv(a: int, b: int) -> int:
    sa, sb = _signed(a), _signed(b)
    quotient = abs(sa) // abs(sb)
    return (-quotient if (sa < 0) != (sb < 0) else quotient) & _MASK


def _smod(a: int, b: int) -> int:
    sa, sb = _signed(a), _signed(b)
    remainder = abs(sa) % abs(sb)
    return (-remainder if sa < 0 else remainder) & _MASK


def _signextend(k: int, value: int) -> int:
    if k >= 31:
        return value
    bit = (k + 1) * 8 - 1
    if value & (1 << bit):
        return (value | (_MASK ^ ((1 << (bit + 1)) - 1))) & _MASK
    return value & ((1 << (bit + 1)) - 1)


def _sar(shift: int, value: int) -> int:
    sv = _signed(value)
    if shift >= 256:
        return _MASK if sv < 0 else 0
    return (sv >> shift) & _MASK


class ExprArena:
    """A structural-interning arena for :class:`Expr` nodes.

    Hash-consing with **identity-keyed** compound keys: an interned
    node's cache key is built from the ``id()`` of its (already
    interned) children, so a hit costs one small-tuple hash — no
    recursive structural hashing or comparison — and two requests share
    a node only when their children are the *same objects*.  Identical
    children imply identical labels, so sharing can never leak taint
    between expressions: the arena needs no label-purity restriction
    and therefore no "stop interning" size cliff.  (Keys embedding
    ``id()`` stay valid because the interned node's ``args`` hold
    strong references to exactly the objects the ids name.)

    Interning also shares the per-node ``eval_const`` memo
    (``_const_memo``) across every occurrence of a hot compound — loop
    guards and mask expressions are re-evaluated once instead of once
    per unrolled iteration.

    The TASE engine owns one arena per contract, so nodes die with the
    engine.  ``max_interned`` bounds the compound table for long-lived
    arenas (the module-level default): past the cap, nodes are still
    built correctly, just not shared.
    """

    __slots__ = ("_consts", "_nodes", "_max_interned")

    def __init__(self, max_interned: Optional[int] = None) -> None:
        self._consts: Dict[int, Expr] = {}
        self._nodes: Dict[object, Expr] = {}
        self._max_interned = max_interned

    def __len__(self) -> int:
        return len(self._consts) + len(self._nodes)

    def _intern(self, key: object, node: Expr) -> Expr:
        cap = self._max_interned
        if cap is None or len(self._nodes) < cap:
            self._nodes[key] = node
        return node

    # -- leaves --------------------------------------------------------

    def const(self, value: int) -> Expr:
        value &= _MASK
        node = self._consts.get(value)
        if node is None:
            node = Expr("const", val=value)
            cap = self._max_interned
            if cap is None or len(self._consts) < cap:
                self._consts[value] = node
        return node

    def env(self, name: str) -> Expr:
        """A free environment symbol — unique by convention, never shared."""
        return Expr("env", val=name)

    def calldatasize(self) -> Expr:
        node = self._nodes.get("cds")
        if node is None:
            node = self._intern("cds", Expr("calldatasize"))
        return node

    def calldata(self, loc: Expr) -> Expr:
        """A 32-byte read of the call data at location ``loc``.

        The taint-source label is ``("cd", offset)`` for a constant
        offset and ``("cd", loc)`` — the location *expression itself* —
        for a symbolic one (structural equality gives the same sharing
        the old ``repr(loc)`` string key did, without the repr cost).
        """
        if loc.is_const:
            key = ("cd", loc.value)
            node = self._nodes.get(key)
            if node is None:
                node = self._intern(
                    key,
                    Expr("calldata", (loc,), labels=loc.labels | {("cd", loc.value)}),
                )
            return node
        key = ("cd*", id(loc))
        node = self._nodes.get(key)
        if node is None:
            node = self._intern(
                key, Expr("calldata", (loc,), labels=loc.labels | {("cd", loc)})
            )
        return node

    def mem_read(
        self, region_id: int, offset: Expr, extra_labels: FrozenSet[Label]
    ) -> Expr:
        """A word read from a call-data-copied memory region.

        ``extra_labels`` (the copy's source taint) is part of the key:
        structurally identical reads with different provenance must
        stay distinct nodes.
        """
        key = ("mem", region_id, id(offset), extra_labels)
        node = self._nodes.get(key)
        if node is None:
            node = self._intern(
                key,
                Expr(
                    "mem", (offset,), val=region_id,
                    labels=offset.labels | extra_labels | {("cdc", region_id)},
                ),
            )
        return node

    # -- compounds -----------------------------------------------------

    def binop(self, op: str, a: Expr, b: Expr) -> Expr:
        """Build a binary operation with folding and normalization."""
        if a.is_const:
            if b.is_const:
                fold = _FOLD.get(op)
                if fold is not None:
                    return self.const(fold(a.value, b.value))
        elif b.is_const and op in _COMMUTATIVE:
            a, b = b, a
        if a.is_const:
            # Collapse nested constant additions:
            # add(c1, add(c2, x)) -> add(c1+c2, x)
            if op == "add":
                if b.op == "add" and b.args[0].is_const:
                    a = self.const(a.value + b.args[0].value)
                    b = b.args[1]
                elif a.value == 0:
                    return b
            elif op == "mul" and a.value == 1:
                return b
        key = (op, id(a), id(b))
        node = self._nodes.get(key)
        if node is None:
            node = self._intern(key, Expr(op, (a, b)))
        return node

    def ternop(self, op: str, a: Expr, b: Expr, c: Expr) -> Expr:
        if a.is_const and b.is_const and c.is_const:
            if op == "addmod":
                n = c.value
                return self.const(0 if n == 0 else (a.value + b.value) % n)
            if op == "mulmod":
                n = c.value
                return self.const(0 if n == 0 else (a.value * b.value) % n)
        key = (op, id(a), id(b), id(c))
        node = self._nodes.get(key)
        if node is None:
            node = self._intern(key, Expr(op, (a, b, c)))
        return node

    def iszero(self, a: Expr) -> Expr:
        if a.is_const:
            return self.const(1 if a.value == 0 else 0)
        key = ("iszero", id(a))
        node = self._nodes.get(key)
        if node is None:
            node = self._intern(key, Expr("iszero", (a,)))
        return node

    def bit_not(self, a: Expr) -> Expr:
        if a.is_const:
            return self.const(~a.value)
        key = ("not", id(a))
        node = self._nodes.get(key)
        if node is None:
            node = self._intern(key, Expr("not", (a,)))
        return node

    def cmp(self, op: str, a: Expr, b: Expr) -> Expr:
        """Build an *unfolded* comparison so guards keep their structure."""
        key = ("cmp", op, id(a), id(b))
        node = self._nodes.get(key)
        if node is None:
            node = self._intern(key, Expr(op, (a, b)))
        return node

    def iszero_unfolded(self, a: Expr) -> Expr:
        """Unfolded ISZERO (the engine folds on demand via eval_const)."""
        key = ("iszero", id(a))
        node = self._nodes.get(key)
        if node is None:
            node = self._intern(key, Expr("iszero", (a,)))
        return node


#: The bounded default arena behind the module-level constructors.
#: Cold-path callers (rule tests, the differential replay) share it;
#: recovery never interns here — the TASE engine and inference build
#: over arenas that die with their call.  Its contents only affect
#: node *identity*, never labels or values, so a pre-filled arena
#: inherited by a forked worker cannot change results.
_DEFAULT_ARENA = ExprArena(max_interned=65536)


def const(value: int) -> Expr:
    return _DEFAULT_ARENA.const(value)


ZERO = const(0)
ONE = const(1)


def env(name: str) -> Expr:
    """A free environment symbol (CALLER, TIMESTAMP, unknown SLOAD...)."""
    return _DEFAULT_ARENA.env(name)


def calldata(loc: Expr) -> Expr:
    """A 32-byte read of the call data at symbolic location ``loc``."""
    return _DEFAULT_ARENA.calldata(loc)


def calldatasize() -> Expr:
    return _DEFAULT_ARENA.calldatasize()


def mem_read(region_id: int, offset: Expr, extra_labels: FrozenSet[Label]) -> Expr:
    """A word read from a call-data-copied memory region."""
    return _DEFAULT_ARENA.mem_read(region_id, offset, extra_labels)


def sha3(seed: int) -> Expr:
    return Expr("env", val=f"sha3_{seed}")


def binop(op: str, a: Expr, b: Expr) -> Expr:
    """Build a binary operation with folding and normalization."""
    return _DEFAULT_ARENA.binop(op, a, b)


def ternop(op: str, a: Expr, b: Expr, c: Expr) -> Expr:
    return _DEFAULT_ARENA.ternop(op, a, b, c)


def iszero(a: Expr) -> Expr:
    return _DEFAULT_ARENA.iszero(a)


def bit_not(a: Expr) -> Expr:
    return _DEFAULT_ARENA.bit_not(a)
