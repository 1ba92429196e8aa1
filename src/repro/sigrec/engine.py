"""The TASE symbolic execution engine.

Executes runtime bytecode with the call data as a symbol array,
exploring paths through the dispatcher into every public/external
function body, and recording the events the type-inference rules need
(paper §4.2):

* every CALLDATALOAD with the symbolic expression of its location and
  the branch guards active at that point (for control-dependence rules
  R2/R3);
* every CALLDATACOPY with destination/source/length expressions;
* every *use* of a parameter-tainted value in a type-revealing
  instruction (AND masks, SIGNEXTEND, double-ISZERO, BYTE, signed
  operations, arithmetic, comparisons against constants).

The opcode dispatch itself lives in the unified semantics table of
:mod:`repro.evm.semantics`, shared with the concrete interpreter:
:class:`SymbolicDomain` supplies the symbolic meaning of each operation
(``Expr`` trees, taint labels, event emission, JUMPI forking) and the
engine is the *driver* that walks worklist states over the table.

Design choices that mirror the paper:

* values read from the environment (CALLER, SLOAD, ...) are free
  symbols;
* a JUMP whose target is input-dependent stops the path (§4.2 notes
  only 5 mainnet contracts contain such jumps);
* comparison operators are *not* constant-folded at expression build
  time, so loop guards retain their structure (``lt(i, bound)``) and
  the engine evaluates them on demand — this is how TASE can count
  bound checks even for loops over compile-time-constant dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.evm.predecode import decode as _decode_program
from repro.evm.semantics import HALT, Domain
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.profiler import HotLoopProfiler
from repro.sigrec import expr as E
from repro.sigrec.events import (
    CalldataCopyEvent,
    CalldataLoadEvent,
    FunctionEvents,
    Guard,
    UseEvent,
)

_WORD = 1 << 256
_MASK = _WORD - 1

_CMP_FOLD = {
    "lt": lambda a, b: 1 if a < b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "slt": lambda a, b: 1 if _sgn(a) < _sgn(b) else 0,
    "sgt": lambda a, b: 1 if _sgn(a) > _sgn(b) else 0,
    "eq": lambda a, b: 1 if a == b else 0,
}


def _sgn(v: int) -> int:
    return v - _WORD if v >> 255 else v


def eval_const(e: E.Expr) -> Optional[int]:
    """Fully evaluate an expression when all leaves are constants.

    Comparisons are built unfolded (see module docstring), so the engine
    folds them here when it must take a concrete branch decision.

    The result is memoized on the (immutable) node: every JUMPI
    re-evaluates its condition, and loop guards grow as shared chains of
    ``add`` nodes, so without the memo the fold is re-run over the same
    subtrees once per unrolled iteration.  The memo lives in a lazy
    slot (unset until the first evaluation) so nodes that are never
    branched on pay nothing at construction.
    """
    try:
        return e._const_memo
    except AttributeError:
        pass
    result = _eval_const_uncached(e)
    object.__setattr__(e, "_const_memo", result)
    return result


def _eval_const_uncached(e: E.Expr) -> Optional[int]:
    if e.is_const:
        return e.value
    if e.op in ("env", "calldata", "calldatasize", "mem"):
        return None
    vals = []
    for arg in e.args:
        v = eval_const(arg)
        if v is None:
            return None
        vals.append(v)
    if e.op == "iszero":
        return 1 if vals[0] == 0 else 0
    if e.op == "not":
        return (~vals[0]) & _MASK
    if e.op in _CMP_FOLD:
        return _CMP_FOLD[e.op](vals[0], vals[1])
    fold = E._FOLD.get(e.op)
    if fold is not None and len(vals) == 2:
        return fold(vals[0], vals[1]) & _MASK
    return None


def _cmp(op: str, a: E.Expr, b: E.Expr) -> E.Expr:
    """Build an *unfolded* comparison so guards keep their structure."""
    return E.Expr(op, (a, b))


# ----------------------------------------------------------------------
# Symbolic memory
# ----------------------------------------------------------------------


@dataclass
class _Region:
    """One CALLDATACOPY'd span of memory."""

    region_id: int  # the pc of the copy: stable across loop iterations
    start: int
    length: Optional[int]  # None when the copy length is symbolic
    labels: frozenset
    seq: int = 0


class SymMemory:
    """Word-tracking symbolic memory with write ordering.

    Concrete-offset MSTOREs are kept exactly; CALLDATACOPY spans are
    kept as labeled regions so that later MLOADs produce
    parameter-tainted ``mem`` expressions (TASE step 3: marking memory
    regions with argument symbols).  Every write carries a sequence
    number and a load resolves to the *latest* writer covering its
    offset — a symbolic-length (open-ended) copy must not shadow words
    stored after it.
    """

    def __init__(self, arena: Optional[E.ExprArena] = None) -> None:
        self._words: Dict[int, Tuple[int, E.Expr]] = {}  # offset -> (seq, value)
        self._regions: List[_Region] = []
        self._fresh = 0
        self._seq = 0
        # Expression builder: the owning engine's arena, or the module
        # default for standalone construction (tests, replay).
        self._E = arena if arena is not None else E._DEFAULT_ARENA

    def clone(self) -> "SymMemory":
        new = SymMemory.__new__(SymMemory)
        new._words = dict(self._words)
        new._regions = list(self._regions)
        new._fresh = self._fresh
        new._seq = self._seq
        new._E = self._E
        return new

    def store(self, offset: E.Expr, value: E.Expr) -> None:
        if offset.is_const:
            self._seq += 1
            self._words[offset.value] = (self._seq, value)
        # Symbolic-offset stores are dropped: the rules never need them.

    def add_region(self, pc: int, dst: E.Expr, length: E.Expr, labels: frozenset) -> int:
        start = dst.value if dst.is_const else dst.const_term()
        const_len = length.value if length.is_const else None
        self._seq += 1
        self._regions.append(_Region(pc, start, const_len, labels, self._seq))
        return pc

    def load(self, offset: E.Expr) -> E.Expr:
        base = offset.value if offset.is_const else offset.const_term()
        word = self._words.get(base) if offset.is_const else None
        region = self._covering_region(base)
        if word is not None and (region is None or word[0] > region.seq):
            return word[1]
        if region is not None:
            return self._E.mem_read(region.region_id, offset, region.labels)
        self._fresh += 1
        return self._E.env(f"mem_{base}_{self._fresh}")

    def _covering_region(self, offset: int) -> Optional[_Region]:
        covering = None
        for region in self._regions:
            if region.length is None:
                # Symbolic-length copy: its true extent is unknown, so
                # claiming everything above ``start`` would shadow other
                # parameters' buffers.  Resolve only loads based at the
                # region's own start.
                if offset != region.start:
                    continue
            elif not (region.start <= offset < region.start + region.length):
                continue
            if covering is None or region.seq > covering.seq:
                covering = region
        return covering


# ----------------------------------------------------------------------
# Engine state
# ----------------------------------------------------------------------


@dataclass
class _State:
    pc: int
    stack: List[E.Expr]
    memory: SymMemory
    guards: Tuple[Guard, ...]
    fn: Optional[int]  # selector of the current function context
    loop_visits: Dict[int, int]
    steps: int = 0

    def fork(self, pc: int) -> "_State":
        return _State(
            pc=pc,
            stack=list(self.stack),
            memory=self.memory.clone(),
            guards=self.guards,
            fn=self.fn,
            loop_visits=dict(self.loop_visits),
            steps=self.steps,
        )


@dataclass
class TASEResult:
    """Raw engine output: events grouped per function selector."""

    functions: Dict[int, FunctionEvents]
    selectors: List[int]
    paths_explored: int = 0
    hit_limits: bool = False
    #: Instructions stepped over the whole run.
    total_steps: int = 0
    #: Symbolic JUMPI forks where both sides were explored (a state clone).
    forks_taken: int = 0
    #: Symbolic JUMPI visits where at least one side was dropped because
    #: its per-(site, side) branch budget was already spent.
    budget_exhaustions: int = 0
    #: ``hit_limits`` split by cause: the path cap was reached, so some
    #: worklist states were abandoned (selectors may be missing)...
    truncated_paths: bool = False
    #: ...or the per-run/per-path step ceilings cut exploration short.
    truncated_steps: bool = False
    #: Pending worklist states discarded without being explored when
    #: ``max_paths`` tripped.  0 on an untruncated run.
    abandoned_states: int = 0
    #: True when this result came from (or was merged out of) per-selector
    #: shard explorations rather than one monolithic worklist.
    sharded: bool = False
    #: Number of independent explorations merged into this result.
    shards: int = 0


def merge_tase_results(parts: List[TASEResult]) -> TASEResult:
    """Fold per-shard results into one contract-level result.

    Event maps are unioned (shards target disjoint selectors, so a
    collision keeps the first writer), tallies add, and the truncation
    flags OR — one truncated shard marks the whole recovery incomplete.
    """
    merged = TASEResult(functions={}, selectors=[], sharded=True,
                        shards=len(parts))
    for part in parts:
        for selector, events in part.functions.items():
            merged.functions.setdefault(selector, events)
        merged.paths_explored += part.paths_explored
        merged.total_steps += part.total_steps
        merged.forks_taken += part.forks_taken
        merged.budget_exhaustions += part.budget_exhaustions
        merged.abandoned_states += part.abandoned_states
        merged.hit_limits = merged.hit_limits or part.hit_limits
        merged.truncated_paths = merged.truncated_paths or part.truncated_paths
        merged.truncated_steps = merged.truncated_steps or part.truncated_steps
    merged.selectors = sorted(merged.functions.keys())
    return merged


# ----------------------------------------------------------------------
# Path scheduling
# ----------------------------------------------------------------------


class _Worklist:
    """Pending-path scheduler: priority order with a LIFO tiebreak.

    Pops by score first: dispatcher states (``fn is None`` — the paths
    that distinguish selectors) before function-body states, and among
    dispatcher states shallower guard depth before deeper; *within* a
    score, most-recently-pushed first.  Function-body states carry no
    depth term: their exploration order is pure LIFO, which keeps each
    function's subtree contiguous and its event/budget interleaving the
    same in a selector shard as in the monolithic walk (the sharded
    recovery's equivalence depends on that).  Scores are integer tuples
    and the tiebreak sequence number is unique, so heap comparisons
    never reach the states themselves and the pop order is fully
    deterministic.

    The point is budget quality, not raw speed: when ``max_paths`` or
    the step ceilings trip, the states still queued — and therefore
    truncated — are the deepest, least selector-distinguishing ones.
    """

    __slots__ = ("_items", "_seq")

    def __init__(self) -> None:
        self._items: List = []
        self._seq = 0

    def append(self, state: "_State") -> None:
        self._seq += 1
        heappush(
            self._items,
            (
                0 if state.fn is None else 1,
                len(state.guards) if state.fn is None else 0,
                -self._seq,
                state,
            ),
        )

    def pop(self) -> "_State":
        return heappop(self._items)[-1]

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


# ----------------------------------------------------------------------
# The symbolic value domain
# ----------------------------------------------------------------------


class SymbolicDomain(Domain):
    """Expr-tree semantics over the shared opcode table.

    Values are taint-labelled :class:`~repro.sigrec.expr.Expr` nodes;
    type-revealing operations additionally emit the events the
    inference rules consume.  The domain is bound to one path state at
    a time (:meth:`bind`); JUMPI forks push cloned states onto the
    engine's worklist.
    """

    __slots__ = ("engine", "result", "worklist", "state", "events",
                 "semantic_idioms", "A")

    def __init__(self, engine: "TASEEngine", result: TASEResult,
                 worklist) -> None:
        super().__init__()
        self.engine = engine
        self.result = result
        self.worklist = worklist
        self.state: Optional[_State] = None
        self.events: Optional[FunctionEvents] = None
        self.semantic_idioms = engine.semantic_idioms
        # The engine's per-contract interning arena: every expression a
        # handler builds goes through it, so hot compounds are shared
        # (identity equality, shared eval_const memo) within one engine
        # and dropped with it.
        self.A = engine.arena

    def bind(self, state: _State) -> None:
        """Point the domain at ``state`` before stepping it."""
        self.state = state
        self.stack = state.stack
        self.events = self.engine._events(self.result, state.fn)

    # -- values --------------------------------------------------------

    def const(self, value):
        return self.A.const(value)

    def _make_arith(opname):
        """An unsigned-arithmetic method: taint-use events + interned node.

        Generated per opcode so the hot path is one frame — the old
        ``add -> _arith`` delegation paid a second call per executed
        arithmetic instruction.
        """

        def method(self, ins, a, b, _op=opname):
            events = self.events
            if events is not None:
                if _direct_taint(a):
                    events.add_use(UseEvent(ins.pc, "arith", a.labels))
                if _direct_taint(b):
                    events.add_use(UseEvent(ins.pc, "arith", b.labels))
            return self.A.binop(_op, a, b)

        method.__name__ = opname
        return method

    add = _make_arith("add")
    mul = _make_arith("mul")
    sub = _make_arith("sub")
    div = _make_arith("div")
    mod = _make_arith("mod")
    exp = _make_arith("exp")
    del _make_arith

    def _signed_op(self, ins, opname, a, b):
        events = self.events
        if events is not None and (a.labels or b.labels):
            events.add_use(UseEvent(ins.pc, "signed_op", a.labels | b.labels))
        return self.A.binop(opname, a, b)

    def sdiv(self, ins, a, b):
        return self._signed_op(ins, "sdiv", a, b)

    def smod(self, ins, a, b):
        return self._signed_op(ins, "smod", a, b)

    def sar(self, ins, shift, value):
        return self._signed_op(ins, "sar", shift, value)

    def signextend(self, ins, k, value):
        events = self.events
        if events is not None and k.is_const and _direct_taint(value):
            events.add_use(UseEvent(ins.pc, "signextend", value.labels, k.value))
        return self.A.binop("signextend", k, value)

    def lt(self, ins, a, b):
        # Record Vyper-style range checks: tainted value vs constant
        # bound.  Only ``lt(value, bound)`` with the loaded value on the
        # left counts: the mirrored ``lt(i, num)`` is a Solidity array
        # bound check on a loop counter, and ``gt(num, i)`` is the same
        # check in its inverted (obfuscated) form — neither is a clamp.
        events = self.events
        if events is not None and b.is_const and _direct_taint(a):
            events.add_use(UseEvent(ins.pc, "lt_bound", a.labels, b.value))
            events.vyper_markers += 1
        return self.A.cmp("lt", a, b)

    def gt(self, ins, a, b):
        return self.A.cmp("gt", a, b)

    def _signed_cmp(self, ins, opname, a, b):
        events = self.events
        if events is not None:
            if b.is_const and _direct_taint(a):
                # slt(value, lo) / sgt(value, hi): a Vyper clamp.
                events.add_use(
                    UseEvent(ins.pc, "signed_bound", a.labels, b.value)
                )
                events.vyper_markers += 1
            elif a.labels or b.labels:
                events.add_use(
                    UseEvent(ins.pc, "signed_op", a.labels | b.labels)
                )
        return self.A.cmp(opname, a, b)

    def slt(self, ins, a, b):
        return self._signed_cmp(ins, "slt", a, b)

    def sgt(self, ins, a, b):
        return self._signed_cmp(ins, "sgt", a, b)

    def eq(self, ins, a, b):
        events = self.events
        if events is not None and self.semantic_idioms:
            # EQ-with-zero is ISZERO in disguise: two chained
            # zero-comparisons normalize a bool exactly like a double
            # ISZERO (obfuscation-resistant R14).
            inner = _eq_zero_operand(a, b)
            if (
                inner is not None
                and inner.op == "eq"
                and _eq_zero_operand(*inner.args) is not None
                and _direct_taint(_eq_zero_operand(*inner.args))
            ):
                events.add_use(
                    UseEvent(
                        ins.pc, "bool_mask",
                        _eq_zero_operand(*inner.args).labels,
                    )
                )
        return self.A.cmp("eq", a, b)

    def iszero(self, ins, value):
        events = self.events
        if (
            events is not None
            and value.op == "iszero"
            and _direct_taint(value.args[0])
        ):
            events.add_use(UseEvent(ins.pc, "bool_mask", value.args[0].labels))
        return self.A.iszero_unfolded(value)

    def and_(self, ins, a, b):
        out = self.A.binop("and", a, b)
        events = self.events
        if events is not None:
            mask, operand = (a, b) if a.is_const else (b, a)
            if mask.is_const and operand.labels and _direct_taint(operand):
                events.add_use(
                    UseEvent(ins.pc, "and_mask", operand.labels, mask.value)
                )
        return out

    def or_(self, ins, a, b):
        return self.A.binop("or", a, b)

    def xor(self, ins, a, b):
        return self.A.binop("xor", a, b)

    def not_(self, ins, a):
        return self.A.bit_not(a)

    def byte(self, ins, index, value):
        events = self.events
        if events is not None and value.labels and _direct_taint(value):
            events.add_use(UseEvent(ins.pc, "byte", value.labels))
        return self.A.binop("byte", index, value)

    def _shift(self, ins, opname, shift, value):
        events = self.events
        if events is not None and shift.is_const and self.semantic_idioms:
            # A SHL/SHR (or SHR/SHL) pair with the same shift is an AND
            # mask in disguise (obfuscation-resistant R11/R12): record
            # the equivalent mask.
            k = shift.value
            inverse = "shr" if opname == "shl" else "shl"
            if (
                0 < k < 256
                and value.op == inverse
                and value.args[0] == shift
                and _direct_taint(value.args[1])
            ):
                if opname == "shr":
                    mask = (1 << (256 - k)) - 1  # keeps low bits
                else:
                    mask = ((1 << (256 - k)) - 1) << k  # high bits
                events.add_use(
                    UseEvent(ins.pc, "and_mask", value.args[1].labels, mask)
                )
        return self.A.binop(opname, shift, value)

    def shl(self, ins, shift, value):
        return self._shift(ins, "shl", shift, value)

    def shr(self, ins, shift, value):
        return self._shift(ins, "shr", shift, value)

    def addmod(self, ins, a, b, n):
        events = self.events
        if events is not None:
            if _direct_taint(a):
                events.add_use(UseEvent(ins.pc, "arith", a.labels))
            if _direct_taint(b):
                events.add_use(UseEvent(ins.pc, "arith", b.labels))
        return self.A.ternop("addmod", a, b, n)

    def mulmod(self, ins, a, b, n):
        events = self.events
        if events is not None:
            if _direct_taint(a):
                events.add_use(UseEvent(ins.pc, "arith", a.labels))
            if _direct_taint(b):
                events.add_use(UseEvent(ins.pc, "arith", b.labels))
        return self.A.ternop("mulmod", a, b, n)

    # -- data access ---------------------------------------------------

    def sha3(self, ins, offset, length):
        return self.engine._fresh_env("sha3")

    def calldataload(self, ins, loc):
        value = self.A.calldata(loc)
        events = self.events
        if events is not None:
            events.add_load(
                CalldataLoadEvent(ins.pc, loc, value, self.state.guards)
            )
        return value

    def calldatasize(self, ins):
        return self.A.calldatasize()

    def calldatacopy(self, ins, dst, src, length):
        labels = src.labels | length.labels
        region_id = self.state.memory.add_region(ins.pc, dst, length, labels)
        events = self.events
        if events is not None:
            events.add_copy(
                CalldataCopyEvent(
                    ins.pc, dst, src, length, region_id, self.state.guards
                )
            )

    def codecopy(self, ins, dst, src, length):
        pass

    def returndatacopy(self, ins, dst, src, length):
        pass

    def extcodecopy(self, ins, addr, dst, src, length):
        pass

    def mload(self, ins, offset):
        return self.state.memory.load(offset)

    def mstore(self, ins, offset, value):
        self.state.memory.store(offset, value)

    def mstore8(self, ins, offset, value):
        events = self.events
        if events is not None and _direct_taint(value):
            events.add_use(UseEvent(ins.pc, "mstore8", value.labels))

    def sload(self, ins, key):
        return self.engine._fresh_env("sload")

    def sstore(self, ins, key, value):
        pass

    # -- environment ---------------------------------------------------

    def env0(self, ins, name):
        return self.engine._fresh_env(name.lower())

    def env1(self, ins, name, arg):
        return self.engine._fresh_env(name.lower())

    # -- system --------------------------------------------------------

    def log(self, ins, offset, length, topics):
        pass

    def create(self, ins, value, offset, length, salt):
        return self.engine._fresh_env("create")

    def call_op(self, ins, kind, gas, to, value, in_off, in_size, out_off, out_size):
        return self.engine._fresh_env("callret")

    # -- control flow --------------------------------------------------

    def jump(self, ins, target):
        engine = self.engine
        value = eval_const(target)
        # An input-dependent jump ends the path, like one to a byte that
        # is not a JUMPDEST.
        if value is None or value not in engine._jumpdests:
            return HALT
        if not engine._note_loop(self.state, value):
            return HALT
        return value

    def jumpi(self, ins, target, cond):
        engine = self.engine
        state = self.state
        tvalue = eval_const(target)
        if tvalue is None:
            return HALT
        cvalue = eval_const(cond)
        if cvalue is not None:
            taken = bool(cvalue)
            state.guards = state.guards + (Guard(cond, taken, ins.pc),)
            if taken:
                if tvalue not in engine._jumpdests:
                    return HALT
                if not engine._note_loop(state, tvalue):
                    return HALT
                return tvalue
            return None
        # Symbolic condition: fork under a *global* per-(site, side)
        # budget.  Events are deduplicated per function, so re-exploring
        # the same branch side from many paths adds nothing; capping
        # globally keeps total work linear in program size instead of
        # exponential in loop count.
        selector = engine._match_selector(cond)
        pin = engine._pin
        if pin is not None and selector is not None and state.fn is None:
            # Sharded exploration: dispatcher selector comparisons are
            # decided concretely instead of forked, exactly as if the
            # constraint ``fid == target`` had been applied up front.
            # The guard history, stack, and memory therefore match the
            # monolithic walk's unique dispatcher path to the target
            # body bit for bit.
            target_sel, known = pin
            if selector == target_sel:
                if tvalue not in engine._jumpdests:
                    return HALT
                state.guards = state.guards + (Guard(cond, True, ins.pc),)
                state.fn = selector
                self.events = engine._events(self.result, selector)
                return tvalue
            if target_sel is not None or selector in known:
                # A sibling's comparison (or, in the residual walk, any
                # already-covered selector): take the not-matched side,
                # never entering the body — its own shard covers it.
                state.guards = state.guards + (Guard(cond, False, ins.pc),)
                return None
            # Residual walk, selector the static dispatcher never saw:
            # fall through to the ordinary fork logic so TASE can still
            # discover statically-invisible functions.
        budget = engine._branch_budget
        take_budget = budget.get((ins.pc, True), engine.fork_bound)
        fall_budget = budget.get((ins.pc, False), engine.fork_bound)
        if take_budget <= 0 or fall_budget <= 0:
            engine._budget_exhaustions += 1
        explore_taken = take_budget > 0 and tvalue in engine._jumpdests
        explore_fall = fall_budget > 0
        if explore_fall:
            budget[(ins.pc, False)] = fall_budget - 1
            if explore_taken:
                engine._forks_taken += 1
                fallthrough = state.fork(ins.next_pc)
                fallthrough.guards = state.guards + (Guard(cond, False, ins.pc),)
                self.worklist.append(fallthrough)
            else:
                state.guards = state.guards + (Guard(cond, False, ins.pc),)
                return None
        if not explore_taken:
            return HALT
        budget[(ins.pc, True)] = take_budget - 1
        state.guards = state.guards + (Guard(cond, True, ins.pc),)
        if selector is not None:
            state.fn = selector
            self.events = engine._events(self.result, selector)
        return tvalue

    def halt_stop(self, ins):
        return HALT

    def halt_return(self, ins, offset, length):
        return HALT

    def halt_revert(self, ins, offset, length):
        return HALT

    def halt_invalid(self, ins):
        return HALT

    def halt_selfdestruct(self, ins, beneficiary):
        return HALT


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


class TASEEngine:
    """Explores one contract and collects type-inference events."""

    def __init__(
        self,
        bytecode: bytes,
        max_total_steps: int = 400_000,
        max_paths: int = 768,
        fork_bound: int = 3,
        loop_bound: int = 420,
        max_path_steps: int = 60_000,
        semantic_idioms: bool = True,
        step_hook: Optional[Callable] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[HotLoopProfiler] = None,
    ) -> None:
        self.bytecode = bytecode
        # The registry only sees aggregate tallies published once per
        # ``run()`` — the hot loop keeps plain ints and never reads a
        # clock, so disabled observability costs one identity check.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        # Hot-loop step attribution: charged once per block transition,
        # so the per-step path never sees it and the disabled cost is
        # one ``is not None`` per superblock.
        self.profiler = profiler
        self.max_total_steps = max_total_steps
        self.max_paths = max_paths
        self.fork_bound = fork_bound
        self.loop_bound = loop_bound
        # Per-path instruction ceiling (a single runaway path — a
        # concrete loop the loop_bound does not catch — must not eat the
        # whole run budget).  Part of the cache/options fingerprint: a
        # different ceiling can observe different events.
        self.max_path_steps = max_path_steps
        # When False, only the literal AND/ISZERO-ISZERO idioms are
        # recognized (no shift-pair masks, no EQ-zero bools): the
        # ablation knob for the obfuscation experiment.
        self.semantic_idioms = semantic_idioms
        # step_hook(pc, stack) fires before each instruction, exactly
        # like the concrete interpreter's hook — the stack holds Exprs.
        self.step_hook = step_hook
        # Per-contract expression interning arena: every Expr the
        # symbolic domain builds is hash-consed here and dies with the
        # engine (no process-global cache, no size cliff).
        self.arena = E.ExprArena()
        # One decode per (bytecode, domain class), shared across engines
        # and with the differential replay via the predecode cache.
        self._program = _decode_program(bytecode, SymbolicDomain)
        self._jumpdests = self._program.jumpdests
        self._env_counter = 0
        # Global symbolic-branch budgets, keyed by (jumpi pc, side).
        self._branch_budget: Dict[Tuple[int, bool], int] = {}
        self._paths = 0
        self._forks_taken = 0
        self._budget_exhaustions = 0
        # Sharded exploration state: ``None`` for the monolithic walk,
        # else ``(target selector or None, frozenset of known
        # selectors)`` — see :meth:`run_selector` / :meth:`run_residual`.
        self._pin: Optional[Tuple[Optional[int], FrozenSet[int]]] = None

    # ------------------------------------------------------------------

    def _reset(self) -> None:
        """Fresh mutable exploration state (budgets are per exploration)."""
        self._branch_budget = {}
        self._paths = 0
        self._forks_taken = 0
        self._budget_exhaustions = 0
        self._pin = None

    def run(self) -> TASEResult:
        """The monolithic walk: one worklist seeded at pc 0."""
        self._reset()
        result = TASEResult(functions={}, selectors=[])
        self._explore(result)
        self.publish_metrics(result)
        return result

    def run_selector(self, selector: int, known: FrozenSet[int]) -> TASEResult:
        """One selector-sharded exploration.

        Walks from pc 0 with every dispatcher selector comparison
        decided concretely — ``selector``'s taken, every other known
        selector's not-taken — so the shard explores exactly the
        monolithic run's paths through this one function body, with the
        identical guard history, under its *own* path/step/fork budgets.
        The caller merges shards with :func:`merge_tase_results` and
        publishes metrics once on the merged result.
        """
        self._reset()
        self._pin = (selector, known)
        result = TASEResult(functions={}, selectors=[], sharded=True, shards=1)
        self._explore(result)
        return result

    def run_residual(self, known: FrozenSet[int]) -> TASEResult:
        """The dispatcher-spine walk that backstops the shards.

        Every known selector's comparison is pinned not-taken, so this
        walk covers what the per-selector shards do not: the fallback
        path and any function the static dispatcher analysis missed
        (whose comparison forks normally and is explored like the
        monolithic run would).
        """
        self._reset()
        self._pin = (None, known)
        result = TASEResult(functions={}, selectors=[], sharded=True, shards=1)
        self._explore(result)
        return result

    def _explore(self, result: TASEResult) -> None:
        """Drive the worklist until exhaustion or a budget trip."""
        initial = _State(
            pc=0, stack=[], memory=SymMemory(self.arena), guards=(),
            fn=None, loop_visits={},
        )
        worklist = _Worklist()
        worklist.append(initial)
        domain = SymbolicDomain(self, result, worklist)
        total_steps = self._drive(result, worklist, domain)
        result.paths_explored += self._paths
        result.total_steps += total_steps
        result.forks_taken += self._forks_taken
        result.budget_exhaustions += self._budget_exhaustions
        result.selectors = sorted(result.functions.keys())

    def _drive(
        self, result: TASEResult, worklist: _Worklist, domain: SymbolicDomain
    ) -> int:
        """Fused superblock driver over the pre-decoded program.

        Straight-line runs execute as one loop over pre-decoded
        ``(kind, arg, handler, instruction)`` pairs with the budget
        checks hoisted in front of the run; the pure stack-shuffle ops
        (PUSH/DUP/SWAP/POP — about half of all executed steps) are
        inlined on their kind tag instead of paying a handler call.

        Accounting is per instruction, whichever loop runs a block.
        Each instruction reached costs one ``total_steps`` before the
        budget check, so the attempt that trips ``max_total_steps`` is
        counted; a path is cut before its next instruction once it has
        executed more than ``max_path_steps``; the hook fires after the
        check and before the instruction; a stack underflow counts the
        instruction that underflowed and ends the path; and a pc with
        no instruction (past the end of code, or inside a PUSH
        immediate) costs one counted probe, then ends the path.
        ``tests/sigrec/test_engine_accounting.py`` pins these tallies on
        truncated, malformed and off-end runs.
        """
        block_of = self._program.block
        hook = self.step_hook
        prof = self.profiler
        max_total = self.max_total_steps
        max_path = self.max_path_steps
        aconst = self.arena.const
        consts_get = self.arena._consts.get
        total = 0
        while worklist:
            state = worklist.pop()
            self._paths += 1
            if self._paths > self.max_paths:
                result.hit_limits = True
                result.truncated_paths = True
                result.abandoned_states += 1 + len(worklist)
                break
            domain.bind(state)
            stack = state.stack
            steps = state.steps
            # Profiler attribution unit: steps charged since ``mark``
            # belong to the superblock entered at ``bpc``.
            bpc = state.pc
            mark = total
            block = block_of(state.pc)
            while True:
                if block is None:
                    # No instruction at this pc: one counted probe, then
                    # the path ends as if running off the code.
                    total += 1
                    if total > max_total or steps > max_path:
                        result.hit_limits = True
                        result.truncated_steps = True
                    break
                k = block.n
                if k:
                    if hook is None and total + k <= max_total and steps + k - 1 <= max_path:
                        # Fused run: no trip is possible inside, so the
                        # checks hoist out of the loop entirely.
                        i = 0
                        try:
                            for kind, arg, handler, ins in block.pairs:
                                if kind == 1:
                                    node = consts_get(arg)
                                    stack.append(
                                        node if node is not None
                                        else aconst(arg)
                                    )
                                elif kind == 6:
                                    stack.append(
                                        arg(domain, ins,
                                            stack.pop(), stack.pop())
                                    )
                                elif kind == 2:
                                    stack.append(stack[-arg])
                                elif kind == 0:
                                    handler(domain, ins)
                                elif kind == 5:
                                    stack.append(
                                        arg(domain, ins, stack.pop())
                                    )
                                elif kind == 3:
                                    stack[-1], stack[-arg - 1] = (
                                        stack[-arg - 1], stack[-1],
                                    )
                                elif kind == 4:
                                    stack.pop()
                                # else kind == 7: JUMPDEST, no effect
                                i += 1
                        except IndexError:
                            # Stack underflow mid-run: charge exactly the
                            # attempted instructions, end the path.
                            total += i + 1
                            steps += i + 1
                            break
                        total += k
                        steps += k
                    else:
                        stop = False
                        for kind, arg, handler, ins in block.pairs:
                            total += 1
                            if total > max_total or steps > max_path:
                                result.hit_limits = True
                                result.truncated_steps = True
                                stop = True
                                break
                            if hook is not None:
                                hook(ins.pc, state.stack)
                            steps += 1
                            try:
                                handler(domain, ins)
                            except IndexError:
                                stop = True
                                break
                        if stop:
                            break
                ctrl = block.ctrl
                if ctrl is None:
                    # The instruction stream ends without a control op:
                    # the off-end probe.
                    total += 1
                    if total > max_total or steps > max_path:
                        result.hit_limits = True
                        result.truncated_steps = True
                    break
                total += 1
                if total > max_total or steps > max_path:
                    result.hit_limits = True
                    result.truncated_steps = True
                    break
                ctrl_ins = block.ctrl_ins
                if hook is not None:
                    hook(ctrl_ins.pc, state.stack)
                steps += 1
                # JUMPI forks clone the state: its step counter must be
                # current before the handler runs.
                state.steps = steps
                try:
                    control = ctrl(domain, ctrl_ins)
                except IndexError:
                    break  # stack underflow: malformed path
                if control is None:
                    next_pc = block.fall_pc
                elif control is HALT:
                    break
                else:
                    next_pc = control
                if prof is not None:
                    prof.record_block(bpc, total - mark)
                    mark = total
                    bpc = next_pc
                block = block_of(next_pc)
            state.steps = steps
            if prof is not None and total != mark:
                # The tail of the path: the steps charged after the last
                # block transition (HALT, truncation, underflow, probe).
                prof.record_block(bpc, total - mark)
        return total

    def publish_metrics(self, result: TASEResult) -> None:
        """Fold one (possibly merged) result's tallies into the registry."""
        metrics = self.metrics
        if metrics is NULL_REGISTRY:
            return
        metrics.counter("tase.runs").inc()
        metrics.counter("tase.steps").inc(result.total_steps)
        metrics.counter("tase.paths").inc(result.paths_explored)
        metrics.counter("tase.forks").inc(result.forks_taken)
        metrics.counter("tase.budget_exhaustions").inc(result.budget_exhaustions)
        metrics.counter("tase.functions").inc(len(result.selectors))
        if result.sharded:
            metrics.counter("tase.sharded_runs").inc()
            metrics.counter("tase.shards").inc(result.shards)
        if result.truncated_paths:
            metrics.counter("tase.truncations", reason="max_paths").inc()
        if result.truncated_steps:
            metrics.counter("tase.truncations", reason="max_steps").inc()

    # ------------------------------------------------------------------

    def _events(self, result: TASEResult, fn: Optional[int]) -> Optional[FunctionEvents]:
        if fn is None:
            return None
        events = result.functions.get(fn)
        if events is None:
            events = FunctionEvents(selector=fn)
            result.functions[fn] = events
        return events

    def _fresh_env(self, stem: str) -> E.Expr:
        self._env_counter += 1
        return E.env(f"{stem}_{self._env_counter}")

    def _note_loop(self, state: _State, target: int) -> bool:
        """Bound concrete revisits of a jump target; False ends the path."""
        visits = state.loop_visits.get(target, 0)
        if visits >= self.loop_bound:
            return False
        state.loop_visits[target] = visits + 1
        return True

    @staticmethod
    def _match_selector(cond: E.Expr) -> Optional[int]:
        """Recognize ``eq(<selector const>, <function-id expr>)``."""
        if cond.op != "eq" or len(cond.args) != 2:
            return None
        a, b = cond.args
        if not a.is_const:
            a, b = b, a
        if not a.is_const or a.value > 0xFFFFFFFF:
            return None
        if TASEEngine._is_fid_expr(b):
            return a.value
        return None

    @staticmethod
    def _is_fid_expr(e: E.Expr) -> bool:
        """Does ``e`` compute the function id from calldata[0..4]?"""
        if e.op == "and" and e.args[0].is_const and e.args[0].value == 0xFFFFFFFF:
            return TASEEngine._is_fid_expr(e.args[1])
        if e.op == "div":
            value, divisor = e.args
            return (
                divisor.is_const
                and divisor.value == 1 << 224
                and _is_calldata0(value)
            )
        if e.op == "shr":
            shift, value = e.args
            return shift.is_const and shift.value == 224 and _is_calldata0(value)
        return False


def _is_calldata0(e: E.Expr) -> bool:
    return e.op == "calldata" and e.args[0].is_const and e.args[0].value == 0


def _eq_zero_operand(a: E.Expr, b: E.Expr):
    """For eq(0, x) or eq(x, 0), return x; else None."""
    if a.is_const and a.value == 0:
        return b
    if b.is_const and b.value == 0:
        return a
    return None


def _direct_taint(e: E.Expr) -> bool:
    """Is ``e`` a direct (possibly lightly wrapped) parameter load?

    Usage rules fire on the loaded value itself or a masked version of
    it — not on location arithmetic that merely *contains* a load.
    Shift-pair masking (the AND-in-disguise obfuscation) also counts
    as light wrapping.
    """
    if e.op in ("calldata", "mem"):
        return True
    if e.op in ("and", "signextend") and len(e.args) == 2:
        return _direct_taint(e.args[1]) or _direct_taint(e.args[0])
    if e.op in ("shl", "shr") and len(e.args) == 2 and e.args[0].is_const:
        return _direct_taint(e.args[1])
    if e.op == "iszero":
        return _direct_taint(e.args[0])
    return False
