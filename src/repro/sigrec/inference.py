"""TASE type inference: from recorded events to a parameter type list.

Implements the paper's four steps (§4.2):

1. **Coarse-grained type inference** — cluster the call-data accesses of
   one function into parameters and decide each parameter's *family*
   (basic / static array / dynamic array / bytes-string / struct /
   nested array; Vyper list / bounded bytes / bounded string) using
   rules R1-R10 and R19-R25.
2. **Number and order of parameters** — one cluster per parameter,
   ordered by head position in the call data.
3. **Parameter-related symbols** — the engine already labels every
   loaded value with its call-data sources; here those sources are
   assigned to clusters, connecting later *uses* to parameters.
4. **Fine-grained type inference** — refine basic types and item types
   with rules R11-R18 and R26-R31 (masks, sign extension, double
   ISZERO, BYTE, signed ops, Vyper range clamps).

Inference is deterministic in its inputs: the same ``FunctionEvents``
and engine options always yield the same parameter list and the same
rule firings.  The function-body memo (``sigrec.cache.FunctionMemo``)
leans on this — callers may run inference against a throwaway
:class:`RuleTracker`, persist the resulting counts alongside the
signature, and later replay them into a live tracker instead of
re-inferring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sigrec import expr as E
from repro.sigrec import rules as R
from repro.sigrec.events import (
    CalldataCopyEvent,
    CalldataLoadEvent,
    FunctionEvents,
    Guard,
    UseEvent,
    unwrapped_comparison,
)
from repro.sigrec.rules import RuleTracker


@dataclass
class InferredFunction:
    """The recovered parameter list of one function body."""

    selector: int
    param_types: List[str]
    language: str  # "solidity" | "vyper"
    fired_rules: List[str] = field(default_factory=list)
    # Per-parameter confidence: "high" (structure and usage corroborate),
    # "medium" (one strong hint) or "low" (a default stood in: R4's bare
    # uint256, or the bytes-vs-string tie-break with no byte access).
    confidences: List[str] = field(default_factory=list)

    @property
    def selector_hex(self) -> str:
        return f"0x{self.selector:08x}"

    def param_list(self) -> str:
        return ",".join(self.param_types)


class _Cluster:
    """One parameter candidate: all accesses sharing a call-data base.

    A plain slotted record (one instance per recovered parameter, but
    thousands of parameters per batch): ``labels`` covers every access
    of the parameter; ``item_labels`` covers only the parameter's
    *data* (array items, blob bytes) — excluding the offset and num
    fields, whose incidental arithmetic must not influence item-type
    refinement.  ``_suffix`` carries the array-dimension suffix from
    coarse classification to item refinement (``None`` for
    non-array families).
    """

    __slots__ = ("position", "family", "type_str", "labels", "item_labels",
                 "_suffix")

    def __init__(
        self,
        position: int,  # head offset in the call data (>= 4)
        family: str,  # "basic" | "static" | "dynamic" | "blob" | ...
        type_str: str = "uint256",
    ) -> None:
        self.position = position
        self.family = family
        self.type_str = type_str
        self.labels: Set[Tuple[str, object]] = set()
        self.item_labels: Set[Tuple[str, object]] = set()
        self._suffix: Optional[str] = None


def _dims_suffix(dims) -> str:
    """Render dimension sizes as an array-type suffix: ``[2][8]``."""
    return "".join(f"[{d}]" for d in dims)


def _cd_key(loc: E.Expr) -> object:
    """The label key :meth:`repro.sigrec.expr.ExprArena.calldata` uses.

    Constant offsets label as the offset int; symbolic locations label
    as the location expression itself (structural equality — the same
    sharing the old ``repr(loc)`` string key gave, without the repr).
    """
    return loc.value if loc.is_const else loc


# The one definition of "what inference can see of a guard" is shared
# with the inference-memo event digest — see events.unwrapped_comparison.
_unwrap_cmp = unwrapped_comparison


def _guard_levels(guards: Sequence[Guard]) -> List[Tuple[int, E.Expr]]:
    """Distinct bound-check levels (by comparison site) in guard order."""
    seen: Set[int] = set()
    levels: List[Tuple[int, E.Expr]] = []
    for guard in guards:
        cmp_expr = _unwrap_cmp(guard.condition)
        if cmp_expr is None or guard.pc in seen:
            continue
        seen.add(guard.pc)
        levels.append((guard.pc, cmp_expr))
    return levels


def _has_stride_mul(loc: E.Expr) -> bool:
    """Does the location scale an index by a 32-byte stride?

    Covers both the plain ``MUL 32k`` form and the obfuscated
    ``SHL >=5`` form (a left shift by five is a multiplication by 32).
    """
    for node in loc.iter_nodes():
        if node.op == "mul":
            for arg in node.args:
                if arg.is_const and arg.value % 32 == 0 and arg.value > 0:
                    return True
        if node.op == "shl" and node.args and node.args[0].is_const:
            if node.args[0].value >= 5:
                return True
    return False


def _bound_view(cmp_expr: E.Expr):
    """Uniform (index, bound) view of a bound check.

    ``lt(i, bound)`` and the inverted ``gt(bound, i)`` express the same
    check; normalizing here makes the rules obfuscation-resistant.
    """
    if cmp_expr.op == "lt":
        return cmp_expr.args[0], cmp_expr.args[1]
    if cmp_expr.op == "gt":
        return cmp_expr.args[1], cmp_expr.args[0]
    return None


def _bound_view_strict(cmp_expr: E.Expr):
    """LT-only bound view: the pre-generalization (ablation) variant."""
    if cmp_expr.op == "lt":
        return cmp_expr.args[0], cmp_expr.args[1]
    return None


def _has_stride_mul_strict(loc: E.Expr) -> bool:
    """MUL-only stride detection: the pre-generalization variant."""
    for node in loc.iter_nodes():
        if node.op == "mul":
            for arg in node.args:
                if arg.is_const and arg.value % 32 == 0 and arg.value > 0:
                    return True
    return False


def _has_calldatasize(node: E.Expr) -> bool:
    """Does the expression mention CALLDATASIZE anywhere?"""
    return any(n.op == "calldatasize" for n in node.iter_nodes())


class PredicateMemo:
    """Per-engine-run memo for structural expression predicates.

    All memoized predicates are pure functions of node structure, so
    one memo can safely outlive a single :class:`TypeInference` and be
    shared across every function of one ``recover()`` call — interned
    nodes (the PR 6 arena) are classified once per run, not once per
    rule probe.  Keys are the expression nodes themselves: their
    structural hash is computed once and cached, so a probe costs one
    dict lookup even across functions that rebuilt equal trees.

    The semantic-idiom and strict (ablation) predicate variants keep
    separate tables, so a run that mixes modes (``explain``, ablation
    benchmarks) cannot cross-contaminate.
    """

    __slots__ = ("stride", "stride_strict", "bound_view", "bound_view_strict",
                 "unwrap", "has_cds", "guard_levels", "cd_key")

    def __init__(self) -> None:
        self.stride: Dict[E.Expr, bool] = {}
        self.stride_strict: Dict[E.Expr, bool] = {}
        self.bound_view: Dict[E.Expr, object] = {}
        self.bound_view_strict: Dict[E.Expr, object] = {}
        self.unwrap: Dict[E.Expr, Optional[E.Expr]] = {}
        self.has_cds: Dict[E.Expr, bool] = {}
        self.guard_levels: Dict[Tuple[Guard, ...], List[Tuple[int, E.Expr]]] = {}
        self.cd_key: Dict[E.Expr, object] = {}


def _memoized(cache: Dict, fn):
    """Wrap a pure single-argument predicate with a dict memo."""

    def probe(node):
        try:
            return cache[node]
        except KeyError:
            result = fn(node)
            cache[node] = result
            return result

    return probe


class TypeInference:
    """Runs steps 1-4 for one function's events.

    Two execution paths produce byte-identical results:

    * ``indexed=True`` (default) — ``__init__`` builds the load/copy
      **derivation graph** (which loads' results feed which other
      accesses' location expressions) and a **label inverted index**
      over use events once, and memoizes structural predicates in a
      :class:`PredicateMemo`; every rule probe is then an index lookup.
    * ``indexed=False`` — the retained reference path: the original
      quadratic rescans, kept verbatim as the differential-testing
      oracle (``tests/sigrec/test_inference_equivalence.py``).
    """

    def __init__(
        self,
        events: FunctionEvents,
        tracker: RuleTracker,
        semantic_idioms: bool = True,
        coarse_only: bool = False,
        memo: Optional[PredicateMemo] = None,
        indexed: bool = True,
    ) -> None:
        self.events = events
        self.tracker = tracker
        self.fired: List[str] = []
        self.is_vyper = events.vyper_markers > 0
        self.coarse_only = coarse_only
        self._indexed = indexed
        self._loads = list(events.loads)
        self._copies = list(events.copies)
        self._uses = list(events.uses)
        stride_raw = _has_stride_mul if semantic_idioms else _has_stride_mul_strict
        bound_raw = _bound_view if semantic_idioms else _bound_view_strict
        if indexed:
            self._memo = memo if memo is not None else PredicateMemo()
            self._stride_test = _memoized(
                self._memo.stride if semantic_idioms
                else self._memo.stride_strict,
                stride_raw,
            )
            self._bound_view = _memoized(
                self._memo.bound_view if semantic_idioms
                else self._memo.bound_view_strict,
                bound_raw,
            )
            self._unwrap = _memoized(self._memo.unwrap, _unwrap_cmp)
            self._has_cds = _memoized(self._memo.has_cds, _has_calldatasize)
            self._cd_key = _memoized(self._memo.cd_key, _cd_key)
            self._build_indexes()
        else:
            self._memo = None
            self._stride_test = stride_raw
            self._bound_view = bound_raw
            self._unwrap = _unwrap_cmp
            self._has_cds = _has_calldatasize
            self._cd_key = _cd_key
        self._bound_rights: Optional[Set[E.Expr]] = None

    def _build_indexes(self) -> None:
        """One pass over the events; every later probe is a lookup.

        ``_deriving_loads[i]`` / ``_deriving_copies[i]`` list, in event
        order, the loads (copies) whose location (source or length)
        structurally contains load *i*'s result — the derivation edges
        the reference path rediscovers with a containment rescan per
        probe.  Lists are keyed by load index; loads with structurally
        equal results share entries exactly as the structural rescans
        would find them.
        """
        loads = self._loads
        result_to_idxs: Dict[E.Expr, List[int]] = {}
        for i, load in enumerate(loads):
            result_to_idxs.setdefault(load.result, []).append(i)
        deriving_loads: List[List[int]] = [[] for _ in loads]
        for j, load in enumerate(loads):
            for node in load.loc.node_set():
                idxs = result_to_idxs.get(node)
                if idxs:
                    for i in idxs:
                        if i != j:
                            deriving_loads[i].append(j)
        deriving_copies: List[List[int]] = [[] for _ in loads]
        for k, copy in enumerate(self._copies):
            nodes = copy.src.node_set() | copy.length.node_set()
            for node in nodes:
                idxs = result_to_idxs.get(node)
                if idxs:
                    for i in idxs:
                        deriving_copies[i].append(k)
        self._deriving_loads = deriving_loads
        self._deriving_copies = deriving_copies
        self._load_index = {id(load): i for i, load in enumerate(loads)}
        uses_by_label: Dict[Tuple[str, object], List[int]] = {}
        for u, use in enumerate(self._uses):
            for label in use.labels:
                uses_by_label.setdefault(label, []).append(u)
        self._uses_by_label = uses_by_label

    # -- derivation queries (index lookup vs. reference rescan) ---------

    def _loads_deriving(self, idx: int) -> List[int]:
        """Indexes of loads whose loc contains load ``idx``'s result."""
        if self._indexed:
            return self._deriving_loads[idx]
        base = self._loads[idx].result
        return [
            j
            for j, other in enumerate(self._loads)
            if j != idx and other.loc.contains(base)
        ]

    def _copies_deriving(self, idx: int) -> List[int]:
        """Indexes of copies whose src/length contain load ``idx``'s result."""
        if self._indexed:
            return self._deriving_copies[idx]
        base = self._loads[idx].result
        return [
            k
            for k, copy in enumerate(self._copies)
            if copy.src.contains(base) or copy.length.contains(base)
        ]

    def _has_dependents(self, load: CalldataLoadEvent) -> bool:
        """Does any *other* load's loc contain this load's result?"""
        if self._indexed:
            return bool(self._deriving_loads[self._load_index[id(load)]])
        return any(
            other.loc.contains(load.result)
            for other in self._loads
            if other is not load
        )

    def _dependents_of(self, load: CalldataLoadEvent) -> List[int]:
        if self._indexed:
            return self._deriving_loads[self._load_index[id(load)]]
        return [
            j
            for j, other in enumerate(self._loads)
            if other is not load and other.loc.contains(load.result)
        ]

    # ------------------------------------------------------------------

    def _fire(self, rule_id: str) -> None:
        self.tracker.fire(rule_id)
        self.fired.append(rule_id)

    def run(self) -> InferredFunction:
        if self.is_vyper:
            self._fire("R20")

        clusters: List[_Cluster] = []
        consumed_loads: Set[int] = set()  # indexes into self._loads
        consumed_copies: Set[int] = set()

        head_loads = self._head_loads()
        offset_heads = self._offset_heads(head_loads)

        # --- dynamic parameters (offset field present) ------------------
        for loc_value, load_idx in offset_heads:
            cluster = self._classify_dynamic(loc_value, load_idx, consumed_loads,
                                             consumed_copies)
            if cluster is not None:
                clusters.append(cluster)

        # --- static arrays, public mode (constant-source copies) --------
        clusters.extend(self._static_public_arrays(consumed_copies))

        # --- static arrays, external mode (bound-checked item reads) ----
        clusters.extend(self._static_external_arrays(consumed_loads))

        # --- basic types (plain head reads) ------------------------------
        for loc_value, load_idx in head_loads:
            if load_idx in consumed_loads:
                continue
            consumed_loads.add(load_idx)
            cluster = _Cluster(position=loc_value, family="basic")
            cluster.labels.add(("cd", loc_value))
            clusters.append(cluster)
            self._fire("R25" if self.is_vyper else "R4")

        # --- step 2: order; step 4: refine -------------------------------
        clusters.sort(key=lambda c: c.position)
        if not self.coarse_only:
            for cluster in clusters:
                if cluster.family == "basic":
                    cluster.type_str = self._refine_basic(cluster)
                elif cluster.family in ("static", "dynamic"):
                    cluster.type_str = self._refine_array_items(cluster)

        return InferredFunction(
            selector=self.events.selector,
            param_types=[c.type_str for c in clusters],
            language="vyper" if self.is_vyper else "solidity",
            fired_rules=self.fired,
            confidences=[self._confidence(c) for c in clusters],
        )

    def _confidence(self, cluster: _Cluster) -> str:
        """Evidence-based confidence for one parameter.

        * structural families (arrays, structs, copies) carry layout
          evidence; a refined item/basic type adds usage evidence;
        * a basic parameter refined by a usage rule is solid on its own;
        * the defaults — R4's uint256 with no uses at all, or a blob
          typed ``string`` purely because no byte access was seen — are
          exactly the paper's case-5 shadows, and score low.
        """
        labels = cluster.item_labels or cluster.labels
        if self._indexed:
            has_use = any(label in self._uses_by_label for label in labels)
        else:
            has_use = any(use.labels & labels for use in self._uses)
        if cluster.family in ("static", "struct"):
            return "high" if has_use else "medium"
        if cluster.family == "dynamic":
            return "high" if has_use else "medium"
        if cluster.family == "blob":
            if cluster.type_str == "bytes":
                return "high"  # byte access positively identified it
            return "medium" if has_use else "low"  # string by default
        # basic
        if cluster.type_str != "uint256":
            return "high"  # a refinement rule fired
        return "medium" if has_use else "low"

    # ------------------------------------------------------------------
    # Step 1 helpers
    # ------------------------------------------------------------------

    def _head_loads(self) -> List[Tuple[int, int]]:
        """Constant-location, head-aligned loads: (location, load index)."""
        heads = []
        seen_locs: Set[int] = set()
        for idx, load in enumerate(self._loads):
            if not load.loc.is_const:
                continue
            loc = load.loc.value
            if loc < 4 or (loc - 4) % 32 != 0 or loc in seen_locs:
                continue
            seen_locs.add(loc)
            heads.append((loc, idx))
        return sorted(heads)

    def _offset_heads(self, head_loads: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Head loads whose result feeds another call-data access (R1)."""
        result = []
        for loc_value, idx in head_loads:
            if self._loads_deriving(idx) or self._copies_deriving(idx):
                result.append((loc_value, idx))
        return result

    # ------------------------------------------------------------------

    def _classify_dynamic(
        self,
        loc_value: int,
        load_idx: int,
        consumed_loads: Set[int],
        consumed_copies: Set[int],
    ) -> Optional[_Cluster]:
        """Classify one offset-rooted parameter (R1 and descendants)."""
        base = self._loads[load_idx].result  # the offset field value
        consumed_loads.add(load_idx)
        cluster = _Cluster(position=loc_value, family="dynamic")
        cluster.labels.add(("cd", loc_value))

        # The num-field probe is built over ``base``, a node of the
        # engine's per-contract arena, so it gets an arena of its own:
        # a longer-lived one would keep the engine's nodes alive.
        probes = E.ExprArena()
        num_expr = probes.calldata(probes.binop("add", probes.const(4), base))
        num_idx = None
        derived_loads: List[int] = []
        for j in self._loads_deriving(load_idx):
            load = self._loads[j]
            derived_loads.append(j)
            consumed_loads.add(j)
            key = ("cd", self._cd_key(load.loc))
            cluster.labels.add(key)
            if load.result == num_expr:
                num_idx = j
            else:
                cluster.item_labels.add(key)
        derived_copies: List[int] = []
        for k in self._copies_deriving(load_idx):
            copy = self._copies[k]
            derived_copies.append(k)
            consumed_copies.add(k)
            cluster.labels.add(("cdc", copy.region_id))
            cluster.item_labels.add(("cdc", copy.region_id))

        self._fire("R1")

        own_pcs = {self._loads[load_idx].pc}
        own_pcs.update(self._loads[j].pc for j in derived_loads)
        own_pcs.update(self._copies[k].pc for k in derived_copies)

        if derived_copies:
            return self._classify_dynamic_public(
                cluster, num_expr, derived_copies, own_pcs
            )
        return self._classify_dynamic_external(
            cluster, base, num_expr, num_idx, derived_loads, own_pcs
        )

    # -- public mode (CALLDATACOPY) -------------------------------------

    def _classify_dynamic_public(
        self,
        cluster: _Cluster,
        num_expr: E.Expr,
        copy_indexes: List[int],
        own_pcs: Set[int],
    ) -> _Cluster:
        copies = [self._copies[k] for k in copy_indexes]
        copy_pcs = {c.pc for c in copies}
        first = copies[0]

        # Vyper R23: one copy of the num field *plus* the capped payload
        # (source = offset + 4, the location ``num_expr`` reads, i.e.
        # including the num word) of constant length 32 + maxLen.
        src_is_num_field = first.src == num_expr.args[0]
        if src_is_num_field and first.length.is_const and len(copy_pcs) == 1:
            # The cap itself (length - 32) is not part of the canonical
            # ABI type, so only bytes-vs-string needs deciding (R26).
            self._fire("R23")
            if self._has_use_kind(cluster, ("byte", "mstore8")):
                self._fire("R26")
                cluster.family = "blob"
                cluster.type_str = "bytes"
            else:
                cluster.family = "blob"
                cluster.type_str = "string"
            return cluster

        if len(copy_pcs) == 1:
            self._fire("R5")

        length = first.length
        # R8: bytes/string — the copy length rounds num up to 32 bytes.
        if self._is_rounded_length(length, num_expr):
            self._fire("R8")
            cluster.family = "blob"
            if self._has_use_kind(cluster, ("byte", "mstore8")):
                self._fire("R17")
                cluster.type_str = "bytes"
            else:
                cluster.type_str = "string"
            return cluster

        # R7/R10: dynamic arrays — row length is a multiple of 32.  A
        # *constant* copy length means per-row copies in a loop, i.e. a
        # multidimensional array (a one-dimensional one is copied in a
        # single CALLDATACOPY of num*32 bytes), so the row width is an
        # inner dimension even when it is 1.
        inner_dims: List[int] = []
        if length.is_const:
            inner_dims.append(max(1, length.value // 32))
        concrete_bounds = self._concrete_guard_bounds(
            first.guards, first.pc, own_pcs, num_expr=num_expr
        )
        if len(copy_pcs) == 1 and not concrete_bounds and length.is_const is False:
            self._fire("R7")
        else:
            self._fire("R10" if (concrete_bounds or inner_dims) else "R7")
        suffix = _dims_suffix(inner_dims) + _dims_suffix(reversed(concrete_bounds))
        cluster.family = "dynamic"
        cluster.type_str = "uint256" + suffix + "[]"
        cluster._suffix = suffix + "[]"
        return cluster

    # -- external mode (CALLDATALOAD on demand) --------------------------

    def _classify_dynamic_external(
        self,
        cluster: _Cluster,
        base: E.Expr,
        num_expr: E.Expr,
        num_idx: Optional[int],
        derived_loads: List[int],
        own_pcs: Set[int],
    ) -> _Cluster:
        item_loads = [
            self._loads[j]
            for j in derived_loads
            if num_idx is None or j != num_idx
        ]
        # The read at offset+4 is a num field for arrays but the first
        # *component* of a dynamic struct — struct classification must
        # see it again.
        num_load = self._loads[num_idx] if num_idx is not None else None

        # Inner offset fields: a derived load whose own result is the base
        # of yet another load -> nested array or struct component (R19/R22).
        # The num-field candidate participates: for a struct whose first
        # component is a dynamic array, the read at offset+4 is that
        # component's own offset field, not a num field.
        inner_offsets = []
        for load in item_loads + ([num_load] if num_load is not None else []):
            if self._has_dependents(load):
                inner_offsets.append(load)

        strided = [l for l in item_loads if self._stride_test(l.loc)]
        plain_slot = [
            l
            for l in item_loads
            if not self._stride_test(l.loc)
            and l.loc.op == "add"
            and l.loc.args[0].is_const
            and l.loc.args[1] == base
        ]
        raw_term = [
            l for l in item_loads if not self._stride_test(l.loc) and l not in plain_slot
        ]

        # The num value bounds a loop iff some guard compares an index
        # *against exactly it* — an inner array's num merely containing
        # it (through the offset chain) means a struct component.
        num_used_as_bound = self._is_bound_right(num_expr)

        struct_loads = item_loads + ([num_load] if num_load is not None else [])

        if inner_offsets:
            return self._classify_nested_or_struct(
                cluster, base, num_expr, num_idx, inner_offsets, struct_loads,
                num_used_as_bound,
            )

        if plain_slot and not strided and not num_used_as_bound and num_idx is None:
            # Component reads at fixed slots with no num field: struct (R21).
            return self._classify_struct(cluster, base, plain_slot)

        if strided:
            # R2: n-dimensional dynamic array in an external function.
            self._fire("R2")
            sample = strided[0]
            const_dims = self._concrete_guard_bounds(
                sample.guards, sample.pc, own_pcs, loc=sample.loc,
                num_expr=num_expr,
            )
            cluster.family = "dynamic"
            suffix = _dims_suffix(reversed(const_dims)) + "[]"
            cluster.type_str = "uint256" + suffix
            cluster._suffix = suffix
            return cluster

        if raw_term:
            # Byte-granular access without 32-byte strides: bytes/string.
            cluster.family = "blob"
            if self._has_use_kind(cluster, ("byte", "mstore8")):
                self._fire("R17")
                cluster.type_str = "bytes"
            else:
                cluster.type_str = "string"
            return cluster

        if plain_slot and num_used_as_bound:
            # Constant-index item reads of a 1-dim dynamic array.
            self._fire("R2")
            cluster.family = "dynamic"
            cluster.type_str = "uint256[]"
            cluster._suffix = "[]"
            return cluster

        # Only the num field was read: a dynamic value whose items were
        # never accessed.  Without byte access hints this defaults to
        # string (R1 alone cannot discriminate -- paper case 5).
        cluster.family = "blob"
        cluster.type_str = "string"
        return cluster

    def _classify_nested_or_struct(
        self,
        cluster: _Cluster,
        base: E.Expr,
        num_expr: E.Expr,
        num_idx: Optional[int],
        inner_offsets: List[CalldataLoadEvent],
        item_loads: List[CalldataLoadEvent],
        num_used_as_bound: bool,
    ) -> _Cluster:
        """Offset chains below a parameter: nested array and/or struct."""
        # Distinguish: a nested array's top level has a num field that
        # bounds a loop; a dynamic struct's components sit at fixed slots.
        # Inner offset and num fields must not pollute item refinement.
        for load in inner_offsets:
            cluster.item_labels.discard(("cd", self._cd_key(load.loc)))
        if num_idx is not None and num_used_as_bound:
            # Nested array (R22): depth = offset levels + 1.
            self._fire("R22")
            depth = 1 + self._offset_chain_depth(inner_offsets)
            static_dims = self._static_dims_below(inner_offsets, num_expr)
            cluster.family = "dynamic"
            suffix = _dims_suffix(static_dims) + "[]" * depth
            cluster.type_str = "uint256" + suffix
            cluster._suffix = suffix
            return cluster
        # Struct containing dynamic components (R21; R19 when a component
        # is itself a nested array).
        has_deep_chain = self._offset_chain_depth(inner_offsets) >= 2
        self._fire("R19" if has_deep_chain else "R21")
        components = self._struct_components(base, item_loads, inner_offsets)
        cluster.family = "struct"
        cluster.type_str = "(" + ",".join(components) + ")"
        return cluster

    def _classify_struct(
        self, cluster: _Cluster, base: E.Expr, slot_loads: List[CalldataLoadEvent]
    ) -> _Cluster:
        self._fire("R21")
        components = self._struct_components(base, slot_loads, [])
        cluster.family = "struct"
        cluster.type_str = "(" + ",".join(components) + ")"
        return cluster

    def _struct_components(
        self,
        base: E.Expr,
        item_loads: List[CalldataLoadEvent],
        inner_offsets: List[CalldataLoadEvent],
    ) -> List[str]:
        """Best-effort component list of a dynamic struct."""
        slots: Dict[int, List[CalldataLoadEvent]] = {}
        for load in item_loads:
            if (
                load.loc.op == "add"
                and load.loc.args[0].is_const
                and load.loc.args[1] == base
            ):
                slot = (load.loc.args[0].value - 4) // 32
                slots.setdefault(slot, []).append(load)
        if not slots:
            return ["uint256"]
        components: List[str] = []
        inner_set = {id(l) for l in inner_offsets}
        for slot in sorted(slots):
            loads = slots[slot]
            if any(id(l) in inner_set for l in loads):
                # Component behind its own offset field: a dynamic
                # component; default to uint256[] (deep refinement of
                # struct internals is the paper's weak spot too).
                inner = loads[0]
                deref_locs = [self._loads[j] for j in self._dependents_of(inner)]
                strided_derefs = [d for d in deref_locs if self._stride_test(d.loc)]
                if strided_derefs:
                    # Depth: a component whose dereferences are again
                    # offset fields is a nested array inside the struct.
                    depth = max(1, self._offset_chain_depth([inner]) )
                    leaf_keys = {
                        ("cd", self._cd_key(d.loc))
                        for d in strided_derefs
                        if not self._has_dependents(d)
                    }
                    item = self._refine_labelled_basic(
                        leaf_keys
                        or {("cd", self._cd_key(d.loc)) for d in strided_derefs}
                    )
                    components.append(item + "[]" * depth)
                elif any(not d.loc.is_const for d in deref_locs):
                    components.append("bytes")
                else:
                    components.append("uint256[]")
            else:
                refined = self._refine_labelled_basic(
                    {("cd", self._cd_key(loads[0].loc))}
                )
                components.append(refined)
        return components

    def _offset_chain_depth(self, inner_offsets: List[CalldataLoadEvent]) -> int:
        """Longest chain of offset-field dereferences below a parameter."""
        depth = 1
        current = list(inner_offsets)
        for _ in range(4):  # bounded: arrays deeper than 5 are unseen
            next_level = []
            for load in current:
                for j in self._dependents_of(load):
                    if self._has_dependents(self._loads[j]):
                        next_level.append(self._loads[j])
            if not next_level:
                break
            depth += 1
            current = next_level
        return depth

    def _static_dims_below(
        self, inner_offsets: List[CalldataLoadEvent], num_expr: E.Expr
    ) -> List[int]:
        dims = []
        for load in inner_offsets:
            for bound in self._concrete_guard_bounds(
                load.guards, load.pc, {load.pc}, loc=load.loc
            ):
                dims.append(bound)
        return sorted(set(dims))

    # -- static arrays ----------------------------------------------------

    def _static_public_arrays(self, consumed_copies: Set[int]) -> List[_Cluster]:
        """R6/R9: constant-source CALLDATACOPYs in a public function."""
        groups: Dict[int, List[CalldataCopyEvent]] = {}
        for k, copy in enumerate(self._copies):
            if k in consumed_copies:
                continue
            if not copy.src.is_const or not copy.length.is_const:
                continue
            consumed_copies.add(k)
            groups.setdefault(copy.pc, []).append(copy)
        clusters = []
        for pc, copies in groups.items():
            srcs = sorted({c.src.value for c in copies})
            row_len = copies[0].length.value
            inner_dim = max(1, row_len // 32)
            concrete_bounds = self._concrete_guard_bounds(
                copies[0].guards, copies[0].pc, {pc}
            )
            if concrete_bounds:
                self._fire("R9")
            else:
                self._fire("R6")
            cluster = _Cluster(position=srcs[0], family="static")
            cluster.labels.add(("cdc", pc))
            cluster.item_labels.add(("cdc", pc))
            suffix = f"[{inner_dim}]" + _dims_suffix(reversed(concrete_bounds))
            cluster.type_str = "uint256" + suffix
            cluster._suffix = suffix
            clusters.append(cluster)
        return clusters

    def _static_external_arrays(self, consumed_loads: Set[int]) -> List[_Cluster]:
        """R3/R24: bound-checked item reads without an offset field."""
        # Symbolic-location loads (variable index) group by constant term;
        # constant-location loads with constant bound checks (unoptimized
        # constant index) join the same parameter.
        groups: Dict[int, List[int]] = {}
        for idx, load in enumerate(self._loads):
            if idx in consumed_loads:
                continue
            bound_levels = self._concrete_guard_bounds(
                load.guards, load.pc, {load.pc}, loc=load.loc
            )
            if not load.loc.is_const:
                if load.loc.labels:
                    continue  # offset-derived: not a static array
                if not self._stride_test(load.loc) or not bound_levels:
                    continue
                base_term = load.loc.const_term()
                groups.setdefault(base_term, []).append(idx)
                consumed_loads.add(idx)
            else:
                if not bound_levels:
                    continue
                # Constant-index access with runtime bound checks (the
                # unoptimized constant-index form): the index folded
                # into the location, so group by the *bound-check
                # sites* — one array's checks share their comparison
                # pcs, distinct arrays' checks do not.
                check_pcs = self._own_check_pcs(load)
                key = ("pcs",) + check_pcs if check_pcs else load.loc.value
                groups.setdefault(key, []).append(idx)
                consumed_loads.add(idx)
        clusters = []
        for group_key, idxs in groups.items():
            sample = self._loads[idxs[0]]
            bounds = self._concrete_guard_bounds(
                sample.guards, sample.pc,
                {self._loads[i].pc for i in idxs}, loc=sample.loc,
            )
            self._fire("R24" if self.is_vyper else "R3")
            position = min(
                self._loads[i].loc.value
                if self._loads[i].loc.is_const
                else self._loads[i].loc.const_term()
                for i in idxs
            )
            cluster = _Cluster(position=position, family="static")
            for idx in idxs:
                key = ("cd", self._cd_key(self._loads[idx].loc))
                cluster.labels.add(key)
                cluster.item_labels.add(key)
            suffix = _dims_suffix(reversed(bounds)) if bounds else "[1]"
            cluster.type_str = "uint256" + suffix
            cluster._suffix = suffix
            clusters.append(cluster)
        return clusters

    @staticmethod
    def _is_rounded_length(length: E.Expr, num_expr: E.Expr) -> bool:
        """R8's key: the copy length rounds num up to a 32-byte multiple.

        Matches the ``AND(num + 31, ~31)`` shape Solidity emits for
        bytes/string copies (as opposed to ``num * 32`` for arrays).
        """
        for node in length.iter_nodes():
            if node.op == "add" and node.args[0].is_const:
                if node.args[0].value == 31 and node.args[1].contains(num_expr):
                    return True
        return False

    # ------------------------------------------------------------------
    # Guard analysis
    # ------------------------------------------------------------------

    @property
    def _event_pcs(self) -> List[int]:
        pcs = getattr(self, "_event_pcs_cache", None)
        if pcs is None:
            pcs = sorted(
                {load.pc for load in self._loads}
                | {copy.pc for copy in self._copies}
            )
            self._event_pcs_cache = pcs
        return pcs

    def _guard_levels_of(self, guards: Sequence[Guard]) -> List[Tuple[int, E.Expr]]:
        """Memoized :func:`_guard_levels` — guard tuples repeat heavily."""
        if not self._indexed:
            return _guard_levels(guards)
        guards = tuple(guards)
        cache = self._memo.guard_levels
        try:
            return cache[guards]
        except KeyError:
            seen: Set[int] = set()
            levels: List[Tuple[int, E.Expr]] = []
            for guard in guards:
                cmp_expr = self._unwrap(guard.condition)
                if cmp_expr is None or guard.pc in seen:
                    continue
                seen.add(guard.pc)
                levels.append((guard.pc, cmp_expr))
            cache[guards] = levels
            return levels

    def _is_bound_right(self, num_expr: E.Expr) -> bool:
        """Is ``num_expr`` the bound side of any guard's comparison?"""
        if not self._indexed:
            return any(
                view is not None and view[1] == num_expr
                for load in self._loads
                for guard in load.guards
                for cmp_expr in (_unwrap_cmp(guard.condition),)
                if cmp_expr is not None
                for view in (self._bound_view(cmp_expr),)
            )
        rights = self._bound_rights
        if rights is None:
            rights = set()
            for load in self._loads:
                for guard in load.guards:
                    cmp_expr = self._unwrap(guard.condition)
                    if cmp_expr is None:
                        continue
                    view = self._bound_view(cmp_expr)
                    if view is not None:
                        rights.add(view[1])
            self._bound_rights = rights
        return num_expr in rights

    def _own_check_pcs(self, load: CalldataLoadEvent) -> Tuple[int, ...]:
        """Bound-check comparison sites in this load's attribution window."""
        prev_pc = self._prev_foreign_pc({load.pc})
        pcs = []
        for pc, cmp_expr in self._guard_levels_of(load.guards):
            view = self._bound_view(cmp_expr)
            if view is None:
                continue
            left, right = view
            if left.labels or not right.is_const:
                continue
            if self._has_cds(left):
                continue
            if prev_pc < pc < load.pc:
                pcs.append(pc)
        return tuple(sorted(pcs))

    def _prev_foreign_pc(self, own_pcs: Set[int]) -> int:
        """The last call-data access of *another* parameter before ours.

        Bound checks guard only the parameter whose access they precede;
        anything at or before another parameter's access belongs to that
        parameter (bound checks sit between a parameter's own reads).
        """
        if not own_pcs:
            return 0
        own_min = min(own_pcs)
        prev = 0
        for pc in self._event_pcs:
            if pc < own_min and pc not in own_pcs:
                prev = max(prev, pc)
        return prev

    def _attributed_levels(
        self,
        event_pc: int,
        guards: Sequence[Guard],
        own_pcs: Set[int],
        loc: Optional[E.Expr] = None,
        num_expr: Optional[E.Expr] = None,
    ) -> List[Optional[int]]:
        """Bound-check levels relevant to one event, in guard order.

        ``None`` entries mark dynamic levels (the bound is the num
        field); integers are static dimension sizes.  A guard level is
        attributed to the event when

        * its index variable occurs in the event's location expression
          (external-mode reads with symbolic indices), or
        * its bound is exactly the parameter's num field (dynamic top
          dimension), or
        * it sits between the previous parameter's last access and this
          event in program order (concrete loop counters and constant
          indices, whose index folded away).
        """
        prev_pc = self._prev_foreign_pc(own_pcs)
        levels: List[Optional[int]] = []
        for pc, cmp_expr in self._guard_levels_of(guards):
            view = self._bound_view(cmp_expr)
            if view is None:
                continue
            left, right = view
            if left.labels:
                continue  # a value clamp, not an index check
            if self._has_cds(left):
                continue
            is_dynamic = num_expr is not None and right == num_expr
            relevant = is_dynamic
            if not relevant and loc is not None and not left.is_const:
                relevant = (
                    left in loc.node_set()
                    if self._indexed
                    else loc.contains(left)
                )
            if not relevant and prev_pc < pc < event_pc:
                relevant = True
            if not relevant:
                continue
            if is_dynamic:
                levels.append(None)
            elif right.is_const and not right.labels and 0 < right.value <= 1 << 32:
                levels.append(right.value)
        return levels

    def _concrete_guard_bounds(
        self,
        guards: Sequence[Guard],
        event_pc: int = 1 << 62,
        own_pcs: Optional[Set[int]] = None,
        loc: Optional[E.Expr] = None,
        num_expr: Optional[E.Expr] = None,
    ) -> List[int]:
        """Constant dimension bounds attributed to one event."""
        levels = self._attributed_levels(
            event_pc, guards, own_pcs or set(), loc=loc, num_expr=num_expr
        )
        return [b for b in levels if b is not None]

    # ------------------------------------------------------------------
    # Step 4: fine-grained refinement
    # ------------------------------------------------------------------

    def _uses_for(self, labels: Set[Tuple[str, object]]) -> List[UseEvent]:
        if not self._indexed:
            return [use for use in self._uses if use.labels & labels]
        idxs: Set[int] = set()
        for label in labels:
            idxs.update(self._uses_by_label.get(label, ()))
        return [self._uses[i] for i in sorted(idxs)]

    def _has_use_kind(self, cluster: _Cluster, kinds: Tuple[str, ...]) -> bool:
        labels = cluster.item_labels or cluster.labels
        return any(use.kind in kinds for use in self._uses_for(labels))

    def _refine_basic(self, cluster: _Cluster) -> str:
        if self.is_vyper:
            return self._refine_vyper_basic(cluster.labels)
        return self._refine_labelled_basic(cluster.labels)

    def _refine_labelled_basic(self, labels: Set[Tuple[str, object]]) -> str:
        """Solidity basic-type refinement: R11-R18.

        Candidates are gathered family by family in priority order; the
        first fires and decides the type (exactly the historical early
        returns), and every lower-priority family whose evidence also
        matched is recorded as a shadowed conflict on the tracker.
        """
        uses = self._uses_for(labels)
        has_arith = any(u.kind == "arith" for u in uses)
        candidates: List[Tuple[str, str]] = []
        for use in uses:
            if use.kind == "bool_mask":
                candidates.append(("R14", "bool"))
                break
        for use in uses:
            if use.kind == "signextend" and use.operand is not None and use.operand < 31:
                candidates.append(("R13", f"int{(use.operand + 1) * 8}"))
                break
        for use in uses:
            if use.kind == "and_mask" and use.operand is not None:
                low = R.low_mask_bytes(use.operand)
                if 0 < low < 32:
                    if low == 20 and not has_arith:
                        candidates.append(("R16", "address"))
                    else:
                        candidates.append(("R11", f"uint{low * 8}"))
                    break
                high = R.high_mask_bytes(use.operand)
                if 0 < high < 32:
                    candidates.append(("R12", f"bytes{high}"))
                    break
        for use in uses:
            if use.kind == "signed_op":
                candidates.append(("R15", "int256"))
                break
        for use in uses:
            if use.kind == "byte":
                candidates.append(("R18", "bytes32"))
                break
        if not candidates:
            return "uint256"
        rule_id, type_str = candidates[0]
        self._fire(rule_id)
        for shadowed, _ in candidates[1:]:
            self.tracker.conflict(shadowed)
        return type_str

    def _refine_vyper_basic(self, labels: Set[Tuple[str, object]]) -> str:
        """Vyper basic-type refinement via range clamps: R27-R31."""
        uses = self._uses_for(labels)
        signed_bounds = [
            u.operand for u in uses if u.kind == "signed_bound" and u.operand is not None
        ]
        lt_bounds = [
            u.operand
            for u in uses
            if u.kind in ("lt_bound", "gt_bound") and u.operand is not None
        ]
        for bound in lt_bounds:
            if bound in (R.VYPER_ADDRESS_BOUND, R.VYPER_ADDRESS_BOUND - 1):
                self._fire("R27")
                return "address"
        for bound in lt_bounds:
            if bound in (R.VYPER_BOOL_BOUND, R.VYPER_BOOL_BOUND - 1):
                self._fire("R30")
                return "bool"
        signed_values = {_as_signed(b) for b in signed_bounds}
        if signed_values & {R.VYPER_DECIMAL_HI, R.VYPER_DECIMAL_LO,
                            R.VYPER_DECIMAL_HI + 1, R.VYPER_DECIMAL_LO - 1}:
            self._fire("R29")
            return "fixed168x10"
        if signed_values & {R.VYPER_INT128_HI, R.VYPER_INT128_LO,
                            R.VYPER_INT128_HI + 1, R.VYPER_INT128_LO - 1}:
            self._fire("R28")
            return "int128"
        for use in uses:
            if use.kind == "byte":
                self._fire("R31")
                return "bytes32"
        return "uint256"

    def _refine_array_items(self, cluster: _Cluster) -> str:
        """Fix the item type of an array cluster from item-value uses."""
        suffix = cluster._suffix
        if suffix is None:
            return cluster.type_str
        labels = cluster.item_labels or cluster.labels
        if self.is_vyper:
            item = self._refine_vyper_basic(labels)
        else:
            item = self._refine_labelled_basic(labels)
        return item + suffix


def _as_signed(value: int) -> int:
    return value - (1 << 256) if value >> 255 else value


def infer_function(
    events: FunctionEvents,
    tracker: RuleTracker,
    semantic_idioms: bool = True,
    coarse_only: bool = False,
    memo: Optional[PredicateMemo] = None,
    indexed: bool = True,
) -> InferredFunction:
    """Recover one function's parameter list from its TASE events.

    ``memo`` shares one :class:`PredicateMemo` across the functions of
    an engine run; ``indexed=False`` selects the retained reference
    path (the differential-testing oracle).
    """
    return TypeInference(
        events, tracker, semantic_idioms, coarse_only, memo=memo,
        indexed=indexed,
    ).run()
