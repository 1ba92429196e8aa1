"""The public SigRec interface.

    >>> from repro import SigRec
    >>> tool = SigRec()
    >>> for sig in tool.recover(runtime_bytecode):
    ...     print(sig.selector_hex, sig.param_list)

``recover`` runs the full pipeline of Fig. 12: disassembly, dispatcher
exploration, TASE, and the rule-based inference, returning one
:class:`RecoveredSignature` per public/external function found.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.report import ContractAnalysis, Diagnostic, analyze, cross_check
from repro.obs import (
    NULL_REGISTRY,
    HotLoopProfiler,
    MetricsRegistry,
    RunLedger,
    phase_span,
)
from repro.obs.ledger import phase_delta, phase_snapshot
from repro.obs.profiler import top_hotspots
from repro.sigrec.engine import TASEEngine, TASEResult, merge_tase_results
from repro.sigrec.events import events_digest
from repro.sigrec.inference import PredicateMemo, infer_function
from repro.sigrec.rules import RuleTracker
from repro.sigrec.selectors import extract_selectors

#: How many static analyses one SigRec instance keeps.  ``recover``,
#: ``abi``, ``profile`` and sharded re-runs all need the same
#: per-bytecode analysis; the memo makes it one CFG/dispatcher walk
#: per bytecode per instance instead of one per call.
_ANALYSIS_MEMO_SIZE = 16


def _passes(
    selector: int, only: Optional[FrozenSet[int]], exclude: FrozenSet[int]
) -> bool:
    """The selector filter used by (contract, selector-group) units."""
    return (only is None or selector in only) and selector not in exclude


@dataclass(frozen=True)
class RecoveredSignature:
    """One recovered function signature (function id + parameter types)."""

    selector: int
    param_types: tuple
    language: str = "solidity"
    elapsed_seconds: float = 0.0
    fired_rules: tuple = ()
    # Parallel to param_types: "high" / "medium" / "low" evidence levels.
    confidences: tuple = ()

    @property
    def selector_hex(self) -> str:
        return f"0x{self.selector:08x}"

    @property
    def param_list(self) -> str:
        return ",".join(self.param_types)

    def canonical(self, name: str = "func") -> str:
        """Canonical form with a placeholder name (ids don't carry names)."""
        return f"{name}({self.param_list})"

    def __str__(self) -> str:
        return f"{self.selector_hex}({self.param_list})"


class SigRec:
    """Recovers function signatures from runtime EVM bytecode.

    One instance accumulates rule-usage statistics (:attr:`tracker`)
    across every contract it analyses, which is how the Fig.-19
    frequency study is produced.

    A ``recover`` call runs one monolithic TASE walk from the entry
    unless per-selector shards can save work (:meth:`_shards`): a
    selector-group call (``only``/``exclude``) explores only the wanted
    selectors, and a tool that opts into the function memo
    (``memo=True``) and has one (a ``memo_dir``, or a store a batch
    worker attached) can skip memoized bodies.  The rule reads the
    tool's configuration and the call, never an earlier call.  Both
    strategies give identical results unless a walk truncates: a shard
    has a path budget of its own.
    """

    def __init__(
        self,
        max_total_steps: int = 400_000,
        max_paths: int = 768,
        fork_bound: int = 3,
        loop_bound: int = 420,
        max_path_steps: int = 60_000,
        semantic_idioms: bool = True,
        coarse_only: bool = False,
        static_check: bool = True,
        memo: bool = False,
        memo_dir: Optional[str] = None,
        inference_memo: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        ledger: Optional[RunLedger] = None,
        profiler: Optional[HotLoopProfiler] = None,
    ) -> None:
        self.tracker = RuleTracker()
        # Observability backends: ``None`` means the shared null
        # singletons, whose instruments swallow everything.  None of
        # these are part of :meth:`options` — telemetry wiring never
        # changes what is recovered, so it must not perturb cache
        # fingerprints.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.ledger = ledger
        self.profiler = profiler
        if ledger is not None and self.metrics is NULL_REGISTRY:
            # Ledger records attribute per-phase seconds as deltas of the
            # ``phase.seconds`` histograms, which need a real registry.
            self.metrics = MetricsRegistry()
        self.semantic_idioms = semantic_idioms
        self.coarse_only = coarse_only
        # ``static_check`` cross-validates TASE's selector set against
        # the static dispatcher analysis after every ``recover`` (see
        # :attr:`last_diagnostics`).
        self.static_check = static_check
        # ``memo`` opts into the function-body memo: each shard's
        # inferred signature keyed by its code region, so a clone-heavy
        # corpus recovers each shared body once (a shard is one
        # selector explored on its own; see :meth:`_shards` for when a
        # call shards).  Off by default: keying, probing and writing
        # the bodies cost more than the replays save on every measured
        # corpus, since each shard re-walks the dispatcher spine; even
        # a memo primed on disk by an earlier run gains only a little.
        # ``inference_memo`` opts into the third caching tier: inference
        # products keyed by the canonical event-stream digest
        # (:func:`repro.sigrec.events.events_digest`), so clones whose
        # *bytecode* differs but whose event streams normalize
        # identically skip rule inference (TASE still runs).  Off by
        # default: computing the digest costs more than the inference
        # it could skip on every measured corpus, so only a workload
        # with expensive inference and many digest-equal functions
        # gains from it.
        # ``memo_dir`` adds the persistent on-disk tier of whichever
        # memo is on and does nothing without one (it is wiring, like
        # ``metrics``, and not part of :meth:`options`).
        self.memo = memo
        self.inference_memo = inference_memo
        self.memo_dir = memo_dir
        #: Memo stores by kind, created on first use or attached.
        self._stores: Dict[type, object] = {}
        #: "sharded" or "monolithic": which exploration strategy the
        #: most recent ``recover`` call actually used.
        self.last_strategy: str = "monolithic"
        #: Cache-tier outcome of the most recent ``recover`` call:
        #: "cold" (everything explored), "memo" (every wanted selector
        #: replayed from the function memo), "inference-memo" (every
        #: inference replayed from the inference memo), or either with
        #: a "-partial" suffix.  The "result-cache" tier is recorded by
        #: the batch parent, which never calls ``recover`` for those
        #: contracts.
        self._last_tier: str = "cold"
        #: (memo hits, memo misses) of the most recent ``recover``.
        self.last_memo: Tuple[int, int] = (0, 0)
        #: (inference-memo hits, misses) of the most recent ``recover``.
        self.last_inference_memo: Tuple[int, int] = (0, 0)
        #: Structured static/TASE divergence reports from the most
        #: recent ``recover`` call (empty when they agree, or when
        #: ``static_check`` is off).
        self.last_diagnostics: Tuple[Diagnostic, ...] = ()
        self._engine_opts = dict(
            max_total_steps=max_total_steps,
            max_paths=max_paths,
            fork_bound=fork_bound,
            loop_bound=loop_bound,
            max_path_steps=max_path_steps,
            semantic_idioms=semantic_idioms,
        )
        from repro.sigrec.cache import LRU

        # Recent static analyses, keyed by bytecode digest: every
        # consumer goes through :meth:`_analyze` so one bytecode is
        # walked once.
        self._analysis_memo = LRU(_ANALYSIS_MEMO_SIZE)

    def options(self) -> Dict[str, object]:
        """Everything needed to build an equivalent instance.

        Used by the batch executor to construct per-worker tools and by
        the persistent cache as the invalidation fingerprint.
        """
        opts = dict(self._engine_opts)
        opts["coarse_only"] = self.coarse_only
        opts["static_check"] = self.static_check
        opts["memo"] = self.memo
        opts["inference_memo"] = self.inference_memo
        return opts

    def function_memo(self):
        """The function-body memo: ``None`` unless ``memo`` is on; then
        an attached store, else with a ``memo_dir`` its disk-backed
        store made on first use, else ``None`` — a tool makes no
        memory-only function memo of its own."""
        from repro.sigrec.cache import FunctionMemo

        if not self.memo:
            return None
        if FunctionMemo in self._stores or self.memo_dir is not None:
            return self._store(FunctionMemo)
        return None

    def inference_memo_tier(self):
        """The inference memo, created on first use (or ``None``)."""
        from repro.sigrec.cache import InferenceMemo

        return self._store(InferenceMemo) if self.inference_memo else None

    def attach_store(self, store) -> None:
        """Use ``store`` as this tool's memo of its kind (batch workers
        share one per process across their short-lived tools); it then
        reports its probes into this tool's registry."""
        store.metrics = self.metrics
        self._stores[type(store)] = store

    def _store(self, kind):
        store = self._stores.get(kind)
        if store is None:
            store = self._stores[kind] = kind(
                self.options(), directory=self.memo_dir, metrics=self.metrics
            )
        return store

    def _analyze(self, bytecode: bytes) -> ContractAnalysis:
        """The memoized static analysis for ``bytecode``.

        Every pass is pure in the bytecode, so one instance keeps one
        analysis context per bytecode and every consumer — ``recover``'s
        shard planner, the cross-check, ``abi``, ``profile`` — shares
        it.  A miss runs only cfg/dispatcher; the passes sharding,
        ``abi`` and ``profile`` read run on their first read, each at
        most once per bytecode.  Every pass run is timed inside a
        ``static_analysis`` phase.
        """
        digest = hashlib.sha256(bytecode).digest()
        analysis = self._analysis_memo.get(digest)
        if analysis is None:
            analysis = analyze(bytecode, metrics=self.metrics)
            self._analysis_memo.put(digest, analysis)
        return analysis

    def _run_engine(self, bytecode: bytes) -> TASEResult:
        """One monolithic TASE walk from the entry."""
        with phase_span(self.metrics, "disasm"):
            engine = TASEEngine(
                bytecode,
                metrics=self.metrics,
                profiler=self.profiler,
                **self._engine_opts,
            )
        with phase_span(self.metrics, "tase"):
            return engine.run()

    def recover(
        self,
        bytecode: bytes,
        *,
        only: Optional[FrozenSet[int]] = None,
        exclude: FrozenSet[int] = frozenset(),
    ) -> List[RecoveredSignature]:
        """Recover the signatures of all public/external functions.

        ``only``/``exclude`` restrict which selectors are inferred
        (a selector is recovered iff it passes both filters); the batch
        scheduler uses them to split one contract into independent
        (contract, selector-group) work units.  With the default
        ``None``/empty values the behavior is the historical whole-
        contract recovery.  :attr:`last_strategy` records whether the
        call sharded.
        """
        publish = self.metrics is not NULL_REGISTRY
        fired_before = dict(self.tracker.counts) if publish else {}
        conflicts_before = dict(self.tracker.conflicts) if publish else {}
        partial = only is not None or bool(exclude)
        phases_before: Optional[Dict[str, float]] = None
        hot_before: Optional[Dict[int, int]] = None
        started = 0.0
        if self.ledger is not None:
            phases_before = phase_snapshot(self.metrics)
            if self.profiler is not None:
                hot_before = self.profiler.snapshot()
            started = time.perf_counter()
        self.last_memo = (0, 0)
        with phase_span(self.metrics, "recover"):
            sharding = self._shards(partial)
            analysis: Optional[ContractAnalysis] = None
            if self.static_check or sharding:
                analysis = self._analyze(bytecode)
            plan = self._shard_plan(analysis) if sharding else None
            memo_hits: Dict[int, object] = {}
            memo_keys: Dict[int, str] = {}
            if plan is not None:
                self.last_strategy = "sharded"
                result, memo_hits, memo_keys = self._recover_sharded(
                    bytecode, analysis, plan, only, exclude
                )
            else:
                self.last_strategy = "monolithic"
                result = self._run_engine(bytecode)
            recovered = self._infer(
                result, only, exclude, memo_hits, memo_keys
            )
            self._last_tier = "cold"
            for tier, hits in (
                ("memo", self.last_memo[0]),
                ("inference-memo", self.last_inference_memo[0]),
            ):
                if hits:
                    self._last_tier = (
                        tier if hits == len(recovered) else f"{tier}-partial"
                    )
                    break
            self.last_diagnostics = self._diagnose(
                analysis, result, partial=partial
            )
        if publish:
            self._publish_recover_metrics(
                recovered, fired_before, conflicts_before
            )
        if self.ledger is not None:
            self.ledger.append(
                self._ledger_record(
                    bytecode,
                    recovered,
                    result,
                    phases_before or {},
                    hot_before,
                    time.perf_counter() - started,
                    partial,
                )
            )
        return recovered

    def _ledger_record(
        self,
        bytecode: bytes,
        recovered: List[RecoveredSignature],
        result: TASEResult,
        phases_before: Dict[str, float],
        hot_before: Optional[Dict[int, int]],
        elapsed: float,
        partial: bool,
    ) -> dict:
        """One run-ledger record for the ``recover`` call just finished."""
        from repro.sigrec.cache import options_fingerprint

        memo_hits, memo_misses = self.last_memo
        record = {
            "code_sha256": hashlib.sha256(bytecode).hexdigest(),
            "bytes": len(bytecode),
            "fingerprint": options_fingerprint(self.options()),
            "strategy": self.last_strategy,
            "tier": self._last_tier,
            "partial": partial,
            "functions": len(recovered),
            "elapsed_seconds": round(elapsed, 9),
            "phases": {
                phase: round(seconds, 9)
                for phase, seconds in sorted(
                    phase_delta(
                        phases_before, phase_snapshot(self.metrics)
                    ).items()
                )
            },
            "memo": {"hits": memo_hits, "misses": memo_misses},
            "inference_memo": {
                "hits": self.last_inference_memo[0],
                "misses": self.last_inference_memo[1],
            },
            "tase": {
                "steps": result.total_steps,
                "paths": result.paths_explored,
                "forks": result.forks_taken,
                "budget_exhaustions": result.budget_exhaustions,
                "truncated_paths": result.truncated_paths,
                "truncated_steps": result.truncated_steps,
                "abandoned_states": result.abandoned_states,
            },
            "diagnostics": [
                {"kind": d.kind, "detail": d.detail}
                for d in self.last_diagnostics
            ],
        }
        if self.profiler is not None and hot_before is not None:
            hotspots = top_hotspots(self.profiler.delta(hot_before), 16)
            if hotspots:
                record["hotspots"] = [list(pair) for pair in hotspots]
        return record

    def _shards(self, partial: bool) -> bool:
        """Whether this call may run per-selector shards.

        Shards cost more than one walk — the plan needs the jump
        fixpoint, and each shard re-walks the dispatcher spine — and pay
        only where they save work: a ``partial`` (selector-group) call
        explores just its wanted selectors, and an opted-in function
        memo (an on-disk ``memo_dir``, or a store a batch worker
        attached) can skip whole functions.  Every other call runs one
        monolithic walk.
        The answer depends on the configuration and this call alone, so
        an earlier call never changes it.
        """
        return partial or self.function_memo() is not None

    def _shard_plan(self, analysis: ContractAnalysis):
        """The sorted selector list to shard on, or None → monolithic.

        Sharding requires a *trustworthy* dispatcher map: the jump
        fixpoint must have completed and the static walk must have found
        at least one entry.  Anything less falls back to the monolithic
        walk, which needs no static help.
        """
        if analysis.cfg.incomplete:
            return None
        if not analysis.dispatcher.entries:
            return None
        return tuple(sorted(analysis.dispatcher.entries))

    def _recover_sharded(
        self,
        bytecode: bytes,
        analysis: ContractAnalysis,
        plan: Tuple[int, ...],
        only: Optional[FrozenSet[int]],
        exclude: FrozenSet[int],
    ) -> Tuple[TASEResult, Dict[int, object], Dict[int, str]]:
        """Per-selector shards + residual walk, skipping memoized bodies.

        Returns the merged result plus the function-memo records that
        replaced a shard and the memo keys of the shards that missed,
        both by selector, for :meth:`_infer`.
        """
        known = frozenset(plan)
        wanted = [s for s in plan if _passes(s, only, exclude)]
        memo = self.function_memo()
        hits: Dict[int, object] = {}
        miss_keys: Dict[int, str] = {}
        with phase_span(self.metrics, "disasm"):
            engine = TASEEngine(
                bytecode,
                metrics=self.metrics,
                profiler=self.profiler,
                **self._engine_opts,
            )
        with phase_span(self.metrics, "tase"):
            parts: List[TASEResult] = []
            for selector in wanted:
                if memo is not None:
                    preimage = analysis.function_preimage(selector)
                    if preimage is not None:
                        key = memo.key_for(preimage)
                        record = memo.get(key)
                        if record is not None:
                            hits[selector] = record
                            continue
                        miss_keys[selector] = key
                parts.append(engine.run_selector(selector, known))
            # The residual walk covers the fallback and any selector the
            # static dispatcher missed.  A selector-group unit whose
            # ``only`` set is fully covered by per-selector shards can
            # skip it: residual discoveries could not pass its filter.
            if only is None or (set(only) - set(plan)):
                parts.append(engine.run_residual(known))
            result = merge_tase_results(parts)
            result.selectors = sorted(set(result.functions) | set(hits))
            engine.publish_metrics(result)
        self.last_memo = (len(hits), len(miss_keys))
        return result, hits, miss_keys

    def _infer(
        self,
        result: TASEResult,
        only: Optional[FrozenSet[int]],
        exclude: FrozenSet[int],
        memo_hits: Dict[int, object],
        memo_keys: Dict[int, str],
    ) -> List[RecoveredSignature]:
        """Inference for every wanted function: the one per-function path
        of sharded and monolithic recovery.

        A function-memo hit (``memo_hits``) is replayed.  Any other
        function probes the inference memo (keyed by its event digest)
        and, on a miss, is inferred against a local tracker so its
        counts are replayable later.  The record of a function with a
        function-memo key (``memo_keys``) is written back under it, so
        the next run on that body also skips TASE.  Replays merge the
        recorded rule/conflict counts, so the Fig.-19 aggregates match a
        memo-less run exactly.
        """
        from repro.sigrec.cache import InferenceRecord

        fn_memo = self.function_memo() if memo_keys else None
        inf_memo = self.inference_memo_tier()
        pred_memo = PredicateMemo()
        recovered: List[RecoveredSignature] = []
        inf_hits = inf_misses = 0
        with phase_span(self.metrics, "inference"):
            for selector in result.selectors:
                if not _passes(selector, only, exclude):
                    continue
                record = memo_hits.get(selector)
                if record is not None:
                    recovered.append(self._replay(record, selector))
                    continue
                events = result.functions[selector]
                inf_key = None
                if inf_memo is not None:
                    inf_key = inf_memo.key_for(events_digest(events))
                    record = inf_memo.get(inf_key)
                if record is not None:
                    inf_hits += 1
                    signature = self._replay(record, selector)
                else:
                    local = RuleTracker()
                    start = time.perf_counter()
                    inferred = infer_function(
                        events, local,
                        semantic_idioms=self.semantic_idioms,
                        coarse_only=self.coarse_only,
                        memo=pred_memo,
                    )
                    elapsed = time.perf_counter() - start
                    self.tracker.merge(local)
                    record = InferenceRecord.from_inference(
                        inferred.param_types,
                        inferred.language,
                        inferred.fired_rules,
                        inferred.confidences,
                        local.counts,
                        local.conflicts,
                    )
                    signature = record.to_signature(selector, elapsed)
                    if inf_key is not None:
                        inf_misses += 1
                        inf_memo.put(inf_key, record)
                key = memo_keys.get(selector)
                if key is not None:
                    fn_memo.put(key, record)
                recovered.append(signature)
        self.last_inference_memo = (inf_hits, inf_misses)
        return recovered

    def _replay(self, record, selector: int) -> RecoveredSignature:
        """A memoized function's signature, its rule activity replayed."""
        self.tracker.merge(record.rule_counts)
        for rule_id, count in record.conflicts.items():
            self.tracker.conflict(rule_id, count)
        return record.to_signature(selector)

    def _diagnose(
        self,
        analysis: Optional[ContractAnalysis],
        result: TASEResult,
        partial: bool = False,
    ) -> Tuple[Diagnostic, ...]:
        """Truncation warnings first, then the static/TASE cross-check.

        A ``max_paths``/step-limit truncation means the engine abandoned
        live exploration states, so the recovery may be missing whole
        functions — structurally different from a complete run that
        simply found few selectors, and invisible without this record.
        """
        diagnostics = []
        if result.truncated_paths:
            diagnostics.append(
                Diagnostic(
                    kind="tase-truncated-paths",
                    detail=(
                        f"path cap max_paths={self._engine_opts['max_paths']} "
                        f"reached; exploration abandoned "
                        f"{result.abandoned_states} pending state(s) and "
                        "the recovery may be incomplete"
                    ),
                )
            )
        if result.truncated_steps:
            diagnostics.append(
                Diagnostic(
                    kind="tase-truncated-steps",
                    detail=(
                        "step ceiling reached "
                        f"(max_total_steps={self._engine_opts['max_total_steps']}"
                        " or the per-path limit); the recovery may be incomplete"
                    ),
                )
            )
        if self.static_check and analysis is not None and not partial:
            # A filtered (selector-group) recovery only explores part of
            # the contract; comparing its selector set against the full
            # static map would report spurious divergences.
            diagnostics.extend(cross_check(analysis, result.selectors))
        return tuple(diagnostics)

    def _publish_recover_metrics(
        self,
        recovered: List[RecoveredSignature],
        fired_before: Dict[str, int],
        conflicts_before: Dict[str, int],
    ) -> None:
        """Per-recover counters, including this call's rule-fire deltas."""
        metrics = self.metrics
        metrics.counter("recover.calls").inc()
        metrics.counter("recover.functions").inc(len(recovered))
        for rule, count in self.tracker.counts.items():
            delta = count - fired_before.get(rule, 0)
            if delta:
                metrics.counter("rules.fired", rule=rule).inc(delta)
        for rule, count in self.tracker.conflicts.items():
            delta = count - conflicts_before.get(rule, 0)
            if delta:
                metrics.counter("rules.conflicts", rule=rule).inc(delta)

    def recover_map(self, bytecode: bytes) -> Dict[int, RecoveredSignature]:
        """Like :meth:`recover`, keyed by selector."""
        return {sig.selector: sig for sig in self.recover(bytecode)}

    def profile(
        self,
        bytecode: bytes,
        signatures: Optional[List[RecoveredSignature]] = None,
    ):
        """The contract profile: signatures + storage layout + static
        facts as one deterministic document.

        Runs a full recovery unless ``signatures`` (e.g. the result of
        an earlier :meth:`recover` call, or an empty list for a
        static-only profile) is given.  The static analysis is shared
        with ``recover`` through the per-instance memo, so
        ``recover`` + ``profile`` on the same bytecode walks the CFG
        once.
        """
        from repro.analysis.report import ContractProfile, build_profile

        if signatures is None:
            signatures = self.recover(bytecode)
        profile: ContractProfile = build_profile(
            self._analyze(bytecode), signatures
        )
        return profile

    def abi(
        self,
        bytecode: bytes,
        signatures: Optional[List[RecoveredSignature]] = None,
    ) -> List[dict]:
        """A standard Solidity ABI JSON array, from the bytecode alone.

        Inputs come from signature recovery (run here unless
        ``signatures`` is supplied), ``stateMutability`` from the
        mutability pass, and ``outputs`` from the returns pass's
        word-granular skeletons (static words as ``uint256``, dynamic
        tails as ``bytes``).  The static verdicts never guess, but the
        ABI format cannot express uncertainty, so ``unknown``
        mutability degrades to ``nonpayable`` (the weakest claim) and
        an unknown return shape degrades to no declared outputs — the
        profile document (:meth:`profile`) keeps the honest verdicts.

        Functions are named ``func_<selector hex>``; entries are sorted
        by selector.  The array validates against
        ``docs/abi.schema.json``.
        """
        if signatures is None:
            signatures = self.recover(bytecode)
        analysis = self._analyze(bytecode)
        by_selector = {sig.selector: sig for sig in signatures}
        mutability = analysis.mutability
        returns = analysis.returns
        entries: List[dict] = []
        for selector in sorted(set(analysis.selectors) | set(by_selector)):
            sig = by_selector.get(selector)
            inputs = [
                {"name": f"arg{i}", "type": rendered}
                for i, rendered in enumerate(sig.param_types)
            ] if sig is not None else []
            verdict = mutability.functions.get(selector, "unknown")
            if verdict == "unknown":
                verdict = "nonpayable"
            recovered = returns.functions.get(selector)
            shape: tuple = ()
            if recovered is not None and recovered.shape is not None:
                shape = recovered.shape
            entries.append({
                "type": "function",
                "name": f"func_{selector:08x}",
                "inputs": inputs,
                "outputs": [{"name": "", "type": t} for t in shape],
                "stateMutability": verdict,
            })
        return entries

    def explain(self, bytecode: bytes, selector: int) -> str:
        """A human-readable account of one function's recovery.

        Lists the call-data accesses TASE observed (with their symbolic
        location expressions and guards), the type-revealing uses, the
        rules that fired, and the final parameter list — the evidence
        trail behind the answer.
        """
        events = self._run_engine(bytecode).functions.get(selector)
        if events is None:
            return f"0x{selector:08x}: function not found in the dispatcher"
        inferred = infer_function(
            events, RuleTracker(),
            semantic_idioms=self.semantic_idioms,
            coarse_only=self.coarse_only,
        )
        lines = [f"function 0x{selector:08x} ({inferred.language})"]
        lines.append("call-data loads:")
        for load in events.loads:
            guard_note = f"  [{len(load.guards)} guards]" if load.guards else ""
            lines.append(f"  pc={load.pc:#06x}  cd[{load.loc!r}]{guard_note}")
        if events.copies:
            lines.append("call-data copies:")
            for copy in events.copies:
                lines.append(
                    f"  pc={copy.pc:#06x}  src={copy.src!r} len={copy.length!r}"
                )
        if events.uses:
            lines.append("type-revealing uses:")
            for use in events.uses:
                operand = ""
                if use.operand is not None:
                    operand = (
                        f" operand={use.operand:#x}"
                        if use.operand < 1 << 64
                        else f" operand={use.operand:#066x}"
                    )
                lines.append(f"  pc={use.pc:#06x}  {use.kind}{operand}")
        lines.append(f"rules fired: {', '.join(inferred.fired_rules) or '(none)'}")
        lines.append(f"recovered: ({inferred.param_list()})")
        return "\n".join(lines)

    @staticmethod
    def extract_function_ids(bytecode: bytes) -> List[int]:
        """Static function-id extraction only (no type inference)."""
        return extract_selectors(bytecode)
