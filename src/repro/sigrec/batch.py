"""Chain-scale batch recovery: work-stealing, memoized, cache-backed.

Per-contract analysis is embarrassingly parallel — one bytecode never
needs another's results — so a chain-sized corpus (the paper's RQ3:
37,009,570 deployed contracts, 368,679 unique bytecodes) shards cleanly
across cores.  :class:`BatchRecovery` composes four layers:

1. **Deduplication** — identical bytecodes become one job, and every
   duplicate gets a fresh copy of the finished result (input order is
   preserved).
2. **Persistent cache** — with a ``cache_dir``, finished results are
   read from / written to a content-addressed on-disk store
   (:mod:`repro.sigrec.cache`), so repeat runs skip the engine entirely.
   The parent only probes it; each unit writes its contract's entry
   itself as soon as its ``recover`` returns.
3. **Opt-in memos** — with ``SigRec(memo=True)`` each worker process
   keeps a shared :class:`~repro.sigrec.cache.FunctionMemo` (plus an
   on-disk tier under ``<cache_dir>/fnmemo``), so a unit whose function
   body is memoized skips that body's TASE shard.  With
   ``SigRec(inference_memo=True)`` an
   :class:`~repro.sigrec.cache.InferenceMemo` rides alongside it in the
   same directory: when a body's preimage differs but its canonical
   event stream matches, TASE still runs yet the type-inference pass is
   replayed from the memo.  Both are off by default, so a default unit
   runs one monolithic walk and writes nothing under ``fnmemo``.
4. **Work-stealing scheduler** — every cache miss becomes one *unit*,
   a whole contract, on one shared queue drained by a
   ``ProcessPoolExecutor`` via ``submit``/``as_completed``: a free
   worker immediately pulls the next unit instead of idling behind a
   pre-assigned straggler.  A unit is exactly one ``recover`` call, so a
   batch result equals per-contract ``recover`` at any worker count.
   ``workers=0`` drains the identical unit list serially, producing
   byte-identical results and counters.  The pool lives as long as the
   process: the first parallel drain forks it, every later call with
   the same worker count reuses it (another count replaces it), so a
   call pays no fork and no join.  A process's state lives for one call
   (:func:`_enter_run`).  A worker sees the parent's modules as they
   were at the fork: a patch made after the fork does not reach it, so
   patch after :func:`shutdown_pool`.  A worker that dies breaks the
   pool; the call drops it, forks a fresh one and resubmits its
   unfinished units, once.

Each unit runs with a fresh :class:`RuleTracker` and the per-unit
counts are merged back into the parent tool's tracker (rule counters
are purely additive, so the merged totals equal a serial run's), which
keeps the Fig.-19 rule-frequency statistics correct under any worker
count and any cache state.

Telemetry rides the tool's backends the same way: worker metrics
documents merge into the tool's registry, and the run ledger gets one
record per unit (tagged with its ``job``) plus one per result-cache
hit.  That ledger record is the batch's only per-recovery record.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.evm.predecode import clear_program_cache
from repro.obs import (
    LEDGER_SCHEMA_VERSION,
    NULL_REGISTRY,
    HotLoopProfiler,
    MetricsRegistry,
)
from repro.obs.ledger import RunLedger
from repro.sigrec.api import RecoveredSignature, SigRec
from repro.sigrec.cache import (
    ContentStore,
    FunctionMemo,
    InferenceMemo,
    ResultCache,
    options_fingerprint,
)

#: The selector count above which a contract once split into several
#: scheduler units.  Nothing here reads it: the benchmark's input
#: generator (``perfbench/inputs.py``) imports it to size two
#: ``clone-fleet`` families.
DEFAULT_UNIT_SIZE = 8

#: One scheduler unit, a whole contract: (job index, bytecode).
_Unit = Tuple[int, bytes]

#: The process's one worker pool and its worker count (:func:`_pool`);
#: the lock makes getting, replacing and dropping the pool atomic.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()

#: The run token of the ``recover_all`` call whose units this process
#: ran last (:func:`_enter_run`).
_RUN_TOKEN: Optional[str] = None

#: Per-process shared memo stores: (store kind, fingerprint, directory)
#: -> store.  Living at module level makes the stores survive across the
#: many short-lived ``SigRec`` instances a worker constructs — that
#: persistence is the whole point: the Nth unit with a familiar function
#: body skips its TASE shard (function memo) or its inference (inference
#: memo).  They live for one ``recover_all`` call: an in-process drain
#: drops them when it ends, a pool worker when the next call's first
#: unit arrives (:func:`_enter_run`); cross-run reuse is the on-disk
#: tier's job (``memo_dir``).
_WORKER_STORES: Dict[Tuple[type, str, Optional[str]], ContentStore] = {}


def _pool(workers: int) -> ProcessPoolExecutor:
    """The process's pool of ``workers`` workers, made on first use.

    A pool of another size is shut down first.  ``concurrent.futures``
    joins the workers of the live pool at interpreter exit.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None and _POOL_WORKERS != workers:
            _POOL.shutdown()
            _POOL = None
        if _POOL is None:
            _POOL = ProcessPoolExecutor(max_workers=workers)
            _POOL_WORKERS = workers
        return _POOL


def shutdown_pool() -> None:
    """Shut down and forget the process's worker pool, if there is one.

    The next parallel drain forks a fresh pool, which sees the parent's
    modules as they are then — a patch that pool workers must see has
    to be made after this call.
    """
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


def _enter_run(token: str) -> None:
    """Drop what a process keeps between units when a new call starts.

    Held memo stores serve one ``recover_all`` call, and two events drop
    them: the first unit carrying a new run token (here), and the end of
    an in-process drain, on return or raise (``recover_all``).  So a
    finished serial call holds none, and a pool worker holds its last
    call's stores until the next call reaches it.  The token also
    empties the program cache, in a pool worker and in a serial drain
    alike: the pool outlives the call, and without the token a worker
    would start the next call warmer than a freshly forked one (serial
    and parallel counter aggregates could diverge) and hold what every
    earlier call left behind.  So every call starts equally cold.
    """
    global _RUN_TOKEN
    if token == _RUN_TOKEN:
        return
    _RUN_TOKEN = token
    _WORKER_STORES.clear()
    clear_program_cache()


def _worker_store(
    kind: type, options: Dict[str, object], memo_dir: Optional[str]
) -> ContentStore:
    key = (kind, options_fingerprint(options), memo_dir)
    store = _WORKER_STORES.get(key)
    if store is None:
        store = _WORKER_STORES[key] = kind(options, directory=memo_dir)
    return store


@dataclass(frozen=True)
class UnitOutcome:
    """What one scheduler unit sends home from its worker."""

    job_index: int
    signatures: List[RecoveredSignature]
    counts: Dict[str, int]  # the unit's rule-fire counts
    metrics: Optional[dict]  # the unit's serialized metrics registry
    elapsed: float
    memo: Tuple[int, int]  # function-memo (hits, misses)
    inference_memo: Tuple[int, int]  # inference-memo (hits, misses)
    obs: Optional[dict]  # ledger records and hot-loop profile


def _analyze_unit(
    options: Dict[str, object],
    collect_metrics: bool,
    cache_dir: Optional[str],
    memo_dir: Optional[str],
    token: str,
    obs_opts: Dict[str, object],
    unit: _Unit,
) -> UnitOutcome:
    """Worker entry point: one scheduler unit, a fresh tool, delta counts.

    Top-level so it pickles for the process pool; also used verbatim by
    the serial path so ``workers=0`` and ``workers=N`` run the same code.
    With ``collect_metrics`` the unit runs against its own registry and
    returns the serialized document, which the parent merges — counters
    are additive, so the aggregate equals a serial run's (the same
    pattern as the per-unit :class:`RuleTracker` merge).  The elapsed
    wall time and each memo's (hits, misses) ride along for the
    ``contract.seconds`` histogram and the batch stats — the unit's
    ``recover`` tallies them, so they survive metrics-free runs.

    With a ``cache_dir``, the unit writes its contract's result-cache
    entry once ``recover`` returns (its ``cache.writes`` count rides
    home in the unit's registry); a unit that raises writes nothing.

    ``obs_opts`` flags the deep-observability payloads: ``"ledger"``
    (run-ledger records) and ``"profiler"`` (hot-loop attribution).
    Whatever is enabled rides home in ``obs`` as plain lists/dicts,
    merged additively by the parent — the same ship-the-document
    pattern as the metrics registry.
    """
    job_index, bytecode = unit
    _enter_run(token)
    registry = MetricsRegistry() if collect_metrics else None
    ledger = RunLedger() if obs_opts.get("ledger") else None
    profiler = HotLoopProfiler() if obs_opts.get("profiler") else None
    tool = SigRec(metrics=registry, ledger=ledger, profiler=profiler, **options)
    # The shared store reports into whichever unit attached it last; a
    # worker processes one unit at a time, so this is race-free.
    for kind, enabled in (
        (FunctionMemo, tool.memo), (InferenceMemo, tool.inference_memo)
    ):
        if enabled:
            tool.attach_store(_worker_store(kind, options, memo_dir))
    start = time.perf_counter()
    signatures = tool.recover(bytecode)
    elapsed = time.perf_counter() - start
    counts = {r: c for r, c in tool.tracker.counts.items() if c}
    if cache_dir is not None:
        ResultCache(cache_dir, options, metrics=registry).put(
            bytecode, signatures, counts
        )
    obs: Optional[dict] = None
    if ledger is not None or profiler is not None:
        obs = {
            "ledger": ledger.records if ledger is not None else [],
            "profile": profiler.counts if profiler is not None else {},
        }
    return UnitOutcome(
        job_index=job_index,
        signatures=signatures,
        counts=counts,
        metrics=registry.to_dict() if registry is not None else None,
        elapsed=elapsed,
        memo=tool.last_memo,
        inference_memo=tool.last_inference_memo,
        obs=obs,
    )


@dataclass
class BatchStats:
    """Throughput accounting for one :meth:`BatchRecovery.recover_all`."""

    total: int = 0  # contracts submitted
    unique: int = 0  # jobs after deduplication
    analyzed: int = 0  # jobs that actually ran the engine
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 0  # 0 = serial in-process
    elapsed_seconds: float = 0.0
    # The benchmark's traced mode (``perfbench/run.py``) reads ``units``
    # (always ``analyzed``) and ``split_contracts`` (always 0).
    units: int = 0  # scheduler units: one per analyzed job
    split_contracts: int = 0  # jobs split into several units: none
    memo_hits: int = 0  # function-body memo probes across all units
    memo_misses: int = 0
    inference_memo_hits: int = 0  # inference-memo probes across all units
    inference_memo_misses: int = 0

    @property
    def unique_ratio(self) -> float:
        return self.unique / self.total if self.total else 0.0

    @property
    def cache_hit_rate(self) -> float:
        probed = self.cache_hits + self.cache_misses
        return self.cache_hits / probed if probed else 0.0

    @property
    def memo_hit_rate(self) -> float:
        probed = self.memo_hits + self.memo_misses
        return self.memo_hits / probed if probed else 0.0

    @property
    def inference_memo_hit_rate(self) -> float:
        probed = self.inference_memo_hits + self.inference_memo_misses
        return self.inference_memo_hits / probed if probed else 0.0

    @property
    def contracts_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total / self.elapsed_seconds

    def throughput_text(self) -> str:
        """Human rendering of the rate, honest about warm-cache runs.

        A fully warm run can finish faster than the timer's useful
        resolution, making ``total / elapsed`` either a division by
        (near) zero or a meaningless astronomic figure; render ``n/a``
        instead of a misleading ``0`` in that case.
        """
        if self.total and 0 < self.elapsed_seconds:
            rate = self.contracts_per_second
            if rate < 10_000_000:
                return f"{rate:,.0f} contracts/s"
        return "n/a contracts/s"

    def summary(self) -> str:
        """One line for the CLI's ``--time`` flag / benchmark logs."""
        parts = [
            f"{self.total} contracts "
            f"({self.unique} unique, {self.unique_ratio:.0%})",
            f"{self.elapsed_seconds:.2f}s",
            self.throughput_text(),
            f"workers={self.workers or 'serial'}",
        ]
        if self.units:
            parts.append(f"{self.units} units")
        if self.cache_hits or self.cache_misses:
            parts.append(
                f"cache {self.cache_hits} hits / {self.cache_misses} misses "
                f"({self.cache_hit_rate:.0%} hit rate)"
            )
        else:
            parts.append("cache off")
        if self.memo_hits or self.memo_misses:
            parts.append(
                f"memo {self.memo_hits} hits / {self.memo_misses} misses "
                f"({self.memo_hit_rate:.0%} hit rate)"
            )
        if self.inference_memo_hits or self.inference_memo_misses:
            parts.append(
                f"infmemo {self.inference_memo_hits} hits / "
                f"{self.inference_memo_misses} misses "
                f"({self.inference_memo_hit_rate:.0%} hit rate)"
            )
        return " | ".join(parts)


class BatchRecovery:
    """Recovers signatures for many bytecodes, in parallel and cached.

    ``tool`` supplies the engine options and accumulates rule-usage
    statistics; one is created with defaults when omitted.  ``workers``
    is the process-pool size (``None`` means ``os.cpu_count()``; ``0``
    means serial in-process).  ``cache_dir`` enables the persistent
    result cache plus the on-disk tiers of the memos the tool enables
    (the function memo only with ``SigRec(memo=True)``, the inference
    memo only with ``SigRec(inference_memo=True)``), which share
    ``<cache_dir>/fnmemo`` (:attr:`memo_dir`).
    Each cache-miss contract is one scheduler unit, one ``recover``
    call, so a batch returns exactly what per-contract ``recover`` does.
    """

    def __init__(
        self,
        tool: Optional[SigRec] = None,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.tool = tool if tool is not None else SigRec()
        # Telemetry flows through the tool's backends: worker documents
        # merge into ``metrics``, worker run-ledger records append to
        # ``ledger`` and worker hot-loop tallies fold into ``profiler``
        # — so batch and serial runs aggregate identically.
        self.metrics = self.tool.metrics
        self.ledger = self.tool.ledger
        self.profiler = self.tool.profiler
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(0, workers)
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir, self.tool.options(), metrics=self.metrics)
            if cache_dir is not None
            else None
        )
        self.memo_dir: Optional[str] = (
            os.path.join(cache_dir, "fnmemo") if cache_dir is not None else None
        )
        self.stats = BatchStats()

    # ------------------------------------------------------------------

    def recover_all(
        self, bytecodes: Sequence[bytes]
    ) -> List[List[RecoveredSignature]]:
        """One result list per input, in input order; identical
        bytecodes analyze once.

        Every entry is an independent list object: mutating one result
        never affects another, even for duplicated bytecodes.
        """
        start = time.perf_counter()
        stats = BatchStats(total=len(bytecodes), workers=self.workers)
        jobs: List[bytes] = list(dict.fromkeys(bytecodes))  # ordered dedup
        stats.unique = len(jobs)

        finished: Dict[int, List[RecoveredSignature]] = {}
        units: List[_Unit] = []
        for index, code in enumerate(jobs):
            cached = self.cache.get(code) if self.cache is not None else None
            if cached is not None:
                signatures, counts = cached
                finished[index] = signatures
                self.tool.tracker.merge(counts)
                if self.ledger is not None:
                    # A cache hit never calls ``recover``, so the parent
                    # writes its ledger record: the "result-cache" tier.
                    self.ledger.append({
                        "schema": LEDGER_SCHEMA_VERSION,
                        "code_sha256": hashlib.sha256(code).hexdigest(),
                        "bytes": len(code),
                        "strategy": "cached",
                        "tier": "result-cache",
                        "functions": len(signatures),
                        "elapsed_seconds": 0.0,
                        "phases": {},
                        "job": index,
                    })
            else:
                units.append((index, code))
        if self.cache is not None:
            stats.cache_hits = len(jobs) - len(units)
            stats.cache_misses = len(units)
        stats.analyzed = stats.units = len(units)

        obs_opts: Dict[str, object] = {
            "ledger": self.ledger is not None,
            "profiler": self.profiler is not None,
        }
        analyze = partial(
            _analyze_unit,
            self.tool.options(),
            self.metrics is not NULL_REGISTRY,
            self.cache.directory if self.cache is not None else None,
            self.memo_dir,
            os.urandom(8).hex(),  # memory-tier scope: this run only
            obs_opts,
        )
        if units:
            if self.workers and len(units) > 1:
                outcomes = self._drain_parallel(analyze, units)
            else:
                try:
                    outcomes = [analyze(unit) for unit in units]
                finally:
                    _WORKER_STORES.clear()
            for outcome in outcomes:
                stats.memo_hits += outcome.memo[0]
                stats.memo_misses += outcome.memo[1]
                stats.inference_memo_hits += outcome.inference_memo[0]
                stats.inference_memo_misses += outcome.inference_memo[1]
            self._assemble(outcomes, finished)

        by_code = {code: finished[i] for i, code in enumerate(jobs)}
        out = [list(by_code[code]) for code in bytecodes]
        stats.elapsed_seconds = time.perf_counter() - start
        if self.metrics is not NULL_REGISTRY:
            metrics = self.metrics
            metrics.counter("batch.contracts").inc(stats.total)
            metrics.counter("batch.unique").inc(stats.unique)
            metrics.counter("batch.analyzed").inc(stats.analyzed)
            metrics.counter("batch.units").inc(stats.units)
            metrics.histogram("batch.seconds").observe(stats.elapsed_seconds)
        self.stats = stats
        return out

    def profile_all(self, bytecodes: Sequence[bytes]):
        """One :class:`~repro.analysis.report.ContractProfile` per input.

        Runs :meth:`recover_all` first (parallel, cache-backed), then
        folds each unique bytecode's signatures and static analysis into
        its profile.  Profiles ride in the result-cache entries: a warm
        run rehydrates the stored document instead of re-analyzing, and
        a cold run attaches the freshly built document to the entry it
        just wrote.  Documents are deterministic, so serial, parallel
        and cached runs all render byte-identically.
        """
        from repro.analysis.report import ContractProfile

        results = self.recover_all(bytecodes)
        profiles: Dict[bytes, ContractProfile] = {}
        out = []
        for code, signatures in zip(bytecodes, results):
            profile = profiles.get(code)
            if profile is None:
                stored = (
                    self.cache.get_profile(code)
                    if self.cache is not None
                    else None
                )
                if stored is not None:
                    profile = ContractProfile.from_dict(stored)
                else:
                    profile = self.tool.profile(code, signatures)
                    if self.cache is not None:
                        self.cache.attach_profile(code, profile.to_dict())
                profiles[code] = profile
            out.append(profile)
        return out

    def _drain_parallel(
        self, analyze, units: List[_Unit]
    ) -> List[UnitOutcome]:
        """Shared-queue draining on the process's pool: submit every
        unit, collect as done.

        ``submit``/``as_completed`` *is* the work-stealing: the executor
        keeps one shared queue and any idle worker takes the next unit,
        so a straggler contract delays only the worker chewing on it.
        The call leaves the pool idle: on any error it cancels the units
        not yet started and waits for the running ones before it raises.
        A dead worker breaks the pool, which is then dropped; the call
        forks a fresh one and resubmits the units with no outcome yet,
        once.  A second break raises with the pool already dropped.
        """
        outcomes: List[UnitOutcome] = [None] * len(units)  # type: ignore
        retried = False
        while True:
            futures: Dict[Future, int] = {}
            try:
                pool = _pool(self.workers)
                for position, outcome in enumerate(outcomes):
                    if outcome is None:
                        futures[pool.submit(analyze, units[position])] = (
                            position
                        )
                for future in as_completed(futures):
                    outcomes[futures[future]] = future.result()
                return outcomes
            except BrokenProcessPool:
                shutdown_pool()  # every future is done now
                if retried:
                    raise
                retried = True
                for future, position in futures.items():
                    if future.exception() is None:
                        outcomes[position] = future.result()
            except BaseException:
                for future in futures:
                    future.cancel()
                wait(futures)
                raise

    def _assemble(
        self,
        outcomes: List[UnitOutcome],
        finished: Dict[int, List[RecoveredSignature]],
    ) -> None:
        """Fold per-unit outcomes into per-contract results and the
        tool's tracker, registry, ledger and profiler."""
        for outcome in outcomes:
            job_index, obs = outcome.job_index, outcome.obs
            finished[job_index] = outcome.signatures
            self.tool.tracker.merge(outcome.counts)
            if outcome.metrics is not None:
                self.metrics.merge(outcome.metrics)
            if self.metrics is not NULL_REGISTRY:
                self.metrics.histogram("contract.seconds").observe(
                    outcome.elapsed
                )
            if obs is not None:
                # Outcomes arrive in unit-submission order, so the
                # merged ledger/profiles are deterministic for a given
                # corpus regardless of worker count.
                if self.ledger is not None:
                    for record in obs["ledger"]:
                        record["job"] = job_index
                    self.ledger.extend(obs["ledger"])
                if self.profiler is not None and obs["profile"]:
                    self.profiler.merge(
                        {int(pc): c for pc, c in obs["profile"].items()}
                    )
