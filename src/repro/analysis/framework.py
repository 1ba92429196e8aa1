"""The analysis pass manager: many clients, one pipeline.

The static layer serves several clients — selector sharding and
cross-checking, function-body memo keys, storage-layout recovery,
linting, contract profiles — so its call chain is generalized into
an :class:`AnalysisPipeline` of declared :class:`AnalysisPass` steps:

* each pass names the products it **requires** and the one it
  **provides**, and the pipeline validates at construction time that
  every requirement is produced by an earlier pass (no hidden ordering
  assumptions);
* passes share one :class:`AnalysisContext` per bytecode, which
  computes a product on first access (after its requirements) and
  caches it, so a product is computed at most once however many
  consumers read it — and never when none does: a ``SigRec.recover``
  that runs one TASE walk reads only cfg and dispatcher, and the passes
  only sharding, ``abi``, ``profile`` and ``lint`` read stay unrun
  until one of them asks;
* each pass carries its own **schema version**.  What a pass *means*
  determines how a recovery is sharded and memoized and what a cached
  recovery contains, so the per-pass versions are folded into the
  persistent cache / function-memo fingerprint (:func:`pass_versions`,
  :mod:`repro.sigrec.cache`) — bumping one pass invalidates exactly the
  results that could depend on it;
* every pass runs under a :func:`repro.obs.phase_span`
  (``analysis.<name>`` spans and ``phase.seconds`` histograms) inside a
  ``static_analysis`` phase span, so a trace shows where
  static-analysis time goes per pass, not as one opaque blob.

The default pipeline (:data:`DEFAULT_PIPELINE`) is::

    cfg ─┬─► jumps ──► stack ─────────────────────────┐
         └─► dispatcher                               │
    jumps + dispatcher ──► reach ─┬─► storage ────────┤
                                  ├─► mutability      ├─► lint
                                  ├─► returns         │
                                  └───────────────────┘

The dispatcher walk follows its own spine jumps, so it needs only the
CFG; per-selector regions and dead code need the jump fixpoint and
belong to ``reach``, which storage attribution reads too.

Adding a pass is three steps: write ``run(ctx)`` reading its inputs via
``ctx["name"]``, wrap it in an :class:`AnalysisPass` with a version and
its requirements, and insert it into the pipeline (tests:
``tests/analysis/test_framework.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

from repro.obs import NULL_REGISTRY, NULL_TRACER, MetricsRegistry, SpanTracer, phase_span


@dataclass(frozen=True)
class AnalysisPass:
    """One static-analysis pass.

    ``version`` is the pass's schema version: bump it whenever the
    pass's semantics change in a way that affects how a recovery is
    sharded or memoized, what the linter reports, or what a profile
    contains.  The per-pass versions reach the persistent result cache
    and the function-body memo through :func:`pass_versions`, so a bump
    lands cached recoveries in a fresh tree instead of silently reusing
    stale ones.
    """

    name: str
    version: int
    run: Callable[[AnalysisContext], object]
    requires: Tuple[str, ...] = ()


class PipelineError(Exception):
    """A malformed pipeline: duplicate names or unsatisfied requires."""


class AnalysisContext:
    """Shared per-bytecode state: the input bytes plus pass products.

    A product is computed on first access: ``ctx[name]`` runs the pass
    providing ``name`` — after its ``requires``, so each pass span times
    that pass alone — and caches the result.  Each such computation
    runs under one ``static_analysis`` phase span, so a pass first read
    by ``profile()`` long after ``recover()`` still sits in the phase
    tree.  A runner's reads of its declared ``requires`` are cache hits.
    """

    __slots__ = ("bytecode", "products", "_passes", "_metrics", "_tracer")

    def __init__(
        self,
        bytecode: bytes,
        pipeline: Iterable[AnalysisPass] = (),
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self.bytecode = bytecode
        self.products: Dict[str, object] = {}
        self._passes = {pass_.name: pass_ for pass_ in pipeline}
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def __getitem__(self, name: str) -> object:
        try:
            return self.products[name]
        except KeyError:
            self.pull(name)
            return self.products[name]

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` has been computed yet."""
        return name in self.products

    def pull(self, *names: str) -> None:
        """Compute ``names`` and everything they require, now."""
        with phase_span(self._metrics, self._tracer, "static_analysis"):
            for name in names:
                self._compute(name)

    def _compute(self, name: str) -> None:
        if name in self.products:
            return
        pass_ = self._passes.get(name)
        if pass_ is None:
            raise KeyError(
                f"analysis product {name!r} not available: no pass in "
                "this context's pipeline provides it"
            )
        for requirement in pass_.requires:
            self._compute(requirement)
        with phase_span(self._metrics, self._tracer, f"analysis.{name}"):
            product = pass_.run(self)
        self._metrics.counter("analysis.pass_runs", **{"pass": name}).inc()
        self.products[name] = product


class AnalysisPipeline:
    """An ordered, dependency-checked sequence of analysis passes."""

    def __init__(self, passes: Tuple[AnalysisPass, ...]) -> None:
        seen: set = set()
        for pass_ in passes:
            if pass_.name in seen:
                raise PipelineError(f"duplicate pass name {pass_.name!r}")
            for requirement in pass_.requires:
                if requirement not in seen:
                    raise PipelineError(
                        f"pass {pass_.name!r} requires {requirement!r}, "
                        "which no earlier pass provides"
                    )
            seen.add(pass_.name)
        self.passes: Tuple[AnalysisPass, ...] = tuple(passes)

    def __iter__(self) -> Iterator[AnalysisPass]:
        return iter(self.passes)

    def names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def versions(self) -> Dict[str, int]:
        """Pass name -> schema version, for cache fingerprints."""
        return {p.name: p.version for p in self.passes}

    def replace(self, **overrides: AnalysisPass) -> "AnalysisPipeline":
        """A new pipeline with named passes swapped out (tests use this
        to bump a single pass version or stub a pass)."""
        unknown = set(overrides) - set(self.names())
        if unknown:
            raise PipelineError(f"no such pass to replace: {sorted(unknown)}")
        return AnalysisPipeline(
            tuple(overrides.get(p.name, p) for p in self.passes)
        )

    def run(
        self,
        bytecode: bytes,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> AnalysisContext:
        """A context over ``bytecode`` with every pass already run."""
        context = AnalysisContext(bytecode, self, metrics, tracer)
        context.pull(*self.names())
        return context


# ----------------------------------------------------------------------
# The default passes.  Import order matters: the pass bodies live in
# their own modules; this module only declares the wiring.

def _run_cfg(ctx: AnalysisContext):
    from repro.evm.cfg import build_cfg

    return build_cfg(ctx.bytecode)


def _run_jumps(ctx: AnalysisContext):
    from repro.analysis.dataflow import resolve_jumps

    return resolve_jumps(ctx["cfg"])


def _run_stack(ctx: AnalysisContext):
    from repro.analysis.stackcheck import verify_stack

    return verify_stack(ctx["jumps"])


def _run_dispatcher(ctx: AnalysisContext):
    from repro.analysis.dispatcher import extract_dispatch

    return extract_dispatch(ctx["cfg"])


def _run_storage(ctx: AnalysisContext):
    from repro.analysis.storage import recover_storage_layout

    return recover_storage_layout(ctx["jumps"], ctx["reach"])


def _run_reach(ctx: AnalysisContext):
    from repro.analysis.reachability import compute_reachability

    return compute_reachability(ctx["jumps"], ctx["dispatcher"])


def _run_mutability(ctx: AnalysisContext):
    from repro.analysis.mutability import classify_mutability

    return classify_mutability(ctx["jumps"], ctx["dispatcher"], ctx["reach"])


def _run_returns(ctx: AnalysisContext):
    from repro.analysis.returns import recover_returns

    return recover_returns(ctx["jumps"], ctx["dispatcher"], ctx["reach"])


def _run_lint(ctx: AnalysisContext):
    from repro.analysis.lint import lint_findings

    return lint_findings(
        ctx.bytecode, ctx["jumps"], ctx["stack"], ctx["dispatcher"],
        ctx["reach"], ctx["storage"],
    )


#: The standard pass set, in dependency order.
DEFAULT_PIPELINE = AnalysisPipeline((
    AnalysisPass("cfg", 1, _run_cfg),
    AnalysisPass("jumps", 1, _run_jumps, requires=("cfg",)),
    AnalysisPass("stack", 1, _run_stack, requires=("jumps",)),
    AnalysisPass("dispatcher", 1, _run_dispatcher, requires=("cfg",)),
    AnalysisPass(
        "reach", 1, _run_reach, requires=("jumps", "dispatcher")
    ),
    AnalysisPass("storage", 1, _run_storage, requires=("jumps", "reach")),
    AnalysisPass(
        "mutability", 1, _run_mutability,
        requires=("jumps", "dispatcher", "reach"),
    ),
    AnalysisPass(
        "returns", 1, _run_returns,
        requires=("jumps", "dispatcher", "reach"),
    ),
    # v2: storage-unresolved blind spots surface as info findings.
    AnalysisPass(
        "lint", 2, _run_lint,
        requires=("jumps", "stack", "dispatcher", "reach", "storage"),
    ),
))


def default_pipeline() -> AnalysisPipeline:
    """The pipeline :func:`repro.analysis.analyze` runs.

    A function (not the bare constant) so cache fingerprints and tests
    observe monkeypatched pipelines; see ``pass_versions``.
    """
    return DEFAULT_PIPELINE


def pass_versions() -> Dict[str, int]:
    """Per-pass schema versions of the default pipeline.

    This dict — not a single scalar — is what the persistent result
    cache and the function-body memo fold into their options
    fingerprints: bumping any one pass version invalidates every cached
    recovery, because any of them could depend on that pass's output.
    """
    return default_pipeline().versions()
