"""Benchmark-side spans around the calls into each layer of ``repro``.

:meth:`Recorder.install` replaces a fixed set of module and class
attributes with wrappers that record one span (name, start, end, parent
and the returned value) per call and keep the spans in memory.  Nothing
in the program changes: each wrapper calls the original object, and
:meth:`Recorder.uninstall` puts the originals back.  Self time of a span
is its duration minus the durations of its direct children; calls on one
thread nest, so children never overlap.

A wrapped name is seen only where it is looked up through its module or
class at call time.  That holds for every entry below: the pass runners
in ``repro.analysis.framework`` import the pass functions inside their
bodies, ``repro.sigrec.api`` calls ``infer_function``/``events_digest``
through its module globals, ``TASEEngine.__init__`` calls
``_decode_program`` through the engine module, ``SigRec.profile``
imports ``build_profile`` when called, and the methods are looked up on
their classes.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Tuple

#: The nine analysis passes: (module, function, pass name).
PASSES = (
    ("repro.evm.cfg", "build_cfg", "cfg"),
    ("repro.analysis.dataflow", "resolve_jumps", "jumps"),
    ("repro.analysis.stackcheck", "verify_stack", "stack"),
    ("repro.analysis.dispatcher", "extract_dispatch", "dispatcher"),
    ("repro.analysis.storage", "recover_storage_layout", "storage"),
    ("repro.analysis.reachability", "compute_reachability", "reach"),
    ("repro.analysis.mutability", "classify_mutability", "mutability"),
    ("repro.analysis.returns", "recover_returns", "returns"),
    ("repro.analysis.lint", "lint_findings", "lint"),
)

#: Every other wrapped call: (module, attribute path, span name).
CALLS = (
    ("repro.sigrec.engine", "_decode_program", "evm.predecode"),
    ("repro.sigrec.engine", "TASEEngine.run", "engine.run"),
    ("repro.sigrec.engine", "TASEEngine.run_selector", "engine.run_selector"),
    ("repro.sigrec.engine", "TASEEngine.run_residual", "engine.run_residual"),
    ("repro.sigrec.api", "infer_function", "inference"),
    ("repro.sigrec.api", "events_digest", "cache.events_digest"),
    ("repro.sigrec.cache", "ResultCache.get", "cache.result.get"),
    ("repro.sigrec.cache", "ResultCache.put", "cache.result.put"),
    ("repro.sigrec.cache", "FunctionMemo.get", "cache.fnmemo.get"),
    ("repro.sigrec.cache", "FunctionMemo.put", "cache.fnmemo.put"),
    ("repro.sigrec.cache", "InferenceMemo.get", "cache.infmemo.get"),
    ("repro.sigrec.cache", "InferenceMemo.put", "cache.infmemo.put"),
    ("repro.sigrec.batch", "BatchRecovery.recover_all", "batch.recover_all"),
    ("repro.analysis.report", "build_profile", "report.profile"),
    ("repro.sigrec.api", "SigRec.recover", "api.recover"),
    ("repro.sigrec.api", "SigRec.profile", "api.profile"),
    ("repro.sigrec.api", "SigRec.abi", "api.abi"),
)

#: Layers in report order.  ``report.profile`` belongs to ``api`` and
#: ``cache.events_digest`` to ``cache``.
LAYERS = ("analysis", "evm.predecode", "engine", "inference", "cache",
          "batch", "api")

ENGINE_RUNS = ("engine.run", "engine.run_selector", "engine.run_residual")


def layer_of(span_name: str) -> str:
    """The layer a span belongs to (``report.profile`` is the api's)."""
    if span_name.startswith("evm.predecode"):
        return "evm.predecode"
    if span_name.startswith("report."):
        return "api"
    return span_name.split(".", 1)[0]


def _engine_counts(result) -> Tuple[int, int, int, bool]:
    return (result.total_steps, result.paths_explored, result.forks_taken,
            result.truncated_paths or result.truncated_steps)


def _hit(result) -> bool:
    return result is not None


#: What a span keeps of its call's return value.  Spans keep only these
#: small summaries: holding the returned objects themselves would keep
#: every TASE result and analysis alive and slow the run down.
SUMMARIES = {
    "engine.run": _engine_counts,
    "engine.run_selector": _engine_counts,
    "engine.run_residual": _engine_counts,
    "cache.result.get": _hit,
    "cache.fnmemo.get": _hit,
    "cache.infmemo.get": _hit,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "result")

    def __init__(self, name: str, parent: int) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.result: object = None


class Recorder:
    """In-memory spans plus the originals needed to undo the wrapping."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        summary = SUMMARIES.get(name)

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                if summary is not None:
                    span.result = summary(result)
                return result
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Recorder":
        for module_name, function, pass_name in PASSES:
            self._patch(module_name, function, f"analysis.{pass_name}")
        for module_name, path, name in CALLS:
            self._patch(module_name, path, name)
        return self

    def _patch(self, module_name: str, path: str, name: str) -> None:
        owner: object = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: summed self seconds and call count."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for index, span in enumerate(spans):
            own = span.end - span.start - child[index]
            seconds[span.name] = seconds.get(span.name, 0.0) + own
            calls[span.name] = calls.get(span.name, 0) + 1
        return seconds, calls

    def results(self, *names: str) -> List[object]:
        return [span.result for span in self.spans if span.name in names]

    def counts(self) -> Dict[str, int]:
        """The program's own work counts over the recorded spans.

        A run from cleared state must reproduce these exactly.
        """
        _seconds, calls = self.self_times()
        counts = {f"calls.{name}": n for name, n in sorted(calls.items())}
        runs = self.results(*ENGINE_RUNS)
        for position, key in enumerate(("steps", "paths", "forks",
                                        "truncated_runs")):
            counts[f"engine.{key}"] = sum(int(r[position]) for r in runs)
        for tier in CACHE_TIERS:
            got = self.results(f"cache.{tier}.get")
            counts[f"cache.{tier}.probes"] = len(got)
            counts[f"cache.{tier}.hits"] = sum(got)
        return counts


CACHE_TIERS = ("result", "fnmemo", "infmemo")


def layer_metrics(seconds: Dict[str, float], counts: Dict[str, int],
                  wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass taking ``wall`` seconds.

    ``seconds`` are self times by span name.  Shares are of ``wall``;
    ``trace.coverage`` is the share all layers account for together.
    """
    def s(*names: str) -> float:
        return sum(seconds.get(name, 0.0) for name in names)

    def n(*names: str) -> int:
        return sum(counts.get(f"calls.{name}", 0) for name in names)

    m: Dict[str, float] = {}
    for _module, _function, name in PASSES:
        m[f"analysis.{name}.s"] = s(f"analysis.{name}")
        m[f"analysis.{name}.calls"] = n(f"analysis.{name}")
    m["evm.predecode.s"] = s("evm.predecode")
    m["evm.predecode.calls"] = n("evm.predecode")
    engine_s = s(*ENGINE_RUNS)
    m["engine.s"] = engine_s
    m["engine.runs"] = n(*ENGINE_RUNS)
    for key in ("steps", "paths", "forks", "truncated_runs"):
        m[f"engine.{key}"] = counts[f"engine.{key}"]
    m["engine.steps_per_s"] = (
        counts["engine.steps"] / engine_s if engine_s else 0.0)
    m["inference.s"] = s("inference")
    m["inference.calls"] = n("inference")
    for tier in CACHE_TIERS:
        m[f"cache.{tier}.get_s"] = s(f"cache.{tier}.get")
        m[f"cache.{tier}.put_s"] = s(f"cache.{tier}.put")
        probes = counts[f"cache.{tier}.probes"]
        m[f"cache.{tier}.hit_ratio"] = (
            counts[f"cache.{tier}.hits"] / probes if probes else 0.0)
    m["events.digest_s"] = s("cache.events_digest")
    m["batch.self_s"] = s("batch.recover_all")
    m["api.self_s"] = s("api.recover", "api.profile", "api.abi")
    m["report.profile_s"] = s("report.profile")
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, value in seconds.items():
        layers[layer_of(name)] += value
    for layer, value in layers.items():
        m[f"share.{layer}"] = value / wall
    m["trace.coverage"] = sum(layers.values()) / wall
    return m
