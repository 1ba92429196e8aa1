"""The combined static-analysis result for one contract.

:func:`analyze` opens an :class:`~repro.analysis.framework.
AnalysisContext` over the default pipeline and wraps it in a
:class:`ContractAnalysis`: a view that computes the CFG and the
dispatcher at once (every consumer reads the selector set) and each
other pass product — jump resolution, stack verification, storage
layout, reachability, mutability, return shapes, lint findings — on
first read.  The view is the cross-check's selector source, the
linter's input, the profile's source, and the shard planner's
dispatcher map.  ``analyze`` is *total*: it never raises on arbitrary
byte strings (junk decodes to UNKNOWN instructions, which the passes
treat as opaque path ends).

Two derived views are computed lazily too:

* ``silent_halt_blocks`` — blocks that provably halt without emitting
  any TASE event (only PUSH/POP/JUMPDEST plus a STOP/REVERT/INVALID
  terminator), shown by ``repro inspect``;
* ``function_preimage`` — a function's memo preimage, only for a
  ``reach`` function marked complete (a *closed* region: every jump
  inside resolved, the fixpoint finished).

This module also defines the **contract profile**: the one-document
description of everything the static layer and the recovery engine
know about a bytecode (signatures + storage layout + dispatcher / CFG /
lint facts), with deterministic JSON rendering — sorted keys, no
timestamps — so profiles are byte-identical across runs, worker counts,
and cache temperature.  ``repro profile`` surfaces it on the CLI.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.framework import AnalysisContext, default_pipeline, pass_versions
from repro.analysis.mutability import MutabilityReport
from repro.analysis.reachability import ReachabilityReport, region_preimage
from repro.analysis.returns import ReturnsReport
from repro.analysis.stackcheck import Finding, StackReport
from repro.analysis.storage import StorageLayout
from repro.obs import MetricsRegistry


#: Opcodes that can appear in a block provably free of TASE events.
_SILENT_OPS = frozenset(
    ["POP", "JUMPDEST", "STOP", "REVERT", "INVALID"]
)
_SILENT_TERMINATORS = frozenset(["STOP", "REVERT", "INVALID"])


@dataclass(frozen=True)
class Diagnostic:
    """A structured divergence report from the static/TASE cross-check."""

    kind: str
    detail: str
    selectors: Tuple[int, ...] = ()

    def render(self) -> str:
        if self.selectors:
            shown = ", ".join(f"0x{s:08x}" for s in self.selectors)
            return f"{self.kind}: {self.detail} ({shown})"
        return f"{self.kind}: {self.detail}"


class ContractAnalysis:
    """All static passes over one runtime bytecode, plus derived views.

    A view over one :class:`AnalysisContext`: the ``dispatcher`` (and
    the base CFG it walks) is computed on construction, and every other
    pass product when first read — the jump-resolved CFG behind
    :attr:`cfg` too — so a consumer pays only for the passes it reads.
    """

    def __init__(self, context: AnalysisContext) -> None:
        context.pull("dispatcher")
        self.context = context
        self.bytecode: bytes = context.bytecode
        self.dispatcher: DispatcherReport = context["dispatcher"]
        self._silent_halts: Optional[FrozenSet[int]] = None

    @property
    def cfg(self) -> ResolvedCFG:
        """The jump-resolved CFG (the ``jumps`` product)."""
        return self.context["jumps"]

    @property
    def stack(self) -> StackReport:
        return self.context["stack"]

    @property
    def storage(self) -> StorageLayout:
        return self.context["storage"]

    @property
    def reach(self) -> ReachabilityReport:
        return self.context["reach"]

    @property
    def mutability(self) -> MutabilityReport:
        return self.context["mutability"]

    @property
    def returns(self) -> ReturnsReport:
        return self.context["returns"]

    @property
    def lint_findings(self) -> Tuple[Finding, ...]:
        return self.context["lint"]

    @property
    def findings(self) -> Tuple[Finding, ...]:
        return tuple(self.stack.findings) + tuple(self.dispatcher.findings)

    @property
    def selectors(self) -> Tuple[int, ...]:
        return self.dispatcher.selectors

    # -- derived views -------------------------------------------------

    @property
    def silent_halt_blocks(self) -> FrozenSet[int]:
        """Starts of blocks that halt without any observable TASE event.

        Function entry blocks are excluded even when silent (an empty
        public function's body is PUSH/POP/STOP): entering one is how
        TASE *discovers* the selector, which is an observation.
        """
        if self._silent_halts is None:
            silent = set()
            entry_blocks = set(self.dispatcher.entries.values())
            for start, block in self.context["cfg"].blocks.items():
                if start in entry_blocks:
                    continue
                terminator = block.terminator
                if terminator.op.name not in _SILENT_TERMINATORS:
                    continue
                if all(
                    ins.op.is_push or ins.op.name in _SILENT_OPS
                    for ins in block.instructions
                ):
                    silent.add(start)
            self._silent_halts = frozenset(silent)
        return self._silent_halts

    def function_preimage(self, selector: int) -> Optional[bytes]:
        """Memoization preimage for one function, or ``None``.

        Only closed regions qualify: when every jump in the selector's
        region is resolved (and the CFG is complete), a sharded TASE run
        provably never leaves the dispatcher spine + region, so those
        bytes — plus the selector and the engine-options fingerprint —
        fully determine the recovered signature.  Open regions return
        ``None`` and are recovered fresh every time.
        """
        function = self.reach.functions.get(selector)
        if function is None or not function.complete:
            return None
        return region_preimage(
            self.cfg, self.dispatcher, function, self.bytecode
        )


def analyze(
    bytecode: bytes,
    metrics: Optional[MetricsRegistry] = None,
) -> ContractAnalysis:
    """The static analysis of ``bytecode`` under the default pipeline.

    Runs the passes every consumer reads (cfg, dispatcher); the rest,
    the jump fixpoint included, run when the returned view's product is
    first read.  ``metrics`` receives each pass's ``phase.seconds``
    sample and ``analysis.pass_runs`` count.
    """
    return ContractAnalysis(
        AnalysisContext(bytecode, default_pipeline(), metrics)
    )


def cross_check(analysis: ContractAnalysis, tase_selectors) -> Tuple[Diagnostic, ...]:
    """Compare the static selector set against TASE's discoveries."""
    static = set(analysis.selectors)
    dynamic = set(tase_selectors)
    diagnostics = []
    missing = sorted(static - dynamic)
    if missing:
        diagnostics.append(
            Diagnostic(
                kind="selector-missed-by-tase",
                detail=(
                    f"{len(missing)} selector(s) found in the static "
                    "dispatcher but not explored symbolically"
                ),
                selectors=tuple(missing),
            )
        )
    extra = sorted(dynamic - static)
    if extra:
        diagnostics.append(
            Diagnostic(
                kind="selector-missed-statically",
                detail=(
                    f"{len(extra)} selector(s) discovered by TASE but "
                    "invisible to the static dispatcher walk"
                ),
                selectors=tuple(extra),
            )
        )
    return tuple(diagnostics)


# ----------------------------------------------------------------------
# The contract profile.

#: Profile document schema version (the document *shape*; pass-semantic
#: changes are carried by the per-pass versions inside the document).
#: v2: the ``abi`` section (per-selector mutability + return shapes).
PROFILE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ContractProfile:
    """Everything recovered about one bytecode, as one document.

    Deterministic by construction: every field derives from the
    bytecode alone (plus engine options), values are sorted, and
    nothing time- or machine-dependent is admitted — ``to_json`` output
    is byte-identical across runs, worker counts, and cache hits.
    """

    bytecode_sha256: str
    code_size: int
    #: Per-pass schema versions of the pipeline that produced this.
    passes: Tuple[Tuple[str, int], ...]
    #: Recovered signatures (sorted by selector); empty when the
    #: profile was built without running recovery.
    signatures: Tuple[dict, ...]
    storage: dict
    #: Per-selector ABI completion facts: ``{"0x...": {"mutability":
    #: str, "returns": [types] | None}}``.
    abi: dict
    dispatcher: dict
    cfg: dict
    lint: dict

    def to_dict(self) -> dict:
        return {
            "profile_schema": PROFILE_SCHEMA_VERSION,
            "bytecode_sha256": self.bytecode_sha256,
            "code_size": self.code_size,
            "passes": {name: version for name, version in self.passes},
            "signatures": list(self.signatures),
            "storage": self.storage,
            "abi": self.abi,
            "dispatcher": self.dispatcher,
            "cfg": self.cfg,
            "lint": self.lint,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON: sorted keys, stable separators."""
        if indent is None:
            return json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ContractProfile":
        """Rehydrate a profile document (e.g. from the result cache).

        Round-trip exact: ``from_dict(p.to_dict()).to_json() ==
        p.to_json()`` — cached and freshly built profiles render
        byte-identically.
        """
        return cls(
            bytecode_sha256=data["bytecode_sha256"],
            code_size=data["code_size"],
            passes=tuple(sorted(
                (name, version) for name, version in data["passes"].items()
            )),
            signatures=tuple(data["signatures"]),
            storage=data["storage"],
            abi=data["abi"],
            dispatcher=data["dispatcher"],
            cfg=data["cfg"],
            lint=data["lint"],
        )

    def render_text(self) -> str:
        lines = [
            f"contract {self.bytecode_sha256[:16]}…  "
            f"({self.code_size} bytes, "
            f"{self.cfg['blocks']} blocks, "
            f"{len(self.dispatcher['selectors'])} selector(s))"
        ]
        if self.signatures:
            lines.append("functions:")
            for signature in self.signatures:
                params = ",".join(signature["param_types"])
                lines.append(
                    f"  {signature['selector']}({params})"
                    f"  [{signature['language']}]"
                )
        elif self.dispatcher["selectors"]:
            lines.append(
                "functions (selectors only, recovery not run): "
                + ", ".join(self.dispatcher["selectors"])
            )
        if self.abi:
            lines.append("abi:")
            for selector in sorted(self.abi):
                entry = self.abi[selector]
                returns = entry.get("returns")
                shown = (
                    "unknown" if returns is None
                    else "(" + ",".join(returns) + ")"
                )
                lines.append(
                    f"  {selector}: {entry['mutability']}, returns {shown}"
                )
        storage = self.storage
        variables = storage.get("variables", [])
        lines.append(
            f"storage: {len(variables)} variable(s), "
            f"{storage.get('resolved_sites', 0)}"
            f"/{storage.get('resolved_sites', 0) + storage.get('unresolved_sites', 0)}"
            " access sites resolved"
        )
        for variable in variables:
            where = f"slot {variable['slot']}"
            if variable["kind"] == "value" and variable["width"] != 32:
                end = variable["offset"] + variable["width"] - 1
                where += f" bytes {variable['offset']}..{end}"
            lines.append(
                f"  {where}: {variable['type']}  "
                f"({variable['reads']} reads, {variable['writes']} writes)"
            )
        lint = self.lint
        lines.append(
            ("lint: OK" if lint["ok"] else "lint: FAIL")
            + f" ({lint['errors']} errors, {lint['warnings']} warnings, "
            + f"{lint['notes']} notes)"
        )
        return "\n".join(lines)


def _signature_facts(signatures: Sequence) -> Tuple[dict, ...]:
    """Deterministic signature dicts (no ``elapsed_seconds``: timing is
    machine-dependent and reads 0.0 on cache hits)."""
    facts: List[dict] = []
    for signature in signatures:
        facts.append({
            "selector": f"0x{signature.selector:08x}",
            "param_types": list(signature.param_types),
            "language": signature.language,
            "confidences": list(signature.confidences),
            "fired_rules": sorted(signature.fired_rules),
        })
    facts.sort(key=lambda fact: fact["selector"])
    return tuple(facts)


def build_profile(
    analysis: ContractAnalysis,
    signatures: Sequence = (),
) -> ContractProfile:
    """Fold an analysis (and optional recovered signatures) into a
    :class:`ContractProfile`."""
    from repro.analysis.lint import lint_analysis

    bytecode = analysis.bytecode
    cfg = analysis.cfg
    dispatcher = analysis.dispatcher
    lint = lint_analysis(analysis)
    counts = lint.counts()
    versions = pass_versions()
    mutability = analysis.mutability
    returns = analysis.returns
    abi: Dict[str, dict] = {}
    for selector in dispatcher.selectors:
        recovered = returns.functions.get(selector)
        shape = None
        if recovered is not None and recovered.shape is not None:
            shape = list(recovered.shape)
        abi[f"0x{selector:08x}"] = {
            "mutability": mutability.functions.get(selector, "unknown"),
            "returns": shape,
        }
    return ContractProfile(
        bytecode_sha256=hashlib.sha256(bytecode).hexdigest(),
        code_size=len(bytecode),
        passes=tuple(sorted(versions.items())),
        signatures=_signature_facts(signatures),
        storage=analysis.storage.to_dict(),
        abi=abi,
        dispatcher={
            "selectors": [f"0x{s:08x}" for s in dispatcher.selectors],
            "entries": {
                f"0x{selector:08x}": entry
                for selector, entry in sorted(dispatcher.entries.items())
            },
            "dispatcher_blocks": sorted(dispatcher.dispatcher_blocks),
            "unreachable_blocks": sorted(analysis.reach.unreachable),
        },
        cfg={
            "blocks": len(cfg.blocks),
            "resolved_jumps": len(cfg.resolved_targets),
            "unresolved_jumps": sorted(cfg.unresolved_jumps),
            "invalid_jumps": sorted(cfg.invalid_targets),
            "incomplete": bool(cfg.incomplete),
        },
        lint={
            "ok": lint.ok,
            "errors": counts["error"],
            "warnings": counts["warning"],
            "notes": counts["info"],
            "findings": [
                {
                    "kind": f.kind,
                    "pc": f.pc,
                    "severity": f.severity,
                    "detail": f.detail,
                }
                for f in lint.findings
            ],
        },
    )


def profile_bytecode(bytecode: bytes, signatures: Sequence = ()) -> ContractProfile:
    """Analyze ``bytecode`` and build its profile in one call."""
    return build_profile(analyze(bytecode), signatures)
