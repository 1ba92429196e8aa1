"""Static bytecode analysis over runtime EVM bytecode.

A multi-pass framework (:mod:`repro.analysis.framework`): every pass
declares its inputs, carries its own schema version, and runs over a
shared per-bytecode context that computes each product on first
access.  The passes that interpret instructions are value domains on
one abstract-interpretation core (:mod:`repro.analysis.absint`): one
constant-fold table, one compiled abstract-stack machine, and one
worklist with a per-block visit budget.  The default pipeline:

* ``cfg`` — basic-block construction (:mod:`repro.evm.cfg`);
* ``jumps`` — jump-target resolution by push-constant stack dataflow
  (:mod:`repro.analysis.dataflow`, join fixpoint over the CFG);
* ``stack`` — stack-height verification with the interval domain
  (:mod:`repro.analysis.stackcheck`);
* ``dispatcher`` — selector → entry-block extraction from the resolved
  dispatcher, plus dead-code detection
  (:mod:`repro.analysis.dispatcher`);
* ``storage`` — storage-layout recovery from SLOAD/SSTORE slot shapes
  (:mod:`repro.analysis.storage`: mappings, dynamic arrays, packed
  sub-slot variables);
* ``reach`` — per-selector reachable blocks/ops with a completeness
  valve (:mod:`repro.analysis.reachability`);
* ``mutability`` — payable/nonpayable/view/pure from the CALLVALUE
  guard idiom plus reachable state ops
  (:mod:`repro.analysis.mutability`);
* ``returns`` — output type skeletons from RETURN-site head/tail
  shapes (:mod:`repro.analysis.returns`);
* ``lint`` — everything folded into one linter verdict
  (:mod:`repro.analysis.lint`).

:func:`repro.analysis.report.analyze` opens that context; the resulting
:class:`~repro.analysis.report.ContractAnalysis` view doubles as
``SigRec``'s shard planner and cross-check source, and
:func:`~repro.analysis.report.build_profile` folds it (plus recovered
signatures) into the deterministic contract-profile document.
"""

from repro.analysis.dataflow import ResolvedCFG, resolve_bytecode, resolve_jumps
from repro.analysis.dispatcher import DispatcherReport, extract_dispatch
from repro.analysis.framework import (
    DEFAULT_PIPELINE,
    AnalysisContext,
    AnalysisPass,
    AnalysisPipeline,
    PipelineError,
    default_pipeline,
    pass_versions,
)
from repro.analysis.lint import LintReport, lint_analysis, lint_bytecode, lint_findings
from repro.analysis.mutability import MutabilityReport, classify_mutability
from repro.analysis.reachability import (
    ReachabilityReport,
    ReachableFunction,
    compute_reachability,
)
from repro.analysis.report import (
    PROFILE_SCHEMA_VERSION,
    ContractAnalysis,
    ContractProfile,
    Diagnostic,
    analyze,
    build_profile,
    cross_check,
    profile_bytecode,
)
from repro.analysis.returns import FunctionReturns, ReturnsReport, recover_returns
from repro.analysis.stackcheck import Finding, StackReport, verify_stack
from repro.analysis.storage import (
    StorageAccess,
    StorageLayout,
    StorageVariable,
    recover_storage_layout,
)

__all__ = [
    "DEFAULT_PIPELINE",
    "PROFILE_SCHEMA_VERSION",
    "AnalysisContext",
    "AnalysisPass",
    "AnalysisPipeline",
    "ContractAnalysis",
    "ContractProfile",
    "Diagnostic",
    "DispatcherReport",
    "Finding",
    "FunctionReturns",
    "LintReport",
    "MutabilityReport",
    "PipelineError",
    "ReachabilityReport",
    "ReachableFunction",
    "ResolvedCFG",
    "ReturnsReport",
    "StackReport",
    "StorageAccess",
    "StorageLayout",
    "StorageVariable",
    "analyze",
    "build_profile",
    "classify_mutability",
    "compute_reachability",
    "cross_check",
    "default_pipeline",
    "extract_dispatch",
    "lint_analysis",
    "lint_bytecode",
    "lint_findings",
    "pass_versions",
    "profile_bytecode",
    "recover_returns",
    "recover_storage_layout",
    "resolve_bytecode",
    "resolve_jumps",
    "verify_stack",
]
