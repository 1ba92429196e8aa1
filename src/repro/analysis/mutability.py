"""State-mutability classification from reachable ops and the
``CALLVALUE``-guard prologue idiom.

Solidity marks every non-``payable`` function with a prologue that
rejects attached value::

    CALLVALUE DUP1 ISZERO PUSH <ok> JUMPI
    PUSH1 0 DUP1 REVERT
    <ok>: JUMPDEST POP

(older compilers and optimizers emit the inverted form ``CALLVALUE
PUSH <revert> JUMPI`` jumping straight into a shared revert block).
The *idiom* is what matters, not the mere presence of ``CALLVALUE``:
a payable function may read ``msg.value`` without branching on it, so
this pass only reports ``nonpayable`` when it finds a ``JUMPI`` in the
function's entry block whose condition derives from ``CALLVALUE`` and
whose rejecting side provably reverts.

On top of payability, the reachable-op set from the reachability pass
refines the verdict exactly the way the ABI defines it:

* no reachable state-*mutating* op (``SSTORE``/``LOG*``/``CALL``
  family/``CREATE*``/``SELFDESTRUCT``) -> ``view``;
* additionally no state-*reading* op (``SLOAD``/``BALANCE``/
  ``EXTCODE*``/...) -> ``pure``.

Safety valve: when the function's region is not complete (unresolved
jumps, truncated fixpoint), the verdict is ``"unknown"`` — reachable
ops are a lower bound there, and claiming ``view`` off a lower bound
would be a guess.  Consumers that must emit a standard ABI degrade
``"unknown"`` to ``"nonpayable"``, the weakest claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.absint import Machine
from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.reachability import ReachabilityReport, ReachableFunction

#: Ops whose reachability forbids ``view`` (they mutate chain state).
MUTATING_OPS = frozenset([
    "SSTORE", "LOG0", "LOG1", "LOG2", "LOG3", "LOG4",
    "CALL", "CALLCODE", "DELEGATECALL",
    "CREATE", "CREATE2", "SELFDESTRUCT",
])

#: Ops whose reachability forbids ``pure`` (they read chain state).
#: ``CALLVALUE`` is deliberately absent: the non-payable guard itself
#: reads it, including in ``pure`` functions.
STATE_READ_OPS = frozenset([
    "SLOAD", "BALANCE", "SELFBALANCE",
    "EXTCODESIZE", "EXTCODECOPY", "EXTCODEHASH",
    "BLOCKHASH", "STATICCALL",
])

#: Tokens are ``("cv", inverted)`` for a ``CALLVALUE``-derived word
#: under some number of ``ISZERO``s, or None (opaque).
_MACHINE = Machine(
    const=lambda _value: None,
    unknown=None,
    cap=32,
    handlers={
        "CALLVALUE": lambda _ctx, _pc: ("cv", False),
        "ISZERO": lambda _ctx, _pc, token: ("cv", not token[1]) if token else None,
    },
)


@dataclass
class MutabilityReport:
    """selector -> ``payable``/``nonpayable``/``view``/``pure``/``unknown``."""

    functions: Dict[int, str]

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for verdict in self.functions.values():
            totals[verdict] = totals.get(verdict, 0) + 1
        return totals


def _always_reverts(rcfg: ResolvedCFG, start: int) -> bool:
    """Entering the block at ``start`` always throws."""
    block = rcfg.blocks.get(start)
    return block is not None and block.terminator.op.name in (
        "REVERT", "INVALID"
    )


def _entry_has_guard(rcfg: ResolvedCFG, function: ReachableFunction) -> bool:
    """The function's entry block ends in a value-rejecting ``JUMPI``.

    A within-block run of the token machine tracks which stack slots
    hold a ``CALLVALUE``-derived word and how many ``ISZERO``s inverted
    it; everything else is opaque.  When the terminating ``JUMPI``'s
    condition is value-derived, the *rejecting* side (the fallthrough
    for the ``ISZERO`` form, the jump targets for the raw form) must
    provably revert for this to count as a guard.
    """
    block = rcfg.blocks.get(function.entry)
    if block is None:
        return False
    jump = _MACHINE.run(_MACHINE.lower(block)[0], [])
    if jump is None or jump[1] is None:
        return False  # no JUMPI, or an opaque condition
    pc = block.terminator.pc
    if jump[1][1]:
        # Jump taken when CALLVALUE == 0: falling through is the
        # rejecting side.
        return _always_reverts(rcfg, pc + 1)
    # Raw CALLVALUE condition: the jump itself rejects.
    targets = rcfg.resolved_targets.get(pc, frozenset())
    if not targets:
        # All-invalid targets: taking the jump always throws.
        return pc in rcfg.invalid_targets
    return all(_always_reverts(rcfg, t) for t in targets)


def _classify(rcfg: ResolvedCFG, function: ReachableFunction) -> str:
    if not function.complete:
        return "unknown"
    if not _entry_has_guard(rcfg, function):
        return "payable"
    if function.ops & MUTATING_OPS:
        return "nonpayable"
    if function.ops & STATE_READ_OPS:
        return "view"
    return "pure"


def classify_mutability(
    rcfg: ResolvedCFG,
    dispatcher: DispatcherReport,
    reach: ReachabilityReport,
) -> MutabilityReport:
    """Classify every dispatched function's state mutability."""
    return MutabilityReport(functions={
        selector: _classify(rcfg, function)
        for selector, function in reach.functions.items()
    })
