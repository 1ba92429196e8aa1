"""Batch recovery with bytecode deduplication."""

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery


def _codes():
    a = compile_contract([FunctionSignature.parse("a(uint8)")]).bytecode
    b = compile_contract([FunctionSignature.parse("b(bytes)")]).bytecode
    return a, b


def _essence(signatures):
    """Everything except wall-clock timing, which varies run to run."""
    return [
        (s.selector, s.param_types, s.language, s.fired_rules, s.confidences)
        for s in signatures
    ]


def test_batch_results_match_individual():
    a, b = _codes()
    batch = BatchRecovery(workers=0).recover_all([a, b, a])
    assert len(batch) == 3
    assert batch[0] == batch[2]  # deduplicated: same analysis outcome
    assert [_essence(sigs) for sigs in batch] == [
        _essence(SigRec().recover(code)) for code in (a, b, a)
    ]
    assert [s.param_list for s in batch[0]] == ["uint8"]
    assert [s.param_list for s in batch[1]] == ["bytes"]


def test_batch_duplicates_do_not_alias():
    """Regression: duplicated bytecodes used to share one list object,
    so mutating one caller's result silently corrupted the others."""
    a, _ = _codes()
    batch = BatchRecovery(workers=0).recover_all([a, a])
    assert batch[0] is not batch[1]
    batch[0].append("sentinel")
    assert len(batch[1]) == 1


def test_empty_batch():
    assert BatchRecovery(workers=0).recover_all([]) == []
