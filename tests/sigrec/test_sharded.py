"""Selector-sharded TASE + function-body memo: equivalence and reuse.

The contract behind the perf work: sharding and memoization may change
*how* a recovery is computed, never *what* it computes.  Sharded (and
sharded+memoized) recovery must be result-identical to the monolithic
engine on every codegen variant and corpus we can emit, the memo must
prove actual reuse on a clone-heavy corpus, and the monolithic walk
must remain the fallback whenever the dispatcher cannot be trusted.
"""

import pytest

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.compiler.contract import CodegenOptions, DispatcherStyle, Language
from repro.corpus.datasets import (
    build_clone_corpus,
    build_closed_source_corpus,
    build_obfuscated_corpus,
    build_vyper_corpus,
)
from repro.obs import MetricsRegistry
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery
from repro.sigrec.cache import FunctionMemo, InferenceRecord
from repro.sigrec.engine import TASEEngine, merge_tase_results

SIGS = [
    FunctionSignature.parse("transfer(address,uint256)"),
    FunctionSignature.parse("setData(bytes,uint256[3])"),
    FunctionSignature.parse("flag()"),
]

VARIANTS = [
    CodegenOptions(dispatcher=style, optimize=optimize, obfuscate=obfuscate)
    for style in DispatcherStyle
    for optimize in (False, True)
    for obfuscate in (False, True)
] + [
    CodegenOptions(language=Language.VYPER, version="0.2.8"),
]


def _key(sig):
    """Everything except the wall-clock timing."""
    return (sig.selector, sig.param_types, sig.language,
            sig.fired_rules, sig.confidences)


def _assert_equivalent(bytecode):
    mono = SigRec()
    # A tool that opts into the memo and holds one shards (the
    # batch-worker pattern).
    shard = SigRec(memo=True)
    shard.attach_store(FunctionMemo(shard.options()))
    expected = [_key(s) for s in mono.recover(bytecode)]
    actual = [_key(s) for s in shard.recover(bytecode)]
    assert mono.last_strategy == "monolithic"
    assert actual == expected
    assert shard.tracker.as_dict() == mono.tracker.as_dict()
    assert shard.tracker.conflicts == mono.tracker.conflicts
    assert shard.last_diagnostics == mono.last_diagnostics
    return shard.last_strategy


@pytest.mark.parametrize(
    "options", VARIANTS,
    ids=[
        f"{o.language.value}-{o.dispatcher.value}"
        f"{'-opt' if o.optimize else ''}{'-obf' if o.obfuscate else ''}"
        for o in VARIANTS
    ],
)
def test_sharded_equals_monolithic_on_every_codegen_variant(options):
    contract = compile_contract(SIGS, options)
    strategy = _assert_equivalent(contract.bytecode)
    # Our compilers always emit a statically resolvable dispatcher, so
    # the shard plan must actually engage — equivalence of a silent
    # fallback would prove nothing.
    assert strategy == "sharded"


def test_sharded_equals_monolithic_on_corpus():
    checked = sharded = 0
    for corpus in (
        build_closed_source_corpus(n_contracts=10, seed=7),
        build_vyper_corpus(n_contracts=5, seed=5),
        build_obfuscated_corpus(n_contracts=5, seed=9),
    ):
        for case in corpus.cases:
            strategy = _assert_equivalent(case.contract.bytecode)
            checked += 1
            sharded += strategy == "sharded"
    assert checked == 20
    assert sharded == checked


def test_monolithic_fallback_when_no_dispatcher():
    """Dispatcherless code must not be forced through the shard path."""
    from repro.evm.asm import Assembler

    asm = Assembler()
    asm.push(0).op("CALLDATALOAD").op("POP").op("STOP")
    tool = SigRec()
    assert tool.recover(asm.assemble()) == []
    assert tool.last_strategy == "monolithic"


def test_engine_shards_union_to_the_monolithic_result():
    """Engine-level: per-selector shards + residual == one global walk."""
    code = compile_contract(SIGS).bytecode
    mono = TASEEngine(code).run()
    engine = TASEEngine(code)
    known = frozenset(mono.selectors)
    parts = [engine.run_selector(s, known) for s in sorted(known)]
    parts.append(engine.run_residual(known))
    merged = merge_tase_results(parts)
    assert merged.selectors == mono.selectors
    for selector in mono.selectors:
        a, b = mono.functions[selector], merged.functions[selector]
        assert len(a.loads) == len(b.loads)
        assert len(a.copies) == len(b.copies)
        assert len(a.uses) == len(b.uses)
    assert merged.sharded and merged.shards == len(parts)


def test_memo_reuse_on_clone_corpus_is_proven_by_counters():
    """Satellite: >=50% shared bodies -> the memo hit counter shows it."""
    corpus = build_clone_corpus(n_families=4, clones_per_family=4, seed=11)
    codes = [case.contract.bytecode for case in corpus.cases]
    assert len(set(codes)) == len(codes)  # clones are distinct bytecodes

    expected = []
    for code in codes:
        baseline = SigRec()
        expected.append([_key(s) for s in baseline.recover(code)])

    registry = MetricsRegistry()
    runner = BatchRecovery(
        tool=SigRec(memo=True, metrics=registry), workers=0
    )
    results = runner.recover_all(codes)
    assert [[_key(s) for s in sigs] for sigs in results] == expected
    stats = runner.stats
    assert stats.memo_hits > 0
    # 4 clones per family share 3/4 of all bodies.
    assert stats.memo_hit_rate >= 0.5
    values = registry.counter_values()
    assert values.get("memo.hits{tier=memory}", 0) == stats.memo_hits


def test_memo_disk_tier_survives_processes(tmp_path):
    """A second cold process reuses the first run's on-disk records."""
    corpus = build_clone_corpus(n_families=2, clones_per_family=2, seed=13)
    codes = [case.contract.bytecode for case in corpus.cases]
    base = codes[0]

    first = SigRec(memo=True, memo_dir=str(tmp_path))
    expected = [_key(s) for s in first.recover(base)]
    memo = first.function_memo()
    assert memo.writes > 0

    # Fresh tool, cold memory tier, same directory: disk hits only.
    second = SigRec(
        memo=True, memo_dir=str(tmp_path), metrics=MetricsRegistry()
    )
    assert [_key(s) for s in second.recover(base)] == expected
    values = second.metrics.counter_values()
    assert values.get("memo.hits{tier=disk}", 0) > 0
    assert second.tracker.as_dict() == first.tracker.as_dict()


def test_function_memo_round_trip_and_invalidation(tmp_path):
    record = InferenceRecord(
        param_types=("uint256",), language="solidity",
        fired_rules=("R4",), confidences=("high",),
        rule_counts={"R4": 1}, conflicts={"R15": 1},
    )
    options = SigRec().options()
    memo = FunctionMemo(options, directory=str(tmp_path))
    key = memo.key_for(b"region-bytes")
    assert memo.get(key) is None  # cold miss
    memo.put(key, record)
    assert memo.get(key) == record  # memory hit
    assert (memo.hits_memory, memo.misses, memo.writes) == (1, 1, 1)

    fresh = FunctionMemo(options, directory=str(tmp_path))
    assert fresh.get(key) == record  # disk hit
    assert fresh.hits_disk == 1
    replayed = fresh.get(key).to_signature(0xCAFE)
    assert replayed.elapsed_seconds == 0.0
    assert replayed.param_types == ("uint256",)

    # A different options fingerprint must never see the entry.
    other = FunctionMemo(SigRec(loop_bound=7).options(), directory=str(tmp_path))
    assert other.key_for(b"region-bytes") != key
    assert other.get(other.key_for(b"region-bytes")) is None

    # Corrupt the on-disk entry: present-but-unreadable is a miss.
    entry = fresh._entry_path(key)
    with open(entry, "w", encoding="utf-8") as handle:
        handle.write("garbage")
    cold = FunctionMemo(options, directory=str(tmp_path))
    assert cold.get(key) is None


def test_function_memo_memory_tier_is_a_bounded_lru():
    memo = FunctionMemo(SigRec().options(), capacity=2)
    record = InferenceRecord(
        param_types=(), language="solidity",
        fired_rules=(), confidences=(), rule_counts={}, conflicts={},
    )
    keys = [memo.key_for(bytes([i])) for i in range(3)]
    for key in keys:
        memo.put(key, record)
    assert memo.get(keys[0]) is None  # evicted
    assert memo.get(keys[2]) is not None

