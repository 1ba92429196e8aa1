"""The inference-memo tier: digest, round-trips, invalidation, replay.

Mirrors the function-memo suite in ``test_sharded.py`` /
``test_cache.py``: the memo may change how an inference result is
*obtained* (replayed instead of recomputed), never what it is — and a
schema bump must relocate every entry.
"""

import pytest

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.obs import MetricsRegistry
from repro.sigrec import expr as E
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery
from repro.sigrec.cache import (
    InferenceMemo,
    InferenceRecord,
    options_fingerprint,
)
from repro.sigrec.events import (
    CalldataLoadEvent,
    FunctionEvents,
    UseEvent,
    events_digest,
)


def _key(sig):
    return (sig.selector, sig.param_types, sig.language,
            sig.fired_rules, sig.confidences)


def _events(selector=1, base_pc=0x10, slot=4, mask=0xFFFF):
    events = FunctionEvents(selector=selector)
    loc = E.const(slot)
    head = CalldataLoadEvent(base_pc, loc, E.calldata(loc), ())
    events.add_load(head)
    events.add_use(UseEvent(base_pc + 2, "and_mask", head.result.labels, mask))
    return events


# -- the canonical digest ---------------------------------------------


def test_digest_is_deterministic_across_builds():
    assert events_digest(_events()) == events_digest(_events())


def test_digest_ignores_selector_and_uniform_pc_shifts():
    # The same access structure under a different selector, or the same
    # body laid out at different program counters, is the same work —
    # pcs are normalized to dense ranks and the selector is excluded.
    base = events_digest(_events(selector=1, base_pc=0x10))
    assert events_digest(_events(selector=0xDEADBEEF, base_pc=0x10)) == base
    assert events_digest(_events(selector=1, base_pc=0x90)) == base


def test_digest_sees_structural_differences():
    base = events_digest(_events())
    assert events_digest(_events(slot=36)) != base
    assert events_digest(_events(mask=0xFF)) != base
    marked = _events()
    marked.vyper_markers = 1
    assert events_digest(marked) != base


# -- memo round-trips (the FunctionMemo suite, mirrored) ---------------


def _record():
    return InferenceRecord(
        param_types=("uint16",), language="solidity",
        fired_rules=("R4", "R9"), confidences=("high",),
        rule_counts={"R4": 1, "R9": 1}, conflicts={"R15": 1},
    )


def test_inference_memo_round_trip_and_invalidation(tmp_path):
    options = SigRec().options()
    memo = InferenceMemo(options, directory=str(tmp_path))
    key = memo.key_for(events_digest(_events()))
    assert memo.get(key) is None  # cold miss
    memo.put(key, _record())
    assert memo.get(key) == _record()  # memory hit
    assert (memo.hits_memory, memo.misses, memo.writes) == (1, 1, 1)

    fresh = InferenceMemo(options, directory=str(tmp_path))
    assert fresh.get(key) == _record()  # disk hit
    assert fresh.hits_disk == 1
    replayed = fresh.get(key).to_signature(0xCAFE)
    assert replayed.selector == 0xCAFE
    assert replayed.elapsed_seconds == 0.0
    assert replayed.param_types == ("uint16",)

    # A different options fingerprint must never see the entry.
    other = InferenceMemo(
        SigRec(loop_bound=7).options(), directory=str(tmp_path)
    )
    assert other.key_for(events_digest(_events())) != key
    assert other.get(other.key_for(events_digest(_events()))) is None

    # Corrupt the on-disk entry: present-but-unreadable is a miss.
    entry = fresh._entry_path(key)
    with open(entry, "w", encoding="utf-8") as handle:
        handle.write("garbage")
    cold = InferenceMemo(options, directory=str(tmp_path))
    assert cold.get(key) is None


def test_inference_memo_memory_tier_is_a_bounded_lru():
    memo = InferenceMemo(SigRec().options(), capacity=2)
    keys = [memo.key_for(f"digest-{i}") for i in range(3)]
    for key in keys:
        memo.put(key, _record())
    assert memo.get(keys[0]) is None  # evicted
    assert memo.get(keys[2]) is not None


def test_schema_version_bump_invalidates_every_tier(
    tmp_path, monkeypatch
):
    """Bumping INFERENCE_MEMO_SCHEMA_VERSION relocates the memo (and,
    because it rides in options_fingerprint, every other tier too)."""
    from repro.sigrec import cache as cache_module

    options = SigRec().options()
    before_fingerprint = options_fingerprint(options)
    before = InferenceMemo(options, directory=str(tmp_path))
    key = before.key_for("digest")
    before.put(key, _record())

    monkeypatch.setattr(
        cache_module, "INFERENCE_MEMO_SCHEMA_VERSION",
        cache_module.INFERENCE_MEMO_SCHEMA_VERSION + 1,
    )
    assert options_fingerprint(options) != before_fingerprint
    after = InferenceMemo(options, directory=str(tmp_path))
    assert after.fingerprint != before.fingerprint
    assert after.get(after.key_for("digest")) is None


def test_digest_collides_for_real_clone_fleets():
    """Through the real pipeline: renamed functions (different
    selectors, different dispatch-guard constants, shifted pcs) with
    the same parameter structure share one digest."""
    from repro.sigrec.engine import TASEEngine

    digests = []
    for name in ("transfer", "send", "moveTo"):
        code = compile_contract([
            FunctionSignature.parse(f"{name}(address,uint256)"),
            FunctionSignature.parse(f"{name}Data(bytes,uint256[3])"),
        ]).bytecode
        result = TASEEngine(code).run()
        digests.append(sorted(
            events_digest(result.functions[s]) for s in result.selectors
        ))
    assert len(set(digests[0])) == 2  # the two shapes stay distinct
    assert digests[0] == digests[1] == digests[2]


# -- replay parity through the API -------------------------------------


def _code(signature="setData(bytes,uint256[3])"):
    return compile_contract([FunctionSignature.parse(signature)]).bytecode


def test_warm_run_replays_counts_and_reports_the_tier(tmp_path):
    """A second process over the same events replays inference from the
    memo: identical signatures, identical rule/conflict counters, and
    the run reports the ``inference-memo`` tier."""
    code = _code()
    cold = SigRec(memo=False, inference_memo=True, memo_dir=str(tmp_path))
    expected = [_key(s) for s in cold.recover(code)]
    assert cold.last_inference_memo[0] == 0  # nothing to hit yet

    warm = SigRec(
        memo=False, inference_memo=True, memo_dir=str(tmp_path),
        metrics=MetricsRegistry(),
    )
    assert [_key(s) for s in warm.recover(code)] == expected
    hits, misses = warm.last_inference_memo
    assert hits > 0 and misses == 0
    assert warm._last_tier == "inference-memo"
    assert warm.tracker.as_dict() == cold.tracker.as_dict()
    assert warm.tracker.conflicts == cold.tracker.conflicts
    values = warm.metrics.counter_values()
    assert values.get("infmemo.hits{tier=disk}", 0) > 0


def test_monolithic_path_also_replays(tmp_path):
    code = _code("transfer(address,uint256)")
    cold = SigRec(
        memo=False, inference_memo=True, memo_dir=str(tmp_path),
    )
    expected = [_key(s) for s in cold.recover(code)]

    warm = SigRec(
        memo=False, inference_memo=True, memo_dir=str(tmp_path),
    )
    assert [_key(s) for s in warm.recover(code)] == expected
    assert warm._last_tier == "inference-memo"
    assert warm.tracker.as_dict() == cold.tracker.as_dict()


def test_disabled_memo_never_probes(tmp_path):
    tool = SigRec(inference_memo=False, memo_dir=str(tmp_path))
    tool.recover(_code())
    assert tool.inference_memo_tier() is None
    assert tool.last_inference_memo == (0, 0)


def test_function_memo_hit_outranks_inference_memo(tmp_path):
    """With both tiers warm the function memo wins (it also skips
    TASE), and the ledger tier stays ``memo``."""
    code = _code()
    cold = SigRec(memo=True, inference_memo=True, memo_dir=str(tmp_path))
    expected = [_key(s) for s in cold.recover(code)]
    warm = SigRec(memo=True, inference_memo=True, memo_dir=str(tmp_path))
    assert [_key(s) for s in warm.recover(code)] == expected
    assert warm._last_tier == "memo"
    assert warm.last_inference_memo == (0, 0)


def test_batch_counts_inference_memo_probes(tmp_path):
    """Batch workers share one inference memo per process; the stats
    carry its hit/miss deltas and the summary renders them."""
    codes = [_code(), _code("transfer(address,uint256)")]
    cache_dir = str(tmp_path)
    first = BatchRecovery(
        tool=SigRec(memo=False, inference_memo=True), workers=0,
        cache_dir=cache_dir,
    )
    first.recover_all(codes)
    assert first.stats.inference_memo_misses > 0

    # Second run, cold result cache but warm inference-memo disk tier:
    # every function replays.  Layout: <dir>/<fingerprint>/... for the
    # result cache, <dir>/fnmemo/ for the memos — dropping the former
    # forces the units to actually run.
    import os
    import shutil

    second = BatchRecovery(
        tool=SigRec(memo=False, inference_memo=True), workers=0,
        cache_dir=cache_dir,
    )
    shutil.rmtree(
        os.path.join(cache_dir, second.cache.fingerprint),
        ignore_errors=True,
    )
    second.recover_all(codes)
    stats = second.stats
    assert stats.inference_memo_hits > 0
    assert stats.inference_memo_misses == 0
    assert stats.inference_memo_hit_rate == 1.0
    assert "infmemo" in stats.summary()


def test_memo_tiers_sharing_one_directory_keep_their_own_counts(tmp_path):
    """Both memos live under one directory yet stay separate stores:
    each tier's batch probe counts equal its own metric series."""
    import os

    from repro.corpus.datasets import build_clone_corpus

    corpus = build_clone_corpus(n_families=2, clones_per_family=2, seed=13)
    registry = MetricsRegistry()
    runner = BatchRecovery(
        tool=SigRec(metrics=registry, memo=True, inference_memo=True),
        workers=0, cache_dir=str(tmp_path),
    )
    runner.recover_all([case.contract.bytecode for case in corpus.cases])
    stats = runner.stats
    values = registry.counter_values()

    def total(prefix):
        return sum(v for k, v in values.items() if k.startswith(prefix))

    assert stats.memo_hits == total("memo.hits")
    assert stats.memo_misses == total("memo.misses")
    assert stats.inference_memo_hits == total("infmemo.hits")
    assert stats.inference_memo_misses == total("infmemo.misses")
    assert stats.memo_hits + stats.memo_misses > 0
    assert stats.inference_memo_hits + stats.inference_memo_misses > 0
    fingerprint = runner.cache.fingerprint
    for prefix in ("fn-", "inf-"):
        assert os.path.isdir(os.path.join(runner.memo_dir, prefix + fingerprint))


def test_batch_tool_flag_disables_the_tier(tmp_path):
    runner = BatchRecovery(
        tool=SigRec(memo=False, inference_memo=False),
        workers=0, cache_dir=str(tmp_path),
    )
    runner.recover_all([_code()])
    assert runner.stats.inference_memo_hits == 0
    assert runner.stats.inference_memo_misses == 0
    assert "infmemo" not in runner.stats.summary()


# -- opt-in: the default path never keys an inference -------------------


def test_function_memo_is_off_by_default():
    assert SigRec().options()["memo"] is False
    assert SigRec().function_memo() is None


def test_inference_memo_is_off_by_default():
    assert SigRec().options()["inference_memo"] is False


def test_default_recover_computes_no_event_digest(monkeypatch):
    from repro.sigrec import api

    calls = []
    original = api.events_digest

    def counting(events):
        calls.append(events)
        return original(events)

    monkeypatch.setattr(api, "events_digest", counting)
    assert SigRec().recover(_code())
    assert calls == []
    # The same global is what an opted-in tool calls.
    SigRec(inference_memo=True).recover(_code())
    assert calls


def test_default_batch_writes_no_inference_memo(tmp_path):
    import os

    runner = BatchRecovery(workers=0, cache_dir=str(tmp_path))
    runner.recover_all([_code(), _code("transfer(address,uint256)")])
    stats = runner.stats
    assert stats.analyzed == 2
    assert stats.inference_memo_hits == 0
    assert stats.inference_memo_misses == 0
    assert "infmemo" not in stats.summary()
    subtrees = os.listdir(runner.memo_dir) if os.path.isdir(runner.memo_dir) else []
    assert not [name for name in subtrees if name.startswith("inf-")]
