"""The persistent result cache: round-trips, invalidation, robustness."""

import json
import os
from dataclasses import replace

import pytest

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.obs import MetricsRegistry
from repro.sigrec.api import RecoveredSignature, SigRec
from repro.sigrec.batch import BatchRecovery
from repro.sigrec.cache import ResultCache, options_fingerprint


def _code(signature="a(uint8)"):
    return compile_contract([FunctionSignature.parse(signature)]).bytecode


def _essence(results):
    return [
        [
            (s.selector, s.param_types, s.language, s.fired_rules, s.confidences)
            for s in contract
        ]
        for contract in results
    ]


def test_cache_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path), SigRec().options())
    code = _code()
    signature = RecoveredSignature(
        selector=0xA9059CBB,
        param_types=("address", "uint256"),
        language="solidity",
        elapsed_seconds=0.25,
        fired_rules=("R4", "R16"),
        confidences=("high", "medium"),
    )
    assert cache.get(code) is None  # cold
    cache.put(code, [signature], {"R4": 1, "R16": 2})
    restored, counts = cache.get(code)
    # Everything round-trips except the timing: a cache hit does no
    # inference work, so elapsed_seconds is reported as zero rather than
    # replaying the original run's timing.
    assert restored == [replace(signature, elapsed_seconds=0.0)]
    assert counts == {"R4": 1, "R16": 2}
    assert cache.hits == 1 and cache.misses == 1
    assert cache.entry_count() == 1


def test_warm_run_hits_and_matches_cold(tmp_path):
    codes = [_code("a(uint8)"), _code("b(bytes)"), _code("a(uint8)")]
    cold_tool = SigRec()
    cold_runner = BatchRecovery(tool=cold_tool, workers=0, cache_dir=str(tmp_path))
    cold = cold_runner.recover_all(codes)
    assert cold_runner.stats.cache_misses == 2
    assert cold_runner.stats.cache_hits == 0

    warm_tool = SigRec()
    warm_runner = BatchRecovery(tool=warm_tool, workers=0, cache_dir=str(tmp_path))
    warm = warm_runner.recover_all(codes)
    assert warm_runner.stats.cache_hits == 2
    assert warm_runner.stats.cache_misses == 0
    assert warm_runner.stats.cache_hit_rate == 1.0
    assert warm_runner.stats.analyzed == 0
    assert _essence(warm) == _essence(cold)
    # Replayed per-bytecode counts reproduce the cold run's statistics.
    assert warm_tool.tracker.counts == cold_tool.tracker.counts


def test_engine_option_change_invalidates(tmp_path):
    code = _code()
    first = BatchRecovery(
        tool=SigRec(), workers=0, cache_dir=str(tmp_path)
    )
    first.recover_all([code])
    assert first.stats.cache_misses == 1

    changed = BatchRecovery(
        tool=SigRec(loop_bound=77), workers=0, cache_dir=str(tmp_path)
    )
    changed.recover_all([code])
    assert changed.stats.cache_misses == 1  # different fingerprint: no hit
    assert changed.stats.cache_hits == 0

    same = BatchRecovery(
        tool=SigRec(loop_bound=77), workers=0, cache_dir=str(tmp_path)
    )
    same.recover_all([code])
    assert same.stats.cache_hits == 1


def test_fingerprint_is_stable_and_option_sensitive():
    base = SigRec().options()
    assert options_fingerprint(base) == options_fingerprint(dict(base))
    changed = dict(base, loop_bound=7)
    assert options_fingerprint(base) != options_fingerprint(changed)


def test_corrupt_entry_is_a_miss_then_repaired(tmp_path):
    code = _code()
    cache = ResultCache(str(tmp_path), SigRec().options())
    cache.put(code, [], {})
    path = cache._entry_path(code)
    with open(path, "w") as handle:
        handle.write("{not json")
    assert cache.get(code) is None
    # A batch run treats it as a miss and rewrites a good entry.
    runner = BatchRecovery(tool=SigRec(), workers=0, cache_dir=str(tmp_path))
    runner.recover_all([code])
    assert runner.stats.cache_misses == 1
    with open(path) as handle:
        assert json.load(handle)["signatures"]


def test_entries_are_content_addressed(tmp_path):
    cache = ResultCache(str(tmp_path), SigRec().options())
    a, b = _code("a(uint8)"), _code("b(bytes)")
    cache.put(a, [], {})
    cache.put(b, [], {})
    assert cache.entry_count() == 2
    # Layout: <dir>/<fingerprint>/<sha[:2]>/<sha>.json
    root = os.path.join(str(tmp_path), cache.fingerprint)
    assert os.path.isdir(root)


def test_recover_batch_cache_dir_round_trip(tmp_path):
    codes = [_code("a(uint8)"), _code("a(uint8)")]
    directory = str(tmp_path)
    first = BatchRecovery(workers=0, cache_dir=directory).recover_all(codes)
    second = BatchRecovery(workers=0, cache_dir=directory).recover_all(codes)
    assert _essence(first) == _essence(second)


def _bumped_pipeline(name="storage"):
    """The default pipeline with one pass's schema version bumped —
    semantics unchanged, version provenance changed."""
    from repro.analysis import framework

    bumped = next(
        p for p in framework.DEFAULT_PIPELINE if p.name == name
    )
    return framework.DEFAULT_PIPELINE.replace(
        **{name: replace(bumped, version=bumped.version + 1)}
    )


def test_pass_version_bump_invalidates_result_cache(tmp_path, monkeypatch):
    from repro.analysis import framework

    code = _code()
    runner = BatchRecovery(tool=SigRec(), workers=0, cache_dir=str(tmp_path))
    runner.recover_all([code])
    assert runner.stats.cache_misses == 1

    monkeypatch.setattr(framework, "DEFAULT_PIPELINE", _bumped_pipeline())
    bumped = BatchRecovery(tool=SigRec(), workers=0, cache_dir=str(tmp_path))
    bumped.recover_all([code])
    assert bumped.stats.cache_hits == 0  # the bump landed in a fresh tree
    assert bumped.stats.cache_misses == 1

    again = BatchRecovery(tool=SigRec(), workers=0, cache_dir=str(tmp_path))
    again.recover_all([code])
    assert again.stats.cache_hits == 1  # stable within the bumped world


def test_pass_version_bump_invalidates_function_memo(tmp_path, monkeypatch):
    from repro.analysis import framework
    from repro.sigrec.cache import FunctionMemo

    options = SigRec().options()
    before = FunctionMemo(options, directory=str(tmp_path))
    monkeypatch.setattr(framework, "DEFAULT_PIPELINE", _bumped_pipeline())
    after = FunctionMemo(options, directory=str(tmp_path))
    assert before.fingerprint != after.fingerprint


@pytest.mark.parametrize("name", ["reach", "mutability", "returns"])
def test_abi_pass_version_bumps_invalidate_both_tiers(
    tmp_path, monkeypatch, name
):
    """Each new ABI pass's version flows into the result-cache and
    function-memo fingerprints, exactly like the storage pass."""
    from repro.analysis import framework
    from repro.sigrec.cache import FunctionMemo

    options = SigRec().options()
    cold_fingerprint = options_fingerprint(options)
    memo_before = FunctionMemo(options, directory=str(tmp_path))

    monkeypatch.setattr(framework, "DEFAULT_PIPELINE", _bumped_pipeline(name))
    assert options_fingerprint(options) != cold_fingerprint
    memo_after = FunctionMemo(options, directory=str(tmp_path))
    assert memo_before.fingerprint != memo_after.fingerprint


def test_analysis_memo_shares_one_walk_per_bytecode(monkeypatch):
    import repro.sigrec.api as api_module

    code = _code()
    tool = SigRec()
    first = tool._analyze(code)
    assert tool._analyze(code) is first  # memo hit: same object

    # recover() and profile() ride the same memo: no fresh analyze().
    def boom(*args, **kwargs):
        raise AssertionError("analyze() re-ran despite the memo")

    monkeypatch.setattr(api_module, "analyze", boom)
    tool.recover(code)
    profile = tool.profile(code)
    assert profile.signatures


def test_analysis_memo_is_bounded():
    from repro.sigrec.api import _ANALYSIS_MEMO_SIZE

    tool = SigRec()
    codes = [
        _code(f"f{i}(uint8)") for i in range(_ANALYSIS_MEMO_SIZE + 4)
    ]
    for code in codes:
        tool._analyze(code)
    assert len(tool._analysis_memo) == _ANALYSIS_MEMO_SIZE


# -- entries with the wrong JSON shape ---------------------------------
#
# Valid JSON that is not a valid entry must read as a miss, never raise:
# one such file would otherwise abort a whole ``recover_all``.

#: How a planted entry is malformed: a whole-file JSON payload, or the
#: name of a count field replaced by a non-object.
SHAPES = ["[]", "1", '"x"', "rule_counts", "conflicts"]

#: Every reader of a disk entry: (tier, method).
READERS = [
    ("result", "get"),
    ("result", "get_profile"),
    ("result", "attach_profile"),
    ("fnmemo", "get"),
    ("infmemo", "get"),
]

#: Each tier's disk subtree prefix, in probe order.
PREFIXES = {"result": "", "fnmemo": "fn-", "infmemo": "inf-"}


def _shapes(tier):
    # Result entries carry no conflict counts.
    return [s for s in SHAPES if (tier, s) != ("result", "conflicts")]


def _malformed(path, shape):
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)
    if shape in ("rule_counts", "conflicts"):
        entry[shape] = ["R4"]
    else:
        entry = json.loads(shape)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle)


def _planted(tmp_path, tier):
    """A store of ``tier`` (cold memory) plus the key of one entry."""
    from repro.sigrec.cache import FunctionMemo, InferenceMemo, InferenceRecord

    options = SigRec().options()
    if tier == "result":
        key = _code()
        signature = RecoveredSignature(
            selector=1, param_types=("uint8",), fired_rules=("R4",),
            confidences=("high",),
        )
        ResultCache(str(tmp_path), options).put(key, [signature], {"R4": 1})
        return ResultCache(str(tmp_path), options, metrics=MetricsRegistry()), key
    kind = FunctionMemo if tier == "fnmemo" else InferenceMemo
    writer = kind(options, directory=str(tmp_path))
    key = writer.key_for(b"body" if tier == "fnmemo" else "digest")
    writer.put(key, InferenceRecord(
        param_types=("uint8",), language="solidity", fired_rules=("R4",),
        confidences=("high",), rule_counts={"R4": 1}, conflicts={"R15": 1},
    ))
    return kind(options, directory=str(tmp_path), metrics=MetricsRegistry()), key


@pytest.mark.parametrize(
    "tier,method,shape",
    [(t, m, s) for t, m in READERS for s in _shapes(t)],
)
def test_wrong_shape_entry_reads_as_a_miss(tmp_path, tier, method, shape):
    store, key = _planted(tmp_path, tier)
    _malformed(store._entry_path(key), shape)
    if method == "get":
        assert store.get(key) is None
        assert store.misses == 1
        if tier == "result":
            assert store.invalidations == 1
            assert store.metrics.counter_values()["cache.invalidations"] == 1
    elif method == "get_profile":
        assert store.get_profile(key) is None
    else:
        assert store.attach_profile(key, {"profile": True}) is False


@pytest.mark.parametrize(
    "tier,shape", [(t, s) for t in PREFIXES for s in _shapes(t)]
)
def test_batch_recovers_and_rewrites_wrong_shape_entries(
    tmp_path, tier, shape
):
    """A batch run over a malformed entry of any tier recovers the
    contract and writes a good entry in its place.  The tiers in front
    of the malformed one are dropped, so that its entry is probed."""
    import shutil

    from repro.sigrec.cache import FunctionMemo, InferenceMemo

    code = _code("setData(bytes,uint256[3])")
    cache_dir = str(tmp_path)
    # Both memos are opt-in: the memo cases turn on the function memo
    # and the inference-memo cases the inference memo behind it too.
    opts = {
        "fnmemo": {"memo": True},
        "infmemo": {"memo": True, "inference_memo": True},
    }.get(tier, {})
    cold = BatchRecovery(tool=SigRec(**opts), workers=0, cache_dir=cache_dir)
    expected = _essence(cold.recover_all([code]))
    fingerprint = cold.cache.fingerprint

    def subtree(name):
        root = cache_dir if name == "result" else cold.memo_dir
        return os.path.join(root, PREFIXES[name] + fingerprint)

    entries = []
    for dirpath, _dirnames, filenames in os.walk(subtree(tier)):
        entries += [os.path.join(dirpath, f) for f in filenames]
    assert entries
    for path in entries:
        _malformed(path, shape)
    for front in list(PREFIXES)[: list(PREFIXES).index(tier)]:
        shutil.rmtree(subtree(front))

    warm = BatchRecovery(tool=SigRec(**opts), workers=0, cache_dir=cache_dir)
    assert _essence(warm.recover_all([code])) == expected
    options = SigRec(**opts).options()
    if tier == "result":
        assert warm.stats.cache_misses == 1
        assert ResultCache(cache_dir, options).get(code) is not None
        return
    kind = FunctionMemo if tier == "fnmemo" else InferenceMemo
    reader = kind(options, directory=cold.memo_dir)
    for path in entries:
        assert reader.get(os.path.basename(path)[: -len(".json")]) is not None
