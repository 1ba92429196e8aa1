"""Parallel batch recovery: worker-pool results must be byte-identical
to the serial path — same signatures, same merged rule-usage counts —
on every call of the process's one pool, and through a worker's death."""

import json
import os
import pathlib
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.abi.signature import FunctionSignature, Visibility
from repro.compiler import compile_contract
from repro.evm import predecode
from repro.obs import MetricsRegistry
from repro.sigrec import batch, expr
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery, BatchStats
from repro.sigrec.cache import ResultCache


def _codes():
    a = compile_contract([FunctionSignature.parse("a(uint8)")]).bytecode
    b = compile_contract([FunctionSignature.parse("b(bytes)")]).bytecode
    c = compile_contract(
        [FunctionSignature.parse("c(address,uint256)", Visibility.EXTERNAL)]
    ).bytecode
    return a, b, c


def _essence(results):
    """Everything except wall-clock timing, which varies run to run."""
    return [
        [
            (s.selector, s.param_types, s.language, s.fired_rules, s.confidences)
            for s in contract
        ]
        for contract in results
    ]


def _run(codes, workers, memo):
    """Results, merged rule counts and function-memo probes of one call.
    The corpora here share no function body, so with ``memo`` every
    probe is a miss unless a store outlived its call."""
    runner = BatchRecovery(tool=SigRec(memo=memo), workers=workers)
    results = runner.recover_all(codes)
    stats = runner.stats
    return (
        _essence(results),
        runner.tool.tracker.counts,
        (stats.memo_hits, stats.memo_misses),
    )


@pytest.fixture()
def fresh_pool():
    """A patch reaches pool workers only through a fork: drop the pool
    before the test patches, and again so that no later test inherits a
    patched worker."""
    batch.shutdown_pool()
    yield
    batch.shutdown_pool()


def _dies_on(victim, flag=None):
    """A ``SigRec.recover`` whose pool worker exits on ``victim``: every
    time, or only while ``flag`` does not exist (creating it)."""
    recover = SigRec.recover
    parent = os.getpid()

    def dying(self, bytecode, **kwargs):
        if (
            bytecode == victim
            and os.getpid() != parent
            and (flag is None or not flag.exists())
        ):
            if flag is not None:
                flag.touch()
            # Exit only once the parent has submitted every unit: the
            # executor marks itself broken without its submit lock, so a
            # unit submitted at that moment could be lost.
            time.sleep(0.2)
            os._exit(1)
        return recover(self, bytecode, **kwargs)

    return dying


def test_parallel_matches_serial():
    """On the default path and with the opt-in function memo."""
    a, b, c = _codes()
    codes = [a, b, a, c, b, a]

    for memo in (False, True):
        serial = _run(codes, workers=0, memo=memo)
        # Only an opted-in tool probes the memo.
        assert (serial[2][1] > 0) is memo
        assert _run(codes, workers=4, memo=memo) == serial
        pool = batch._POOL
        assert pool is not None
        # The second call runs on the first call's pool, and still as cold.
        assert _run(codes, workers=4, memo=memo) == serial
        assert batch._POOL is pool


def test_batch_recovery_matches_plain_recover_batch():
    """The serial drain equals one tool's plain ``recover`` over each
    unique bytecode: same signatures, same merged rule counts."""
    a, b, _ = _codes()
    codes = [a, b, b]
    plain_tool = SigRec()
    plain = {code: plain_tool.recover(code) for code in dict.fromkeys(codes)}
    runner = BatchRecovery(tool=SigRec(), workers=0)
    assert _essence(runner.recover_all(codes)) == _essence(
        plain[code] for code in codes
    )
    assert runner.tool.tracker.counts == plain_tool.tracker.counts


def test_parallel_preserves_order_and_expands_duplicates():
    a, b, _ = _codes()
    codes = [b, a, b, b, a]
    results = BatchRecovery(workers=2).recover_all(codes)
    assert len(results) == 5
    assert [s.param_list for s in results[0]] == ["bytes"]
    assert [s.param_list for s in results[1]] == ["uint8"]
    assert results[0] == results[2] == results[3]
    assert results[1] == results[4]
    # Per-entry copies: no aliasing between duplicated entries.
    results[2].append("sentinel")
    assert len(results[3]) == 1


def test_parallel_stats():
    """Pooled and serial drains both analyze each unique bytecode once."""
    a, b, _ = _codes()
    for workers in (2, 0):
        runner = BatchRecovery(tool=SigRec(), workers=workers)
        runner.recover_all([a, a, b, a])
        stats = runner.stats
        assert stats.total == 4
        assert stats.unique == 2
        assert stats.analyzed == 2
        assert stats.workers == workers
        assert abs(stats.unique_ratio - 0.5) < 1e-9
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        assert "4 contracts" in stats.summary()
        assert "cache off" in stats.summary()


def test_workers_default_uses_cpu_count():
    import os

    runner = BatchRecovery(tool=SigRec())
    assert runner.workers == (os.cpu_count() or 1)


def test_empty_batch_parallel():
    runner = BatchRecovery(tool=SigRec(), workers=2)
    assert runner.recover_all([]) == []
    assert runner.stats.total == 0
    assert runner.stats.unique == 0
    assert runner.stats.contracts_per_second == 0.0
    assert isinstance(runner.stats, BatchStats)


def test_warm_cache_throughput_renders_na_not_zero():
    """A run too fast to time meaningfully must say so, not mislead."""
    warm = BatchStats(total=5, elapsed_seconds=0.0)
    assert warm.contracts_per_second == 0.0  # numeric API unchanged
    assert "n/a contracts/s" in warm.summary()
    # Astronomic rates from sub-resolution timers are equally bogus.
    absurd = BatchStats(total=100_000, elapsed_seconds=1e-9)
    assert "n/a contracts/s" in absurd.summary()
    # A measurable run still reports the real figure.
    normal = BatchStats(total=10, elapsed_seconds=2.0)
    assert "5 contracts/s" in normal.summary()


def test_worker_death_is_retried_once(fresh_pool, monkeypatch, tmp_path):
    a, b, c = _codes()
    codes = [a, b, c, a]
    for memo in (False, True):
        serial = _run(codes, workers=0, memo=memo)
        flag = tmp_path / f"died-{memo}"
        batch.shutdown_pool()  # the workers must fork with the patch
        with monkeypatch.context() as patch:
            patch.setattr(SigRec, "recover", _dies_on(b, flag))
            assert _run(codes, workers=2, memo=memo) == serial
        assert flag.exists()


def test_second_worker_death_raises_and_next_call_forks_afresh(
    fresh_pool, monkeypatch
):
    a, b, c = _codes()
    codes = [a, b, c]
    for memo in (False, True):
        serial = _run(codes, workers=0, memo=memo)
        batch.shutdown_pool()  # the workers must fork with the patch
        with monkeypatch.context() as patch:
            patch.setattr(SigRec, "recover", _dies_on(b))
            with pytest.raises(BrokenProcessPool):
                _run(codes, workers=2, memo=memo)
        assert batch._POOL is None
        assert _run(codes, workers=2, memo=memo) == serial


def test_finished_calls_free_their_memo_stores(tmp_path, monkeypatch):
    """A serial call drops the stores its units shared when it returns,
    and when a unit raises."""
    a, b, c = _codes()
    for name in ("one", "two", "three"):
        runner = BatchRecovery(
            tool=SigRec(memo=True), workers=0, cache_dir=str(tmp_path / name)
        )
        runner.recover_all([a, b])
        assert runner.stats.memo_misses > 0
        assert batch._WORKER_STORES == {}

    recover = SigRec.recover
    held = []

    def failing(self, bytecode, **kwargs):
        if bytecode == c:
            held.append(len(batch._WORKER_STORES))
            raise RuntimeError("unit failed")
        return recover(self, bytecode, **kwargs)

    monkeypatch.setattr(SigRec, "recover", failing)
    runner = BatchRecovery(tool=SigRec(memo=True), workers=0)
    with pytest.raises(RuntimeError, match="unit failed"):
        runner.recover_all([a, c])
    assert held == [1]
    assert batch._WORKER_STORES == {}


def test_pool_worker_keeps_nothing_of_an_earlier_call(
    fresh_pool, monkeypatch, tmp_path
):
    first = list(_codes())
    second = [
        compile_contract([FunctionSignature.parse(sig)]).bytecode
        for sig in ("d(bool)", "e(string)", "f(uint16[])")
    ]
    log = tmp_path / "held"
    recover = SigRec.recover

    def logging_recover(self, bytecode, **kwargs):
        held = {
            "pid": os.getpid(),
            "programs": [code.hex() for code in predecode._PROGRAM_CACHE],
            "nodes": len(expr._DEFAULT_ARENA._nodes),
        }
        with open(log, "a") as handle:
            handle.write(json.dumps(held) + "\n")
        return recover(self, bytecode, **kwargs)

    monkeypatch.setattr(SigRec, "recover", logging_recover)
    # The pool forks during the first call, so its workers start with
    # the default arena this process holds now.
    forked = len(expr._DEFAULT_ARENA._nodes)
    BatchRecovery(tool=SigRec(), workers=2).recover_all(first)
    pool = batch._POOL
    assert pool is not None
    log.unlink()
    BatchRecovery(tool=SigRec(), workers=2).recover_all(second)
    assert batch._POOL is pool
    held = [json.loads(line) for line in log.read_text().splitlines()]
    programs = {code for entry in held for code in entry["programs"]}
    # Three units on two workers: one worker ran two, so it logged the
    # first one's program, and nothing from the first call.
    assert programs and not programs & {code.hex() for code in first}
    # Each worker's first unit of the call starts with the arena it was
    # forked with: recovery interned nothing there.
    firsts = {}
    for entry in held:
        firsts.setdefault(entry["pid"], entry["nodes"])
    assert set(firsts.values()) == {forked}


def _entry_corpus():
    """Contracts of 1, 2, 3 and 10 functions: a scheduler that split
    contracts of more than 8 selectors would split the last one."""
    names = ["a(uint8)", "b(bytes)", "c(address,uint256)"] + [
        f"f{i}(uint{8 * (i % 4 + 1)})" for i in range(7)
    ]
    return [
        compile_contract([FunctionSignature.parse(n) for n in names[:k]]).bytecode
        for k in (1, 2, 3, 10)
    ]


def _entries(directory):
    """Each result-cache entry under ``directory`` by relative path, with
    the signatures' ``elapsed_seconds`` (wall-clock) dropped."""
    found = {}
    for path in pathlib.Path(directory).rglob("*.json"):
        entry = json.loads(path.read_text())
        for signature in entry["signatures"]:
            del signature["elapsed_seconds"]
        found[str(path.relative_to(directory))] = entry
    return found


def test_units_write_whole_contract_entries_and_the_parent_split_ones(tmp_path):
    """Every contract is one unit, so units write every entry and the
    parent, which splits nothing, writes none and decodes nothing."""
    codes = _entry_corpus()
    entries, counters = {}, {}
    for workers in (0, 2):
        directory = str(tmp_path / f"workers-{workers}")
        registry = MetricsRegistry()
        predecode.clear_program_cache()
        runner = BatchRecovery(
            tool=SigRec(metrics=registry), workers=workers, cache_dir=directory
        )
        results = runner.recover_all(codes)
        assert runner.stats.units == runner.stats.analyzed == len(codes)
        # The parent's own store only probes; the units' writes arrive
        # through their merged registries.
        assert runner.cache.writes == 0
        counters[workers] = registry.counter_values()
        assert counters[workers]["cache.writes"] == runner.stats.analyzed
        if workers:
            assert not predecode._PROGRAM_CACHE
            warm = BatchRecovery(workers=workers, cache_dir=directory)
            assert _essence(warm.recover_all(codes)) == _essence(results)
            assert warm.stats.cache_hit_rate == 1.0
        entries[workers] = _entries(directory)
    assert len(entries[0]) == len(codes)
    assert entries[2] == entries[0]
    assert counters[2] == counters[0]


def test_a_failed_unit_writes_no_entry_and_finished_ones_stay(
    tmp_path, monkeypatch
):
    """A serial call whose second unit raises keeps the first unit's
    entry and writes none for the unit that raised."""
    a, _, c = _codes()
    recover = SigRec.recover

    def failing(self, bytecode, **kwargs):
        if bytecode == c:
            raise RuntimeError("unit failed")
        return recover(self, bytecode, **kwargs)

    monkeypatch.setattr(SigRec, "recover", failing)
    runner = BatchRecovery(workers=0, cache_dir=str(tmp_path))
    with pytest.raises(RuntimeError, match="unit failed"):
        runner.recover_all([a, c])
    cache = ResultCache(str(tmp_path), SigRec().options())
    assert cache.get(a) is not None
    assert cache.get(c) is None
    assert cache.entry_count() == 1
