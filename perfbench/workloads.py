"""The timed phases of the three workloads, their checks and metrics.

``recover-cold`` and ``profile-structs`` are closed loops with one
caller: each contract gets a fresh default ``SigRec`` after the
process-global predecode cache is cleared, so every call sees the
bytecode for the first time.  The loop cycles through the corpus until
the run's seconds are spent, and always completes one full pass, which
is the pass that is scored against the ground truth.  Later passes
must reproduce the first pass's outputs exactly.

``clone-fleet`` repeats rounds over the whole deployment stream, each
from a fresh copy of the pre-filled cache template with a cleared
predecode cache.  The stream arrives in blocks, and each block is one
``BatchRecovery.recover_all`` call of a fresh tool.  Every contract in
a block waits for the block, so a contract's latency there is the wall
time of the ``recover_all`` call that carries it.

Times are reported on a reference core.  The shared host these figures
come from switches each core between two speeds, 1.5-1.9x apart, for
stretches of under a second to several minutes, so raw wall time
measures the neighbours as much as the program.  Right before every
timed call the same thread times :func:`calibrate`, a fixed kernel that
slows down under contention as the program does (on every core in turn
before a pooled block), and the call's wall time is scaled by
``REFERENCE_S`` over that time.  A contract's latency
(a block's, in ``clone-fleet``) is the median of its scaled
repetitions, which all start from the same cold state.  See
``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import SigRec
from repro.evm.predecode import clear_program_cache
from repro.sigrec.batch import BatchRecovery

from inputs import Contract, Workload


@dataclass
class Timed:
    """What one timed phase measured and checked."""

    #: Per completed contract, its latency in reference-core seconds.
    latencies: List[float] = field(default_factory=list)
    #: Contracts per second of one pass made at those latencies.
    rate: float = 0.0
    #: Full passes over the corpus (clone-fleet: rounds).
    repeats: int = 0
    #: Every :func:`calibrate` time taken before a timed call.
    calibrations: List[float] = field(default_factory=list)
    #: Peak resident MiB when the first pass (round) ends: later passes
    #: repeat the same work, and a faster program fitting more of them
    #: into the run must not read as using more memory.
    rss_mib: float = 0.0
    busy_s: float = 0.0  # wall seconds spent inside timed calls
    completed: int = 0  # contracts whose call returned
    attempted: int = 0
    failed: int = 0
    sig_correct: int = 0
    sig_total: int = 0
    abi_correct: int = 0
    abi_total: int = 0
    outputs: str = ""  # sha256 over every output of the scored pass
    problems: List[str] = field(default_factory=list)


def fingerprint(signatures) -> list:
    """Everything a recovered signature says, except its timing."""
    return [
        [sig.selector, list(sig.param_types), sig.language,
         list(sig.fired_rules), list(sig.confidences)]
        for sig in signatures
    ]


def output_hash(signatures, profile=None, abi=None) -> str:
    doc = {"signatures": fingerprint(signatures)}
    if profile is not None:
        doc["profile"] = profile.to_json()
    if abi is not None:
        doc["abi"] = abi
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _combine(hashes: Sequence[Optional[str]]) -> str:
    h = hashlib.sha256()
    for item in hashes:
        h.update((item or "-").encode())
    return h.hexdigest()


def score(timed: Timed, contract: Contract, signatures, abi) -> None:
    """Signature and ABI accuracy of one contract against its truth."""
    got = {sig.selector: sig.param_list for sig in signatures}
    entries = {int(e["name"][len("func_"):], 16): e for e in abi}
    for selector, params, mutability, returns in contract.truth:
        timed.sig_total += 1
        timed.sig_correct += got.get(selector) == params
        entry = entries.get(selector)
        timed.abi_total += 1
        timed.abi_correct += entry is not None and (
            entry["stateMutability"] == mutability
            and tuple(o["type"] for o in entry["outputs"]) == returns
        )


def call(code: bytes, profile: bool):
    """The user's call: a fresh default tool over one bytecode."""
    tool = SigRec()
    signatures = tool.recover(code)
    if not profile:
        return tool, signatures, None, None
    return (tool, signatures, tool.profile(code, signatures),
            tool.abi(code, signatures))


def per_contract(workload: Workload, seconds: float, profile: bool,
                 passes: Optional[int] = None) -> Timed:
    """The closed loop of ``recover-cold`` / ``profile-structs``.

    With ``passes`` the loop runs exactly that many full passes instead
    of running for ``seconds``.
    """
    contracts = workload.contracts
    n = len(contracts)
    timed = Timed()
    first: List[Optional[str]] = [None] * n
    scaled: List[List[float]] = [[] for _ in range(n)]
    clock = time.perf_counter
    start = clock()
    i = 0
    while i < n or (clock() - start < seconds if passes is None
                    else i < passes * n):
        index = i % n
        i += 1
        contract = contracts[index]
        clear_program_cache()
        timed.attempted += 1
        calibration = calibrate()
        timed.calibrations.append(calibration)
        began = clock()
        try:
            tool, signatures, prof, abi = call(contract.bytecode, profile)
        except Exception as exc:  # a failing contract is counted, not fatal
            timed.busy_s += clock() - began
            timed.failed += 1
            timed.problems.append(f"contract {index} raised {exc!r}")
            signatures = None
        else:
            elapsed = clock() - began
            timed.busy_s += elapsed
            timed.completed += 1
            scaled[index].append(elapsed * REFERENCE_S / calibration)
        if signatures is not None:
            digest = output_hash(signatures, prof, abi)
            if i <= n:
                first[index] = digest
                if abi is None:
                    # Untimed: recover-cold scores the static ABI verdicts
                    # of the analysis its recover call already ran.
                    abi = tool.abi(contract.bytecode, signatures)
                score(timed, contract, signatures, abi)
            elif digest != first[index]:
                timed.problems.append(f"contract {index}: output changed "
                                      f"on pass {(i - 1) // n + 1}")
        if i == n:
            timed.rss_mib = peak_rss_mib()
    timed.latencies = [statistics.median(s) for s in scaled if s]
    timed.rate = len(timed.latencies) / sum(timed.latencies)
    timed.repeats = i // n
    timed.outputs = _combine(first)
    return timed


# ----------------------------------------------------------------------
# clone-fleet


def build_template(workload: Workload, directory: str) -> None:
    """Pre-fill a cache directory with the template families' results."""
    shutil.rmtree(directory, ignore_errors=True)
    codes = [workload.contracts[i].bytecode for i in workload.template]
    BatchRecovery(tool=SigRec(), workers=0, cache_dir=directory).recover_all(
        codes)


def fleet_workers() -> int:
    """A pool of at most ``nproc`` workers and at most two; serial on one
    core."""
    cores = os.cpu_count() or 1
    return 0 if cores == 1 else 2


def fleet_round(workload: Workload, template: str, directory: str,
                workers: int):
    """The deployment stream from a fresh cache copy, block by block.

    Each block of ``workload.blocks`` is one ``recover_all`` call of a
    fresh ``BatchRecovery`` on the shared cache directory, so later
    blocks find what earlier ones wrote.  Returns (results, wall seconds
    per block, the calibration time taken right before each block,
    ``BatchStats`` per block).
    """
    shutil.rmtree(directory, ignore_errors=True)
    shutil.copytree(template, directory)
    # Write back the reset's file system work now, so that it does not
    # land inside this or a later timed round.
    os.sync()
    clear_program_cache()
    # Each deployment is its own bytes object, as when read off a chain,
    # so deduplication hashes and compares every one.
    codes = [bytes(bytearray(workload.contracts[i].bytecode))
             for i in workload.fleet]
    results, walls, calibrations, stats = [], [], [], []
    start = 0
    for length in workload.blocks:
        calibrations.append(calibrate_cores() if workers else calibrate())
        began = time.perf_counter()
        runner = BatchRecovery(tool=SigRec(), workers=workers,
                               cache_dir=directory)
        results.extend(runner.recover_all(codes[start:start + length]))
        walls.append(time.perf_counter() - began)
        stats.append(runner.stats)
        start += length
    return results, walls, calibrations, stats


def by_unique(workload: Workload, results) -> List[list]:
    """One result per unique contract, from the deployment-order list."""
    found: Dict[int, list] = {}
    for index, signatures in zip(workload.fleet, results):
        found.setdefault(index, signatures)
    return [found[i] for i in range(len(workload.contracts))]


def fleet_hash(workload: Workload, results) -> str:
    return _combine([output_hash(s) for s in by_unique(workload, results)])


def fleet(workload: Workload, template: str, directory: str,
          seconds: float, workers: int) -> Timed:
    """Rounds for ``seconds`` (at least one), then the untimed checks.

    A deployment's latency is the median over the rounds of its block's
    scaled wall time.
    """
    timed = Timed()
    size = len(workload.fleet)
    start = time.perf_counter()
    first = None
    scaled: List[List[float]] = [[] for _ in workload.blocks]
    while timed.attempted == 0 or time.perf_counter() - start < seconds:
        timed.attempted += size
        try:
            results, walls, calibrations, _stats = fleet_round(
                workload, template, directory, workers)
        except Exception as exc:  # a batch failed
            timed.failed += size
            timed.problems.append(f"recover_all raised {exc!r}")
            continue
        timed.busy_s += sum(walls)
        timed.completed += size
        timed.repeats += 1
        timed.calibrations.extend(calibrations)
        for block, wall, calibration in zip(scaled, walls, calibrations):
            block.append(wall * REFERENCE_S / calibration)
        outputs = fleet_hash(workload, results)
        if first is None:
            first = results
            timed.outputs = outputs
            timed.rss_mib = peak_rss_mib()
        elif outputs != timed.outputs:
            timed.problems.append("fleet outputs changed between rounds")
    if first is not None:
        walls = [statistics.median(block) for block in scaled]
        timed.latencies = [wall for wall, length in zip(walls, workload.blocks)
                           for _ in range(length)]
        timed.rate = size / sum(walls)
        check_against_cold(workload, first, timed)
    return timed


def check_against_cold(workload: Workload, results, timed: Timed) -> None:
    """Cache- and memo-replayed outputs must equal a cold serial
    ``recover`` of the same bytecode.  Untimed; also scores accuracy
    once per unique contract."""
    for index, signatures in enumerate(by_unique(workload, results)):
        contract = workload.contracts[index]
        clear_program_cache()
        tool = SigRec()
        cold = tool.recover(contract.bytecode)
        if fingerprint(cold) != fingerprint(signatures):
            timed.problems.append(
                f"contract {index}: batch output differs from cold recover")
        score(timed, contract, signatures, tool.abi(contract.bytecode, cold))


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


#: Seconds :func:`calibrate` takes on an uncontended core of the
#: reference host, a 2-vCPU KVM guest on an Intel Xeon (Sapphire
#: Rapids).  Timed calls are reported in that core's time.
REFERENCE_S = 0.00035


def calibrate() -> float:
    """Seconds for a fixed kernel that uses no ``repro`` code: build and
    sort 1000 (int, str) tuples.

    On the reference host, when a neighbour's load slows a core, this
    kernel slows by about as much as a cold ``recover`` call does
    (1.56x against 1.57x over 100 seconds of interleaved calls), while
    a tight dict loop slows by 1.8-1.9x.  The kernel runs twice and the
    second run is timed: right after a pool's workers exit, a first run
    reads 1.4x slow.
    """
    for _ in range(2):
        began = time.perf_counter()
        pairs = [((i * 2654435761) & 0xFFFF, str(i)) for i in range(1000)]
        pairs.sort()
    return time.perf_counter() - began


def calibrate_cores() -> float:
    """Mean :func:`calibrate` time over the cores this process may use.

    The cores of the reference host change speed independently, and a
    worker pool's wall time follows all of them, so the kernel is timed
    on each core in turn.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    for core in sorted(allowed):
        os.sched_setaffinity(0, {core})
        times.append(calibrate())
    os.sched_setaffinity(0, allowed)
    return statistics.mean(times)


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
