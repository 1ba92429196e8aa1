"""SigRec benchmark: three seeded workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload recover-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is the separate traced run: it times one untraced pass of
the same work as its base, then at least two traced passes, and reports
the per-layer metrics of ``tracing.py`` per pass.  The program's own
counts (TASE steps and paths, pass calls, inferences, cache and memo
hits and probes) must repeat exactly across the traced passes.

The workloads are described in ``inputs.py`` and ``workloads.py``; the
metric definitions and the measured baseline are in ``README.md``.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed check sets ``correct`` to false and is explained
on standard error.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("recover-cold", "profile-structs", "clone-fleet")

#: Set-up repetitions; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 3

#: Accuracy below these floors fails the run (RQ1 measures 97.8%).
FLOORS = {
    "recover-cold": {"signature_accuracy": 0.95, "abi_accuracy": 0.95},
    "profile-structs": {"signature_accuracy": 0.75, "abi_accuracy": 0.95},
    "clone-fleet": {"signature_accuracy": 0.95, "abi_accuracy": 0.95},
}

UNITS = {
    "contracts_per_s": "contracts/s",
    "contract_p50_ms": "ms",
    "contract_p90_ms": "ms",
    "signature_accuracy": "fraction",
    "abi_accuracy": "fraction",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio") or name.startswith(("share.", "trace.cov")):
        return "fraction"
    if name == "engine.steps_per_s":
        return "steps/s"
    if name in ("trace.overhead", "trace.vs_timed"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs  # noqa: F401  (imports repro)
    import workloads  # noqa: F401
    import tracing  # noqa: F401

    import_s = time.perf_counter() - STARTED
    import_s *= workloads.REFERENCE_S / workloads.calibrate()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        return run(args, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()  # leave no write-back behind to slow the next run


def setup(args, work, problems):
    """Build the inputs ``SETUP_REPEATS`` times; the last build is used.

    Each set-up's time is scaled to the reference core, like every timed
    call (see ``workloads.calibrate``).
    """
    import inputs
    import workloads
    from repro.evm.predecode import clear_program_cache

    spent, digests = [], set()
    for _ in range(SETUP_REPEATS):
        scale = workloads.REFERENCE_S / workloads.calibrate()
        began = time.perf_counter()
        workload = inputs.BUILDERS[args.workload](args.seed)
        digests.add(inputs.digest(workload.contracts, workload.fleet))
        clear_program_cache()
        workloads.call(inputs.warmup(args.seed).bytecode,
                       profile=args.workload == "profile-structs")
        if workload.fleet:
            workloads.build_template(workload, os.path.join(work, "template"))
        spent.append((time.perf_counter() - began) * scale)
    if len(digests) != 1:
        problems.append("input generation is not deterministic")
    return workload, digests.pop(), statistics.median(spent)


def check_pins(args, digest, outputs, problems) -> None:
    """Pinned seeds must reproduce their recorded inputs and outputs."""
    import inputs

    path = os.path.join(HERE, "pins.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as handle:
        pins = json.load(handle).get(args.workload, {})
    if pins.get("params") not in (None, inputs.PARAMS[args.workload]):
        problems.append("generator parameters differ from pins.json")
    pin = pins.get("seeds", {}).get(str(args.seed))
    if pin is None:
        return
    if pin["inputs"] != digest:
        problems.append(f"input digest {digest} differs from the pinned "
                        f"{pin['inputs']}: the workload changed")
    elif pin["outputs"] != outputs:
        problems.append(f"output hash {outputs} differs from the pinned "
                        f"{pin['outputs']}")


def run(args, import_s, work) -> int:
    import workloads

    problems = []
    workload, digest, setup_s = setup(args, work, problems)
    template = os.path.join(work, "template")
    directory = os.path.join(work, "round")
    workers = workloads.fleet_workers()
    profile = args.workload == "profile-structs"
    if args.trace:
        timed, metrics = traced(args, workload, template, directory, workers,
                                profile, problems)
    else:
        if workload.fleet:
            timed = workloads.fleet(workload, template, directory,
                                    args.seconds, workers)
        else:
            timed = workloads.per_contract(workload, args.seconds, profile)
        metrics = end_to_end(timed, setup_s + import_s)
        for name, floor in FLOORS[args.workload].items():
            if metrics[name] < floor:
                problems.append(f"{name} {metrics[name]:.4f} below {floor}")
    problems.extend(timed.problems)
    check_pins(args, digest, timed.outputs, problems)

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"inputs={digest} outputs={timed.outputs}")
    print(f"perfbench: contracts={len(workload.contracts)} "
          f"functions={workload.functions} deployments={len(workload.fleet)} "
          f"samples={len(timed.latencies)} repeats={timed.repeats} "
          f"workers={workers}")
    print(f"perfbench: failed_share {timed.failed / timed.attempted} fraction "
          f"({timed.failed} of {timed.attempted})")
    if timed.calibrations:
        print(f"perfbench: calibrate_s median "
              f"{statistics.median(timed.calibrations)} reference "
              f"{workloads.REFERENCE_S}")
    for name, value in metrics.items():
        unit = UNITS.get(name) or layer_unit(name)
        print(f"  {name:<28} {value:>16.6f} {unit}")
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def end_to_end(timed, setup_s):
    import workloads

    lat = timed.latencies
    return {
        "contracts_per_s": timed.rate,
        "contract_p50_ms": statistics.median(lat) * 1000,
        "contract_p90_ms": workloads.percentile(lat, 90) * 1000,
        "signature_accuracy": timed.sig_correct / timed.sig_total,
        "abi_accuracy": timed.abi_correct / timed.abi_total,
        "peak_rss_mib": timed.rss_mib,
        "setup_s": setup_s,
    }


def traced(args, workload, template, directory, workers, profile, problems):
    """The traced run: untraced base, then traced passes of the same work.

    ``clone-fleet`` drains serially when traced, so the wrappers see the
    calls a pool worker would make; its base is an untraced serial
    round, and ``trace.vs_timed`` compares against the pooled round the
    timed run makes.
    """
    import tracing
    import workloads

    if workload.fleet:
        def one_pass(mode):
            results, walls, _calibrations, stats = workloads.fleet_round(
                workload, template, directory, mode)
            timed = workloads.Timed(attempted=len(results),
                                    completed=len(results), busy_s=sum(walls),
                                    outputs=workloads.fleet_hash(workload,
                                                                 results))
            return timed, stats

        timed_mode, _ = one_pass(workers)
        base, _ = one_pass(0)
    else:
        def one_pass(_mode):
            return workloads.per_contract(workload, 0, profile, passes=1), None

        base, _ = one_pass(0)
        timed_mode = base

    recorder = tracing.Recorder().install()
    seconds, first_counts, walls, stats = {}, None, [], None
    began = time.perf_counter()
    try:
        while len(walls) < 2 or time.perf_counter() - began < args.seconds:
            recorder.clear()
            timed, stats = one_pass(0)
            walls.append(timed.busy_s)
            problems.extend(timed.problems)
            if timed.outputs != base.outputs:
                problems.append("traced outputs differ from untraced outputs")
            own, _calls = recorder.self_times()
            for name, value in own.items():
                seconds[name] = seconds.get(name, 0.0) + value
            counts = recorder.counts()
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                changed = sorted(k for k in set(counts) | set(first_counts)
                                 if counts.get(k) != first_counts.get(k))
                problems.append(f"program counts changed between traced "
                                f"passes: {changed}")
    finally:
        recorder.uninstall()
        recorder.clear()
    passes = len(walls)
    wall = sum(walls) / passes
    metrics = tracing.layer_metrics(
        {name: value / passes for name, value in seconds.items()},
        first_counts, wall)
    stats = stats or []
    total = sum(s.total for s in stats)
    metrics["batch.units"] = sum(s.units for s in stats)
    metrics["batch.split_contracts"] = sum(s.split_contracts for s in stats)
    metrics["batch.unique_ratio"] = (
        sum(s.unique for s in stats) / total if total else 0.0)
    metrics["trace.wall_s"] = wall
    metrics["trace.base_s"] = base.busy_s
    metrics["trace.overhead"] = wall / base.busy_s
    metrics["trace.vs_timed"] = wall / timed_mode.busy_s
    print(f"perfbench: traced passes={passes}")
    return base, metrics


if __name__ == "__main__":
    sys.exit(main())
