"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads recover-cold --seeds 1-10 --seconds 30

For every workload and metric this prints the median of the per-seed
values and the spread, the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median — the figure each end-to-end bound in ``BENCHMARK.json`` must
cover.  ``--write-pins`` records the input digests and output hashes of
the seeds run into ``pins.json``; ``--write-baseline`` records medians
and quartiles into ``baseline.json`` (traced runs under ``trace``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    first = next(line for line in lines if "inputs=" in line)
    ident = dict(part.split("=", 1) for part in first.split()[1:])
    if not result["correct"]:
        print(f"{workload} seed {seed}: correct=false\n{proc.stderr}",
              file=sys.stderr)
    return result, ident


def summarize(values):
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def update_json(name, mutate):
    path = os.path.join(HERE, name)
    doc = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    mutate(doc)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs

    for workload in args.workloads:
        values, pins = {}, {}
        for seed in seeds_of(args.seeds):
            result, ident = run_once(workload, seed, args.seconds, args.trace)
            pins[str(seed)] = {"inputs": ident["inputs"],
                               "outputs": ident["outputs"]}
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
        table = {metric: summarize(v) for metric, v in values.items()}
        for metric, s in table.items():
            print(f"  {workload:<16} {metric:<28} median {s['median']:>14.6f}"
                  f"  spread {s['spread']:.4f}  "
                  + " ".join(f"{v:.4g}" for v in values[metric]))
        if args.write_pins:
            update_json("pins.json", lambda doc: doc.setdefault(
                workload, {}).update(params=inputs.PARAMS[workload],
                                     seeds=pins))
        if args.write_baseline:
            section = "trace" if args.trace else "end_to_end"
            update_json("baseline.json", lambda doc: doc.setdefault(
                section, {}).update({workload: {
                    "seeds": args.seeds, "seconds": args.seconds,
                    "metrics": table}}))


if __name__ == "__main__":
    main()
