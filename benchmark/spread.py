#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the benchmark driver takes it.

Runs the benchmark `--runs` times on each workload, each time with another seed, and
prints for every workload x metric the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share of it,
next to the metric's bound. With `--sets 2` it does all of that twice and also prints
by how much the second set's median is worse than the first's.

    python3 benchmark/spread.py [--runs 10] [--sets 1] [--seconds S] [--workload W ...]
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed, seconds):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"]

    medians = []  # one {(workload, metric): median} per set
    for s in range(args.sets):
        medians.append({})
        for workload in workloads:
            runs = []
            for r in range(args.runs):
                seed = 1000 * (s + 1) + r
                runs.append(one_run(workload, seed, args.seconds))
                print(f"set {s + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
            for m in metrics:
                values = [run[m["name"]] for run in runs]
                median = statistics.median(values)
                medians[s][workload, m["name"]] = median
                share = spread(values)
                flag = "" if share <= m["bound"] / 3 or m["name"] == "setup_s" else (
                    "  > bound/3" if share <= m["bound"] else "  > BOUND")
                print(f"  {workload:<14} {m['name']:<16} median {median:>12.6g} {m['unit']:<5} "
                      f"spread {share * 100:6.2f}%  bound {m['bound'] * 100:4.1f}%{flag}", flush=True)
    for s in range(1, args.sets):
        print(f"set {s + 1} against set 1 (positive = worse):")
        for workload in workloads:
            for m in metrics:
                a, b = medians[0][workload, m["name"]], medians[s][workload, m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "  > BOUND" if worse > m["bound"] else ""
                print(f"  {workload:<14} {m['name']:<16} {worse * 100:+7.2f}%  "
                      f"bound {m['bound'] * 100:4.1f}%{flag}")


if __name__ == "__main__":
    main()
