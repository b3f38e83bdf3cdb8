#!/usr/bin/env python3
"""Steadiness check: are the benchmark's end-to-end metrics repeatable?

    python3 perfbench/steady.py [--workloads power_serial,serve_mix] [--runs 10]
                                [--first-seed 1] [--trace 0] [--out FILE]

Run from the root of a checkout. Runs each workload --runs times through
perfbench/run.py, each time with another seed, and reports per metric
the median and the interquartile spread (Q3 - Q1, as
statistics.quantiles(values, n=4) gives the quartiles) as a share of
the median. An end-to-end metric whose spread exceeds its bound in
BENCHMARK.json is flagged (except setup_s, whose spread is advisory),
and the command exits 1. Two sets of runs of the same code
agree when both pass and their medians are within the bounds of each
other; --out keeps a set's medians for that comparison, and --compare
checks a second set's medians against a saved first set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the medians and spreads here")
    parser.add_argument("--compare", help="medians of an earlier --out")
    args = parser.parse_args()

    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    # Workloads take turns per seed, so a slow spell of the host lands on
    # every workload rather than on all runs of one.
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            for name, value in run_once(workload, seed, args.seconds,
                                        args.trace).items():
                values[workload].setdefault(name, []).append(value)
            print(f"{workload}: run {i + 1}/{args.runs} (seed {seed}) done",
                  file=sys.stderr, flush=True)
    summary, flagged = {}, []
    for workload in workloads:
        summary[workload] = {}
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':34s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
        for name, vals in values[workload].items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            note = ""
            if bound is not None and name != "setup_s" and spread > bound:
                note = "  SPREAD ABOVE BOUND"
                flagged.append((workload, name))
            if earlier and bound is not None:
                before = earlier[workload][name]["median"]
                better = next(m["better"] for m in bench["end_to_end"]
                              if m["name"] == name)
                worse = (median - before) / before
                if better == "higher":
                    worse = -worse
                if worse > bound:
                    note += f"  MEDIAN WORSE THAN EARLIER BY {worse:.1%}"
                    flagged.append((workload, name))
            summary[workload][name] = {"median": median, "spread": spread,
                                       "values": vals}
            print(f"  {name:34s} {median:14.6g} {spread:8.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6s}{note}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    if flagged:
        print(f"\nflagged: {flagged}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
