"""Steadiness of the benchmark: two alternating sets of runs of the same code.

    python3 perfbench/steadiness.py --runs 5 [--workloads NAME ...]

Runs the command of BENCHMARK.json RUNS times per set and workload, each
run with its own seed, alternating which set goes first.  For each
workload and end-to-end metric it prints each set's median and
quartiles, their spread (quartile distance over median) and the shift
of set B's median from set A's in the worse direction, next to the
bound; and the spread over all runs against a third of the bound.  The
raw results go to .bench_build/perfbench/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def run(bench, workload, seed):
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True, timeout=180).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)}: outputs are not correct")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    args = parser.parse_args()

    results = {w: {"A": [], "B": []} for w in args.workloads}
    for i in range(args.runs):
        for side in ("AB" if i % 2 == 0 else "BA"):
            for workload in args.workloads:
                seed = 1 + 2 * i + (side == "B")
                res = run(bench, workload, seed)
                results[workload][side].append(res)
                print(f"{workload} set {side} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}"
                                 for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_build", "perfbench"),
                exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "perfbench",
                           "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    steady = True
    print(f"{'workload':13s} {'metric':12s} {'bound':>5s} | "
          f"{'set A q1 / median / q3':>30s} {'spread':>7s} | "
          f"{'set B q1 / median / q3':>30s} {'spread':>7s} | "
          f"{'shift':>7s} {'all':>7s}")
    for workload, sides in results.items():
        shares = {side: {r["failed"] / r["attempted"] for r in runs}
                  for side, runs in sides.items()}
        if len(shares["A"] | shares["B"]) != 1:
            steady = False
            print(f"{workload}: failed share differs: {shares}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {side: [r["metrics"][name]["value"] for r in runs]
                      for side, runs in sides.items()}
            cells = []
            for side in "AB":
                q1, med, q3 = quartiles(values[side])
                cells.append(f"{q1:9.5g} /{med:9.5g} /{q3:9.5g} "
                             f"{spread(values[side]):7.2%}")
            med_a = statistics.median(values["A"])
            med_b = statistics.median(values["B"])
            shift = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                shift = -shift
            every = spread(values["A"] + values["B"])
            ok = shift <= bound and (name == "setup_s" or max(
                spread(values["A"]), spread(values["B"])) <= bound)
            steady = steady and ok
            print(f"{workload:13s} {name:12s} {bound:5.2f} | {cells[0]} | "
                  f"{cells[1]} | {shift:+7.2%} {every:7.2%}"
                  f"{'' if every < bound / 3 else '  spread >= bound/3'}"
                  f"{'' if ok else '  OUT OF BOUND'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
