"""Benchmark of clusterquake: four closed-loop workloads, timed in CPU seconds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from its src/.
Every measurement runs in a fresh interpreter with PYTHONHASHSEED fixed
and BLAS/OpenMP pools pinned to one thread.  With --trace 0 the last
line of output is the JSON result with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("enumerate", "point_stream", "batch", "cli")
SETUP_RUNS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, HERE)
from tracer import PER_LAYER  # noqa: E402

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    return env


class Runner:
    """Starts workload processes one at a time, within one deadline."""

    def __init__(self):
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def _run(self, argv):
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env,
                                cwd=ROOT)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            out = proc.stdout.read().decode()
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.wait()
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}")
        return out

    def compile(self):
        """Byte-compile the package first, so no set-up pays for it."""
        self._run([sys.executable, "-m", "compileall", "-q",
                   os.path.join(ROOT, "src", "clusterquake")])

    def workload(self, name, seed, seconds, *extra):
        out = self._run([sys.executable, os.path.join(HERE, "workloads.py"),
                         "--workload", name, "--seed", str(seed),
                         "--seconds", str(seconds), *extra])
        return json.loads(out.splitlines()[-1])


def measure(runner, name, seed, seconds):
    """End-to-end metrics: one full run plus extra set-ups for setup_s."""
    setups = [runner.workload(name, seed, seconds, "--setup-only")["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    full = runner.workload(name, seed, seconds)
    setups.append(full["setup_s"])
    metrics = {"setup_s": statistics.median(setups),
               **{key: full[key] for key in ("ops_per_s", "op_p50_ms",
                                             "peak_rss_mb")}}
    return full, metrics


def measure_traced(runner, name, seed, seconds):
    """Per-layer metrics from a traced run, beside an untraced one."""
    os.makedirs(OUT, exist_ok=True)
    plain = runner.workload(name, seed, seconds)
    traced = runner.workload(name, seed, seconds, "--trace",
                             os.path.join(OUT, f"trace-{name}-{seed}.json"))
    layers = {metric: 0.0 for metric, _, _ in PER_LAYER}
    layers.update(traced["layers"])
    layers["trace.overhead_pct"] = 100 * (
        plain["ops_per_s"] / traced["ops_per_s"] - 1)
    traced["correct"] = traced["correct"] and plain["correct"]
    return traced, layers


def report(name, seed, full, metrics, units):
    print(f"workload {name}  seed {seed}  rounds {full['rounds']}  "
          f"timed CPU {full['timed_cpu_s']:.2f} s")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}")
    print(f"  attempted {full['attempted']}  failed {full['failed']}  "
          f"correct {str(full['correct']).lower()}  kinds {full['kinds']}  "
          f"inputs per kind {full['inputs_per_kind']}  "
          f"repeats {full['repeats']}")
    print(f"  reference, not gated: slowdown {full['slowdown']:.4g}, "
          f"cpu_ops_per_s {full['cpu_ops_per_s']:.6g} 1/s, "
          f"wall_ops_per_s {full['wall_ops_per_s']:.6g} 1/s, "
          f"raw_setup_s {full['raw_setup_s']:.6g} s")
    for error in full["errors"]:
        print(f"  check failed: {error}")
    print(json.dumps({
        "correct": full["correct"], "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()}}), flush=True)
    return full["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "clusterquake",
                                       "__init__.py")):
        sys.exit(f"no clusterquake sources under {ROOT}/src")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        runner = Runner()
        runner.compile()
        if args.trace:
            full, metrics = measure_traced(runner, name, args.seed,
                                           args.seconds)
            units = {metric: unit for metric, unit, _ in PER_LAYER}
        else:
            full, metrics = measure(runner, name, args.seed, args.seconds)
            units = UNITS
        correct = report(name, args.seed, full, metrics, units) and correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
