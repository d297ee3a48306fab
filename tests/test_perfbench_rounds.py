"""The benchmark's workloads read the library's public API
(Cone.generators, mut_edges, opposite_vertex, vertex_sequence,
cone_matrix_inv, based_matrices, ...) and its command line; one round of
each, the cli workload's child processes included, must still run with
no failed operation and no failed check, or the benchmark breaks."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Set-up, inputs and one round with a fresh Phase, as perfbench/workloads.py
# runs them, for each workload; the cli one starts its children with this
# process's environment, so they import the same source.
ROUND = """
import json, random, sys
sys.path.insert(0, sys.argv[1])
import workloads
import clusterquake as cq
out = {}
for name in ("enumerate", "point_stream", "batch", "cli"):
    rng = random.Random(1)
    workload = workloads.WORKLOADS[name](cq, rng)
    inputs = workload.inputs(rng)
    phase = workloads.Phase()
    workload.round(inputs, phase)
    out[name] = [phase.attempted, phase.failed, phase.errors]
print(json.dumps(out))
"""


def test_one_round_of_each_in_process_workload_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", ROUND,
                           str(ROOT / "perfbench")],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    for name, (attempted, failed, errors) in results.items():
        assert attempted > 0 and failed == 0 and errors == [], (
            name, failed, errors, proc.stderr)
