"""The benchmark tracer wraps library functions by name; every name it
lists must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clusterquake  # noqa: F401  (puts every layer in sys.modules)

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                               TRACER_PATH)
TRACER = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TRACER)


@pytest.mark.parametrize("layer, qualname", TRACER.SPANS + TRACER.COUNTS)
def test_traced_name_resolves(layer, qualname):
    target = sys.modules[f"clusterquake.{layer}"]
    for attr in qualname.split("."):
        owner, target = target, getattr(target, attr)
    assert callable(target)
    if "." in qualname:
        # install() wraps a method through its class's own __dict__
        assert attr in vars(owner)


# Every traced layer once on A2, then derive(); any exception that
# escapes exits non-zero, as it would end a traced benchmark run.
SMOKE = """
import importlib.util, json, sys
import clusterquake as cq
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
tracer = tracer_mod.Tracer()
tracer.install()
P = cq.pattern_from_type("A2")
P.fan()
g0, L = cq.PositivePoint(0, (1, 2)), cq.TropicalPoint(0, (1, -2))
cq.inverse_quake(P, g0, cq.quake(P, g0, L).g)
P.fuGy_check(3)
T = cq.EarthquakeTransformer("A2").fit()
rows = [[1.0, -2.0], [0.5, 0.5], [-3.0, 1.0]]
T.inverse_transform(T.transform(rows))
T.predict(rows)
print(json.dumps(sorted(tracer_mod.derive(tracer))))
"""


def test_traced_run_derives_every_layer_metric():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SMOKE, str(TRACER_PATH)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = sorted(name for name, _, _ in TRACER.PER_LAYER
                      if not name.startswith(("cli.", "trace.")))
    assert json.loads(proc.stdout) == expected
