"""The benchmark tracer wraps library functions by name; every name it
lists must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
import sys
from pathlib import Path

import pytest

import clusterquake  # noqa: F401  (puts every layer in sys.modules)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                               TRACER_PATH)
TRACER = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TRACER)


@pytest.mark.parametrize("layer, qualname", TRACER.SPANS + TRACER.COUNTS)
def test_traced_name_resolves(layer, qualname):
    target = sys.modules[f"clusterquake.{layer}"]
    for attr in qualname.split("."):
        target = getattr(target, attr)
    assert callable(target)
