import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import clusterquake
from clusterquake import TropicalPoint, checks, earthquake
from clusterquake.cli import main

SRC = os.path.dirname(os.path.dirname(clusterquake.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_cartan(capsys):
    obj = run_json(capsys, "cartan", "--type", "G2")
    assert obj == {"n": 2, "entries": [[0, -1], [3, 0]], "d": [1, 3]}


def test_cartan_explicit_matrix(capsys):
    obj = run_json(capsys, "cartan", "--matrix",
                   '{"entries": [[0, -2], [1, 0]]}')
    assert obj["d"] == [2, 1]


def test_enumerate_counts(capsys):
    obj = run_json(capsys, "enumerate", "--type", "B2")
    assert obj["vertex_count"] == 6
    assert obj["cone_count"] == 6
    assert len(obj["vertices"]) == 6


def test_fan(capsys):
    obj = run_json(capsys, "fan", "--type", "A2")
    assert obj["count"] == 5
    base = obj["cones"][0]
    assert base["vertex"] == 0 and base["generators"] == [[1, 0], [0, 1]]


def test_quake_identity_region(capsys):
    obj = run_json(capsys, "quake", "--type", "A2",
                   "--g0", "1,1", "--L", "2,1")
    assert obj["cone"] == 0
    assert abs(obj["logX"][0] - 2) < 1e-12 and abs(obj["logX"][1] - 1) < 1e-12


def test_inverse_round_trip(capsys):
    # values with a leading minus need the --flag=value spelling
    fwd = run_json(capsys, "quake", "--type", "B2",
                   "--g0", "1,1", "--L=-2,1")
    g = ",".join(repr(v) for v in fwd["g"])
    back = run_json(capsys, "inverse", "--type", "B2", "--g0", "1,1",
                    "--g", g)
    assert abs(back["L"][0] + 2) < 1e-9 and abs(back["L"][1] - 1) < 1e-9


def test_dquake_table_row(capsys):
    obj = run_json(capsys, "dquake", "--type", "G2",
                   "--g0", "1,1", "--L", "2,-3")
    assert abs(obj["xi"][0] - 0) < 1e-9 and abs(obj["xi"][1] + 2) < 1e-9
    assert obj["max_method_difference"] < 1e-6


def test_limits_both_modes(capsys):
    obj = run_json(capsys, "limits", "--type", "A2", "--mode", "L",
                   "--t", "100")
    assert obj["max_err"] < 0.05
    obj = run_json(capsys, "limits", "--type", "A2", "--mode", "g",
                   "--M", "25")
    assert obj["max_err"] < 1e-9


def test_horocycle(capsys):
    obj = run_json(capsys, "horocycle", "--type", "A2", "--g0", "1,1",
                   "--L", "2.5,1.5", "--t", "2")
    assert obj["chart"] == 0
    assert obj["residual"] <= 1e-10
    assert obj["flowed"][0] == [5.0, 2.5]


def test_plot_grid_csv(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["plot-grid", "--type", "A2", "--range", "-6", "6",
                     "--step", "1", "--out", str(out)])
        assert code == 0
    data1, data2 = out1.read_text(), out2.read_text()
    assert data1 == data2, "same config must give identical bytes"
    lines = data1.strip().split("\n")
    assert lines[0] == "x1,x2,cone,logX1,logX2,u1,u2"
    assert len(lines) == 1 + 13 * 13
    cones = {line.split(",")[2] for line in lines[1:]}
    assert len(cones) == 5
    # the grid origin maps to the base point
    origin = [l for l in lines[1:] if l.startswith("0.0,0.0,")][0]
    fields = origin.split(",")
    assert float(fields[3]) == 0 and float(fields[4]) == 0


def test_plot_grid_json(capsys):
    rows = run_json(capsys, "plot-grid", "--type", "B2", "--range",
                    "-2", "2", "--step", "2", "--format", "json")
    assert len(rows) == 9
    assert set(rows[0]) == {"x1", "x2", "cone", "logX1", "logX2", "u1", "u2"}


def test_plot_grid_rejects_higher_rank(capsys):
    code, out, err = run(capsys, "plot-grid", "--type", "A3")
    assert code == 2
    assert "rank" in err


def test_verify_all(capsys):
    code, out, err = run(capsys, "verify", "--type", "A2", "--suite", "all",
                         "--seed", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "verify: PASS"
    # six suites; the limits suite reports its two regimes separately
    e2, e3 = r"\d\.\d{2}e[+-]\d\d", r"\d\.\d{3}e[+-]\d\d"
    formats = [
        r"matrices: vertices=10 duality\+fugy\+signs exact "
        r"\(max residual 0\)",
        r"fan: cones=5 complete\+disjoint on 10000 samples",
        rf"earthquake: round-trip on 1000 samples, max residual {e3}",
        rf"derivatives: analytic vs finite-difference on 200 samples, "
        rf"max gap {e3}",
        rf"limits\.L: errs {e2} >= {e2} >= {e2} <= 1e-2",
        rf"limits\.g: err\(M=30\)={e2} < err\(M=10\)={e2}",
        rf"horocycle: conjugacy {e3} on 300 samples, glue/flow {e3}",
    ]
    assert len(lines) == len(formats) + 1
    for line, fmt in zip(lines, formats):
        assert re.fullmatch("PASS " + fmt, line), line


def test_verify_failure_path(capsys, monkeypatch):
    inverse_quake = earthquake.inverse_quake

    def shifted(P, g0, g):
        L = inverse_quake(P, g0, g)
        return TropicalPoint(L.chart, tuple(x + 1e-6 for x in L.x))

    monkeypatch.setattr(earthquake, "inverse_quake", shifted)
    code, out, err = run(capsys, "verify", "--type", "A2", "--suite",
                         "earthquake")
    assert code == 1
    lines = out.strip().split("\n")
    assert len(lines) == 2
    # the FAIL line carries the detail a PASS line would
    assert re.fullmatch(r"FAIL earthquake: round-trip on 1000 samples, "
                        r"max residual 1\.\d{3}e-06", lines[0]), lines[0]
    assert lines[-1] == "verify: FAIL"


def test_verify_single_suite_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--type", "B2",
                         "--suite", "earthquake", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--type", "B2",
                         "--suite", "earthquake", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CLUSTER_QUAKE_CAP", "4")
    code, out, err = run(capsys, "fan", "--type", "A2")
    assert code == 2
    assert "exceeds 4 vertices" in err


@pytest.mark.parametrize("entries", [
    [[0, 3], [-3, 0]],
    [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
    [[0, 2, -2], [-2, 0, 2], [2, -2, 0]],
])
def test_enumerate_not_finite_type_is_an_error(capsys, entries):
    code, out, err = run(capsys, "enumerate", "--matrix",
                         json.dumps({"entries": entries}))
    assert code == 2 and err.startswith("error:")
    assert "not of finite type" in err and not out


def test_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "seed.json"
    path.write_text('{"entries": [[0, -1], [1, 0]]}')
    obj = run_json(capsys, "enumerate", "--matrix", str(path))
    assert obj["vertex_count"] == 10


def test_bad_coordinate_count(capsys):
    code, out, err = run(capsys, "quake", "--type", "A2", "--g0", "1,1,1",
                         "--L", "1,1")
    assert code == 2 and "coordinates" in err


def test_bad_cap_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CLUSTER_QUAKE_CAP", "abc")
    code, out, err = run(capsys, "fan", "--type", "A2")
    assert code == 2 and err.startswith("error:") and "CLUSTER_QUAKE_CAP" in err


@pytest.mark.parametrize("matrix, why", [
    ("{bad", "JSON"),
    ("[[0,1],[-1,0]]", "entries"),
    ('{"entries": [[0, 1], [1]]}', "square"),
    ('{"entries": [[0, "a"], [1, 0]]}', "integers"),
])
def test_malformed_matrix_is_a_usage_error(capsys, matrix, why):
    code, out, err = run(capsys, "cartan", "--matrix", matrix)
    assert code == 2 and err.startswith("error:") and why in err


@pytest.mark.parametrize("L, why", [("nan,1", "finite"),
                                    ("abc,1", "not a number")])
def test_bad_coordinate_is_a_usage_error(capsys, L, why):
    code, out, err = run(capsys, "quake", f"--L={L}")
    assert code == 2 and err.startswith("error:") and why in err


G0_BELOW_RANGE = "quake --type A2 --g0 1e-400,1 --L 1,1"


@pytest.mark.parametrize("argv", [
    "inverse --type A2 --g0 1,1 --g 1,2,3",
    "limits --type A2 --t -5",
    "limits --type A2 --t 0",
    "limits --type A2 --t nan",
    "horocycle --type A2 --g0 1,1 --L 1,2 --t -1",
    "horocycle --type A2 --g0 1,1 --L 1,2 --t nan",
    "plot-grid --type A2 --step nan",
    "plot-grid --type A2 --range 0 inf",
    "plot-grid --type A2 --range 0 1 --step 1e-300",
    "limits --type A2 --mode g --M 1000",
    "limits --type A2 --mode L --t inf",
    "limits --type A2 --mode g --M=-800",
    "limits --type A2 --mode g --M nan",
    "quake --type A2 --g0 1,1 --L=1e400,1",
    "dquake --type A2 --g0 1,1 --L=1e400,1",
    "inverse --type A2 --g0 1,1 --g 1e400,1",
    "horocycle --type A2 --g0 1e400,1 --L 1,2",
    "dquake --type A2 --g0 1e-400,1 --L 1,1",
    "inverse --type A2 --g0 1,1 --g 1e-400,1",
    "horocycle --type A2 --g0 1e-400,1 --L 1,2",
    "limits --type A2 --g0 1e-400,1",
    "limits --type G2 --t 1e308",
    "quake --type G2 --L=7e307,-9e307",
    "quake --type G2 --L=8.653143139788164e307,-1.7893044531354165e308",
    G0_BELOW_RANGE,
])
def test_bad_input_is_a_usage_error(capsys, argv):
    # an exception main() does not turn into exit 2 fails the test
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and err.startswith("error:") and not out
    assert "Traceback" not in err
    if "--g0 1e-400" in argv:
        # the fault is the starting point's, named after its flag, not
        # the image's or the g of the function --g0 is passed to
        assert "g0 is below the float range" in err
    for flag in ("t", "M"):
        if argv.startswith("limits") and re.search(rf"--{flag}\b", argv):
            # the message names the argument at fault, not a point made
            # from it
            assert re.search(rf"\b{flag}\b", err.partition(":")[2]), err


@pytest.mark.parametrize("argv, digest", [
    ("enumerate --type D4",
     "d47561be810ae0fcaf272ffc8b1bfda93fe3a849a36a860e00e8d3664e4e6f0c"),
    ("enumerate --type B3",
     "2017d6f26e1236faaa0d631b24c35a10a7a4b30db1788bb7ba445b68fd4ebadd"),
    ("fan --type F4",
     "b5b4f36ae0e8c82cf9fe3ffb4dea714f0c12ede73afd0c7f84dc373eedc117f1"),
    ("fan --type D4",
     "c8f1808c17b3acdd08064a16cdedf7e17f6d72f23b50f74b95e5b5acd591ca3c"),
])
def test_pattern_output_bytes_are_pinned(capsys, argv, digest):
    # sha256 of stdout as the eager labeled-seed build printed it
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_stats_go_to_stderr(capsys):
    _, plain, _ = run(capsys, "enumerate", "--type", "B3")
    code, out, err = run(capsys, "enumerate", "--type", "B3", "--stats")
    assert code == 0 and out == plain
    lines = err.splitlines()
    assert len(lines) == 1
    stats = json.loads(lines[0])
    assert stats["vertices"] == 40 and stats["cones"] == 20
    assert stats["clusters"] == 20
    assert stats["vertex_cache"] == 40  # enumerate prints every vertex
    assert stats["f_clusters"] == 20  # and so reads every cluster's F
    assert stats["orthants"] == 8 and stats["orthant_max"] == 7
    assert "cone_cache" not in stats


@pytest.mark.parametrize("suite", ["matrices", "all"])
def test_verify_stats_go_to_stderr(capsys, suite):
    argv = ["verify", "--type", "B2", "--suite", suite]
    _, plain, _ = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--stats")
    assert code == 0 and out == plain
    lines = err.splitlines()
    assert len(lines) == 1
    seconds = json.loads(lines[0])
    assert list(seconds) == (list(checks.SUITES) if suite == "all"
                             else [suite])
    assert all(s >= 0 for s in seconds.values())


def test_cli_import_leaves_numpy_out():
    # the estimators module is registered at import, unexecuted
    code = ("import sys, clusterquake.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "assert 'clusterquake.estimators' in sys.modules\n"
            "import clusterquake\n"
            "T = clusterquake.EarthquakeTransformer\n"
            "assert T is sys.modules['clusterquake.estimators']"
            ".EarthquakeTransformer\n"
            "assert 'EarthquakeTransformer' in clusterquake.__all__\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
