"""Self-tests of the benchmark's checks and oracles.

    python3 -m pytest perfbench -q

Each check must reject a deliberately wrong answer, and the cluster-count
oracle must agree with direct counts.  Nothing here imports clusterquake.
"""

import json
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_round_trip_check_rejects_perturbation():
    L = [0.5, -2.25, 3.0]
    checks.check_close([x + 1e-12 for x in L], L, 1e-9, "round trip")
    with pytest.raises(checks.CheckFailed):
        checks.check_close([L[0], L[1] + 1e-6, L[2]], L, 1e-9, "round trip")


def test_count_check_rejects_off_by_one():
    checks.check_counts("A3", 84, 14)
    checks.check_counts("F4", 420, 105)
    with pytest.raises(checks.CheckFailed):
        checks.check_counts("A3", 84, 13)
    with pytest.raises(checks.CheckFailed):
        checks.check_counts("D4", 1201, 50)


def test_exit_check_rejects_nonzero_exit():
    checks.check_exit(0, "{}", ["clusterquake", "cartan"])
    with pytest.raises(checks.CheckFailed):
        checks.check_exit(1, "Traceback ...", ["clusterquake", "cartan"])


def test_unimodular_check_rejects_determinant_two():
    checks.check_unimodular(((1, 0, 0), (-1, 1, 0), (0, 3, -1)))
    with pytest.raises(checks.CheckFailed):
        checks.check_unimodular(((2, 0), (0, 1)))
    with pytest.raises(checks.CheckFailed):
        checks.check_unimodular(((1, 2), (2, 4)))


def test_identity_and_sign_checks_reject_wrong_matrices():
    checks.check_sign_coherent(((1, 0), (-1, -2)))
    with pytest.raises(checks.CheckFailed):
        checks.check_sign_coherent(((1, -1), (0, 1)))
    with pytest.raises(checks.CheckFailed):
        checks.check_zero(((0, 0), (0, 1)), "FuGy")
    with pytest.raises(checks.CheckFailed):
        checks.check_nonpositive(((0, -1), (1, 0)), "F*C")


def test_cone_membership_uses_an_exact_solve():
    generators = ((1, -1), (0, 1))  # columns (1, 0) and (-1, 1)
    checks.check_in_cone(generators, (0.5, 2.0), 0.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_in_cone(generators, (1.0, -0.5), 1e-9)


def test_determinant_matches_permutation_expansion():
    m = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert checks.determinant(m) == 4
    assert checks.determinant(((0, 1), (1, 0))) == -1


def test_a2_chart_formulas_close_the_pentagon():
    a, b = Fraction(2, 3), Fraction(5, 7)
    charts = checks.a2_charts(a, b)
    assert charts[0] == (a, b)
    assert charts[2] == (b / (1 + a + a * b), (1 + a) / (a * b))
    assert checks.a2_charts(Fraction(1), Fraction(1)) == [
        (1, 1), (1, Fraction(1, 2)), (Fraction(1, 3), 2),
        (3, Fraction(1, 2)), (1, 2)]


def test_oracle_matches_polygon_triangulations():
    assert checks.polygon_triangulations(6) == 14
    for n in (2, 3, 4):
        assert checks.polygon_triangulations(n + 3) == \
            checks.fz_cluster_count(f"A{n}")


@pytest.mark.parametrize("label, b, c", [
    ("A1xA1", 0, 0), ("A2", 1, 1), ("B2", 1, 2), ("G2", 1, 3)])
def test_oracle_matches_rank2_brute_force(label, b, c):
    assert checks.rank2_cluster_count(b, c) == checks.fz_cluster_count(label)


def test_oracle_known_counts():
    assert [checks.fz_cluster_count(t) for t in
            ("A5", "B3", "C4", "D4", "D5", "E6", "F4")] == \
        [132, 20, 70, 50, 182, 833, 105]


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == PER_LAYER
