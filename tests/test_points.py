import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clusterquake as cq
from clusterquake import checks, intmat, points
from clusterquake import (
    CompletenessError,
    FloatRangeError,
    PositivePoint,
    PreconditionError,
    TropicalPoint,
    locate_cone,
    log_transport,
    positive_transport,
    scale,
    separation_eval,
    tropical_transport,
)
from clusterquake.points import TOL
from clusterquake.seeds import Permutation

ENUMERATE_TYPES = ["A1xA1", "A2", "B2", "G2", "A3", "B3", "C3",
                   "A4", "B4", "C4", "D4", "F4"]


_pattern = lru_cache(maxsize=None)(cq.pattern_from_type)


@pytest.fixture(scope="module")
def A2():
    return cq.pattern_from_type("A2")


@pytest.fixture(scope="module")
def B3():
    return cq.pattern_from_type("B3")


def test_point_validation():
    with pytest.raises(ValueError):
        PositivePoint(0, (1, 0))
    with pytest.raises(ValueError):
        PositivePoint(0, (1, -2.0))
    with pytest.raises(ValueError):
        TropicalPoint(0, (1.0, float("nan")))
    with pytest.raises(ValueError):
        TropicalPoint(0, (float("inf"), 0.0))
    with pytest.raises(ValueError):
        PositivePoint(0, (float("inf"), 1.0))
    with pytest.raises(ValueError):
        PositivePoint(0, (1.0, float("nan")))


INF = float("inf")


NON_REAL = {
    "TropicalPoint-str": (lambda P: TropicalPoint(0, ("a", 1)),
                          cq.CoordinateError, "finite"),
    "TropicalPoint-complex": (lambda P: TropicalPoint(0, (1j, 1)),
                              cq.CoordinateError, "finite"),
    "TropicalPoint-None": (lambda P: TropicalPoint(0, None),
                           cq.CoordinateError, "finite"),
    "PositivePoint-str": (lambda P: PositivePoint(0, ("a", 1)),
                          cq.CoordinateError, "positive"),
    "PositivePoint-complex": (lambda P: PositivePoint(0, (1j, 1)),
                              cq.CoordinateError, "positive"),
    "PositivePoint-list": (lambda P: PositivePoint(0, ([1], 1)),
                           cq.CoordinateError, "positive"),
    "PositivePoint-None": (lambda P: PositivePoint(0, None),
                           cq.CoordinateError, "positive"),
    "CentralCharge-str": (lambda P: cq.CentralCharge(0, ("a", 1j)),
                          cq.CoordinateError, "central charge"),
    "CentralCharge-None": (lambda P: cq.CentralCharge(0, None),
                           cq.CoordinateError, "central charge"),
    "quake_multiplier-str": (
        lambda P: cq.quake_multiplier(P, PositivePoint(0, (1.0, 2.0)), 0,
                                      ("a", 1)),
        cq.CoordinateError, "multipliers"),
    "separation_eval-str": (lambda P: separation_eval(P, 0, ("a", 1)),
                            cq.CoordinateError, "positive"),
    "limit_L-str": (
        lambda P: cq.limit_L(P, PositivePoint(0, (1, 1)), 0, 0, "a"),
        PreconditionError, "t must"),
    "limit_L-inf": (
        lambda P: cq.limit_L(P, PositivePoint(0, (1, 1)), 0, 0, INF),
        PreconditionError, "t must"),
    "scale-str": (lambda P: scale(TropicalPoint(0, (1, 2)), "a"),
                  PreconditionError, "scaling factor"),
    "scale-inf": (lambda P: scale(TropicalPoint(0, (1, 2)), INF),
                  PreconditionError, "scaling factor"),
    "horocycle_flow-str": (
        lambda P: cq.horocycle_flow(cq.CentralCharge(0, (1j, 1j)), "a"),
        PreconditionError, "flow time"),
    "cluster_reduce-str": (
        lambda P: cq.cluster_reduce(P, 0, ["a"], PositivePoint(0, (1, 1)),
                                    TropicalPoint(0, (1, 1))),
        PreconditionError, "J contains"),
    "pattern_from_type-None": (lambda P: cq.pattern_from_type(None),
                               cq.InvalidTypeError, "string"),
    "pattern_from_type-int": (lambda P: cq.pattern_from_type(5),
                              cq.InvalidTypeError, "string"),
}


@pytest.mark.parametrize("case", NON_REAL)
def test_input_that_is_no_real_number_raises_a_typed_error(A2, case):
    # a bare TypeError, ValueError or AttributeError came from inside, or
    # (TropicalPoint) none at all; an infinite t is refused by name
    call, error, named = NON_REAL[case]
    with pytest.raises(error, match=named):
        call(A2)


HUGE = 10 ** 400  # an int that float() cannot hold
G0 = PositivePoint(0, (1.0, 1.0))
BEYOND_FLOATS = {
    "horocycle_flow": (
        lambda P: cq.horocycle_flow(cq.CentralCharge(0, (1j, 1j)), HUGE),
        "flow time t"),
    "scale": (lambda P: scale(TropicalPoint(0, (1.0, 2.0)), HUGE),
              "scaling factor"),
    "scale-float": (lambda P: scale(TropicalPoint(0, (1e300, 1.0)), 1e300),
                    "scaling factor"),
    "limit_L": (lambda P: cq.limit_L(P, PositivePoint(0, (1, 1)), 0, 0,
                                     HUGE), "t is"),
    "CentralCharge": (lambda P: cq.CentralCharge(0, (1j, HUGE)), "entry 1"),
    "quake_log": (lambda P: cq.quake_log(P, (0.0, 0.0),
                                         TropicalPoint(0, (HUGE, 1))), "L"),
    "u_coords": (lambda P: cq.u_coords(P, G0, TropicalPoint(0, (HUGE, 1))),
                 "L"),
    "dquake-finite_difference": (
        lambda P: cq.dquake(P, G0, TropicalPoint(0, (HUGE, 1)),
                            method="finite_difference"), "L"),
    "log_transport": (lambda P: log_transport((HUGE, 0), P, 0, 3), "logX"),
    "quake_log-log_g0": (lambda P: cq.quake_log(P, (HUGE, 0.0),
                                                TropicalPoint(0, (1, 1))),
                         "log_g0"),
    "quake_multiplier": (lambda P: cq.quake_multiplier(P, G0, 0, (HUGE, 1)),
                         "multipliers"),
    # float products at inf and at 0.0 raised CoordinateError
    "quake_multiplier-float": (
        lambda P: cq.quake_multiplier(P, PositivePoint(0, (1e10, 1.0)), 0,
                                      (1e300, 1)), "multipliers.*beyond"),
    "quake_multiplier-below": (
        lambda P: cq.quake_multiplier(P, PositivePoint(0, (1e-200, 1.0)), 0,
                                      (1e-200, 1)), "multipliers.*below"),
    "conjugacy_residual": (
        lambda P: cq.conjugacy_residual(P, G0, TropicalPoint(0, (1, 2)), HUGE),
        "t is"),
    "conjugacy_residual-float": (
        lambda P: cq.conjugacy_residual(P, G0, TropicalPoint(0, (1, 2)),
                                        1e300),
        r"t=1e\+300 times L"),
}


@pytest.mark.parametrize("case", BEYOND_FLOATS)
def test_an_int_beyond_the_float_range_raises_float_range_error(A2, case):
    # each raised a bare OverflowError from an int-to-float conversion
    # (the float scaling factor a CoordinateError at inf), or named a
    # point the caller never gave (log_g0 as logX, t as L or t * L); the
    # message names the argument at fault
    call, named = BEYOND_FLOATS[case]
    with pytest.raises(FloatRangeError, match=rf"\b{named}\b"):
        call(A2)


@pytest.mark.parametrize("value", [
    3, True, Fraction(1, 3), 0.5, np.int64(3), np.float64(0.5),
    np.float32(0.5), np.bool_(True)], ids=repr)
def test_real_numbers_of_every_kind_are_coordinates(A2, value):
    L = TropicalPoint(0, (value, 1))
    g = PositivePoint(0, (value, 1))
    assert cq.quake(A2, g, L).g.chart == 0
    assert scale(L, value).x == (value * value, value)


def test_scale():
    L = TropicalPoint(0, (1, -2))
    assert scale(L, 3).x == (3, -6)
    assert scale(L, Fraction(1, 2)).x == (Fraction(1, 2), Fraction(-1))
    with pytest.raises(ValueError):
        scale(L, 0)
    with pytest.raises(ValueError):
        scale(L, -1.0)


def test_transport_round_trip_exact(A2, B3):
    for P in (A2, B3):
        g = PositivePoint(0, tuple(Fraction(k + 2, 3) for k in range(P.n)))
        L = TropicalPoint(0, tuple(Fraction((-1) ** k * (k + 1), 2)
                                   for k in range(P.n)))
        for v in P.vertices:
            gv = positive_transport(g, P, v.id)
            Lv = tropical_transport(L, P, v.id)
            assert positive_transport(gv, P, 0).X == g.X
            assert tropical_transport(Lv, P, 0).x == L.x
    # a relabel edge sigma moves coordinate sigma^-1(i) of the chart it
    # leaves to coordinate i; checked on every D4 chart reached by one
    D4 = cq.pattern_from_type("D4")
    g = PositivePoint(0, (Fraction(1, 2), Fraction(2), Fraction(3),
                          Fraction(5, 7)))
    L = TropicalPoint(0, (Fraction(3, 2), Fraction(-1), Fraction(2),
                          Fraction(-5, 3)))
    relabeled = 0
    for vid in range(1, len(D4)):
        prev, edge = D4.route(D4.base, vid)[-1]
        if edge[0] != "perm":
            continue
        relabeled += 1
        inv = Permutation(edge[1]).inverse()
        for before, after in (
                (positive_transport(g, D4, prev).X,
                 positive_transport(g, D4, vid).X),
                (tropical_transport(L, D4, prev).x,
                 tropical_transport(L, D4, vid).x)):
            assert after == tuple(before[inv(i)] for i in range(4)), vid
    assert relabeled == 999


@settings(max_examples=50)
@given(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), st.integers(0, 9))
def test_tropical_round_trip_float(x, vid):
    P = cq.pattern_from_type("A2")
    L = TropicalPoint(0, x)
    there = tropical_transport(L, P, vid)
    back = tropical_transport(there, P, 0)
    assert max(abs(a - b) for a, b in zip(back.x, L.x)) < 1e-9


def test_log_transport_matches_positive(A2):
    g = PositivePoint(0, (0.7, 2.3))
    logs = tuple(math.log(c) for c in g.X)
    for v in A2.vertices:
        direct = positive_transport(g, A2, v.id)
        vialog = log_transport(logs, A2, 0, v.id)
        for a, b in zip(direct.X, vialog):
            assert abs(math.log(a) - b) < 1e-12


def test_locate_base_cone(A2):
    loc = locate_cone(TropicalPoint(0, (2, 3)), A2)
    assert loc.vertex == 0
    assert loc.boundary == (False, False)


def test_locate_wall_flags(A2):
    loc = locate_cone(TropicalPoint(0, (0, 3)), A2)
    assert loc.vertex == 0
    assert loc.boundary == (True, False)


def test_locate_frozen_assignments(A2):
    # quadrant interiors and the split fourth quadrant
    assert locate_cone(TropicalPoint(0, (1, 1)), A2).vertex == 0
    assert locate_cone(TropicalPoint(0, (-1, 1)), A2).vertex == 1
    assert locate_cone(TropicalPoint(0, (-1, -1)), A2).vertex == 4
    assert locate_cone(TropicalPoint(0, (3, -1)), A2).vertex == 2
    assert locate_cone(TropicalPoint(0, (1, -3)), A2).vertex == 6
    # the ray splitting the fourth quadrant
    on_ray = locate_cone(TropicalPoint(0, (1, -1)), A2)
    assert on_ray.vertex == 2 and any(on_ray.boundary)


def test_locate_returns_smallest_cone_member(A2):
    # representative ids equal the minimum over each cone's labels
    for cone in A2.fan():
        interior = tuple(sum(col) for col in zip(*cone.generators))
        assert locate_cone(TropicalPoint(0, interior), A2).vertex \
            == cone.vertex_id


def test_locate_exact_rational(A2):
    loc = locate_cone(TropicalPoint(0, (Fraction(1, 3), Fraction(-1, 3))), A2)
    assert loc.vertex == 2 and any(loc.boundary)


def test_locate_input_in_any_chart(A2):
    L = TropicalPoint(0, (-2.0, 1.0))
    vid = locate_cone(L, A2).vertex
    for v in A2.vertices:
        moved = tropical_transport(L, A2, v.id)
        assert locate_cone(moved, A2).vertex == vid


def _stub():
    # a single-vertex pattern cannot cover the plane: the partial pattern
    # of a build stopped by its cap holds the base cone only
    try:
        cq.pattern_from_type("A2", cap=1)
    except cq.PatternBudgetError as err:
        return err.partial


def test_locate_incomplete_fan_fails():
    with pytest.raises(CompletenessError):
        locate_cone(TropicalPoint(0, (-1.0, -1.0)), _stub())


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_located_coordinates_are_the_transport(label):
    P = cq.pattern_from_type(label)
    rng = random.Random(label)
    for _ in range(20):
        chart = rng.randrange(len(P))
        for x in (tuple(rng.uniform(-5, 5) for _ in range(P.n)),
                  tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(P.n))):
            L = TropicalPoint(chart, x)
            located = locate_cone(L, P)
            assert located.x == tropical_transport(L, P, located.vertex).x


def test_fan_suite_scans_without_locating(monkeypatch):
    calls = []

    def counted(L, P):
        calls.append(L)
        return locate_cone(L, P)

    monkeypatch.setattr(checks, "locate_cone", counted)
    monkeypatch.setattr(checks, "FAN_SAMPLES", 300)
    [check] = checks.fan(cq.pattern_from_type("D4"), random.Random(0))
    assert check.ok and not calls


def test_fan_suite_on_incomplete_fan_fails():
    # the suite raises what locate_cone raises on its first uncovered sample
    sub = _stub()
    rng = random.Random(0)
    L = checks._tropical(sub, rng, 10)
    while min(L.x) >= -checks.TOL:
        L = checks._tropical(sub, rng, 10)
    with pytest.raises(CompletenessError) as want:
        locate_cone(L, sub)
    with pytest.raises(CompletenessError) as got:
        checks.fan(sub, random.Random(0))
    assert str(got.value) == str(want.value)


def test_separation_formula_matches_transport(A2):
    X0 = (Fraction(5, 7), Fraction(3, 2))
    for v in A2.vertices:
        assert separation_eval(A2, v.id, X0) \
            == positive_transport(PositivePoint(0, X0), A2, v.id).X
    with pytest.raises(ValueError):
        separation_eval(A2, 0, (Fraction(-1), Fraction(1)))


@pytest.mark.parametrize("X0", [(Fraction(-1), Fraction(1)), (0, 1),
                                (1.0, float("nan"))])
def test_separation_eval_raises_coordinate_error(A2, X0):
    with pytest.raises(cq.CoordinateError, match="positive coordinates"):
        separation_eval(A2, 0, X0)


def test_separation_eval_of_the_wrong_rank_raises_precondition_error(A2):
    # a bare ValueError came from the F-polynomial evaluation
    with pytest.raises(PreconditionError,
                       match="point has 3 coordinates, pattern has rank 2"):
        separation_eval(A2, 3, (1.0, 2.0, 3.0))


def test_transport_requires_matching_rank(A2):
    with pytest.raises(ValueError):
        positive_transport(PositivePoint(0, (1.0, 2.0, 3.0)), A2, 1)


@pytest.mark.parametrize("bad", [-1, 10, 99])
def test_chart_outside_the_pattern_is_a_precondition_error(A2, bad):
    # walk() checks both ends: a negative id would not stop at the base,
    # and one past the end has no vertex
    assert len(A2) == 10
    g, L = PositivePoint(0, (1, 2)), TropicalPoint(0, (1, 2))
    calls = [
        lambda: tropical_transport(TropicalPoint(bad, (1, 2)), A2, 0),
        lambda: tropical_transport(L, A2, bad),
        lambda: positive_transport(PositivePoint(bad, (1, 2)), A2, 0),
        lambda: positive_transport(g, A2, bad),
        lambda: log_transport((0.0, 1.0), A2, bad, 0),
        lambda: log_transport((0.0, 1.0), A2, 0, bad),
        lambda: locate_cone(TropicalPoint(bad, (1, 2)), A2),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="vertex ids"):
            call()
    with pytest.raises(PreconditionError, match="rank"):
        positive_transport(PositivePoint(0, (1.0, 2.0, 3.0)), A2, 1)


def locate_scan_oracle(L, P):
    """The full scan locate_cone replaced: one C^- product per cone."""
    x0 = tropical_transport(L, P, P.base).x
    for cone in P.fan():
        v = cone.vertex_id
        lam = intmat.matvec(P.cone_matrix_inv(v), x0)
        if all(c >= -TOL for c in lam):
            return (v, tuple(abs(c) <= TOL for c in lam),
                    tropical_transport(L, P, v).x)
    raise CompletenessError(f"no cone contains {x0}")


def oracle_points(P, rng):
    """Points in random charts: floats, ints, Fractions, integer mixes of
    a cone's generators (walls and faces included), and generators moved
    by +-TOL/2 and +-2 TOL."""
    n = P.n
    out = []
    for _ in range(10):
        chart = rng.randrange(len(P))
        out.append(TropicalPoint(chart, [rng.uniform(-5, 5)
                                         for _ in range(n)]))
        out.append(TropicalPoint(chart, [rng.randint(-4, 4)
                                         for _ in range(n)]))
        out.append(TropicalPoint(chart, [Fraction(rng.randint(-9, 9),
                                                  rng.randint(1, 9))
                                         for _ in range(n)]))
    for cone in rng.sample(P.fan(), min(10, len(P.fan()))):
        gens = cone.generators
        weights = [rng.randint(0, 2) for _ in gens]
        out.append(TropicalPoint(0, [sum(w * g[i] for w, g in
                                         zip(weights, gens))
                                     for i in range(n)]))
        g = rng.choice(gens)
        for shift in (TOL / 2, -TOL / 2, 2 * TOL, -2 * TOL):
            i = rng.randrange(n)
            out.append(TropicalPoint(0, [c + shift * (j == i)
                                         for j, c in enumerate(g)]))
    return out


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_early_exit_locate_matches_full_scan(label):
    P = cq.pattern_from_type(label)
    for L in oracle_points(P, random.Random(label)):
        assert tuple(locate_cone(L, P)) == locate_scan_oracle(L, P)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ENUMERATE_TYPES), st.integers(-300, 300),
       st.lists(st.floats(-1, 1), min_size=4, max_size=4))
def test_early_exit_locate_matches_full_scan_at_any_magnitude(label, e, x):
    P = _pattern(label)
    L = TropicalPoint(0, [10.0 ** e * c for c in x[:P.n]])
    assert tuple(locate_cone(L, P)) == locate_scan_oracle(L, P)


def test_in_closed_cone_stops_at_the_first_failing_row():
    rows = ((1, 0), "never read")
    assert not points.in_closed_cone(rows, (-2 * TOL, 5))
    assert points.in_closed_cone(((1, 0), (0, 1)), (-TOL / 2, 0))


def test_fan_suite_counts_match_full_scan(monkeypatch):
    # closed and strict counts of the early-exit test against the full
    # product, on the suite's own draws
    P = cq.pattern_from_type("B3")
    rng = random.Random(3)
    for _ in range(300):
        x = checks._tropical(P, rng, 10).x
        for cone in P.fan():
            lam = intmat.matvec(P.cone_matrix_inv(cone.vertex_id), x)
            assert points.in_closed_cone(cone.inequalities, x) \
                == (min(lam) >= -TOL)
    monkeypatch.setattr(checks, "FAN_SAMPLES", 200)
    rng, want = random.Random(5), random.Random(5)
    [check] = checks.fan(P, rng)
    for _ in range(200):
        checks._tropical(P, want, 10)
    assert check == checks.Check(
        "fan", True, f"cones={len(P.fan())} complete+disjoint on 200 samples")
    assert rng.getstate() == want.getstate()


LOCATE_TYPES = ENUMERATE_TYPES + ["A5", "D5", "B5"]


def _as_kind(c, kind):
    """The float c as a float, an int (rounded) or a Fraction (exact)."""
    if kind == "float":
        return c
    return round(c) if kind == "int" else Fraction(c)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LOCATE_TYPES), st.integers(-7, 300),
       st.lists(st.tuples(st.booleans(), st.floats(0, 9),
                          st.sampled_from(["float", "int", "fraction"])),
                min_size=5, max_size=5),
       st.integers(0, 4), st.floats(0, 1), st.integers(0, 9 ** 4))
def test_orthant_and_full_scan_branches_match_the_oracle(
        label, e, coords, wall, share, chart_seed):
    # every example puts one point on each branch of candidate_cones: a
    # point whose coordinates share one magnitude, at least 1e-7, clears
    # R (TOL + delta) in every coordinate; moved to within R TOL of a
    # coordinate wall (0 included) it does not
    P = _pattern(label)
    n = P.n
    # below 1 an int would round to 0: a Fraction stands in for it
    x = [_as_kind((-1) ** neg * 10.0 ** e * (1 + f),
                  "fraction" if kind == "int" and e < 0 else kind)
         for neg, f, kind in coords[:n]]
    near = list(x)
    bound = P.orthants.reach * TOL
    near[wall % n] = _as_kind(
        (-1) ** (chart_seed % 2) * bound * share, coords[wall % n][2])
    for y, full in ((x, False), (near, True)):
        L = TropicalPoint(P.base, y)
        assert (points.candidate_cones(P, L.x) is P.fan()) is full
        assert tuple(locate_cone(L, P)) == locate_scan_oracle(L, P)
        moved = tropical_transport(L, P, chart_seed % len(P))
        assert tuple(locate_cone(moved, P)) == locate_scan_oracle(moved, P)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LOCATE_TYPES),
       st.lists(st.tuples(st.floats(-1, 1), st.integers(-300, 300),
                          st.sampled_from(["float", "int", "fraction"])),
                min_size=5, max_size=5),
       st.integers(0, 2 ** 32))
def test_locate_matches_full_scan_on_mixed_numbers_and_magnitudes(
        label, coords, seed):
    # each coordinate has its own magnitude, 1e-300 to 1e300, and its own
    # type: float, int or Fraction, mixed within one point
    P = _pattern(label)
    L = TropicalPoint(P.base, [_as_kind(c * 10.0 ** e, kind)
                               for c, e, kind in coords[:P.n]])
    assert tuple(locate_cone(L, P)) == locate_scan_oracle(L, P)
    moved = tropical_transport(L, P, seed % len(P))
    assert tuple(locate_cone(moved, P)) == locate_scan_oracle(moved, P)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LOCATE_TYPES), st.integers(0, 2 ** 32),
       st.lists(st.integers(-2, 3), min_size=5, max_size=5),
       st.sampled_from([1, 10.0 ** -300, 1e-9, 1e150, 10.0 ** 300,
                        Fraction(1, 10 ** 12)]))
def test_locate_matches_full_scan_on_walls(label, pick, weights, size):
    # integer combinations of one cone's generators: weights 0 put the
    # point on a wall or face of that cone, negative ones outside it
    P = _pattern(label)
    cone = P.fan()[pick % len(P.fan())]
    x = [sum(w * g[i] for w, g in zip(weights, cone.generators)) * size
         for i in range(P.n)]
    L = TropicalPoint(P.base, x)
    assert tuple(locate_cone(L, P)) == locate_scan_oracle(L, P)


@pytest.mark.parametrize("x", [
    (2e12, -2e12, -9.161328993855695e-09, 3e12, -3e12),
    (1e14, -1e14, -5.450269694461005e-05, 2e14, -2e14),
    (1e18, -1e18, -0.04140314677491943, 3e18, -3e18)])
def test_rounding_can_put_a_point_in_a_cone_of_another_orthant(x):
    # coordinate 2 is far beyond R TOL on the negative side, but the
    # float sums of C^- x lose it beside the large coordinates, and the
    # first cone to pass lies in the orthant x_2 >= 0: delta, the bound on
    # that rounding, sends these points to the full scan
    P = _pattern("A5")
    L = TropicalPoint(P.base, x)
    assert abs(x[2]) > P.orthants.reach * TOL
    assert points.candidate_cones(P, L.x) is P.fan()
    located = locate_cone(L, P)
    assert tuple(located) == locate_scan_oracle(L, P)
    cone = next(c for c in P.fan() if c.vertex_id == located.vertex)
    assert min(g[2] for g in cone.generators) >= 0


@pytest.mark.parametrize("size, full", [(1e307, False), (2e307, True),
                                        (1.7e308, True)])
def test_points_near_the_float_maximum_take_the_full_scan(size, full):
    # B3's C^- rows have l1 norm up to S = 5: past 2^1023 / S a sum of
    # C^- x0 may overflow, and rounding no longer bounds its error
    P = _pattern("B3")
    assert P.orthants.spread == 5
    L = TropicalPoint(P.base, (size, -size, size))
    assert (points.candidate_cones(P, L.x) is P.fan()) is full
    assert tuple(locate_cone(L, P)) == locate_scan_oracle(L, P)


@pytest.mark.parametrize("x, vertex", [
    ((7e307, -9e307), 4),
    ((8.653143139788164e307, -1.7893044531354165e308), 7)])
def test_g2_points_near_the_float_maximum_raise_float_range_error(x, vertex):
    # every cone's sums overflow for the first point, which raised
    # CompletenessError; the second is in a cone, but its coordinates
    # there leave the float range, which raised CoordinateError.  As
    # Fractions, both are located exactly
    P = _pattern("G2")
    with pytest.raises(FloatRangeError, match="leaves the float range"):
        locate_cone(TropicalPoint(P.base, x), P)
    exact = TropicalPoint(P.base, tuple(map(Fraction, x)))
    assert locate_cone(exact, P).vertex == vertex


def test_positive_transport_leaving_the_float_range_is_a_typed_error():
    # on G2 a coordinate of (1e-300, 1e300) rounds to 0.0 on the way to
    # chart 1, which raised CoordinateError, and is divided by on the way
    # to chart 3, which raised ZeroDivisionError, out of quake as well
    P = _pattern("G2")
    g0 = PositivePoint(P.base, (1e-300, 1e300))
    for chart in (1, 3):
        with pytest.raises(FloatRangeError, match=f"chart {chart} leaves"):
            positive_transport(g0, P, chart)
    with pytest.raises(FloatRangeError):
        cq.quake(P, g0, TropicalPoint(P.base, (-1, -1)))


@pytest.mark.parametrize("mutant", ["inequalities", "generators"])
def test_fan_suite_raises_on_a_cone_record_that_disagrees(mutant):
    # the suite tries only the cones of a sample's orthant; a record whose
    # generators and inequalities disagree is an error, not a cone that
    # a sample might skip
    P = cq.pattern_from_type("B3")
    cone, other = P.fan()[7], P.fan()[8]
    if mutant == "inequalities":
        cone.inequalities = other.inequalities
    else:
        cone.generators = (tuple(-c for c in cone.generators[0]),) \
            + cone.generators[1:]
    with pytest.raises(cq.InternalConsistencyError):
        checks.fan(P, random.Random(0))
