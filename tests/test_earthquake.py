import math
import operator
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import clusterquake as cq
from clusterquake import _steps, checks, earthquake as eq
from clusterquake import (
    FloatRangeError,
    HomeomorphismError,
    PositivePoint,
    PreconditionError,
    TropicalPoint,
    cluster_reduce,
    dquake,
    in_plus_region,
    inverse_quake,
    limit_L,
    limit_g,
    positive_transport,
    quake,
    quake_log,
    quake_multiplier,
    tropical_transport,
    u_coords,
)
from clusterquake.patterns import _columns
from clusterquake.points import TOL

ENUMERATE_TYPES = ["A1xA1", "A2", "B2", "G2", "A3", "B3", "C3",
                   "A4", "B4", "C4", "D4", "F4"]


@lru_cache(maxsize=None)
def pattern(label):
    return cq.pattern_from_type(label)


def ones(P):
    return PositivePoint(P.base, (1,) * P.n)


def test_quake_at_zero_is_identity():
    P = pattern("A2")
    g0 = PositivePoint(0, (1.5, 0.25))
    result = quake(P, g0, TropicalPoint(0, (0, 0)))
    assert result.g.X == (1.5, 0.25)
    assert result.cone_vertex == 0


def test_quake_on_base_cone_scales_componentwise():
    P = pattern("B2")
    g0 = PositivePoint(0, (2.0, 0.5))
    L = TropicalPoint(0, (1.0, 3.0))
    got = quake(P, g0, L).g.X
    want = (2.0 * math.e, 0.5 * math.e ** 3)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


@pytest.mark.parametrize("L", [(1e3, -700.0, 300.0), (1e6, -7e5, 3e5)])
def test_quake_past_float_range_is_a_typed_error(L):
    # the image's X_3 is about e^1000: once returned as inf, once as a raw
    # OverflowError
    P = pattern("A3")
    with pytest.raises(FloatRangeError, match="quake_log"):
        quake(P, ones(P), TropicalPoint(0, L))


def test_quake_log_past_float_range_is_a_typed_error():
    # the image's second log-coordinate passes the float maximum; it was
    # returned as inf
    P = pattern("B2")
    with pytest.raises(FloatRangeError, match="log-coordinates"):
        quake_log(P, (0.0, 0.0), TropicalPoint(0, (-1.7e308, 1.7e308)))


def test_quake_multiplier_exact_frozen():
    # chart v1 of A2 maps (X1, X2) to (1/X1, X1 X2 / (X1 + 1)); rescaling
    # there by (2, 3) from the all-ones point lands on (1/2, 9/2)
    P = pattern("A2")
    v1 = P.mut_edges[(0, 0)]
    out = quake_multiplier(P, PositivePoint(0, (Fraction(1), Fraction(1))),
                           v1, (Fraction(2), Fraction(3)))
    assert out.X == (Fraction(1, 2), Fraction(9, 2))


def test_quake_multiplier_takes_one_multiplier_per_direction():
    # zip used to drop the third multiplier on rank 2
    P = pattern("A2")
    with pytest.raises(PreconditionError, match="point has 3 coordinates, "
                       "pattern has rank 2"):
        quake_multiplier(P, PositivePoint(0, (1.0, 1.0)), 1, (2.0, 3.0, 4.0))


@pytest.mark.parametrize("m", [(-2.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                               (0, 1), (-10 ** 400, 1)], ids=repr)
def test_quake_multiplier_refuses_a_multiplier_not_finite_and_positive(m):
    # only a product of finite positive numbers is said to leave the
    # float range
    with pytest.raises(cq.CoordinateError, match="positive"):
        quake_multiplier(pattern("A2"), PositivePoint(0, (1.0, 1.0)), 0, m)


def test_quake_result_independent_of_wall_chart():
    # a tropical point on a shared cone face gives the same image through
    # either adjacent chart
    P = pattern("A2")
    g0 = PositivePoint(0, (1.3, 0.8))
    L = TropicalPoint(0, (0.0, 2.0))  # wall between cones 0 and 1
    loc = cq.locate_cone(L, P)
    assert any(loc.boundary)
    baseline = quake(P, g0, L).g.X
    for vid in (0, 1):
        xv = cq.tropical_transport(L, P, vid).x
        other = quake_multiplier(P, g0, vid,
                                 tuple(math.exp(float(c)) for c in xv))
        assert max(abs(a - b) for a, b in zip(baseline, other.X)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3),
       st.tuples(st.floats(0.2, 4), st.floats(0.2, 4)),
       st.tuples(st.floats(-6, 6), st.floats(-6, 6)))
def test_round_trip_property(which, g0x, Lx):
    P = pattern(["A2", "B2", "G2", "A1xA1"][which])
    g0 = PositivePoint(0, g0x)
    L = TropicalPoint(0, Lx)
    g = quake(P, g0, L).g
    back = inverse_quake(P, g0, g)
    assert max(abs(a - b) for a, b in zip(back.x, L.x)) < 1e-9


def test_inverse_requires_complete_fan():
    # the one-vertex partial pattern of a build stopped by its cap
    with pytest.raises(cq.PatternBudgetError) as err:
        cq.pattern_from_type("A2", cap=1)
    stub = err.value.partial
    g0 = PositivePoint(0, (1.0, 1.0))
    with pytest.raises(HomeomorphismError):
        inverse_quake(stub, g0, PositivePoint(0, (0.5, 0.5)))


def test_dquake_is_identity_on_base_cone():
    P = pattern("G2")
    g = PositivePoint(0, (1.7, 0.6))
    L = TropicalPoint(0, (2.0, 5.0))
    assert dquake(P, g, L).delta == (2.0, 5.0)


def test_dquake_frozen_value():
    # tangent of the earthquake along (-1, 0) at the all-ones point
    P = pattern("A2")
    xi = dquake(P, ones(P), TropicalPoint(0, (-1, 0))).delta
    assert max(abs(a - b) for a, b in zip(xi, (-1.0, 0.5))) < 1e-12


def test_dquake_methods_agree():
    P = pattern("B2")
    g = PositivePoint(0, (1.2, 0.9))
    for L in [(-1.0, -2.0), (3.0, -1.0), (-0.5, 4.0)]:
        a = dquake(P, g, TropicalPoint(0, L)).delta
        b = dquake(P, g, TropicalPoint(0, L),
                   method="finite_difference").delta
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-6
    with pytest.raises(ValueError):
        dquake(P, g, TropicalPoint(0, (1.0, 1.0)), method="nope")


def test_dquake_unknown_method_raises_precondition_error():
    P = pattern("A2")
    with pytest.raises(PreconditionError, match="unknown dquake method 'x'"):
        dquake(P, PositivePoint(0, (1.0, 1.0)), TropicalPoint(0, (1.0, 1.0)),
               method="x")


def test_dquake_in_a_relabeled_chart():
    # the cone charts are reached by mutations only, so the walk from the
    # cone to g's chart crosses a relabel edge only when g's chart does
    P = pattern("D4")
    chart, parent, images = next(
        (vid, parent, edge[1]) for vid in range(1, len(P))
        for parent, edge in P.route(P.base, vid)[-1:] if edge[0] == "perm")
    X = (1.3, 0.7, 1.1, 0.9)
    # the same point seen from the chart before the relabel edge, whose
    # coordinate i is coordinate images[i] here (a transposition)
    g = PositivePoint(chart, X)
    g_parent = PositivePoint(parent, tuple(X[j] for j in images))
    crossed = 0
    for L in [(-1.0, 2.0, -0.5, 1.5), (0.5, -2.0, 1.0, -1.0),
              (-3.0, -1.0, -2.0, 0.5)]:
        L = TropicalPoint(0, L)
        v = cq.locate_cone(L, P).vertex
        crossed += any(edge[0] == "perm" for _, edge in P.route(v, chart))
        a = dquake(P, g, L).delta
        b = dquake(P, g, L, method="finite_difference").delta
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-6
        c = dquake(P, g_parent, L).delta
        assert max(abs(a[i] - c[j]) for i, j in enumerate(images)) < 1e-12
    assert crossed == 3


def test_dquake_linear_within_cone():
    P = pattern("A2")
    g = PositivePoint(0, (0.7, 1.4))
    L1, L2 = (-2.0, 1.0), (-1.0, 3.0)  # both interior to cone 1
    combo = tuple(0.5 * a + 2 * b for a, b in zip(L1, L2))
    xi1 = dquake(P, g, TropicalPoint(0, L1)).delta
    xi2 = dquake(P, g, TropicalPoint(0, L2)).delta
    xic = dquake(P, g, TropicalPoint(0, combo)).delta
    want = tuple(0.5 * a + 2 * b for a, b in zip(xi1, xi2))
    assert max(abs(a - b) for a, b in zip(xic, want)) < 1e-12


def test_u_coords_on_base_cone():
    P = pattern("A2")
    g = PositivePoint(0, (2.0, 3.0))
    u = u_coords(P, g, TropicalPoint(0, (1.5, 0.5)))
    assert max(abs(a - b) for a, b in zip(u, (1.5, 0.5))) < 1e-12


def test_limit_L_converges():
    P = pattern("A2")
    g0 = ones(P)
    errs = []
    for t in (10.0, 100.0):
        worst = 0.0
        for cone in P.fan():
            for k in range(P.n):
                est, tgt = limit_L(P, g0, cone.vertex_id, k, t)
                worst = max(worst, max(abs(a - b)
                                       for a, b in zip(est, tgt)))
        errs.append(worst)
    assert errs[1] < errs[0]
    assert errs[1] < 2e-2
    with pytest.raises(ValueError):
        limit_L(P, g0, 0, 0, 0)


def test_limit_L_target_is_integral():
    P = pattern("B2")
    for cone in P.fan():
        for k in range(P.n):
            _, tgt = limit_L(P, ones(P), cone.vertex_id, k, 10.0)
            assert all(isinstance(c, int) for c in tgt)


def test_limit_g_converges():
    P = pattern("G2")
    def err(M):
        g = PositivePoint(0, (math.exp(M),) * P.n)
        worst = 0.0
        for v in P.vertices:
            u, tgt = limit_g(P, g, v.id)
            worst = max(worst, max(abs(a - b) for ra, rb in zip(u, tgt)
                                   for a, b in zip(ra, rb)))
        return worst
    assert err(20.0) < err(8.0)
    assert err(20.0) < 1e-6


def per_cone_limit_L_rows(P, g0, t):
    """limit_L_rows computed per cone, the oracle of the ray table:
    limit_L at every cone and ray."""
    rows = []
    for cone in P.fan():
        for k in range(P.n):
            estimate, target = limit_L(P, g0, cone.vertex_id, k, t)
            rows.append({"v": cone.vertex_id, "k": k,
                         "estimate": list(estimate), "target": list(target),
                         "err": max(abs(a - b)
                                    for a, b in zip(estimate, target))})
    return rows


def limit_g_row(vid, u_matrix, target):
    return {"v": vid, "u_matrix": [list(r) for r in u_matrix],
            "target": [list(r) for r in target],
            "err": max(abs(a - b) for ra, rb in zip(u_matrix, target)
                       for a, b in zip(ra, rb))}


def exp_point(P, M):
    return PositivePoint(P.base, (math.exp(M),) * P.n)


def per_cone_limit_g_rows(P, M):
    """limit_g_rows computed per cone, the oracle of the ray table:
    limit_g at each cone's first vertex, and a member labeled p given its
    cone's matrix and target with column k taken from column p[k]."""
    rows = [None] * len(P)
    for cone in P.fan():
        u_matrix, target = limit_g(P, exp_point(P, M), cone.vertex_id)
        for p, vid in cone.ids.items():
            rows[vid] = limit_g_row(vid, _columns(u_matrix, p),
                                    _columns(target, p))
    return rows


def per_vertex_limit_g_rows(P, M):
    """limit_g_rows with limit_g run afresh at every vertex."""
    return [limit_g_row(vid, *limit_g(P, exp_point(P, M), vid))
            for vid in range(len(P))]


@pytest.mark.parametrize("label", ENUMERATE_TYPES + ["B5", "D5"])
def test_limit_rows_read_off_the_ray_table_equal_the_per_cone_rows(label):
    # a limit depends on the ray alone, so reading it once per ray gives
    # every cone's row, bit for bit
    P = pattern(label)
    for t in (10.0, 1000.0):
        assert (checks.limit_L_rows(P, ones(P), t)
                == per_cone_limit_L_rows(P, ones(P), t))
    for M in (10.0, 30.0):
        assert checks.limit_g_rows(P, M) == per_cone_limit_g_rows(P, M)


@pytest.mark.parametrize("label", ENUMERATE_TYPES + ["B5"])
def test_limits_g_check_reads_one_cone_per_cluster(label, monkeypatch):
    # the limits suite runs limit_L once per distinct ray for each t and
    # u_coords once per distinct ray for each M, as limit_g_rows does
    # (B5: 30 rays against 1,260 cone-rays), and its checks are those of
    # the per-cone rows
    P = pattern(label)
    rays = {ray for cone in P.fan() for ray in cone.generators}
    calls = {"limit_L": [], "u_coords": []}
    for name in calls:
        def spy(*args, _name=name, _f=getattr(eq, name)):
            calls[_name].append(args)
            return _f(*args)
        monkeypatch.setattr(eq, name, spy)
    checks.limit_g_rows(P, 30.0)
    assert len(calls["u_coords"]) == len(rays)
    calls["u_coords"].clear()
    got = checks.limits(P, random.Random(0))
    monkeypatch.undo()
    for t in (10.0, 100.0, 1000.0):
        assert sorted(P.ray(v, k) for _, _, v, k, t_ in calls["limit_L"]
                      if t_ == t) == sorted(rays)
    for M in (30.0, 10.0):
        assert sorted(L.x for _, g, L in calls["u_coords"]
                      if g.X[0] == math.exp(M)) == sorted(rays)
    assert len(calls["limit_L"]) == 3 * len(rays)
    assert len(calls["u_coords"]) == 2 * len(rays)
    e10, e100, e1000 = (max(r["err"] for r in per_cone_limit_L_rows(
        P, ones(P), t)) for t in (10.0, 100.0, 1000.0))
    err30, err10 = (max(r["err"] for r in per_cone_limit_g_rows(P, M))
                    for M in (30.0, 10.0))
    assert got == [
        checks.Check("limits.L", e1000 <= checks.LIMIT_L_TOL
                     and e10 >= e100 >= e1000,
                     f"errs {e10:.2e} >= {e100:.2e} >= {e1000:.2e} <= 1e-2"),
        checks.Check("limits.g", err30 <= checks.LIMIT_G_TOL
                     and err30 < err10,
                     f"err(M=30)={err30:.2e} < err(M=10)={err10:.2e}")]


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_limit_g_rows_per_cone_equal_the_per_vertex_rows(label):
    # a member's rays are its cone's, so its row is its cone's with the
    # columns taken by its label, bit for bit
    P = pattern(label)
    assert checks.limit_g_rows(P, 30.0) == per_vertex_limit_g_rows(P, 30.0)


def test_in_plus_region():
    P = pattern("A2")
    g0 = PositivePoint(0, (1.0, 1.0))
    result = quake(P, g0, TropicalPoint(0, (-2.0, -1.0)))
    assert in_plus_region(P, result.cone_vertex, g0, result.g)
    # the base point sits on the boundary of every plus-region
    for v in P.vertices:
        assert in_plus_region(P, v.id, g0, g0)


def test_cluster_reduce_zero_residual():
    P = pattern("A3")
    g0 = PositivePoint(0, (1.5, 0.5, 2.0))
    L = TropicalPoint(0, (-3.0, 2.5, 1.0))  # nonnegative off J={0}
    assert cluster_reduce(P, 0, [0], g0, L) <= 1e-12
    L2 = TropicalPoint(0, (-3.0, -2.5, 1.0))
    assert cluster_reduce(P, 0, [0, 1], g0, L2) <= 1e-12


def test_cluster_reduce_away_from_base(monkeypatch):
    # the reduction reads P's own exchange graph from v0: the only
    # enumeration is the rank-|J| one of the restricted seed
    ranks = []

    def counted(eps, *args, **kwargs):
        ranks.append(eps.n)
        return cq.enumerate_pattern(eps, *args, **kwargs)

    monkeypatch.setattr(cq.earthquake, "enumerate_pattern", counted)
    for label, k, J, g0, L in [
        ("A3", 2, [0, 1], (1.5, 0.7, 2.0), (2.0, -1.0, 3.0)),
        ("B3", 1, [0, 1], (1.5, 0.7, 2.0), (-2.0, 1.0, 4.0)),
        ("B3", 0, [1, 2], (0.8, 1.3, 2.5), (3.0, -1.5, 0.5)),
        ("D4", 3, [1, 2, 3], (1.2, 0.6, 1.9, 1.1), (2.0, -1.0, 1.5, -2.5)),
        ("D4", 1, [0, 2], (1.5, 0.7, 2.0, 0.9), (-1.0, 2.0, -0.5, 3.0)),
    ]:
        P = pattern(label)
        v0 = P.mut_edges[(0, k)]
        ranks.clear()
        residual = cluster_reduce(P, v0, J, PositivePoint(v0, g0),
                                  TropicalPoint(v0, L))
        assert residual <= 1e-12, (label, residual)
        assert ranks == [len(J)], (label, ranks)


def test_cluster_reduce_preconditions():
    P = pattern("A3")
    g0 = PositivePoint(0, (1.0, 1.0, 1.0))
    L = TropicalPoint(0, (1.0, 1.0, 1.0))
    with pytest.raises(PreconditionError):
        cluster_reduce(P, 0, [], g0, L)
    with pytest.raises(PreconditionError):
        cluster_reduce(P, 0, [5], g0, L)
    outside = TropicalPoint(0, (1.0, -4.0, -2.0))
    with pytest.raises(PreconditionError):
        cluster_reduce(P, 0, [0], g0, outside)


def inverse_scan_oracle(P, g0, g):
    """The fan-order scan that inverse_quake's walk over the landings
    replaced: g and g0 carried to every cone representative by their own
    walks, and the first cone whose log ratios are all >= -TOL gives L."""
    for cone in P.fan():
        v = cone.vertex_id
        gv, g0v = positive_transport(g, P, v), positive_transport(g0, P, v)
        x = tuple(math.log(float(a) / float(b)) for a, b in zip(gv.X, g0v.X))
        if all(c >= -TOL for c in x):
            return tropical_transport(TropicalPoint(v, x), P, P.base)
    raise HomeomorphismError("no chart")


def inverse_cases(P, rng, count):
    for _ in range(count):
        g0 = PositivePoint(0, tuple(math.exp(rng.uniform(-2, 2))
                                    for _ in range(P.n)))
        L = TropicalPoint(0, tuple(rng.uniform(-5, 5) for _ in range(P.n)))
        yield g0, quake(P, g0, L).g


@pytest.mark.parametrize("label", ENUMERATE_TYPES + ["B5", "D5"])
def test_inverse_tree_pass_is_bit_identical_from_the_base(label):
    # from the base chart both take the same mutations in the same order
    P = pattern(label)
    rng = random.Random(label)
    for g0, g in inverse_cases(P, rng, 25):
        assert inverse_quake(P, g0, g) == inverse_scan_oracle(P, g0, g)
    g0 = PositivePoint(0, tuple(Fraction(i + 2, 3) for i in range(P.n)))
    g = quake_multiplier(P, g0, len(P) - 1, (Fraction(1, 2),) * P.n)
    assert inverse_quake(P, g0, g) == inverse_scan_oracle(P, g0, g)


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_inverse_from_other_charts_stays_within_rounding(label):
    # the walk from another chart now runs through the base, so the
    # floats may round differently: within 1e-14 of max(1, |L|)
    P = pattern(label)
    rng = random.Random(label)
    for g0, g in inverse_cases(P, rng, 25):
        g0 = positive_transport(g0, P, rng.randrange(len(P)))
        g = positive_transport(g, P, rng.randrange(len(P)))
        got, want = inverse_quake(P, g0, g), inverse_scan_oracle(P, g0, g)
        assert got.chart == want.chart
        bound = 1e-14 * max(1.0, max(map(abs, want.x)))
        assert max(abs(a - b) for a, b in zip(got.x, want.x)) <= bound


@pytest.mark.parametrize("label, g, why", [
    ("A2", (1.0, 1e-308), "beyond"),
    ("G2", (1e-300, 1e300), "below"),
    ("B3", (1e-300, 1.0, 1.0), "below"),
    ("F4", (1e-300, 1.0, 1.0, 1.0), "below"),
])
def test_inverse_past_float_range_in_a_chart_is_a_typed_error(label, g, why):
    # g is a float point, but a chart on the tree path to the image's
    # cone holds a coordinate that overflows or rounds to 0.0
    P = pattern(label)
    with pytest.raises(FloatRangeError,
                       match=f"g or g0 is {why} the float range"):
        inverse_quake(P, ones(P), PositivePoint(0, g))


@pytest.mark.parametrize("label, g", [
    ("G2", (1e-300, 1.0)),
    ("G2", (1e-300, 1e-300)),
])
def test_inverse_at_the_edge_of_the_float_range_round_trips(label, g):
    # the fan-order scan passed charts beyond the float range on its way
    # to these images' cones; the walk's tree path stays inside it
    P = pattern(label)
    L = inverse_quake(P, ones(P), PositivePoint(0, g))
    log_g, _ = quake_log(P, (0.0,) * P.n, L)
    assert max(abs(a - math.log(b)) for a, b in zip(log_g, g)) <= 1e-12


def face_cases(P, rng, count):
    """(g0, g) with g the image of a point on a face of a cone: an
    integer combination of the cone's generators with a zero
    coefficient, scaled by 10^[-3, 2].  Images beyond the float range
    are left out."""
    for _ in range(count):
        cone = rng.choice(P.fan())
        coef = [rng.randint(0, 3) for _ in range(P.n)]
        coef[rng.randrange(P.n)] = 0
        s = 10 ** rng.uniform(-3, 2)
        L = TropicalPoint(0, tuple(
            s * sum(map(operator.mul, coef, row))
            for row in zip(*cone.generators)))
        g0 = PositivePoint(0, tuple(math.exp(rng.uniform(-2, 2))
                                    for _ in range(P.n)))
        try:
            g = quake(P, g0, L).g
        except FloatRangeError:
            continue
        yield g0, g


def assert_within_rounding(got, want, slack=0.0):
    bound = 1e-14 * max(1.0, max(map(abs, want.x))) + slack
    assert got.chart == want.chart
    assert max(abs(a - b) for a, b in zip(got.x, want.x)) <= bound


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_inverse_on_faces_stays_within_rounding_of_the_scan(label):
    # on a wall more than one cone takes the point: the walk keeps the
    # smallest fan position among them, as the scan did
    P = pattern(label)
    rng = random.Random(label)
    compared = 0
    for g0, g in face_cases(P, rng, 60):
        try:
            want = inverse_scan_oracle(P, g0, g)
        except FloatRangeError:
            continue
        assert_within_rounding(inverse_quake(P, g0, g), want)
        compared += 1
    assert compared >= 50


@pytest.mark.parametrize("label, g0, g", [
    # on the wall x_0 = 0 of the scan's cone, whose neighbour across it
    # is reached by a tree path beyond the float range
    ("B2", (1e108, 1e108), (1e108, 1e54)),
    # 2e-10 from two walls: the cones across them take the point within
    # TOL and give an L 4e-10 away from the scan's
    ("B3", (1.0, 1e-10, 1.0), (1.0, 1e-20, 1.0)),
])
def test_inverse_near_a_wall_keeps_the_scans_cone(label, g0, g):
    P = pattern(label)
    g0, g = PositivePoint(0, g0), PositivePoint(0, g)
    assert inverse_quake(P, g0, g) == inverse_scan_oracle(P, g0, g)


EXTREME_TYPES = ["A2", "B2", "G2", "A3", "B3", "C3", "D4"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EXTREME_TYPES), st.floats(0, 300),
       st.lists(st.floats(-1, 1), min_size=8, max_size=8))
def test_inverse_returns_wherever_the_scan_does(label, scale, exponents):
    # coordinates 10^-scale to 10^scale, up to 10^+-300: wherever the
    # scan reaches a chart that takes the image, the walk does as well,
    # and on or near a wall it keeps the scan's cone
    P = pattern(label)
    g0, g = (PositivePoint(0, tuple(10.0 ** (scale * e) for e in part))
             for part in (exponents[:P.n], exponents[4:4 + P.n]))
    try:
        want = inverse_scan_oracle(P, g0, g)
    except (FloatRangeError, ValueError, cq.CoordinateError):
        return  # a chart, or a ratio, of the scan leaves the float range
    # within a few TOL of the origin nearly every cone takes the point,
    # and the cones that do need not meet at walls the walk crosses:
    # there the two answers may differ by TOL-sized amounts
    near_origin = max(map(abs, want.x)) <= 10 * TOL
    assert_within_rounding(inverse_quake(P, g0, g), want,
                           10 * TOL if near_origin else 0.0)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_inverse_on_partial_patterns_is_the_scan_or_a_typed_error(label):
    # a build stopped by its cap keeps the clusters reached so far; the
    # walk returns the scan's L over that partial fan, or
    # HomeomorphismError where it would leave it
    full = pattern(label)
    rng = random.Random(label)
    cases = list(inverse_cases(full, rng, 20))
    for cap in range(1, len(full)):
        with pytest.raises(cq.PatternBudgetError) as err:
            cq.pattern_from_type(label, cap=cap)
        P = err.value.partial
        for g0, g in cases:
            try:
                got = inverse_quake(P, g0, g)
            except HomeomorphismError:
                continue
            assert got == inverse_scan_oracle(P, g0, g), (cap, g0, g)


def test_inverse_walk_on_a_cycle_of_landings_stops_at_the_step_bound(
        monkeypatch):
    # the cones that share the base's canonical exchange matrix, their
    # landings bent into a cycle with one relabeling: from g0 = 1 and
    # g = (1, e^-2, 1, 1) the centre's log ratio keeps the minimum and
    # grows without end, so only the step bound stops the walk
    P = cq.pattern_from_type("D4")
    fan = P.fan()
    cycle = [c for c, cone in enumerate(fan)
             if cone.eps.entries == fan[0].eps.entries]
    assert len(cycle) > 1
    # read before the landings are bent: it numbers the pattern
    stop = fan[cycle[len(fan) % len(cycle)]].vertex_id
    for c, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        fan[c].landings[:] = [(nxt, (2, 0, 3, 1))] * P.n
    steps, log_mutation = [], _steps.log_mutation

    def counted(u, eps, k):
        steps.append(k)
        return log_mutation(u, eps, k)

    monkeypatch.setattr(_steps, "log_mutation", counted)
    with pytest.raises(HomeomorphismError,
                       match=f"stopped at cone {stop} after {len(fan)} "):
        inverse_quake(P, ones(P), PositivePoint(0, (1, math.exp(-2), 1, 1)))
    assert len(steps) == 2 * len(fan)
