import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import clusterquake as cq
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


def test_dquake_in_a_relabeled_chart():
    # the cone charts are reached by mutations only, so the walk from the
    # cone to g's chart crosses a relabel edge only when g's chart does
    P = pattern("D4")
    chart = next(v.id for v in P.vertices
                 if v.path and v.path[-1][0] == "perm")
    parent = P.vertex_sequence(chart)[-2]
    images = P.vertex(chart).path[-1][1]
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


def test_in_plus_region():
    P = pattern("A2")
    g0 = PositivePoint(0, (1.0, 1.0))
    result = quake(P, g0, TropicalPoint(0, (-2.0, -1.0)))
    assert in_plus_region(P, result.cone_vertex, g0, result.g)
    # the base point sits on the boundary of every plus-region
    for v in P.vertices:
        assert in_plus_region(P, v.id, g0, g0)
        assert not in_plus_region(P, v.id, g0, g0, margin=1e-6)


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
    """The scan inverse_quake replaced: g and g0 carried to every cone
    representative by their own routes."""
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


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
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
    # the route from another chart now runs through the base, so the
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
    ("G2", (1e-300, 1.0), "below"),
    ("B3", (1e-300, 1.0, 1.0), "below"),
    ("F4", (1e-300, 1.0, 1.0, 1.0), "below"),
])
def test_inverse_past_float_range_in_a_chart_is_a_typed_error(label, g, why):
    # g is a float point, but one of the charts tried holds a coordinate
    # that overflows or rounds to 0.0
    P = pattern(label)
    with pytest.raises(FloatRangeError,
                       match=f"g or g0 is {why} the float range"):
        inverse_quake(P, ones(P), PositivePoint(0, g))
