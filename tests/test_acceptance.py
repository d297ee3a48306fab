"""Acceptance gate: one test per headline property, at fixed tolerances.

Every test here either reproduces a frozen reference table exactly /
within its stated tolerance, or exercises a structural identity across
whole mutation classes.  Tolerances and sample counts are part of the
contract and must not be loosened.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import clusterquake as cq
from clusterquake import PositivePoint, TropicalPoint, intmat
from test_patterns import conjugate_by_diag


@lru_cache(maxsize=None)
def pattern(label):
    return cq.pattern_from_type(label)


def ones(P):
    return PositivePoint(P.base, (1,) * P.n)


# --------------------------------------------------------------------------
# 1. rank-2 tangent tables, <= 1e-6, under one second
# --------------------------------------------------------------------------

TANGENT_TABLES = {
    "A1xA1": [((1, 0), (1, 0)), ((0, 1), (0, 1)),
              ((-1, 0), (-1, 0)), ((0, -1), (0, -1))],
    "A2": [((1, 0), (1, 0)), ((0, 1), (0, 1)),
           ((-1, 0), (-1, Fraction(1, 2))),
           ((0, -1), (Fraction(-2, 3), Fraction(-2, 3))),
           ((1, -1), (Fraction(1, 2), -1))],
    "B2": [((1, 0), (1, 0)), ((0, 1), (0, 1)), ((-1, 0), (-1, 1)),
           ((0, -1), (Fraction(-4, 5), Fraction(-1, 5))),
           ((1, -2), (Fraction(-1, 3), Fraction(-4, 3))),
           ((1, -1), (Fraction(1, 2), -1))],
    "G2": [((1, 0), (1, 0)), ((0, 1), (0, 1)),
           ((-1, 0), (-1, Fraction(3, 2))),
           ((0, -1), (Fraction(-8, 9), Fraction(1, 3))),
           ((1, -3), (Fraction(-7, 5), Fraction(-3, 5))),
           ((1, -2), (Fraction(-1, 2), Fraction(-13, 14))),
           ((2, -3), (0, -2)),
           ((1, -1), (Fraction(1, 2), -1))],
}


def test_criterion_1_rank2_tangent_tables():
    start = time.perf_counter()
    for label, rows in TANGENT_TABLES.items():
        P = cq.pattern_from_type(label)
        g0 = PositivePoint(0, (1.0, 1.0))  # log X(g0) = (0, 0)
        for l, xi in rows:
            got = cq.dquake(P, g0, TropicalPoint(0, l)).delta
            err = max(abs(a - float(b)) for a, b in zip(got, xi))
            assert err <= 1e-6, (label, l, got, xi)
    assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------------------
# 2. the five rank-2 chart formulas and their thresholds, exact rationals
# --------------------------------------------------------------------------

A2_CHART_FORMULAS = [
    lambda X1, X2: (X1, X2),
    lambda X1, X2: (1 / X1, X1 * X2 / (X1 + 1)),
    lambda X1, X2: (X2 / (X1 * X2 + X1 + 1), (X1 + 1) / (X1 * X2)),
    lambda X1, X2: ((X1 * X2 + X1 + 1) / X2, 1 / (X1 * (X2 + 1))),
    lambda X1, X2: (1 / X2, X1 * (X2 + 1)),
]


def test_criterion_2_a2_region_formulas_exact():
    P = pattern("A2")
    chain = [0]
    for k in (0, 1, 0, 1):
        chain.append(P.mut_edges[(chain[-1], k)])

    rng = random.Random(20240817)
    for _ in range(1000):
        X1 = Fraction(rng.randint(1, 999), rng.randint(1, 999))
        X2 = Fraction(rng.randint(1, 999), rng.randint(1, 999))
        g = PositivePoint(0, (X1, X2))
        for vid, formula in zip(chain, A2_CHART_FORMULAS):
            assert cq.positive_transport(g, P, vid).X == formula(X1, X2)

    flat = []
    for vid in chain:
        flat.extend(cq.positive_transport(
            PositivePoint(0, (Fraction(1), Fraction(1))), P, vid).X)
    assert tuple(flat) == (1, 1, 1, Fraction(1, 2), Fraction(1, 3), 2,
                           3, Fraction(1, 2), 1, 2)
    # the reference sequence collapses the adjacent coincidence of 1s
    assert tuple(flat[:1] + flat[2:]) == (
        1, 1, Fraction(1, 2), Fraction(1, 3), 2, 3, Fraction(1, 2), 1, 2)


# --------------------------------------------------------------------------
# 3. exact matrix identities across six mutation classes, under 30 s
# --------------------------------------------------------------------------


def test_criterion_3_matrix_identities():
    start = time.perf_counter()
    for label in ["A2", "B2", "G2", "A3", "B3", "D4"]:
        P = pattern(label)
        opp = P.opposite()
        d = P.d
        for v in P.vertices:
            # tropical duality: transported basis = inverse opposite C
            dual = intmat.inverse_unimodular(
                opp.vertex(P.opposite_vertex(v.id)).C)
            assert dual == P.cone_matrix(v.id), (label, v.id)
            # C + eps0 * F equals the opposite-sign C, exactly
            ok, residual = P.fuGy_check(v.id)
            assert ok, (label, v.id, residual)
            # every c-vector has a strict sign
            for k in range(P.n):
                assert P.tropical_sign(v.id, k) in (-1, 1)
            # G-matrices are integral (construction already divides by d)
            assert all(isinstance(x, int) for row in v.G for x in row)
            gd = conjugate_by_diag(d, intmat.transpose(
                intmat.inverse_unimodular(v.C)))
            assert gd == v.G
    assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------------------
# 4. homeomorphism evidence: round trip, total cone cover, open-cone
#    disjointness
# --------------------------------------------------------------------------


def test_criterion_4_round_trip_and_cone_partition():
    rng = random.Random(41)
    for label in ["A2", "B2", "G2", "A3"]:
        P = pattern(label)
        for _ in range(1000):
            g0 = PositivePoint(0, tuple(math.exp(rng.uniform(-2, 2))
                                        for _ in range(P.n)))
            L = TropicalPoint(0, tuple(rng.uniform(-8, 8)
                                       for _ in range(P.n)))
            g = cq.quake(P, g0, L).g
            back = cq.inverse_quake(P, g0, g)
            assert max(abs(a - b) for a, b in zip(back.x, L.x)) <= 1e-9

        cones = P.fan()
        for _ in range(10_000):
            x = tuple(rng.uniform(-10, 10) for _ in range(P.n))
            cq.locate_cone(TropicalPoint(0, x), P)  # never raises
            open_hits = 0
            for cone in cones:
                lam = intmat.matvec(P.cone_matrix_inv(cone.vertex_id), x)
                if all(c > 1e-9 for c in lam):
                    open_hits += 1
            assert open_hits <= 1, (label, x)


# --------------------------------------------------------------------------
# 5. limit along a scaled tropical point, t -> infinity
# --------------------------------------------------------------------------


def test_criterion_5_limit_of_scaled_laminations():
    for label in ["A2", "B2", "G2"]:
        P = pattern(label)
        g0 = ones(P)
        errs = {}
        for t in (10.0, 100.0, 1000.0):
            worst = 0.0
            for cone in P.fan():
                for k in range(P.n):
                    est, tgt = cq.limit_L(P, g0, cone.vertex_id, k, t)
                    worst = max(worst, max(abs(a - b)
                                           for a, b in zip(est, tgt)))
            errs[t] = worst
        assert errs[1000.0] <= 1e-2, (label, errs)
        assert errs[10.0] >= errs[100.0] >= errs[1000.0], (label, errs)


# --------------------------------------------------------------------------
# 6. limit in the base point, g -> infinity
# --------------------------------------------------------------------------


def test_criterion_6_limit_of_shear_coordinates():
    for label in ["A2", "B2", "G2"]:
        P = pattern(label)

        def err(M):
            g = PositivePoint(0, (math.exp(M),) * P.n)
            worst = 0.0
            for v in P.vertices:
                u_matrix, target = cq.limit_g(P, g, v.id)
                worst = max(worst,
                            max(abs(a - b) for ra, rb in zip(u_matrix, target)
                                for a, b in zip(ra, rb)))
            return worst

        err30 = err(30.0)
        assert err30 <= 1e-3, (label, err30)
        assert err30 < err(10.0), label


# --------------------------------------------------------------------------
# 7. horocycle conjugacy and wall gluing
# --------------------------------------------------------------------------


def test_criterion_7_horocycle_conjugacy():
    rng = random.Random(77)
    for label in ["A1xA1", "A2", "B2", "G2", "A3", "B3", "C3"]:
        P = pattern(label)
        done = 0
        while done < 1000:
            g = PositivePoint(0, tuple(math.exp(rng.uniform(-1, 1))
                                       for _ in range(P.n)))
            L = TropicalPoint(0, tuple(rng.uniform(-5, 5)
                                       for _ in range(P.n)))
            t = rng.uniform(0.1, 3.0)
            try:
                residual = cq.conjugacy_residual(P, g, L, t)
            except cq.BoundaryError:
                continue
            assert residual <= 1e-10, (label, g.X, L.x, t, residual)
            done += 1

    P = pattern("A2")
    for _ in range(1000):
        k = rng.randrange(2)
        z = [complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
             for _ in range(2)]
        z[k] = complex(rng.choice([-1, 1]) * rng.uniform(0.1, 2), 0.0)
        Z = cq.CentralCharge(0, tuple(z))
        t = rng.uniform(0.1, 3.0)
        lhs = cq.horocycle_flow(cq.glue(Z, P, k), t)
        rhs = cq.glue(cq.horocycle_flow(Z, t), P, k)
        assert lhs.chart == rhs.chart
        assert max(abs(a - b) for a, b in zip(lhs.z, rhs.z)) <= 1e-12


# --------------------------------------------------------------------------
# 8. non-positivity of F-degree times C products, both signs
# --------------------------------------------------------------------------


def test_criterion_8_fc_products_nonpositive():
    for label in ["A2", "B2", "G2", "A3", "B3", "C3", "D4", "F4"]:
        P = pattern(label)
        for v in P.vertices:
            for sign in (1, -1):
                product, ok = P.fc_product(v.id, sign)
                assert ok, (label, v.id, sign, product)


# --------------------------------------------------------------------------
# 9. cone counts (with an independent polygon-triangulation oracle for
#    the rank-3 simply-laced count) and fan completeness
# --------------------------------------------------------------------------


def _hexagon_triangulations():
    """Number of triangulations of a convex hexagon, counted directly as
    maximal pairwise non-crossing diagonal sets."""
    corners = range(6)
    diagonals = [(a, b) for a in corners for b in corners
                 if a < b and (b - a) % 6 not in (1, 5)]

    def crossing(d1, d2):
        (a, b), (c, d) = d1, d2
        def between(lo, hi, x):
            return (x - lo) % 6 < (hi - lo) % 6 and x != lo and x != hi
        return between(a, b, c) != between(a, b, d) \
            and not set(d1) & set(d2)

    count = 0
    for combo in itertools.combinations(diagonals, 3):
        if not any(crossing(p, q) for p, q in itertools.combinations(combo, 2)):
            count += 1
    return count


def test_criterion_9_cone_counts_and_completeness():
    oracle = _hexagon_triangulations()
    assert oracle == 14
    expected = {"A2": 5, "B2": 6, "G2": 8, "A3": oracle}
    rng = random.Random(99)
    for label, count in expected.items():
        P = pattern(label)
        assert len(P.fan()) == count, label
        for _ in range(10_000):
            x = tuple(rng.uniform(-12, 12) for _ in range(P.n))
            cq.locate_cone(TropicalPoint(0, x), P)  # total cover
