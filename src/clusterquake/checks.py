"""The invariant suites that `clusterquake verify` runs.

Each suite maps (pattern, rng), rng a random.Random, to a list of Check
results and prints nothing; a check's detail is the same whether it
passes or fails.  Sample counts and tolerances are the constants below.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import earthquake as eq
from . import intmat
from .errors import BoundaryError, FloatRangeError
from .horocycle import CentralCharge, conjugacy_residual, glue, \
    horocycle_flow
from .points import TOL, PositivePoint, TropicalPoint, in_closed_cone, \
    locate_cone

FAN_SAMPLES = 10_000
ROUND_TRIPS = 1000
ROUND_TRIP_TOL = 1e-9
DERIVATIVE_SAMPLES = 200
DERIVATIVE_TOL = 1e-6
LIMIT_L_TOL = 1e-2  # error of limit_L at t=1000
LIMIT_G_TOL = 1e-3  # error of limit_g at M=30
HOROCYCLE_SAMPLES = 300
CONJUGACY_TOL = 1e-10
GLUE_TOL = 1e-12


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def limit_L_rows(pattern, g0, t):
    """One row per cone and ray: limit_L's estimate, target and error."""
    rows = []
    for cone in pattern.fan():
        for k in range(pattern.n):
            estimate, target = eq.limit_L(pattern, g0, cone.vertex_id, k, t)
            err = max(abs(a - b) for a, b in zip(estimate, target))
            rows.append({"v": cone.vertex_id, "k": k,
                         "estimate": list(estimate),
                         "target": list(target), "err": err})
    return rows


def limit_g_rows(pattern, M):
    """One row per vertex: limit_g's matrix and target at log-size M."""
    try:
        g = PositivePoint(pattern.base, (math.exp(M),) * pattern.n)
    except OverflowError:
        raise FloatRangeError(f"exp(M) leaves the float range at M={M}") \
            from None
    rows = []
    for v in pattern.vertices:
        u_matrix, target = eq.limit_g(pattern, g, v.id)
        err = max(abs(a - b) for ra, rb in zip(u_matrix, target)
                  for a, b in zip(ra, rb))
        rows.append({"v": v.id, "u_matrix": [list(r) for r in u_matrix],
                     "target": [list(r) for r in target], "err": err})
    return rows


def _positive(pattern, rng, spread):
    """Base-chart point with log-coordinates uniform on [-spread, spread]."""
    return PositivePoint(pattern.base, tuple(
        math.exp(rng.uniform(-spread, spread)) for _ in range(pattern.n)))


def _tropical(pattern, rng, spread):
    """Base-chart tropical point, coordinates uniform on [-spread, spread]."""
    return TropicalPoint(pattern.base, tuple(
        rng.uniform(-spread, spread) for _ in range(pattern.n)))


def matrices(pattern, rng):
    worst = 0
    ident = intmat.identity(pattern.n)
    for v in pattern.vertices:
        # square integer matrices: a one-sided inverse is the inverse
        ok_dual = intmat.matmul(pattern.cone_matrix(v.id), v.Cdual) == ident
        ok_fugy, residual = pattern.fuGy_check(v.id)
        worst = max(worst, max(abs(x) for row in residual for x in row))
        for k in range(pattern.n):
            pattern.tropical_sign(v.id, k)  # raises if not sign-coherent
        if not (ok_dual and ok_fugy):
            return [Check("matrices", False, f"vertex {v.id}: "
                          f"duality={ok_dual} fugy={ok_fugy}")]
    return [Check("matrices", True, f"vertices={len(pattern)} "
                  f"duality+fugy+signs exact (max residual {worst})")]


def fan(pattern, rng):
    cones = pattern.fan()
    interior_overlaps = 0
    for _ in range(FAN_SAMPLES):
        L = _tropical(pattern, rng, 10)
        closed = strict = 0
        for cone in cones:
            if in_closed_cone(cone.inequalities, L.x):
                closed += 1
                strict += min(intmat.matvec(cone.inequalities, L.x)) > TOL
        if not closed:
            locate_cone(L, pattern)  # raises CompletenessError
        if strict > 1:
            interior_overlaps += 1
    return [Check("fan", not interior_overlaps,
                  f"cones={len(cones)} complete+disjoint on "
                  f"{FAN_SAMPLES} samples")]


def earthquake(pattern, rng):
    worst = 0.0
    for _ in range(ROUND_TRIPS):
        g0 = _positive(pattern, rng, 2)
        L = _tropical(pattern, rng, 8)
        g = eq.quake(pattern, g0, L).g
        back = eq.inverse_quake(pattern, g0, g)
        worst = max(worst, max(abs(a - float(b))
                               for a, b in zip(back.x, L.x)))
    return [Check("earthquake", worst <= ROUND_TRIP_TOL,
                  f"round-trip on {ROUND_TRIPS} samples, "
                  f"max residual {worst:.3e}")]


def derivatives(pattern, rng):
    worst = 0.0
    for _ in range(DERIVATIVE_SAMPLES):
        g = _positive(pattern, rng, 1)
        L = _tropical(pattern, rng, 5)
        analytic = eq.dquake(pattern, g, L).delta
        fd = eq.dquake(pattern, g, L, method="finite_difference").delta
        worst = max(worst, max(abs(a - b) for a, b in zip(analytic, fd)))
    return [Check("derivatives", worst <= DERIVATIVE_TOL,
                  f"analytic vs finite-difference on {DERIVATIVE_SAMPLES} "
                  f"samples, max gap {worst:.3e}")]


def limits(pattern, rng):
    g0 = PositivePoint(pattern.base, (1,) * pattern.n)
    e10, e100, e1000 = (max(r["err"] for r in limit_L_rows(pattern, g0, t))
                        for t in (10.0, 100.0, 1000.0))
    err30, err10 = (max(r["err"] for r in limit_g_rows(pattern, M))
                    for M in (30.0, 10.0))
    return [
        Check("limits.L", e1000 <= LIMIT_L_TOL and e10 >= e100 >= e1000,
              f"errs {e10:.2e} >= {e100:.2e} >= {e1000:.2e} <= 1e-2"),
        Check("limits.g", err30 <= LIMIT_G_TOL and err30 < err10,
              f"err(M=30)={err30:.2e} < err(M=10)={err10:.2e}"),
    ]


def horocycle(pattern, rng):
    worst = 0.0
    done = 0
    while done < HOROCYCLE_SAMPLES:
        g = _positive(pattern, rng, 1)
        L = _tropical(pattern, rng, 5)
        t = rng.uniform(0.1, 3.0)
        try:
            worst = max(worst, conjugacy_residual(pattern, g, L, t))
        except BoundaryError:
            continue
        done += 1
    glue_worst = 0.0
    for _ in range(HOROCYCLE_SAMPLES):
        k = rng.randrange(pattern.n)
        z = [complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
             for _ in range(pattern.n)]
        z[k] = complex(rng.choice([-1, 1]) * rng.uniform(0.1, 2), 0.0)
        t = rng.uniform(0.1, 3.0)
        Z = CentralCharge(pattern.base, tuple(z))
        lhs = horocycle_flow(glue(Z, pattern, k), t)
        rhs = glue(horocycle_flow(Z, t), pattern, k)
        back = glue(glue(Z, pattern, k), pattern, k)
        glue_worst = max(glue_worst,
                         max(abs(a - b) for a, b in zip(lhs.z, rhs.z)),
                         max(abs(a - b) for a, b in zip(back.z, Z.z)))
    return [Check("horocycle",
                  worst <= CONJUGACY_TOL and glue_worst <= GLUE_TOL,
                  f"conjugacy {worst:.3e} on {HOROCYCLE_SAMPLES} samples, "
                  f"glue/flow {glue_worst:.3e}")]


SUITES = {
    "matrices": matrices,
    "fan": fan,
    "earthquake": earthquake,
    "derivatives": derivatives,
    "limits": limits,
    "horocycle": horocycle,
}
