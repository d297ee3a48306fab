"""Points of the cluster X-manifold and its tropicalization.

A point is pinned to a chart (a pattern vertex) and carries the
coordinate vector seen there.  Transport walks the pattern edge by edge;
arithmetic is whatever the inputs are made of, so Fraction coordinates
stay exact end to end and floats take the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import gt, mul
from typing import NamedTuple

from . import _steps, intmat
from .errors import CompletenessError, CoordinateError, FloatRangeError, \
    PreconditionError
from .patterns import ExchangePattern

# Absolute tolerance of every cone-membership and wall test: a coordinate
# >= -TOL counts as non-negative, one with |c| <= TOL as on the wall.
TOL = 1e-9


def _finite(v):
    # ints and Fractions are always finite; math.isfinite would overflow
    # converting a huge one to float
    return not isinstance(v, float) or math.isfinite(v)


def _floats(values, name):
    """values as floats; an int or Fraction beyond the float range raises
    FloatRangeError naming the point."""
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise FloatRangeError(f"{name} is beyond the float range") from None


def _logs(values, name):
    """Logarithms of positive coordinates, as floats; a value beyond the
    float range, or one so small that it rounds to 0.0, raises
    FloatRangeError naming the point."""
    floats = _floats(values, name)
    if 0.0 in floats:
        raise FloatRangeError(f"{name} is below the float range")
    return tuple(map(math.log, floats))


@dataclass(frozen=True)
class TropicalPoint:
    chart: int
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        if not all(map(_finite, self.x)):
            raise CoordinateError(
                f"tropical coordinates must be finite, got {self.x}")


@dataclass(frozen=True)
class PositivePoint:
    chart: int
    X: tuple

    def __post_init__(self):
        object.__setattr__(self, "X", tuple(self.X))
        if not all(v > 0 and _finite(v) for v in self.X):
            raise CoordinateError("positive points need finite, strictly "
                                  f"positive coordinates, got {self.X}")


class LocatedCone(NamedTuple):
    vertex: int
    boundary: tuple  # per-coordinate "on the boundary" flags
    x: tuple  # the point's coordinates in the chart of vertex


def _transport(start, coords, P, target, step):
    """The point of start's type at chart target whose coordinates are
    coords, start's, walked there by step; FloatRangeError when a float
    coordinate leaves the float range on the way: the constructor rejects
    one at inf, nan or 0, and a float power or division raises."""
    try:
        return type(start)(target, P.walk(coords, start.chart, target, step))
    except (CoordinateError, OverflowError, ZeroDivisionError):
        raise FloatRangeError(f"the transport of {start} to chart {target} "
                              "leaves the float range") from None


def tropical_transport(L: TropicalPoint, P: ExchangePattern,
                       target: int) -> TropicalPoint:
    """Piecewise-linear transport of tropical coordinates to another chart;
    FloatRangeError when a coordinate leaves the float range on the way."""
    return _transport(L, L.x, P, target, _steps.trop_mutation)


def positive_transport(g: PositivePoint, P: ExchangePattern,
                       target: int) -> PositivePoint:
    """Positive-real transport (exact when coordinates are Fractions);
    FloatRangeError when a coordinate leaves the float range on the way,
    above or below."""
    return _transport(g, g.X, P, target, _steps.pos_mutation)


def log_transport(logX, P: ExchangePattern, src: int, target: int):
    """positive_transport conjugated by log, overflow-safe (floats)."""
    return P.walk(tuple(map(float, logX)), src, target, _steps.log_mutation)


def scale(L: TropicalPoint, t) -> TropicalPoint:
    """The R_{>0}-action on tropical points (commutes with transport)."""
    if not t > 0:
        raise PreconditionError("scaling factor must be positive")
    return TropicalPoint(L.chart, tuple(v * t for v in L.x))


def in_closed_cone(inequalities, x0):
    """Whether every row r of a cone's inequalities has r.x0 >= -TOL.

    Rows are tried in order and the test stops at the first that fails;
    each sum runs left to right, as intmat.matvec takes it."""
    for row in inequalities:
        if not sum(map(mul, row, x0)) >= -TOL:
            return False
    return True


# TOL, rounded up far enough that reach * _TOL_UP >= reach * TOL exactly
_TOL_UP = TOL * (1 + 2 ** -50)
_EXACT = frozenset((int, Fraction))
_REAL = _EXACT | {float}


def candidate_cones(P: ExchangePattern, x0):
    """The cones of P's fan that can contain the base-chart point x0
    within TOL, in fan order: the cones of x0's closed orthant, or the
    whole fan.

    Every cone lies in one closed orthant (ExchangePattern.orthants).  A
    cone that passes in_closed_cone has coordinates lambda = C^- x0 of at
    least -TOL - delta, delta bounding the rounding of those sums: 0 for
    int and Fraction coordinates, 2n 2^-52 S max|x0_j| once one is a
    float, with S the index's spread.  Since x0 = K lambda, where each
    row of the generator matrix K has one sign and an l1 norm of at most
    R (the index's reach), a cone on the far side of coordinate i
    reaches x0_i only within R (TOL + delta).  So when every |x0_i|
    exceeds that bound, only the cones of sign(x0) can pass.  The whole
    fan is returned for a point nearer a coordinate wall, for other
    number types, and for floats where S max|x0_j| reaches 2^1023, as
    those sums may then overflow and delta bounds nothing."""
    index = P.orthants
    kinds = set(map(type, x0))
    size = tuple(map(abs, x0))
    if kinds <= _EXACT:
        margin = index.reach * _TOL_UP
    elif kinds <= _REAL:
        # S max|x0_j| bounds every product and partial sum of C^- x0;
        # below 2^1023 none of them overflows, and delta holds
        top = index.spread * max(size)
        if not top < 2.0 ** 1023:
            return P.fan()
        margin = index.reach * (_TOL_UP + len(x0) * 2 ** -51 * top)
    else:
        return P.fan()
    if min(size) > margin:
        return index.buckets.get(tuple(map(gt, x0, repeat(0))), ())
    return P.fan()


def locate_cone(L: TropicalPoint, P: ExchangePattern) -> LocatedCone:
    """Smallest vertex id whose closed cone contains L (within TOL), with
    L's coordinates in that vertex's chart.

    Membership is tested in base-chart coordinates: L is in the cone of v
    iff C^s_{v->v0}^{-1} x^(v0)(L) is componentwise non-negative, and that
    vector is exactly x^(v)(L).  Exact for int/Fraction coordinates.
    Only cone representatives are scanned, in fan order: a relabeled
    member of a cone has a larger id and passes the same test.  Of those,
    only candidate_cones are tried, which gives the same cone.  When no
    cone takes L, raises FloatRangeError if a sum of C^- x0 left the float
    range, and CompletenessError otherwise.
    """
    x0 = tropical_transport(L, P, P.base).x
    for cone in candidate_cones(P, x0):
        if in_closed_cone(cone.inequalities, x0):
            v = cone.vertex_id
            lam = intmat.matvec(cone.inequalities, x0)
            return LocatedCone(v, tuple(abs(c) <= TOL for c in lam),
                               tropical_transport(L, P, v).x)
    # no cone can be told to hold x0 when its sums overflow
    if not all(_finite(s) for cone in P.fan()
               for s in intmat.matvec(cone.inequalities, x0)):
        raise FloatRangeError(f"the cone test of {x0} leaves the float range")
    raise CompletenessError(
        f"no cone of pattern {P.type_tag!r} contains {x0} (tol={TOL})")


def _pow(base, e):
    # int ** negative int floats in Python; route through Fraction instead
    if e >= 0 or isinstance(base, float):
        return base ** e
    return Fraction(base) ** e


def separation_eval(P: ExchangePattern, vid: int, X0):
    """X-coordinates at chart vid from base-chart values X0, through the
    separation formula X_i = prod_j X0_j^{c_ij} * F_j(X0)^{eps_ij}."""
    if any(not x > 0 for x in X0):
        raise ValueError("separation formula needs positive coordinates")
    v = P.vertex(vid)
    f_vals = [f.eval(X0) for f in v.Fs]
    out = []
    for i in range(P.n):
        val = 1
        for j, x in enumerate(X0):
            c = v.C[i][j]
            if c:
                val = val * _pow(x, c)
        for j, fv in enumerate(f_vals):
            e = v.eps.entries[i][j]
            if e:
                val = val * _pow(fv, e)
        out.append(val)
    return tuple(out)
