"""The cluster earthquake map and everything the theorems say about it.

quake(P, g0, L) rescales the chart-v X-coordinates of g0 by exp of the
tropical coordinates of L, where v is a cone of the fan containing L;
the gluing lemma makes the choice of v immaterial on shared faces.  The
other operations are the inverse map, the one-sided derivative at t=0+,
the shear (u-) coordinates, the two asymptotic limits, and the cluster
reduction onto a face of a cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, index, mul, sub

from . import intmat
from .errors import (
    CoordinateError,
    FloatRangeError,
    HomeomorphismError,
    PreconditionError,
)
from .patterns import ExchangePattern, _is_id, _relabelers, \
    enumerate_pattern
from .points import (
    TOL,
    PositivePoint,
    TropicalPoint,
    _check_positive,
    _floats,
    _logs,
    locate_cone,
    log_transport,
    positive_transport,
    scale,
    tropical_transport,
)
from .seeds import ExchangeMatrix
from . import _steps

# Step h of the Richardson-extrapolated finite difference in dquake.
FD_STEP = 1e-4


@dataclass(frozen=True)
class EarthquakeResult:
    g: PositivePoint
    cone_vertex: int


@dataclass(frozen=True)
class TangentVector:
    base: PositivePoint
    chart: int
    delta: tuple  # components in d/d log X_i of the chart


def quake_multiplier(P: ExchangePattern, g0: PositivePoint, vid: int,
                     multipliers) -> PositivePoint:
    """Rescale the chart-vid coordinates of g0 componentwise and come back.

    This is the arithmetic core of quake: exact when g0 and the
    multipliers are rational, which the identity tests rely on.
    PreconditionError unless there is one multiplier per direction.
    """
    P.check_rank(multipliers)
    gv = positive_transport(g0, P, vid)
    try:
        rescaled = PositivePoint(vid, tuple(map(mul, multipliers, gv.X)))
    except TypeError:  # a multiplier that is not a real number
        raise CoordinateError(
            f"multipliers must be real numbers, got {multipliers}") from None
    return positive_transport(rescaled, P, g0.chart)


def quake(P: ExchangePattern, g0: PositivePoint,
          L: TropicalPoint) -> EarthquakeResult:
    """The image of g0 under the earthquake along L, in g0's chart.

    Raises FloatRangeError when g0, or a coordinate of the image (or of a
    chart on the way), is outside the float range; quake_log evaluates
    the image.
    """
    _logs(g0.X, "g0")
    v, _, xv = locate_cone(L, P)
    try:
        g = quake_multiplier(P, g0, v, tuple(math.exp(float(c)) for c in xv))
    except (OverflowError, CoordinateError) as exc:
        raise FloatRangeError(
            f"the earthquake image of {list(_floats(L.x, 'L'))} leaves the "
            "float range; quake_log evaluates it in log space") from exc
    return EarthquakeResult(g, v)


def quake_log(P: ExchangePattern, log_g0, L: TropicalPoint):
    """Base-chart log-coordinates of quake, safe for huge tropical points.

    log_g0 are base-chart log-coordinates of the starting point; returns
    (log-coordinates of the image in the base chart, cone vertex).
    Raises FloatRangeError when L, or a log-coordinate of the image,
    leaves the float range.
    """
    v, _, xv = locate_cone(L, P)
    log_gv = log_transport(log_g0, P, P.base, v)
    log_ev = tuple(map(add, _floats(xv, "L"), log_gv))
    log_g = log_transport(log_ev, P, v, P.base)
    if not all(map(math.isfinite, log_g)):
        raise FloatRangeError(
            f"the log-coordinates of the earthquake image of "
            f"{list(_floats(L.x, 'L'))} leave the float range")
    return log_g, v


def _log_ratios(X, X0):
    """log(X_i / X0_i) as floats, or FloatRangeError when a coordinate or
    a ratio is beyond or below the float range."""
    try:
        x = tuple(math.log(float(a) / float(b)) for a, b in zip(X, X0))
    except OverflowError:  # an int or Fraction beyond the float range
        raise FloatRangeError("g or g0 is beyond the float range") from None
    except (ValueError, ZeroDivisionError):  # or one that rounds to 0.0
        raise FloatRangeError("g or g0 is below the float range") from None
    if not all(map(math.isfinite, x)):  # a float chart coordinate at inf
        raise FloatRangeError("g or g0 is beyond the float range")
    return x


def _pos_step(X, eps, k):
    """_steps.pos_mutation, with a float leaving its range raised as
    FloatRangeError."""
    try:
        return _steps.pos_mutation(X, eps, k)
    except OverflowError:
        raise FloatRangeError("g or g0 is beyond the float range") from None
    except ZeroDivisionError:
        raise FloatRangeError("g or g0 is below the float range") from None


def _cross(fan, c, q, logs):
    """(position, pair): the cone that mutation q of fan[c] lands in, and
    the log pair `logs` carried across that wall by a log-space mutation
    and put into the landed cluster's canonical labeling; (None, None)
    where the landing is not made or leaves a partial pattern."""
    landing = fan[c].landings[q]
    if landing is None or landing[0] >= len(fan):
        return None, None
    eps, put = fan[c].eps.entries, _relabelers(landing[1])[0]
    return landing[0], tuple(put(_steps.log_mutation(u, eps, q))
                             for u in logs)


def _first_taker(fan, c, logs):
    """The smallest fan position among the cones that take the log pair
    within TOL and are reached from fan[c], which takes it, across walls
    whose log ratio is within TOL of 0: the cones around the face the
    point is on or near.  A point clear of every wall crosses none."""
    first, seen, todo = c, {c}, [(c, logs)]
    while todo:
        c, logs = todo.pop()
        for q, xq in enumerate(map(sub, *logs)):
            if xq <= TOL:
                e, landed = _cross(fan, c, q, logs)
                if e is not None and e not in seen and \
                        min(map(sub, *landed)) >= -TOL:
                    seen.add(e)
                    first = min(first, e)
                    todo.append((e, landed))
    return first


def inverse_quake(P: ExchangePattern, g0: PositivePoint,
                  g: PositivePoint) -> TropicalPoint:
    """The tropical point L with quake(P, g0, L) = g (finite type only).

    The earthquake map is a homeomorphism, so one cone's chart has
    log(X(g) / X(g0)) >= 0, and that vector is L in the chart.  g and g0
    are moved to the base chart once, and their logs walk the Cone
    records' landings from the base cone: at a cone where some log ratio
    is below -TOL, both cross the wall of the most negative one (the
    smallest direction on a tie) and are put into the landed cluster's
    canonical labeling.  The walk takes at most len(fan) steps; one that
    needs more, or whose landing leaves a partial pattern, raises
    HomeomorphismError.  On or within TOL of a wall more than one cone
    takes the point: the walk's cone and those across such walls that
    take it too are compared, and the smallest fan position is kept, the
    cone a scan in fan order stops at.  Only within a few TOL of L = 0
    need the cones that take the point not meet at such walls; another
    cone may then be kept, and L moves by a TOL-sized amount.

    The pair is then carried to that cone again in positive arithmetic
    along the fan tree from the base, so L is what transporting both
    points to the cone gives, bit for bit from the base chart;
    FloatRangeError is raised only where the walk to the base chart or
    that tree path leaves the float range.
    """
    fan = P.fan()
    pair = tuple(P.walk(h.X, h.chart, P.base, _pos_step) for h in (g, g0))
    logs = tuple(_logs(X, "g or g0") for X in pair)
    if not all(map(math.isfinite, logs[0] + logs[1])):  # a coordinate at inf
        raise FloatRangeError("g or g0 is beyond the float range")
    c = 0
    for _ in range(len(fan)):
        x = tuple(map(sub, *logs))
        low = min(x)
        if low >= -TOL:
            v = fan[_first_taker(fan, c, logs)].vertex_id
            x = _log_ratios(*(P.walk(X, P.base, v, _pos_step) for X in pair))
            return tropical_transport(TropicalPoint(v, x), P, P.base)
        q = x.index(low)
        e, logs = _cross(fan, c, q, logs)
        if e is None:
            raise HomeomorphismError(
                f"the inverse earthquake walk leaves the pattern at cone "
                f"{fan[c].vertex_id}, direction {q}; the fan is not "
                "complete (a partial pattern?)")
        c = e
    raise HomeomorphismError(
        f"the inverse earthquake walk stopped at cone {fan[c].vertex_id} "
        f"after {len(fan)} steps without reaching the image's chart; the "
        "fan is probably not complete (non-finite-type input?)")


def u_coords(P: ExchangePattern, g: PositivePoint, L: TropicalPoint,
             v0: int | None = None):
    """Shear coordinates log(X^(v0)(quake(g, L)) / X^(v0)(g))."""
    if v0 is None:
        v0 = P.base
    log_g_base = log_transport(_logs(g.X, "g"), P, g.chart, P.base)
    log_e_base, _ = quake_log(P, log_g_base, L)
    log_e = log_transport(log_e_base, P, P.base, v0)
    log_g = log_transport(log_g_base, P, P.base, v0)
    return tuple(a - b for a, b in zip(log_e, log_g))


def _tangent_mutation(pairs, eps, k):
    """One mutation step of (delta_i, log X_i) pairs: delta is pushed
    through the Jacobian at the log-coordinates the step starts from."""
    delta, log_at = zip(*pairs)
    jac = _steps.jac_mutation(log_at, eps, k)
    return tuple(zip(intmat.matvec(jac, delta),
                     _steps.log_mutation(log_at, eps, k)))


def dquake(P: ExchangePattern, g: PositivePoint, L: TropicalPoint,
           method: str = "analytic") -> TangentVector:
    """One-sided derivative d/dt|_{t=0+} of log X(quake(g, tL)) in g's chart.

    The analytic path evaluates the tropical coordinates of L in its cone
    and pushes them through the log-coordinate Jacobian of each edge map;
    finite_difference is a Richardson-extrapolated one-sided difference,
    kept as an independent oracle.
    """
    if method == "finite_difference":
        _floats(L.x, "L")  # FloatRangeError before scale() blames h
        h = FD_STEP
        d1 = [c / h for c in u_coords(P, g, scale(L, h), g.chart)]
        d2 = [c / (h / 2) for c in u_coords(P, g, scale(L, h / 2), g.chart)]
        delta = tuple(2 * b - a for a, b in zip(d1, d2))
        return TangentVector(g, g.chart, delta)
    if method != "analytic":
        raise PreconditionError(f"unknown dquake method {method!r}")

    v, _, xv = locate_cone(L, P)
    delta = _floats(xv, "L")
    log_at = log_transport(_logs(g.X, "g"), P, g.chart, v)
    pairs = P.walk(tuple(zip(delta, log_at)), v, g.chart, _tangent_mutation)
    return TangentVector(g, g.chart, tuple(dx for dx, _ in pairs))


def limit_L(P: ExchangePattern, g0: PositivePoint, v: int, k: int, t: float):
    """Large-lamination limit along the k-th ray of cone v.

    estimate = log X^(v0)(quake(g0, t * L^(v)_k)) / t, computed in log
    space; target = column k of C^{-s}_{v->v0} (equivalently of
    C^s_{v->v0} + eps^(v0) F^s_{v->v0}), which the estimate approaches
    as t grows.  PreconditionError unless t is finite and positive, and
    FloatRangeError naming t and the ray when t, or the image along t
    times the ray, is beyond the float range.
    """
    _check_positive(t, "t")
    _floats((t,), "t")
    ray = TropicalPoint(P.base, P.ray(v, k))
    log_g0 = log_transport(_logs(g0.X, "g0"), P, g0.chart, P.base)
    try:
        log_e, _ = quake_log(P, log_g0, scale(ray, t))
    except FloatRangeError:
        raise FloatRangeError(
            f"the earthquake image along t={t!r} times ray {k} of cone {v}, "
            f"{list(ray.x)}, leaves the float range") from None
    estimate = tuple(c / t for c in log_e)
    target = intmat.column(P.opposite_cone_matrix(v), k)
    return estimate, target


def limit_g(P: ExchangePattern, g: PositivePoint, v: int):
    """Shear-coordinate matrix of the cone rays at g, with its limit.

    Column k is u_coords(g, L^(v)_k); as g runs to infinity in the
    positive direction the matrix converges to C^s_{v->v0}.
    """
    n = P.n
    cols = [u_coords(P, g, TropicalPoint(P.base, P.ray(v, k)))
            for k in range(n)]
    u_matrix = tuple(tuple(cols[k][i] for k in range(n)) for i in range(n))
    return u_matrix, P.cone_matrix(v)


def in_plus_region(P: ExchangePattern, vid: int, g0: PositivePoint,
                   g: PositivePoint) -> bool:
    """Whether g is in the region D+_(vid)(g0): X^(v)(g) >= X^(v)(g0)."""
    gv = positive_transport(g, P, vid)
    g0v = positive_transport(g0, P, vid)
    return all(a >= b for a, b in zip(gv.X, g0v.X))


def _restrict(matrix, J):
    return tuple(tuple(matrix[i][j] for j in J) for i in J)


def cluster_reduce(P: ExchangePattern, v0: int, J, g0: PositivePoint,
                   L: TropicalPoint) -> float:
    """Residual of the cluster-reduction square for the face of the cone
    of chart v0 cut out by the directions J.

    Both ways around the square are evaluated in chart v0: project the
    earthquake image of (g0, L) to the J-coordinates, and apply the
    rank-|J| earthquake of the restricted seed to the projected data.  L
    must lie in the star of the face (a cone reachable from v0 by
    J-mutations only).
    """
    J = set(J)
    if not all(_is_id(j, P.n) for j in J):
        raise PreconditionError("J contains out-of-range directions")
    J = sorted(map(index, J))
    if not J:
        raise PreconditionError("J must be a non-empty set of directions")

    # P's exchange graph seen from v0 is the pattern re-based at v0, so
    # both points move to chart v0 and the star grows from there
    g0_v = positive_transport(g0, P, v0)
    L_v = tropical_transport(L, P, v0)

    # the star of the face: cones of vertices reachable by J-mutations
    star, queue = {v0}, [v0]
    while queue:
        w = queue.pop()
        for k in J:
            nxt = P.neighbor(w, ("mu", k))
            if nxt not in star:
                star.add(nxt)
                queue.append(nxt)
    if not any(all(c >= -TOL for c in tropical_transport(L_v, P, w).x)
               for w in sorted(star)):
        raise PreconditionError(
            "L lies outside the star of the face fixed by J")

    image = quake(P, g0_v, L_v).g.X
    reduced_seed = ExchangeMatrix.make(
        _restrict(P.vertex(v0).eps.entries, J))
    PJ = enumerate_pattern(reduced_seed, cap=P.cap,
                           type_tag=f"{P.type_tag}|J")
    gJ = PositivePoint(0, tuple(g0_v.X[j] for j in J))
    LJ = TropicalPoint(0, tuple(L_v.x[j] for j in J))
    image_j = quake(PJ, gJ, LJ).g.X
    return max(abs(float(image[j]) - float(b))
               for j, b in zip(J, image_j))
