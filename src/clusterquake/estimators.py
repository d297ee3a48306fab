"""Batch-oriented wrapper with the fit/transform calling convention.

EarthquakeTransformer maps arrays of base-chart tropical coordinates
through the earthquake based at a fixed positive point.  It follows the
common estimator protocol (fit / transform / inverse_transform /
get_params / set_params) without depending on scikit-learn, so it can
be dropped into pipelines that only rely on duck typing.

The transformer evaluates whole blocks of rows in numpy, on the fan
tree: each cone's chart is one mutation of its parent cone's chart (see
ExchangePattern.fan), so a chart's log-coordinates are the parent's
pushed through one log-space mutation step, applied to all rows at once
and to all cones of one tree level at once.  fit() reads the tree off
the fan and carries log g0 down it.  A row is located by one product
with the stacked inequalities of every cone, the first cone whose
coordinates are all >= -TOL taking it, as in locate_cone.  transform
then walks each row from its cone up to the base, one level per step;
inverse_transform walks the rows down from the base and stops at the
level where every row has found its chart.  Rows run along the last
axis of every array, (cones, n, rows), so that numpy's inner loops are
long.  Blocks are cut into chunks so that no intermediate array holds
more than _CHUNK floats.  The scalar functions (locate_cone, quake,
quake_log, inverse_quake) are the reference the tests compare this path
against.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CompletenessError,
    CoordinateError,
    FloatRangeError,
    HomeomorphismError,
    InternalConsistencyError,
    PreconditionError,
)
from .patterns import enumerate_pattern, pattern_from_type
from .points import TOL, PositivePoint
from .seeds import ExchangeMatrix

# Largest number of floats (cones x rank x rows) an intermediate array
# may hold; a block is processed in chunks of rows that keep under it.
_CHUNK = 2 ** 20


def _mul(M, X):
    """M x for the columns x of X, each sum taken left to right as
    intmat.matvec takes it, so that cone tests agree with locate_cone to
    the last bit.  M has a trailing axis of length 1 (one matrix for all
    columns) or of X's width (one matrix per column)."""
    out = M[:, 0] * X[0]
    for j in range(1, len(X)):
        out = out + M[:, j] * X[j]
    return out


def _parts(e):
    """The positive and negative parts of e, stacked."""
    return np.stack([np.maximum(e, 0), np.minimum(e, 0)])


def _finite(U, X, what):
    """U, whose columns are images of the columns of X; FloatRangeError
    names the first column of X whose image is not finite."""
    if not np.isfinite(U).all():
        row = X[:, (~np.isfinite(U).all(axis=0)).argmax()].tolist()
        raise FloatRangeError(f"the {what} of row {row} leaves the float "
                              "range")
    return U


def _log_mutation(U, at, parts):
    """_steps.log_mutation of each column of U, in numpy: U[at] is the
    coordinate u_k of the direction k, and parts are the _parts of
    column k of eps, each broadcast against U."""
    ep, em = parts
    uk = U[at]
    # softplus(t) = max(t, 0) + tail, as _steps._softplus takes it, once
    # per u_k for both signs; np.logaddexp(0, t) is several times slower
    tail = np.log1p(np.exp(-np.abs(uk)))
    out = U - ep * (np.maximum(-uk, 0) + tail) - em * (np.maximum(uk, 0)
                                                        + tail)
    out[at] = -uk
    return out


class EarthquakeTransformer:
    """Earthquake map as a samples-by-coordinates transform.

    Parameters
    ----------
    type_or_matrix : str or ExchangeMatrix, default "A2"
        Cartan-type label or an explicit skew-symmetrizable seed.
    g0 : sequence of positive numbers, optional
        Base point in the initial chart; all ones when omitted.
    cap : int, optional
        Enumeration budget forwarded to the pattern builder.

    Cone membership uses points.TOL, as locate_cone does.
    """

    def __init__(self, type_or_matrix="A2", g0=None, cap=None):
        self.type_or_matrix = type_or_matrix
        self.g0 = g0
        self.cap = cap

    def get_params(self, deep=True):
        return {"type_or_matrix": self.type_or_matrix, "g0": self.g0,
                "cap": self.cap}

    def set_params(self, **params):
        for key, value in params.items():
            if key not in self.get_params():
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, X=None, y=None):
        if isinstance(self.type_or_matrix, ExchangeMatrix):
            P = enumerate_pattern(self.type_or_matrix, cap=self.cap)
        else:
            P = pattern_from_type(str(self.type_or_matrix), cap=self.cap)
        self.pattern_ = P
        n = self.n_features_ = P.n
        coords = self.g0 if self.g0 is not None else (1,) * n
        if len(coords) != n:
            raise PreconditionError(
                f"g0 has {len(coords)} coordinates, seed has rank {n}")
        self.g0_ = PositivePoint(P.base, tuple(coords))

        # the fan tree, in fan order: cone i is mutation k[i] of cone
        # parent[i], with column k[i] of eps at the parent going down and
        # at cone i going up, split into positive and negative parts
        fan = P.fan()
        m = len(fan)
        self._parent, self._k = np.zeros(m, int), np.zeros(m, int)
        self._depth = depth = np.zeros(m, int)
        down, up = np.zeros((m, n)), np.zeros((m, n))
        for i, cone in enumerate(fan[1:], 1):
            p, k = cone.parent
            self._parent[i], self._k[i], depth[i] = p, k, depth[p] + 1
            down[i] = [row[k] for row in fan[p].eps.entries]
            up[i] = [row[k] for row in cone.eps.entries]
        if (np.diff(depth) < 0).any():
            raise InternalConsistencyError(
                "fan order is not breadth-first in the fan tree")
        self._up = _parts(up.T)
        # per level below the base: its cones, the slots of their parents
        # among the level above, and their steps down
        self._levels = []
        above = np.zeros(1, int)
        for d in range(1, depth.max(initial=0) + 1):
            cones = np.flatnonzero(depth == d)
            self._levels.append((
                cones, np.searchsorted(above, self._parent[cones]),
                (np.arange(len(cones))[:, None], self._k[cones, None]),
                _parts(down[cones, :, None])))
            above = cones
        self._ids = np.array([cone.vertex_id for cone in fan])
        self._ineq = np.array([row for cone in fan for row in
                               cone.inequalities], dtype=float)[:, :, None]
        self._rounding = n * np.abs(self._ineq).sum(axis=1).max() * 2.0 ** -52
        # (n, n, cones): column j of cone c's matrix is its generator j
        self._cmat = np.array([cone.generators for cone in fan],
                              dtype=float).transpose(2, 1, 0)
        self._log_g0 = np.empty((m, n))
        log_g0 = np.log(np.array(self.g0_.X, dtype=float))
        for cones, V in self._charts(log_g0[:, None]):
            self._log_g0[cones] = V[:, :, 0]
        return self

    def _check_fitted(self):
        if not hasattr(self, "pattern_"):
            raise RuntimeError("this EarthquakeTransformer is not fitted yet;"
                               " call fit() first")

    def _rows(self, X):
        self._check_fitted()
        try:
            arr = np.asarray(X)
            if arr.dtype.kind != "c":
                arr = arr.astype(float, copy=False)
        except (TypeError, ValueError) as exc:  # ragged, or not numbers
            raise CoordinateError(
                f"rows must form a block of real numbers: {exc}") from None
        if arr.dtype.kind == "c":
            raise CoordinateError("rows must hold real numbers, got complex")
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.n_features_:
            raise CoordinateError(f"expected shape (*, {self.n_features_}), "
                                  f"got {arr.shape}")
        if not np.isfinite(arr).all():
            raise CoordinateError("rows must hold finite numbers only")
        return arr

    def _by_chunk(self, X, method):
        """method applied to the transposed rows of X a chunk at a time,
        its results joined."""
        arr = self._rows(X)
        step = max(1, _CHUNK // len(self._ineq))
        return np.concatenate([method(arr[i:i + step].T)
                               for i in range(0, max(len(arr), 1), step)])

    def _locate(self, X):
        """Fan positions of the first cone containing each column of X,
        and the columns' coordinates in those cones' charts."""
        rows = np.arange(X.shape[1])
        # a row near the float range can overflow in the inequalities of
        # a cone; inf and nan then decide the test as in locate_cone
        with np.errstate(over="ignore", invalid="ignore"):
            lam = _mul(self._ineq, X).reshape(len(self._ids), *X.shape)
        hit = (lam >= -TOL).all(axis=1)
        pos = hit.argmax(axis=0)
        missed = ~hit[pos, rows]
        if missed.any():
            # no cone can be told to take a row whose sums overflow
            _finite(np.vstack(lam[..., missed]), X[:, missed], "cone test")
            raise CompletenessError(
                f"no cone of pattern {self.pattern_.type_tag!r} takes row "
                f"{X[:, missed.argmax()].tolist()}")
        return pos, lam[pos, :, rows].T

    def _charts(self, U):
        """Yield (fan positions, log-coordinates in their charts) for the
        base-chart log-coordinates in the columns of U, one tree level at
        a time from the base down; the second array is (cones, n, cols)."""
        V = U[None]
        yield np.zeros(1, int), V
        for cones, slots, at, parts in self._levels:
            V = _log_mutation(V[slots], at, parts)
            yield cones, V

    def _transform(self, X):
        pos, U = self._locate(X)
        U += self._log_g0[pos].T
        depth = self._depth[pos]
        # a row whose walk up leaves the float range is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            for d in range(depth.max(initial=0), 0, -1):
                rows = np.flatnonzero(depth >= d)
                c = pos[rows]
                U[:, rows] = _log_mutation(
                    U[:, rows], (self._k[c], np.arange(len(rows))),
                    self._up[:, :, c])
                pos[rows] = self._parent[c]
        return _finite(U, X, "earthquake image").T

    def _inverse(self, X):
        pos = np.full(X.shape[1], -1)
        x = np.empty_like(X)
        # a row whose walk down leaves the float range misses its chart,
        # and the else branch raises for it; one whose image in the base
        # chart does is caught after the block
        with np.errstate(over="ignore", invalid="ignore"):
            for cones, V in self._charts(X):
                coords = V - self._log_g0[cones, :, None]
                hit = (coords >= -TOL).all(axis=1)
                rows = np.flatnonzero(hit.any(axis=0) & (pos < 0))
                first = hit[:, rows].argmax(axis=0)
                pos[rows] = cones[first]
                x[:, rows] = coords[first, :, rows].T
                if (pos >= 0).all():
                    break
            else:
                self._nearest(X, pos, x)
            L = _mul(self._cmat[:, :, pos], x)
        return _finite(L, X, "inverse image").T

    def _nearest(self, X, pos, x):
        """Fill in pos and x for the columns of X that no chart takes
        within TOL (pos < 0), or raise.  At large magnitudes the walk
        down can round a coordinate that is about 0 to far below -TOL in
        every chart.  Such a column takes the chart whose smallest
        coordinate is largest, the first in fan order on a tie, when it
        misses -TOL by at most the rounding allowance: n S 2^-52 (depth
        + 1) max|column|, S the largest l1 norm of an inequality row."""
        rows = np.flatnonzero(pos < 0)
        missed = X[:, rows]
        cols = np.arange(len(rows))
        finite = np.ones(len(rows), bool)
        low = np.full(len(rows), -np.inf)
        for cones, V in self._charts(missed):
            finite &= np.isfinite(V).all(axis=(0, 1))
            coords = V - self._log_g0[cones, :, None]
            least = coords.min(axis=1)
            first = least.argmax(axis=0)
            better = np.flatnonzero(least[first, cols] > low)
            low[better] = least[first[better], better]
            pos[rows[better]] = cones[first[better]]
            x[:, rows[better]] = coords[first[better], :, better].T
        if not finite.all():
            row = missed[:, finite.argmin()].tolist()
            raise FloatRangeError(
                f"the inverse image of row {row} leaves the float range")
        allowance = self._rounding * (self._depth[pos[rows]] + 1) \
            * np.abs(missed).max(axis=0)
        far = low < -TOL - allowance
        if far.any():
            raise HomeomorphismError(
                f"no chart of pattern {self.pattern_.type_tag!r} realizes "
                f"the inverse image of row {missed[:, far.argmax()].tolist()}")

    def transform(self, X):
        """Rows of log X(quake(g0, L)) for each tropical point row L."""
        return self._by_chunk(X, self._transform)

    def inverse_transform(self, X):
        """Tropical coordinates recovering each row of log-coordinates."""
        return self._by_chunk(X, self._inverse)

    def predict(self, X):
        """Id of the fan cone containing each tropical point row."""
        return self._by_chunk(X, lambda X: self._ids[self._locate(X)[0]])

    def fit_transform(self, X, y=None):
        return self.fit(X, y).transform(X)
