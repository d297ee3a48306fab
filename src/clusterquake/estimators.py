"""Batch-oriented wrapper with the fit/transform calling convention.

EarthquakeTransformer maps arrays of base-chart tropical coordinates
through the earthquake based at a fixed positive point.  It follows the
common estimator protocol (fit / transform / inverse_transform /
get_params / set_params) without depending on scikit-learn, so it can
be dropped into pipelines that only rely on duck typing.

The transformer evaluates whole blocks of rows in numpy, on a table of
per-cone closed forms built once by fit().  Inside the cone of a chart v
the tropical coordinate change is linear (the integer cone matrix), and
the positive coordinate change is the separation formula
X^(w)_i = prod_j X^(v)_j^{C_ij} * prod_j F_j(X^(v))^{eps_ij} of
Fomin-Zelevinsky (Cluster algebras IV), evaluated in log space with a
log-sum-exp over the F-polynomial terms, so no coordinate overflows.
Each method passes once over the fan's cones, in vertex-id order, and
keeps only the rows that no earlier cone took.  The scalar functions
(locate_cone, quake, quake_log, inverse_quake) are the reference the
tests compare this path against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CompletenessError, CoordinateError, HomeomorphismError
from .patterns import ExchangePattern, enumerate_pattern, pattern_from_type
from .points import TOL, PositivePoint
from .seeds import ExchangeMatrix


def _mul(M, X):
    """Rows of M x for the rows x of X, each sum taken left to right as
    intmat.matvec takes it, so that cone tests agree with locate_cone to
    the last bit."""
    out = X[:, :1] * M[:, 0]
    for j in range(1, M.shape[1]):
        out = out + X[:, j:j + 1] * M[:, j]
    return out


def _tropical_coords(cone, rows):
    """x^(v) of base-chart tropical rows: >= 0 exactly in v's cone."""
    return _mul(cone.M_inv, rows)


def _inverse_coords(cone, rows):
    """log X^(v)(g) - log X^(v)(g0) of base-chart log rows of g: >= 0
    exactly where quake(g0, .) maps v's cone (the tropical coordinates
    at v of the inverse image)."""
    return cone.to_chart(rows) - cone.log_g0


class _Separation:
    """y -> A y + B log F(y) on rows of log-coordinates: the separation
    formula between two charts, in log space.

    The terms of all F_j are stacked: term t has exponent row E[t] and
    log-coefficient logc[t], and F_j's terms start at starts[j].
    """

    def __init__(self, A, B, Fs):
        exps, logc, starts = [], [], []
        for f in Fs:
            starts.append(len(exps))
            for exp, coef in f.terms.items():
                exps.append(exp)
                logc.append(math.log(coef))
        self.At = np.array(A, dtype=float).T
        self.Bt = np.array(B, dtype=float).T
        self.Et = np.array(exps, dtype=float).T
        self.logc = np.array(logc)
        self.starts = np.array(starts)
        self.owner = np.repeat(np.arange(len(Fs)),
                               np.diff(starts + [len(exps)]))

    def __call__(self, Y):
        Z = Y @ self.Et + self.logc
        top = np.maximum.reduceat(Z, self.starts, axis=1)
        log_f = top + np.log(np.add.reduceat(
            np.exp(Z - top[:, self.owner]), self.starts, axis=1))
        return Y @ self.At + log_f @ self.Bt


class _Cone(NamedTuple):
    vertex: int  # the cone's representative, its smallest member
    M: np.ndarray  # cone matrix C^s_{v->v0}: chart-v to base tropical
    M_inv: np.ndarray  # base to chart-v tropical coordinates
    to_chart: _Separation  # base to chart-v log-coordinates
    to_base: _Separation  # chart-v to base log-coordinates
    log_g0: np.ndarray  # log X^(v)(g0)


def _cone_table(P: ExchangePattern, log_g0):
    """One _Cone per cone of P.fan(), in vertex-id order."""
    table = []
    for cone in P.fan():
        v = P.vertex(cone.vertex_id)
        based = P.based_matrices(v.id)
        to_chart = _Separation(v.C, v.eps.entries, v.Fs)
        table.append(_Cone(
            v.id,
            np.array(P.cone_matrix(v.id), dtype=float),
            np.array(cone.inequalities, dtype=float),
            to_chart,
            _Separation(based.C, P.eps0.entries, based.Fs),
            to_chart(log_g0[None, :])[0]))
    return table


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
            self.pattern_ = enumerate_pattern(self.type_or_matrix,
                                              cap=self.cap)
        else:
            self.pattern_ = pattern_from_type(str(self.type_or_matrix),
                                              cap=self.cap)
        self.n_features_ = self.pattern_.n
        coords = self.g0 if self.g0 is not None else (1,) * self.n_features_
        if len(coords) != self.n_features_:
            raise ValueError(
                f"g0 has {len(coords)} coordinates, seed has rank "
                f"{self.n_features_}")
        self.g0_ = PositivePoint(self.pattern_.base, tuple(coords))
        self._cones = _cone_table(
            self.pattern_, np.log(np.array(self.g0_.X, dtype=float)))
        return self

    def _check_fitted(self):
        if not hasattr(self, "pattern_"):
            raise RuntimeError("this EarthquakeTransformer is not fitted yet;"
                               " call fit() first")

    def _rows(self, X):
        self._check_fitted()
        arr = np.asarray(X, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.n_features_:
            raise ValueError(f"expected shape (*, {self.n_features_}), "
                             f"got {arr.shape}")
        if not np.isfinite(arr).all():
            raise CoordinateError("rows must hold finite numbers only")
        return arr

    def _by_cone(self, arr, chart_coords, error):
        """Yield (cone, row indices, chart coordinates) assigning each row
        to the first cone whose chart_coords(cone, rows) are >= -TOL.

        Only rows that no earlier cone took are passed on, so no array
        spans both rows and cones.
        """
        todo = np.arange(len(arr))
        for cone in self._cones:
            if not todo.size:
                return
            coords = chart_coords(cone, arr[todo])
            hit = (coords >= -TOL).all(axis=1)
            if hit.any():
                yield cone, todo[hit], coords[hit]
                todo = todo[~hit]
        if todo.size:
            raise error(f"no cone of pattern {self.pattern_.type_tag!r} "
                        f"takes row {arr[todo[0]].tolist()}")

    def transform(self, X):
        """Rows of log X(quake(g0, L)) for each tropical point row L."""
        arr = self._rows(X)
        out = np.empty_like(arr)
        for cone, idx, x in self._by_cone(arr, _tropical_coords,
                                          CompletenessError):
            out[idx] = cone.to_base(x + cone.log_g0)
        return out

    def inverse_transform(self, X):
        """Tropical coordinates recovering each row of log-coordinates."""
        arr = self._rows(X)
        out = np.empty_like(arr)
        for cone, idx, x in self._by_cone(arr, _inverse_coords,
                                          HomeomorphismError):
            out[idx] = x @ cone.M.T
        return out

    def predict(self, X):
        """Id of the fan cone containing each tropical point row."""
        arr = self._rows(X)
        out = np.empty(len(arr), dtype=int)
        for cone, idx, _ in self._by_cone(arr, _tropical_coords,
                                          CompletenessError):
            out[idx] = cone.vertex
        return out

    def fit_transform(self, X, y=None):
        return self.fit(X, y).transform(X)
