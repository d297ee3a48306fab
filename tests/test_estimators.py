import dataclasses
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterquake import (
    CoordinateError,
    EarthquakeTransformer,
    FloatRangeError,
    HomeomorphismError,
    InternalConsistencyError,
    PositivePoint,
    PreconditionError,
    inverse_quake,
    locate_cone,
    quake,
    quake_log,
    seed_from_type,
)
from clusterquake import estimators, points
from clusterquake.patterns import ExchangePattern
from clusterquake.points import TropicalPoint

ORACLE_TYPES = ["A2", "B2", "G2", "A3", "C3", "D4"]
ENUMERATE_TYPES = ["A1xA1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4",
                   "C4", "D4", "F4"]
TOL = 1e-9


def test_fit_transform_inverse_round_trip():
    est = EarthquakeTransformer("A2").fit()
    X = np.array([[2.0, 1.0], [-3.0, 0.5], [1.0, -2.0], [0.0, 0.0]])
    Y = est.transform(X)
    assert Y.shape == X.shape
    assert np.abs(est.inverse_transform(Y) - X).max() < 1e-9
    # L = 0 maps to log of the base point (all zeros for the default g0)
    assert np.abs(Y[3]).max() == 0


def test_predict_matches_locate_cone():
    est = EarthquakeTransformer("B2").fit()
    # the cone generators span the walls; push them off by half and by
    # twice the cone tolerance, each coordinate either way
    near_walls = [[c + (delta if i == j else 0.0) for j, c in enumerate(g)]
                  for cone in est.pattern_.fan() for g in cone.generators
                  for i in range(2)
                  for delta in (points.TOL / 2, -points.TOL / 2,
                                2 * points.TOL, -2 * points.TOL)]
    X = np.array([[1.0, 1.0], [-1.0, -1.0], [4.0, -0.5]] + near_walls)
    cones = est.predict(X)
    for row, cone in zip(X, cones):
        assert cone == locate_cone(TropicalPoint(0, tuple(row)),
                                   est.pattern_).vertex


def test_one_dimensional_input():
    est = EarthquakeTransformer("A2").fit()
    out = est.transform([1.0, 2.0])
    assert out.shape == (1, 2)


def test_explicit_seed_and_g0():
    seed = seed_from_type("G2")
    est = EarthquakeTransformer(seed, g0=(2.0, 0.5)).fit()
    assert est.n_features_ == 2
    assert est.g0_.X == (2.0, 0.5)
    Y = est.transform([[0.0, 0.0]])
    assert np.allclose(Y[0], np.log([2.0, 0.5]))


def test_params_protocol():
    est = EarthquakeTransformer("A2", cap=1000)
    params = est.get_params()
    assert params["type_or_matrix"] == "A2" and params["cap"] == 1000
    est.set_params(type_or_matrix="B2", cap=2000)
    assert est.type_or_matrix == "B2" and est.cap == 2000
    with pytest.raises(ValueError):
        est.set_params(bogus=1)


def test_errors():
    est = EarthquakeTransformer("A2")
    with pytest.raises(RuntimeError):
        est.transform([[1.0, 2.0]])
    est.fit()
    with pytest.raises(ValueError):
        est.transform([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        EarthquakeTransformer("A2", g0=(1.0,)).fit()


@pytest.mark.parametrize("rows", [
    [["a", "b"]],  # not numbers
    [[1j, 0.5]],  # complex
    np.array([[1.0 + 0.5j, 0.5]]),  # complex, as an array
    [[1.0, 2.0], [3.0]],  # ragged
    [[1.0, 2.0, 3.0]],  # the wrong width
])
@pytest.mark.parametrize("method", ["transform", "inverse_transform",
                                    "predict"])
def test_bad_rows_raise_coordinate_error(method, rows):
    with pytest.raises(CoordinateError):
        getattr(fitted("A2"), method)(rows)


def test_g0_of_the_wrong_length_raises_precondition_error():
    with pytest.raises(PreconditionError):
        EarthquakeTransformer("A2", g0=(1.0, 2.0, 3.0)).fit()


@pytest.mark.parametrize("g0, where", [((10 ** 400, 1), "beyond"),
                                       ((Fraction(1, 10 ** 400), 1), "below")])
def test_g0_out_of_the_float_range_raises_in_fit(g0, where):
    # it used to raise a bare OverflowError, or fit inf and nan charts
    # with numpy warnings and blame the first row transform was given
    est = EarthquakeTransformer("A2", g0=g0)
    with pytest.raises(FloatRangeError, match=f"g0 is {where} the float"):
        est.fit()
    assert not hasattr(est, "pattern_")


def test_fit_requires_a_breadth_first_fan(monkeypatch):
    # move a cone of depth 2 to just after its parent, before a cone of
    # depth 1: parents still come first, but the order is no longer
    # breadth-first
    fan = ExchangePattern.fan

    def shuffled(P):
        cones = fan(P)
        parents = [c.parent and c.parent[0] for c in cones]
        depth1 = [i for i, up in enumerate(parents) if up == 0]
        x = next(i for i, up in enumerate(parents) if up in depth1[:-1])
        order = list(range(len(cones)))
        order.remove(x)
        order.insert(parents[x] + 1, x)
        # parents are named by fan position: renumber them, so that each
        # still comes before its children
        new = {old: i for i, old in enumerate(order)}
        out = tuple(dataclasses.replace(c, parent=(new[c.parent[0]],
                                                   c.parent[1]))
                    if c.parent else c for c in map(cones.__getitem__, order))
        assert all(c.parent[0] < i for i, c in enumerate(out) if c.parent)
        return out

    monkeypatch.setattr(ExchangePattern, "fan", shuffled)
    with pytest.raises(InternalConsistencyError, match="not breadth-first"):
        EarthquakeTransformer("A3").fit()


def test_fit_transform_shortcut():
    X = [[1.0, -1.0]]
    a = EarthquakeTransformer("A2").fit_transform(X)
    b = EarthquakeTransformer("A2").fit().transform(X)
    assert np.array_equal(a, b)


@lru_cache(maxsize=None)
def fitted(label):
    g0 = tuple(math.exp(0.4 * (-1) ** i + 0.1 * i)
               for i in range(seed_from_type(label).n))
    return EarthquakeTransformer(label, g0=g0).fit()


@st.composite
def blocks(draw, exponents):
    """A fitted type and a block of rows, each in (or on a wall of) a
    drawn cone: a positive mix of the cone's generators, or an integer
    mix of a proper subset of them, times 10**exponent."""
    est = fitted(draw(st.sampled_from(ORACLE_TYPES)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        gens = draw(st.sampled_from(est.pattern_.fan())).generators
        if draw(st.booleans()):
            weights = [draw(st.integers(0, 3)) for _ in gens]
            weights[draw(st.integers(0, len(gens) - 1))] = 0
        else:
            weights = [draw(st.floats(0.05, 3.0)) for _ in gens]
        scale = 10.0 ** draw(exponents)
        rows.append([scale * sum(w * g[i] for w, g in zip(weights, gens))
                     for i in range(len(gens))])
    return est, np.array(rows)


def assert_close(got, want, row):
    # 1e-9, relative once the row's size passes 1: floats carry about
    # 16 digits, whatever the magnitude
    bound = TOL * max(1.0, np.abs(row).max())
    assert np.abs(np.asarray(got) - np.asarray(want)).max() <= bound


@settings(max_examples=40, deadline=None)
@given(blocks(st.integers(-300, 300)))
def test_predict_and_transform_agree_with_scalar_path(block):
    est, X = block
    P, g0 = est.pattern_, est.g0_
    cones, Y = est.predict(X), est.transform(X)
    # inverse_quake cannot take these magnitudes; the round trip can
    for row, back in zip(X, est.inverse_transform(Y)):
        assert_close(back, row, row)
    for row, cone, image in zip(X, cones, Y):
        L = TropicalPoint(P.base, tuple(row))
        assert cone == locate_cone(L, P).vertex
        try:
            want = [math.log(x) for x in quake(P, g0, L).g.X]
        except FloatRangeError:
            want, _ = quake_log(P, [math.log(x) for x in g0.X], L)
        assert_close(image, want, row)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_predict_on_scaled_rays_matches_locate_cone(label):
    # a ray scaled far from the integers lies on a wall only up to
    # rounding, so the side it falls on depends on the summation order,
    # which numpy's matrix product may pick by the shape of the block
    est = fitted(label)
    X = np.array([[10.0 ** e * k * c for c in g]
                  for cone in est.pattern_.fan() for g in cone.generators
                  for k in (1, 2, 3) for e in (-300, -5, 25, 150, 300)])
    want = [locate_cone(TropicalPoint(0, tuple(row)), est.pattern_).vertex
            for row in X]
    assert est.predict(X).tolist() == want
    assert [est.predict(row)[0] for row in X] == want


@settings(max_examples=30, deadline=None)
@given(blocks(st.integers(-6, 1)))
def test_inverse_transform_agrees_with_inverse_quake(block):
    est, X = block
    P, g0 = est.pattern_, est.g0_
    Y = est.transform(X)
    back = est.inverse_transform(Y)
    for row, image, got in zip(X, Y, back):
        g = PositivePoint(P.base, tuple(math.exp(c) for c in image))
        assert_close(got, inverse_quake(P, g0, g).x, row)
        assert_close(got, row, row)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", ["transform", "inverse_transform",
                                    "predict"])
def test_non_finite_rows_are_rejected(method, bad):
    est = fitted("A2")
    with pytest.raises(ValueError):
        getattr(est, method)([[0.5, 1.0], [bad, 1.0]])


def test_transform_past_float_range_stays_finite():
    # quake overflows on both rows (see test_earthquake); the log-space
    # batch path follows quake_log
    est = EarthquakeTransformer("A3").fit()
    P = est.pattern_
    X = np.array([[1e3, -700.0, 300.0], [1e6, -7e5, 3e5]])
    Y = est.transform(X)
    assert np.isfinite(Y).all()
    assert np.abs(Y[0] - [300.0 + math.log(2), -700.0,
                          1000.0 - math.log(2)]).max() < 1e-9
    for row, image in zip(X, Y):
        want, _ = quake_log(P, (0.0, 0.0, 0.0), TropicalPoint(0, tuple(row)))
        assert_close(image, want, row)
    assert_close(est.inverse_transform(Y), X, X)


@pytest.mark.filterwarnings("error")
def test_transform_past_log_float_range_is_a_typed_error(capfd):
    # as quake_log, whose image has a log-coordinate past the float
    # maximum; transform returned inf there.  The overflow on the way
    # gives no numpy warning, which would escape in place of the error
    est = EarthquakeTransformer("B2", g0=(1, 1)).fit()
    row = [-1.7e308, 1.7e308]
    with pytest.raises(FloatRangeError, match=r"image of row \[-1.7e\+308"):
        est.transform([[0.5, 1.0], row])
    assert capfd.readouterr().err == ""


@pytest.mark.filterwarnings("error")
def test_inverse_transform_past_float_range_is_a_typed_error(capfd):
    # the walk down from the base overflows on this row, so it misses
    # every chart: the cause is the float range, not a missing chart
    est = EarthquakeTransformer("B2", g0=(1, 1)).fit()
    row = [-1.7e308, 1.7e308]
    with pytest.raises(FloatRangeError,
                       match=r"inverse image of row \[-1.7e\+308"):
        est.inverse_transform([[0.5, 1.0], row])
    assert capfd.readouterr().err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("label, g0, row", [
    ("B2", (1, 1), [-8e307, -8e307]),
    ("A2", None, [1.7e308, -1.7e308]),
    ("G2", None, [1.7e308, -1.7e308]),
    ("A3", None, [1.7e308, -1.7e308, 0.0]),
])
def test_inverse_image_past_float_range_is_a_typed_error(capfd, label, g0,
                                                         row):
    # each row finds its chart, but its tropical coordinates in the base
    # chart overflow; the B2 row came back as (1.6e308, -inf)
    est = EarthquakeTransformer(label, g0=g0).fit()
    with pytest.raises(FloatRangeError, match=r"inverse image of row \["):
        est.inverse_transform([[0.5] * len(row), row])
    assert capfd.readouterr().err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row, vertex", [
    ([7e307, -9e307], None),
    ([8.653143139788164e307, -1.7893044531354165e308], 7)])
def test_g2_rows_near_the_float_maximum_are_typed_errors(capfd, row, vertex):
    # no cone's sums are finite for the first row, which raised
    # CompletenessError; the second row lies in the cone locate_cone
    # finds for it in Fractions, but its image leaves the float range
    est = fitted("G2")
    with pytest.raises(FloatRangeError, match=r"of row \[[78]"):
        est.transform([[0.5, 1.0], row])
    if vertex is None:
        with pytest.raises(FloatRangeError, match="cone test of row"):
            est.predict([row])
    else:
        assert est.predict([row]).tolist() == [vertex]
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("row", [[-4.5e100, 4.5e100], [-1.5e300, 1.5e300]])
def test_inverse_transform_of_large_rows_round_trips(row):
    # rounding puts chart 7's first coordinate near -7.8e84 for the first
    # row, where it should be about 2.64: below -TOL in every chart, so
    # the row raised HomeomorphismError; it now takes the nearest chart
    est = EarthquakeTransformer("G2").fit()
    back = est.transform(est.inverse_transform([[0.5, 1.0], row]))
    assert np.abs(back[1] - row).max() <= 1e-12 * np.abs(row).max()


def test_inverse_transform_without_the_chart_still_raises():
    # with its deepest tree level dropped the fan misses the cones there;
    # a row that only they realize is beyond the rounding allowance
    est = EarthquakeTransformer("A2").fit()
    last = est.pattern_.fan()[-1]
    L = [[float(sum(c)) for c in zip(*last.generators)]]
    assert est.predict(L)[0] == last.vertex_id
    assert est._depth[-1] == len(est._levels)
    row = est.transform(L)[0]
    est._levels = est._levels[:-1]
    with pytest.raises(HomeomorphismError, match=r"realizes the inverse "
                       r"image of row \[-?\d"):
        est.inverse_transform([[0.5, 1.0], row])


def test_fit_builds_no_vertex():
    # fit reads the exchange matrices off the cone records
    assert EarthquakeTransformer("D4").fit().pattern_.stats[
        "vertex_cache"] == 0


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_transform_on_rays_matches_quake_log(label):
    # a ray far out has coordinates of order 1 beside huge ones; each
    # must come out as quake_log gives it
    est = fitted(label)
    P = est.pattern_
    log_g0 = [math.log(x) for x in est.g0_.X]
    X = np.array([[t * c for c in g] for cone in P.fan()
                  for g in cone.generators for t in (1.0, 1e3, 1e300)])
    for row, image in zip(X, est.transform(X)):
        want, _ = quake_log(P, log_g0, TropicalPoint(P.base, tuple(row)))
        want = np.array(want)
        assert (np.abs(image - want)
                <= 1e-9 * np.maximum(1.0, np.abs(want))).all()


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_batch_path_on_every_type(label, monkeypatch):
    est = fitted(label)
    P, g0 = est.pattern_, est.g0_
    # one interior point per cone: a positive mix of its generators
    X = np.array([[sum((j + 1) / P.n * g[i]
                       for j, g in enumerate(cone.generators))
                   for i in range(P.n)] for cone in P.fan()])
    cones, Y = est.predict(X), est.transform(X)
    back = est.inverse_transform(Y)
    for row, cone, image, got in zip(X, cones, Y, back):
        assert cone == locate_cone(TropicalPoint(P.base, tuple(row)),
                                   P).vertex
        g = PositivePoint(P.base, tuple(math.exp(c) for c in image))
        assert_close(got, inverse_quake(P, g0, g).x, row)

    empty = np.empty((0, P.n))
    assert est.transform(empty).shape == (0, P.n)
    assert est.inverse_transform(empty).shape == (0, P.n)
    assert est.predict(empty).shape == (0,)

    # one row per chunk
    monkeypatch.setattr(estimators, "_CHUNK", 1)
    assert np.array_equal(est.predict(X), cones)
    assert np.array_equal(est.transform(X), Y)
    assert np.array_equal(est.inverse_transform(Y), back)
