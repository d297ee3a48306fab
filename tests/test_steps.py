"""The step kernels against reference copies of their textbook forms.

The references below are the kernels as first written, one _sgn call
and one formula per changed row.  The kernels must give the same bits
on floats, the same values and types on ints, Fractions and mixes, and
raise the same errors.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import clusterquake as cq
from clusterquake import FloatRangeError, _steps
from clusterquake.earthquake import _pos_step

KERNEL_TYPES = ["A1xA1", "A2", "B2", "G2", "B3", "C3", "D4", "F4"]


def _sgn(x):
    return (x > 0) - (x < 0)


def ref_trop_mutation(x, eps, k):
    out = list(x)
    xk = x[k]
    out[k] = -xk
    for i, row in enumerate(eps):
        if i == k:
            continue
        e = row[k]
        if e:
            out[i] = x[i] - e * min(0, -_sgn(e) * xk)
    return tuple(out)


def ref_pos_mutation(X, eps, k):
    out = list(X)
    Xk = X[k]
    if not isinstance(Xk, float):
        Xk = Fraction(Xk)
    out[k] = 1 / Xk
    for i, row in enumerate(eps):
        if i == k:
            continue
        e = row[k]
        if e:
            s = _sgn(e)
            out[i] = X[i] * (1 + Xk ** (-s)) ** (-e)
    return tuple(out)


def _softplus(t):
    if t > 0:
        return t + math.log1p(math.exp(-t))
    return math.log1p(math.exp(t))


def ref_log_mutation(u, eps, k):
    out = list(u)
    uk = u[k]
    out[k] = -uk
    for i, row in enumerate(eps):
        if i == k:
            continue
        e = row[k]
        if e:
            s = _sgn(e)
            out[i] = u[i] - e * _softplus(-s * uk)
    return tuple(out)


@lru_cache(maxsize=None)
def exchange_matrices(label):
    """The exchange matrices of every cluster of the type, as entries."""
    return [cone.eps.entries for cone in cq.pattern_from_type(label).fan()]


def outcome(kernel, *args):
    """repr of the result, or the type of the error raised."""
    try:
        return repr(kernel(*args))
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


# floats of every magnitude, subnormals and signed zeros included
any_float = st.floats(allow_nan=False, allow_infinity=False)
positive_float = st.floats(min_value=0.0, exclude_min=True,
                           allow_infinity=False)
small_int = st.integers(-10 ** 6, 10 ** 6)
fraction = st.fractions(max_denominator=10 ** 6)


def cases(values):
    """(label, cluster pick, k, coordinates) drawn from values."""
    return st.tuples(st.sampled_from(KERNEL_TYPES), st.integers(0, 10 ** 6),
                     st.integers(0, 3), st.lists(values, min_size=4,
                                                 max_size=4))


def unpack(case):
    label, pick, k, coords = case
    matrices = exchange_matrices(label)
    eps = matrices[pick % len(matrices)]
    return tuple(coords[:len(eps)]), eps, k % len(eps)


@settings(max_examples=300, deadline=None)
@given(cases(any_float | small_int | fraction))
def test_trop_mutation_matches_reference(case):
    x, eps, k = unpack(case)
    assert outcome(_steps.trop_mutation, x, eps, k) \
        == outcome(ref_trop_mutation, x, eps, k)


@settings(max_examples=300, deadline=None)
@given(cases(positive_float | st.integers(1, 10 ** 6)
             | st.fractions(min_value=0, max_denominator=10 ** 6).filter(
                 lambda q: q > 0)))
def test_pos_mutation_matches_reference(case):
    X, eps, k = unpack(case)
    assert outcome(_steps.pos_mutation, X, eps, k) \
        == outcome(ref_pos_mutation, X, eps, k)


@settings(max_examples=300, deadline=None)
@given(cases(any_float))
def test_log_mutation_matches_reference(case):
    u, eps, k = unpack(case)
    assert outcome(_steps.log_mutation, u, eps, k) \
        == outcome(ref_log_mutation, u, eps, k)


@pytest.mark.parametrize("label", KERNEL_TYPES)
def test_kernels_match_reference_on_exact_and_mixed_points(label):
    # every cluster and direction, on ints, Fractions and both mixed
    # with floats; exact results keep their type
    points = [(3, 5, 2, 7),
              (Fraction(2, 3), Fraction(7, 5), 4, Fraction(1, 9)),
              (0.5, Fraction(7, 5), 4, 1e-300),
              (Fraction(3, 7), 2.5, 1e100, 3)]
    for eps in exchange_matrices(label):
        n = len(eps)
        for k in range(n):
            for X in points:
                for kernel, ref in (
                        (_steps.trop_mutation, ref_trop_mutation),
                        (_steps.pos_mutation, ref_pos_mutation)):
                    got, want = kernel(X[:n], eps, k), ref(X[:n], eps, k)
                    assert repr(got) == repr(want)
                    assert list(map(type, got)) == list(map(type, want))


# the G2 seed, and the matrix one mutation away
G2, G2_MUTATED = ((0, -1), (3, 0)), ((0, 1), (-3, 0))


@pytest.mark.parametrize("eps, X, k, error", [
    (G2, (1e-310, 2.0), 0, OverflowError),  # X_0 ** -1
    (G2_MUTATED, (1e200, 2.0), 0, OverflowError),  # (1 + X_0) ** 3
    (G2, (0.0, 1.0), 0, ZeroDivisionError),
    (G2, (1.0, 0.0), 1, ZeroDivisionError),
])
def test_pos_mutation_raises_as_the_reference(eps, X, k, error):
    for kernel in (_steps.pos_mutation, ref_pos_mutation):
        with pytest.raises(error):
            kernel(X, eps, k)
    # and the inverse earthquake's step reports either as out of range
    with pytest.raises(FloatRangeError):
        _pos_step(X, eps, k)
