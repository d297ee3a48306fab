"""intmat's products against the generator-expression sums they replaced.

The wall flags of locate_cone, and predict's ids, which must equal
locate_cone's, read these sums on floats: so every entry must come out
bit-identical, compared by repr, so that -0.0, nan and the sign of inf
count, and an input whose sum cannot be formed must fail alike."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from clusterquake import intmat

BIG = 1.7976931348623157e308

ENTRIES = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(),
    # every magnitude, subnormals, +-0.0, +-inf and nan
    st.floats(),
    # sums of two of these overflow
    st.floats(1e307, BIG).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.inf, -math.inf, math.nan, BIG, -BIG]),
)


def matmul_reference(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec_reference(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def outcome(product, *args):
    """repr of the product, or the type and message of what it raised."""
    try:
        return repr(product(*args))
    except ArithmeticError as err:
        return type(err), str(err)


def matrices(rows, cols):
    row = st.tuples(*[ENTRIES] * cols)
    return st.tuples(*[row] * rows)


dims = st.integers(1, 5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matvec_is_bit_identical_to_generator_sums(data):
    rows, cols = data.draw(dims), data.draw(dims)
    m = data.draw(matrices(rows, cols))
    v = data.draw(matrices(1, cols))[0]
    assert outcome(intmat.matvec, m, v) == outcome(matvec_reference, m, v)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_is_bit_identical_to_generator_sums(data):
    rows, inner, cols = data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(matrices(rows, inner))
    b = data.draw(matrices(inner, cols))
    assert outcome(intmat.matmul, a, b) == outcome(matmul_reference, a, b)


def test_mixed_rows_keep_their_types():
    # ints and Fractions stay exact; a float anywhere makes a float sum
    m = ((1, Fraction(1, 3), 2), (-0.0, 0, 0))
    v = (Fraction(1, 2), 3, 5e-324)
    assert repr(intmat.matvec(m, v)) == repr(matvec_reference(m, v))
    assert intmat.matvec(m[:1], (1, 3, 0)) == (Fraction(2),)
    assert repr(intmat.matvec(m[1:], v)) == "(0.0,)"


def test_sums_near_the_float_maximum():
    # overflow to inf, cancel back, and inf - inf: the order of the sum
    # decides each
    m = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, 1, 1))
    for v in [(BIG, BIG, BIG), (BIG, -BIG, BIG), (BIG, 1e292, -BIG),
              (math.inf, BIG, BIG), (-BIG, -BIG, 1e308)]:
        assert repr(intmat.matvec(m, v)) == repr(matvec_reference(m, v))
        assert repr(intmat.matmul(m, tuple(zip(v, v)))) == repr(
            matmul_reference(m, tuple(zip(v, v))))
    assert intmat.matvec(m, (BIG, BIG, BIG))[0] == math.inf
