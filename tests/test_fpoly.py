from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from clusterquake import FPolynomial, InternalConsistencyError
from clusterquake.fpoly import f_matrix


def poly(nvars, terms):
    out = FPolynomial.constant(nvars, 0)
    for exp, coef in terms.items():
        out = out + FPolynomial.monomial(nvars, exp, coef)
    return out


def _poly_strategy(draw, nvars):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        exp = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        terms[exp] = draw(st.integers(-4, 4))
    return poly(nvars, terms)


@st.composite
def polynomials(draw):
    return _poly_strategy(draw, draw(st.integers(1, 3)))


@st.composite
def poly_triples(draw):
    nvars = draw(st.integers(1, 3))
    return tuple(_poly_strategy(draw, nvars) for _ in range(3))


@given(poly_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + a * FPolynomial.constant(a.nvars, -1) == poly(a.nvars, {})


@given(polynomials())
def test_multiply_then_divide(p):
    one = FPolynomial.constant(p.nvars)
    q = p * p + one  # nonzero, constant term >= 1
    assert (q * p).exact_div(q) == p


@st.composite
def divisions(draw):
    """(a, b, m) in the same variables: a polynomial a, a divisor b with
    constant term 1 and at least one other term, and a monomial m."""
    nvars = draw(st.integers(1, 3))
    one = FPolynomial.constant(nvars)
    a = _poly_strategy(draw, nvars)
    r = _poly_strategy(draw, nvars)
    y = FPolynomial.variable(nvars, draw(st.integers(0, nvars - 1)))
    b = one + y * (r if r.terms else one)
    m = FPolynomial.monomial(
        nvars, tuple(draw(st.integers(0, 4)) for _ in range(nvars)),
        draw(st.integers(1, 4)) * draw(st.sampled_from((1, -1))))
    return a, b, m


@given(divisions())
def test_exact_div_undoes_multiplication(case):
    a, b, m = case
    assert (a * b).exact_div(b) == a
    # b has two terms or more, so no multiple of b differs from a * b by
    # one monomial: the division must fail, and must stop
    with pytest.raises(InternalConsistencyError):
        (a * b + m).exact_div(b)


def test_exact_div_failure():
    x = FPolynomial.variable(2, 0)
    one = FPolynomial.constant(2)
    with pytest.raises(InternalConsistencyError):
        (x + one).exact_div(x)


def test_eval_exact():
    # 1 + y0 + y0*y1 at y = (2/3, 5)
    f = poly(2, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    assert f.eval((Fraction(2, 3), 5)) == Fraction(15, 3)
    with pytest.raises(ValueError):
        f.eval((Fraction(-1), 1))


def test_max_degrees_and_constant_term():
    f = poly(2, {(0, 0): 1, (1, 0): 2, (1, 3): 1})
    assert f.max_degrees() == (1, 3)
    assert f.constant_term() == 1
    assert f_matrix((f, FPolynomial.constant(2))) == ((1, 3), (0, 0))


def test_pow():
    x = FPolynomial.variable(1, 0)
    one = FPolynomial.constant(1)
    assert (x + one) ** 3 == poly(1, {(0,): 1, (1,): 3, (2,): 3, (3,): 1})
    assert (x + one) ** 0 == one


def test_json_round_trip():
    import json

    f = poly(2, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    records = json.loads(f.to_json())
    assert records == [{"exp": [0, 0], "coef": 1},
                       {"exp": [1, 0], "coef": 1},
                       {"exp": [1, 1], "coef": 1}]
    assert FPolynomial.from_json(f.to_json()) == f
    assert FPolynomial.from_json(records, nvars=2) == f
    with pytest.raises(ValueError):
        FPolynomial.from_json([])
