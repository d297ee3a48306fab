"""Sparse integer polynomials in y_0..y_{n-1} and the F-polynomial recursion.

Terms are stored as a map {exponent tuple: coefficient}; zero coefficients
are never kept.  Division is exact leading-term elimination from the low
end (graded-lex, smallest first); a quotient term of higher degree than
an exact quotient can have proves the division inexact, so it always
terminates.
"""

from __future__ import annotations

import json
from heapq import heapify, heappop, heappush
from operator import add

from .errors import InternalConsistencyError, PreconditionError
from .seeds import _is_id


def _grlex_key(exp):
    return (sum(exp), exp)


class FPolynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        clean = {}
        for exp, coef in terms.items():
            if coef:
                clean[tuple(exp)] = int(coef)
        self.terms = clean
        self._hash = None

    @classmethod
    def _of(cls, nvars, terms):
        """A polynomial on terms that are already clean: tuple exponents
        and non-zero int coefficients; the dict is taken, not copied."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        poly._hash = None
        return poly

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, nvars, value=1):
        return cls._of(nvars, {(0,) * nvars: int(value)} if value else {})

    @classmethod
    def variable(cls, nvars, j):
        exp = tuple(1 if i == j else 0 for i in range(nvars))
        return cls(nvars, {exp: 1})

    @classmethod
    def monomial(cls, nvars, exps, coef=1):
        return cls(nvars, {tuple(exps): coef})

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            c = out.get(exp, 0) + coef
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
        return FPolynomial._of(self.nvars, out)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                c = out.get(exp, 0) + c1 * c2
                if c:
                    out[exp] = c
                else:
                    del out[exp]
        return FPolynomial._of(self.nvars, out)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return FPolynomial.constant(self.nvars) if result is None else result

    def exact_div(self, divisor):
        """self / divisor with remainder required to vanish.

        The remainder's terms are eliminated smallest first (graded-lex),
        each by a multiple of the divisor's smallest term; a term that the
        smallest one does not divide, or a quotient term of degree above
        deg(self) - deg(divisor), makes the division inexact."""
        if not divisor.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        d_exp = min(divisor.terms, key=_grlex_key)
        d_coef = divisor.terms[d_exp]
        rest = [(e, c) for e, c in divisor.terms.items() if e != d_exp]
        rem = dict(self.terms)
        heap = [(sum(e), e) for e in rem]
        heapify(heap)
        # a term of an exact quotient has degree at most deg(self) -
        # deg(divisor), so the term it eliminates has degree at most top
        top = (max(heap)[0] - max(map(sum, divisor.terms)) + sum(d_exp)
               if heap else 0)
        quo = {}
        while heap:
            deg, exp = heappop(heap)
            coef = rem.pop(exp)
            if not coef:
                continue
            q_exp = tuple(a - b for a, b in zip(exp, d_exp))
            if min(q_exp) < 0 or coef % d_coef or deg > top:
                raise InternalConsistencyError(
                    "inexact polynomial division (wrong C or eps supplied?)")
            q_coef = coef // d_coef
            quo[q_exp] = q_coef
            # the product with d_exp cancels exp; every other one is larger
            # in graded-lex order, so not yet popped
            for e2, c2 in rest:
                e = tuple(map(add, q_exp, e2))
                if e in rem:
                    rem[e] -= q_coef * c2
                else:
                    rem[e] = -q_coef * c2
                    heappush(heap, (sum(e), e))
        return FPolynomial._of(self.nvars, quo)

    # -- queries ---------------------------------------------------------

    def eval(self, ys):
        """Evaluate at positive numbers (exactly when they are Fractions)."""
        if len(ys) != self.nvars:
            raise ValueError("wrong number of values")
        if any(y <= 0 for y in ys):
            raise ValueError("F-polynomials are evaluated at positive points")
        total = 0
        for exp, coef in self.terms.items():
            term = coef
            for y, e in zip(ys, exp):
                if e:
                    term = term * y ** e
            total += term
        return total

    def max_degrees(self):
        """Componentwise maximal exponent over all terms (row of the F-matrix)."""
        degs = [0] * self.nvars
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e > degs[i]:
                    degs[i] = e
        return tuple(degs)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FPolynomial) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash",
                               hash(frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, key=_grlex_key):
            coef = self.terms[exp]
            mono = "*".join(
                f"y{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp) if e)
            if mono:
                bits.append(f"{coef}*{mono}" if coef != 1 else mono)
            else:
                bits.append(str(coef))
        return " + ".join(bits)

    def to_records(self):
        """The terms as [{"exp": [...], "coef": c}, ...], graded-lex order;
        the format of to_json and of the F entries of enumerate's JSON."""
        return [{"exp": list(exp), "coef": self.terms[exp]}
                for exp in sorted(self.terms, key=_grlex_key)]

    def to_json(self):
        return json.dumps(self.to_records())

    @classmethod
    def from_json(cls, data, nvars=None):
        """Accepts the JSON text or the already-decoded record list."""
        records = json.loads(data) if isinstance(data, (str, bytes)) else data
        if nvars is None:
            if not records:
                raise ValueError("cannot infer variable count")
            nvars = len(records[0]["exp"])
        return cls(nvars, {tuple(r["exp"]): r["coef"] for r in records})


def mutate_F(fs, c_matrix, eps, k):
    """One mutation step of the F-polynomial tuple in direction k.

    c_matrix is the C-matrix at the current vertex (rows = c-vectors) and
    eps its exchange matrix.  Only entry k changes:

        F_k' * F_k = prod_j y_j^[c_kj]+ * prod_l F_l^[eps_kl]+
                   + prod_j y_j^[-c_kj]+ * prod_l F_l^[-eps_kl]+

    The division is required to be exact.  PreconditionError when k is
    not an integer in range(n).
    """
    n = len(fs)
    if not _is_id(k, n):
        raise PreconditionError(
            f"direction {k!r} is not an integer in range({n})")
    c_row = c_matrix[k]
    e_row = eps.entries[k]
    pos = FPolynomial.monomial(n, tuple(max(0, x) for x in c_row))
    neg = FPolynomial.monomial(n, tuple(max(0, -x) for x in c_row))
    for l in range(n):
        if e_row[l] > 0:
            pos = pos * fs[l] ** e_row[l]
        elif e_row[l] < 0:
            neg = neg * fs[l] ** (-e_row[l])
    new_fk = (pos + neg).exact_div(fs[k])
    if new_fk.constant_term() != 1:
        raise InternalConsistencyError("F-polynomial lost its constant term 1")
    return tuple(new_fk if i == k else fs[i] for i in range(n))


def f_matrix(fs):
    """Matrix of maximal degrees: row i lists the top exponent of each
    variable in F_i."""
    return tuple(f.max_degrees() for f in fs)
