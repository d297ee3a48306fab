"""Tiny exact dense matrix helpers.

Everything here works on tuples of tuples of ints (or Fractions) so
results can be hashed, compared exactly and stored on frozen dataclasses.
Ranks in finite type never exceed 8, so no attempt at being clever.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import InternalConsistencyError

IntMatrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m))


def matmul(a, b) -> IntMatrix:
    """a * b.  Each entry is summed left to right from the int 0, so a
    float entry rounds as the plain loop would."""
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def matvec(m, v):
    """m * v, summed as in matmul."""
    return tuple(sum(map(mul, row, v)) for row in m)


def column(m, j):
    return tuple(row[j] for row in m)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix with det = +-1.

    Gauss-Jordan over Fraction; raises InternalConsistencyError if the
    matrix is singular or the inverse is not integral (det != +-1).
    """
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise InternalConsistencyError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = []
    for row in aug:
        ints = []
        for x in row[n:]:
            if x.denominator != 1:
                raise InternalConsistencyError(
                    "matrix inverse is not integral (det != +-1)")
            ints.append(int(x))
        inv.append(tuple(ints))
    return tuple(inv)

