"""Correctness checks and oracles of the benchmark, independent of clusterquake.

Nothing here imports the package under test.  The cluster counts are the
finite-type counts of Fomin-Zelevinsky, *Cluster algebras II*; the rank-2
and polygon counts are brute-force enumerations that the self-tests
compare against them.  Each check returns None or raises CheckFailed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- oracles -----------------------------------------------------------------


def parse_type(label):
    """("A", 3) for "A3"; ("A1xA1", 2) for the reducible rank-2 type."""
    if label.upper() == "A1XA1":
        return "A1xA1", 2
    return label[0].upper(), int(label[1:])


def fz_cluster_count(label):
    """Number of clusters (maximal cones of the fan) of a finite type."""
    family, n = parse_type(label)
    if family == "A1xA1":
        return 4
    if family == "A":
        return math.comb(2 * n + 2, n + 1) // (n + 2)
    if family in "BC":
        return math.comb(2 * n, n)
    if family == "D":
        return (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n
    return {("E", 6): 833, ("E", 7): 4160, ("E", 8): 25080, ("F", 4): 105,
            ("G", 2): 8}[(family, n)]


def relabelings(label):
    """prod m_i! over the classes of equal symmetrizer entries: the number of
    labeled seeds per cluster.  Long and short roots form the two classes
    of a non-simply-laced type."""
    family, n = parse_type(label)
    if family in "BC":
        return math.factorial(n - 1)
    if family == "F":
        return 4
    if family == "G":
        return 1
    return math.factorial(n)


def rank2_cluster_count(b, c):
    """Distinct clusters of the rank-2 algebra with |eps_01| = b and
    |eps_10| = c, by iterating x_{m-1} x_{m+1} = x_m^e + 1 (e alternating
    b, c) from generic rational values until the seed repeats."""
    start = (Fraction(3), Fraction(5, 7))
    x, y = start
    clusters = set()
    for m in range(100):
        clusters.add(frozenset((x, y)))
        e = b if m % 2 == 0 else c
        x, y = y, (y ** e + 1) / x
        if (x, y) == start:
            return len(clusters)
    raise CheckFailed(f"rank-2 exchange ({b}, {c}) is not periodic")


def polygon_triangulations(sides):
    """Triangulations of a convex polygon, by testing every set of
    sides - 3 diagonals for pairwise non-crossing."""
    diagonals = [(i, j) for i in range(sides) for j in range(i + 2, sides)
                 if not (i == 0 and j == sides - 1)]

    def cross(p, q):
        (a, b), (c, d) = p, q
        return a < c < b < d or c < a < d < b

    return sum(1 for chosen in itertools.combinations(diagonals, sides - 3)
               if not any(cross(p, q)
                          for p, q in itertools.combinations(chosen, 2)))


# -- exact linear algebra ------------------------------------------------------


def determinant(matrix):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve(matrix, rhs):
    """Exact solution of matrix * lam = rhs over the rationals."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(r)]
           for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise CheckFailed("cone matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


# -- checks --------------------------------------------------------------------


def check_counts(label, labeled, cones):
    clusters = fz_cluster_count(label)
    expect(cones == clusters,
           f"{label}: fan has {cones} cones, FZ count is {clusters}")
    expect(labeled == clusters * relabelings(label),
           f"{label}: {labeled} labeled vertices, expected {clusters} x "
           f"{relabelings(label)}")


def check_unimodular(matrix):
    det = determinant(matrix)
    expect(det in (1, -1), f"cone matrix {matrix} has determinant {det}")


def check_sign_coherent(c_matrix):
    for row in c_matrix:
        expect(any(row) and (min(row) >= 0 or max(row) <= 0),
               f"c-vector {row} is not sign-coherent")


def check_zero(matrix, what):
    expect(all(x == 0 for row in matrix for x in row),
           f"{what} residual {matrix} is not zero")


def check_nonpositive(matrix, what):
    expect(all(x <= 0 for row in matrix for x in row),
           f"{what} {matrix} has a positive entry")


def check_close(got, want, tol, what):
    expect(len(got) == len(want), f"{what}: length {len(got)} != {len(want)}")
    err = max((abs(float(a) - float(b)) for a, b in zip(got, want)),
              default=0.0)
    expect(err <= tol, f"{what}: error {err:.3e} exceeds {tol:g}")


def check_at_most(value, limit, what):
    expect(value <= limit, f"{what}: {value:.3e} exceeds {limit:g}")


def check_in_cone(generators, point, tol):
    """generators: integer matrix whose columns span the cone."""
    lam = solve(generators, [Fraction(x) for x in point])
    expect(min(lam) >= -tol,
           f"point {tuple(point)} is outside the cone {generators}")


def a2_charts(a, b):
    """X-coordinates of the five A2 charts along mu_0 mu_1 mu_0 mu_1 from
    the base chart, for eps = [[0, -1], [1, 0]] and base values (a, b)."""
    return [(a, b),
            (1 / a, a * b / (1 + a)),
            (b / (1 + a + a * b), (1 + a) / (a * b)),
            ((1 + a + a * b) / b, 1 / (a * (1 + b))),
            (1 / b, a * (1 + b))]


def check_exit(returncode, output, argv):
    expect(returncode == 0,
           f"{' '.join(argv)} exited {returncode}: {output[-300:]!r}")
