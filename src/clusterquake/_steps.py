"""Single-edge coordinate transformations.

These are the building blocks shared by the pattern enumerator and the
point-transport code: one mutation step (or one relabeling step) applied
to tropical coordinates, positive coordinates, log-positive coordinates
and log-coordinate tangent vectors.  Each function takes the exchange
matrix of the chart the step starts from.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _sgn(x):
    return (x > 0) - (x < 0)


def trop_mutation(x, eps, k):
    """Tropical cluster transformation x -> x' along mutation k.

    x'_k = -x_k,  x'_i = x_i - eps_ik * min(0, -sgn(eps_ik) * x_k).
    Exact for int/Fraction inputs.
    """
    out = list(x)
    xk = x[k]
    for i, row in enumerate(eps):
        e = row[k]  # eps_kk = 0, and entry k is set below
        if e > 0:
            out[i] = x[i] - e * min(0, -xk)
        elif e:
            out[i] = x[i] - e * min(0, xk)
    out[k] = -xk
    return tuple(out)


def pos_mutation(X, eps, k):
    """Positive-real cluster transformation along mutation k.

    X'_k = 1/X_k,  X'_i = X_i * (1 + X_k^{-sgn eps_ik})^{-eps_ik}.
    Exact for int and Fraction inputs: with X_k = a/b in lowest terms, an
    exact X_i is multiplied by (a/(a+b))^e for e = eps_ik > 0 and by
    ((a+b)/b)^-e for e < 0, one Fraction built from integers.  A float
    X_k, or a float X_i, takes the expression above as it stands.
    """
    out = list(X)
    Xk = X[k]
    if isinstance(Xk, float):
        out[k] = 1 / Xk
        # X_k ** -sgn(e), spelled as such: the float results stay the
        # bits of the formula
        for i, row in enumerate(eps):
            e = row[k]
            if e > 0:
                out[i] = X[i] * (1 + Xk ** -1) ** -e
            elif e:
                out[i] = X[i] * (1 + Xk ** 1) ** -e
        return tuple(out)
    if not isinstance(Xk, Fraction):
        Xk = Fraction(Xk)
    out[k] = 1 / Xk
    a, b = Xk.numerator, Xk.denominator
    for i, row in enumerate(eps):
        e = row[k]
        if not e:
            continue
        Xi = X[i]
        if not isinstance(Xi, (int, Fraction)):
            out[i] = Xi * (1 + Xk ** (-1 if e > 0 else 1)) ** -e
        elif e > 0:
            out[i] = Fraction(Xi.numerator * a ** e,
                              Xi.denominator * (a + b) ** e)
        else:
            out[i] = Fraction(Xi.numerator * (a + b) ** -e,
                              Xi.denominator * b ** -e)
    return tuple(out)


def log_mutation(u, eps, k):
    """pos_mutation conjugated by log: u = log X componentwise,
    u'_k = -u_k,  u'_i = u_i - eps_ik * softplus(-sgn(eps_ik) * u_k)."""
    out = list(u)
    uk = u[k]
    # softplus(-u_k) and softplus(u_k), softplus(t) = log(1 + e^t) taken
    # as max(t, 0) + log1p(e^-|t|) so that no exp overflows
    tail = math.log1p(math.exp(-abs(uk)))
    down = -uk + tail if uk < 0 else tail
    up = uk + tail if uk > 0 else tail
    for i, row in enumerate(eps):
        e = row[k]
        if e > 0:
            out[i] = u[i] - e * down
        elif e:
            out[i] = u[i] - e * up
    out[k] = -uk
    return tuple(out)


def jac_mutation(u, eps, k):
    """Jacobian of log_mutation at log-coordinates u (row-major tuples).

    d log X'_k / d log X_k = -1;  d log X'_i / d log X_i = 1;
    d log X'_i / d log X_k = |eps_ik| * sigma(-sgn(eps_ik) * u_k)
    with sigma the logistic function; all other entries vanish.
    """
    n = len(u)
    rows = []
    for i in range(n):
        row = [0.0] * n
        if i == k:
            row[k] = -1.0
        else:
            row[i] = 1.0
            e = eps[i][k]
            if e:
                s = _sgn(e)
                row[k] = abs(e) / (1.0 + math.exp(s * u[k]))
        rows.append(tuple(row))
    return tuple(rows)


def apply_perm(vec, images):
    """Relabeled coordinates across a relabel edge: out_i = vec[images[i]].

    A relabel edge is a transposition sigma, its own inverse, so indexing
    by its images gives out_i = vec[sigma^{-1}(i)]."""
    return tuple(vec[j] for j in images)

