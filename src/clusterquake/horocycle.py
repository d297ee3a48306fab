"""Horocycle flow on tuples of upper-half-plane coordinates.

A central charge packages log X (real part) and tropical coordinates
(imaginary part) of a pair (g, L) in the chart whose cone contains L.
The horocycle flow z -> Re z + t Im z + i Im z is conjugate to the
earthquake flow under this lift, and the wall-crossing glue map is the
chart change on the locus where one coordinate is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundaryError, GluingDomainError
from .patterns import ExchangePattern
from .points import TOL, PositivePoint, TropicalPoint, _floats, _logs, \
    locate_cone, positive_transport, scale
from .earthquake import quake


@dataclass(frozen=True)
class CentralCharge:
    chart: int
    z: tuple  # complex entries, Im >= 0, none equal to 0

    def __post_init__(self):
        zs = tuple(complex(c) for c in self.z)
        object.__setattr__(self, "z", zs)
        for i, c in enumerate(zs):
            if c.imag < -1e-12:
                raise ValueError(
                    f"entry {i} of a central charge lies below the real axis")
            if c == 0:
                raise ValueError(f"entry {i} of a central charge is zero")


def glue(Z: CentralCharge, P: ExchangePattern, k: int) -> CentralCharge:
    """Cross the k-th wall: defined only where z_k is real and nonzero.

    An involution (crossing back from the adjacent chart returns the
    input), and the identity on the geometric data: both charts describe
    the same pair (g, L) with L on the shared cone face.
    """
    z = Z.z
    if abs(z[k].imag) > TOL:
        raise GluingDomainError(
            f"glue direction {k} needs a real coordinate there, got {z[k]}")
    if abs(z[k].real) <= TOL:
        raise GluingDomainError(f"glue direction {k} hit the puncture z_{k}=0")
    eps = P.vertex(Z.chart).eps.entries
    s = 1 if z[k].real > 0 else -1
    zk = z[k].real
    out = list(z)
    out[k] = complex(-zk, 0.0)
    for i in range(len(z)):
        if i != k:
            out[i] = z[i] + max(0, -s * eps[i][k]) * zk
    return CentralCharge(P.neighbor(Z.chart, ("mu", k)), tuple(out))


def horocycle_flow(Z: CentralCharge, t: float) -> CentralCharge:
    return CentralCharge(
        Z.chart,
        tuple(complex(c.real + t * c.imag, c.imag) for c in Z.z))


def lift(P: ExchangePattern, g: PositivePoint,
         L: TropicalPoint) -> CentralCharge:
    """Central charge of (g, L): log X^(v)(g) + i x^(v)(L), v = cone of L.

    L must be interior to its cone; on a wall the imaginary part of some
    coordinate vanishes and the lift is ambiguous between charts.
    """
    located = locate_cone(L, P)
    if any(located.boundary):
        walls = [i for i, b in enumerate(located.boundary) if b]
        raise BoundaryError(
            f"tropical point lies on wall(s) {walls} of cone "
            f"{located.vertex}; the lift needs an interior point")
    v = located.vertex
    gv = positive_transport(g, P, v)
    return CentralCharge(v, tuple(
        complex(a, b)
        for a, b in zip(_logs(gv.X, "g"), _floats(located.x, "L"))))


def conjugacy_residual(P: ExchangePattern, g: PositivePoint,
                       L: TropicalPoint, t: float) -> float:
    """max_i |lift(quake(g, tL), L)_i - horocycle_flow(lift(g, L), t)_i|.

    Both lifts share the chart and imaginary parts of Z = lift(g, L)."""
    Z = lift(P, g, L)
    moved = positive_transport(quake(P, g, scale(L, t)).g, P, Z.chart)
    return max(abs(complex(math.log(float(a)), z.imag) - w)
               for a, z, w in zip(moved.X, Z.z, horocycle_flow(Z, t).z))
