import math
import random

import pytest

import clusterquake as cq
from clusterquake import earthquake, horocycle, points
from clusterquake import (
    BoundaryError,
    CentralCharge,
    CoordinateError,
    FloatRangeError,
    GluingDomainError,
    PositivePoint,
    PreconditionError,
    TropicalPoint,
    conjugacy_residual,
    glue,
    horocycle_flow,
    lift,
)


@pytest.fixture(scope="module")
def A2():
    return cq.pattern_from_type("A2")


def test_central_charge_validation():
    Z = CentralCharge(0, (1, 2 + 1j))
    assert Z.z == (complex(1, 0), complex(2, 1))
    with pytest.raises(ValueError):
        CentralCharge(0, (1j, -1j))
    with pytest.raises(ValueError):
        CentralCharge(0, (0j, 1j))


@pytest.mark.parametrize("z", [(1j, -1j), (0j, 1j)],
                         ids=["below_the_real_axis", "zero"])
def test_central_charge_entries_raise_coordinate_error(z):
    # a ValueError still, as before the error was typed
    with pytest.raises(CoordinateError):
        CentralCharge(0, z)


@pytest.mark.parametrize("z0", [math.nan, math.inf, complex(1, math.inf)],
                         ids=["nan", "inf", "inf_imaginary"])
def test_central_charge_non_finite_entries_raise_coordinate_error(z0):
    with pytest.raises(CoordinateError, match="entry 0 .* not finite"):
        CentralCharge(0, (z0, 1j))


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_horocycle_flow_needs_a_finite_time(t):
    with pytest.raises(PreconditionError, match="flow time must be finite"):
        horocycle_flow(CentralCharge(0, (1 + 1j, 1j)), t)


def test_horocycle_flow_leaving_the_float_range_raises_float_range_error():
    # both inputs are finite; 1e10 * 1e308 is not
    with pytest.raises(FloatRangeError, match="float range"):
        horocycle_flow(CentralCharge(0, (1 + 1e10j, 1j)), 1e308)


@pytest.mark.parametrize("z", [(1, 1j, 1j), (1,)], ids=["rank_3", "rank_1"])
def test_glue_of_the_wrong_rank_raises_precondition_error(A2, z):
    # rank 3 raised IndexError, and rank 1 glued to a rank-1 charge
    with pytest.raises(PreconditionError,
                       match=f"point has {len(z)} coordinates, pattern "
                             "has rank 2"):
        glue(CentralCharge(0, z), A2, 0)


@pytest.mark.parametrize("k", [2, -1])
def test_glue_direction_out_of_range_raises_precondition_error(A2, k):
    # k == n used to raise IndexError, and -1 glued along the last wall
    with pytest.raises(PreconditionError, match=rf"no edge \('mu', {k}\)"):
        glue(CentralCharge(0, (1, 1)), A2, k)


def test_glue_frozen_example(A2):
    Z = CentralCharge(0, (-1, 2 + 1j))
    out = glue(Z, A2, 0)
    assert out.chart == A2.mut_edges[(0, 0)]
    assert out.z == (complex(1, 0), complex(1, 1))


def test_glue_is_involutive(A2):
    rng = random.Random(11)
    for _ in range(100):
        k = rng.randrange(2)
        z = [complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
             for _ in range(2)]
        z[k] = complex(rng.choice([-1, 1]) * rng.uniform(0.1, 2), 0)
        Z = CentralCharge(0, tuple(z))
        back = glue(glue(Z, A2, k), A2, k)
        assert back.chart == 0
        assert max(abs(a - b) for a, b in zip(back.z, Z.z)) < 1e-12


def test_glue_domain_errors(A2):
    with pytest.raises(GluingDomainError):
        glue(CentralCharge(0, (1 + 1j, 1)), A2, 0)  # z_0 not real
    with pytest.raises(GluingDomainError):
        glue(CentralCharge(0, (1e-12 + 0j, 1j)), A2, 0)  # z_0 at puncture


def test_flow_composes():
    Z = CentralCharge(0, (1 + 2j, -3 + 0.5j))
    once = horocycle_flow(horocycle_flow(Z, 0.7), 1.3)
    both = horocycle_flow(Z, 2.0)
    assert max(abs(a - b) for a, b in zip(once.z, both.z)) < 1e-12
    # real entries are fixed points
    fixed = horocycle_flow(CentralCharge(0, (-2, 5 + 1j)), 10.0)
    assert fixed.z[0] == complex(-2, 0)


def test_glue_commutes_with_flow(A2):
    rng = random.Random(23)
    for _ in range(100):
        k = rng.randrange(2)
        z = [complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
             for _ in range(2)]
        z[k] = complex(rng.choice([-1, 1]) * rng.uniform(0.1, 2), 0)
        Z = CentralCharge(0, tuple(z))
        t = rng.uniform(0.1, 3.0)
        lhs = horocycle_flow(glue(Z, A2, k), t)
        rhs = glue(horocycle_flow(Z, t), A2, k)
        assert lhs.chart == rhs.chart
        assert max(abs(a - b) for a, b in zip(lhs.z, rhs.z)) <= 1e-12


def test_lift_frozen(A2):
    Z = lift(A2, PositivePoint(0, (1.0, 1.0)), TropicalPoint(0, (2.5, 1.5)))
    assert Z.chart == 0
    assert Z.z == (complex(0, 2.5), complex(0, 1.5))


def test_lift_respects_cone_chart(A2):
    g = PositivePoint(0, (2.0, 0.5))
    L = TropicalPoint(0, (-1.0, 2.0))  # interior of cone 1
    Z = lift(A2, g, L)
    assert Z.chart == 1
    gv = cq.positive_transport(g, A2, 1)
    for a, b in zip(Z.z, gv.X):
        assert abs(a.real - math.log(b)) < 1e-12
    xv = cq.tropical_transport(L, A2, 1)
    assert tuple(c.imag for c in Z.z) == xv.x


def test_lift_rejects_walls(A2):
    with pytest.raises(BoundaryError):
        lift(A2, PositivePoint(0, (1.0, 1.0)), TropicalPoint(0, (0.0, 1.0)))


def test_conjugacy_residual_random():
    rng = random.Random(5)
    for label in ["A2", "B3"]:
        P = cq.pattern_from_type(label)
        done = 0
        while done < 100:
            g = PositivePoint(0, tuple(math.exp(rng.uniform(-1, 1))
                                       for _ in range(P.n)))
            L = TropicalPoint(0, tuple(rng.uniform(-4, 4)
                                       for _ in range(P.n)))
            try:
                assert conjugacy_residual(P, g, L, rng.uniform(0.1, 2)) \
                    <= 1e-10
            except BoundaryError:
                continue
            done += 1


def test_conjugacy_residual_locates_twice(monkeypatch):
    # once for quake's scaled point, once for the lift of L
    calls = []

    def counted(L, P):
        calls.append(L)
        return points.locate_cone(L, P)

    monkeypatch.setattr(earthquake, "locate_cone", counted)
    monkeypatch.setattr(horocycle, "locate_cone", counted)
    P = cq.pattern_from_type("B3")
    g = PositivePoint(0, (1.5, 0.5, 2.0))
    L = TropicalPoint(0, (0.3, -1.7, 2.2))
    assert conjugacy_residual(P, g, L, 0.7) <= 1e-10
    assert len(calls) == 2
