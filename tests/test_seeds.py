import numpy as np
import pytest
from hypothesis import given, strategies as st

from clusterquake import (
    ExchangeMatrix,
    FPolynomial,
    InvalidTypeError,
    Permutation,
    PreconditionError,
    SkewSymmetrizabilityError,
    SymmetrizerMismatchError,
    build_cartan_seed,
    mutate_F,
    seed_from_type,
)


def test_known_type_matrices():
    assert seed_from_type("A2").entries == ((0, -1), (1, 0))
    assert seed_from_type("B2").entries == ((0, -1), (2, 0))
    assert seed_from_type("G2").entries == ((0, -1), (3, 0))
    assert seed_from_type("A1xA1").entries == ((0, 0), (0, 0))
    assert seed_from_type("B3").entries == ((0, -1, 0), (1, 0, -1), (0, 2, 0))
    assert seed_from_type("C3").entries == ((0, -1, 0), (1, 0, -2), (0, 1, 0))
    assert seed_from_type("F4").entries == (
        (0, -1, 0, 0), (1, 0, -1, 0), (0, 2, 0, -1), (0, 0, 1, 0))


def test_known_symmetrizers():
    assert seed_from_type("A2").d == (1, 1)
    assert seed_from_type("B2").d == (1, 2)
    assert seed_from_type("G2").d == (1, 3)
    assert seed_from_type("B3").d == (1, 1, 2)
    assert seed_from_type("C3").d == (2, 2, 1)
    assert seed_from_type("F4").d == (1, 1, 2, 2)
    assert seed_from_type("D4").d == (1, 1, 1, 1)


def test_symmetrizer_skew_symmetrizes():
    # eps_ij * d_j == -eps_ji * d_i for every type we ship
    for label in ["A2", "B2", "G2", "A3", "B3", "C3", "D4", "F4", "E6"]:
        seed = seed_from_type(label)
        n = seed.n
        for i in range(n):
            for j in range(n):
                assert (seed.entries[i][j] * seed.d[j]
                        == -seed.entries[j][i] * seed.d[i])


def test_bipartite_orientation():
    seed = build_cartan_seed("A", 3, "bipartite")
    assert seed.entries == ((0, -1, 0), (1, 0, 1), (0, -1, 0))
    # every vertex is a source or a sink
    for i, row in enumerate(seed.entries):
        signs = {x > 0 for x in row if x}
        assert len(signs) <= 1


def test_invalid_types():
    with pytest.raises(InvalidTypeError):
        seed_from_type("Z5")
    with pytest.raises(InvalidTypeError):
        seed_from_type("E9")
    with pytest.raises(InvalidTypeError):
        seed_from_type("D2")


def test_make_rejects_same_sign_pairs():
    with pytest.raises(SkewSymmetrizabilityError):
        ExchangeMatrix.make([[0, 1], [1, 0]])


def test_make_rejects_wrong_symmetrizer():
    with pytest.raises(SymmetrizerMismatchError):
        ExchangeMatrix.make([[0, -1], [3, 0]], d=(3, 1))


def test_make_rejects_inconsistent_cycle():
    # ratios around the 3-cycle multiply to 2, so no symmetrizer exists
    bad = [[0, 1, -1], [-1, 0, 1], [1, -2, 0]]
    with pytest.raises(SkewSymmetrizabilityError):
        ExchangeMatrix.make(bad)


def test_json_round_trip():
    seed = seed_from_type("G2")
    assert ExchangeMatrix.from_json(seed.to_json()) == seed
    obj = seed.to_json_obj()
    assert obj["entries"] == [[0, -1], [3, 0]] and obj["d"] == [1, 3]
    assert ExchangeMatrix.from_json(obj) == seed


def _reference_mutation(entries, k):
    """Textbook two-bracket form: an oracle independent of the sgn/max
    implementation in ExchangeMatrix.mutate."""
    n = len(entries)

    def plus(x):
        return x if x > 0 else 0

    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -entries[i][j]
            else:
                out[i][j] = (entries[i][j]
                             + plus(entries[i][k]) * plus(entries[k][j])
                             - plus(-entries[i][k]) * plus(-entries[k][j]))
    return tuple(tuple(r) for r in out)


@st.composite
def skew_symmetrizable(draw, max_n=4):
    n = draw(st.integers(2, max_n))
    d = [draw(st.integers(1, 3)) for _ in range(n)]
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = draw(st.integers(-2, 2))
            entries[i][j] = d[i] * s
            entries[j][i] = -d[j] * s
    return ExchangeMatrix.make(entries)


@given(skew_symmetrizable(), st.integers(0, 3))
def test_mutation_matches_reference_and_is_involutive(seed, k):
    k = k % seed.n
    mutated = seed.mutate(k)
    assert mutated.entries == _reference_mutation(seed.entries, k)
    assert mutated.d == seed.d
    assert mutated.mutate(k) == seed


@given(skew_symmetrizable())
def test_negation_commutes_with_mutation(seed):
    for k in range(seed.n):
        assert (-seed).mutate(k) == -(seed.mutate(k))


MUTATIONS = {
    "ExchangeMatrix.mutate": lambda eps, k: eps.mutate(k),
    "mutate_F": lambda eps, k: mutate_F(
        (FPolynomial.constant(eps.n),) * eps.n,
        tuple(tuple(int(i == j) for j in range(eps.n))
              for i in range(eps.n)), eps, k),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("k", [3, -1, 1.5, "1", None],
                         ids=["n", "negative", "float", "str", "None"])
def test_a_direction_that_is_no_index_raises_precondition_error(mutation, k):
    # n and -1 raised a bare IndexError (or read direction n-1), 1.5 and
    # "1" a bare TypeError
    with pytest.raises(PreconditionError, match=r"direction .* range\(3\)"):
        MUTATIONS[mutation](seed_from_type("A3"), k)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_integers_of_every_kind_are_directions(mutation):
    eps = seed_from_type("A3")
    mutate = MUTATIONS[mutation]
    assert mutate(eps, np.int64(1)) == mutate(eps, 1) == mutate(eps, True)


def test_permutation_basics():
    sigma = Permutation((1, 2, 0))
    assert sigma(0) == 1 and sigma(2) == 0
    assert sigma.inverse().images == (2, 0, 1)
    assert Permutation.transposition(3, 0, 2).images == (2, 1, 0)
    assert Permutation.identity(2).images == (0, 1)


def test_relabel():
    seed = seed_from_type("A2")
    swapped = seed.relabel(Permutation((1, 0)))
    assert swapped.entries == ((0, 1), (-1, 0))
    # B2 coordinates have distinct weights, so the swap is inadmissible
    with pytest.raises(SymmetrizerMismatchError):
        seed_from_type("B2").relabel(Permutation((1, 0)))
    assert [p.images for p in seed.admissible_transpositions()] == [(1, 0)]
    assert seed_from_type("B2").admissible_transpositions() == []
