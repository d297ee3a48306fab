import time
from collections import deque
from fractions import Fraction

import pytest

from clusterquake import (
    ExchangeMatrix,
    InternalConsistencyError,
    NotFiniteTypeError,
    PatternBudgetError,
    enumerate_pattern,
    pattern_from_type,
    seed_from_type,
)
from clusterquake import _steps, intmat, patterns
from clusterquake.fpoly import FPolynomial, f_matrix
from clusterquake.patterns import (
    ExchangePattern,
    PatternVertex,
    mutate_c_matrix,
    mutate_g_matrix,
)

ENUMERATE_TYPES = ["A1xA1", "A2", "B2", "G2", "A3", "B3", "C3",
                   "A4", "B4", "C4", "D4", "F4"]
NOT_FINITE_TYPE = {
    "rank2_3x3": [[0, 3], [-3, 0]],
    "affine_A2_triangle": [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
    "markov": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]],
}


def mutate_c_matrix_printed(C, eps: ExchangeMatrix, k: int):
    """The textbook two-bracket form of the C-matrix recursion,
    c'_i = c_i + [eps_ik]+ * c_k + eps_ik * [-c_k]+ (componentwise),
    kept as an independent cross-check of mutate_c_matrix."""
    ck = C[k]
    neg_part = tuple(max(0, -x) for x in ck)
    rows = []
    for i, row in enumerate(C):
        if i == k:
            rows.append(tuple(-x for x in ck))
            continue
        e = eps.entries[i][k]
        plus = max(0, e)
        rows.append(tuple(x + plus * y + e * z
                          for x, y, z in zip(row, ck, neg_part)))
    return tuple(rows)


def conjugate_by_diag(d, m):
    """D * m * D^{-1} for D = diag(d), verified to stay integral; with
    intmat.inverse_unimodular it gives the G-matrix oracle
    G = D * (C^{-1})^T * D^{-1}."""
    out = []
    for i, row in enumerate(m):
        new_row = []
        for j, x in enumerate(row):
            val = Fraction(d[i] * x, d[j])
            if val.denominator != 1:
                raise InternalConsistencyError(
                    "diagonal conjugation left the integers")
            new_row.append(int(val))
        out.append(tuple(new_row))
    return tuple(out)


def labeled_bfs_oracle(eps0, include_permutations=True, type_tag="custom"):
    """The labeled-seed BFS as it was before the per-cluster memo: every
    labeled seed is mutated and relabeled with the exact recursions
    (ExchangeMatrix.relabel and _steps.apply_perm on relabel edges) and
    deduplicated by (eps, C).  Kept as the reference for enumerate_pattern
    on finite types."""
    n = eps0.n
    vertices, index, mut_edges, perm_edges = [], {}, {}, {}
    transpositions = (eps0.admissible_transpositions()
                      if include_permutations else [])
    queue = deque()

    def add(eps, C, Cdual, G, Fs, path):
        vid = len(vertices)
        vertices.append(PatternVertex(
            id=vid, eps=eps, C=C, Cdual=Cdual, G=G, Fs=Fs, Fmat=f_matrix(Fs),
            path=path))
        index[(eps.entries, C)] = vid
        queue.append(vid)
        return vid

    ident = intmat.identity(n)
    add(eps0, ident, ident, ident,
        tuple(FPolynomial.constant(n) for _ in range(n)), ())
    while queue:
        cur = vertices[queue.popleft()]
        vid, eps, C = cur.id, cur.eps, cur.C
        for k in range(n):
            if (vid, k) in mut_edges:
                continue
            new_eps = eps.mutate(k)
            new_c = mutate_c_matrix(C, eps, k)
            wid = index.get((new_eps.entries, new_c))
            if wid is None:
                wid = add(new_eps, new_c,
                          mutate_c_matrix(cur.Cdual, -eps, k),
                          mutate_g_matrix(cur.G, C, eps, k),
                          patterns.mutate_F(cur.Fs, C, eps, k),
                          cur.path + (("mu", k),))
            mut_edges[(vid, k)] = wid
            mut_edges[(wid, k)] = vid
        for sigma in transpositions:
            if (vid, sigma.images) in perm_edges:
                continue
            new_eps = eps.relabel(sigma)
            new_c = _steps.apply_perm(C, sigma)
            wid = index.get((new_eps.entries, new_c))
            if wid is None:
                wid = add(new_eps, new_c,
                          _steps.apply_perm(cur.Cdual, sigma),
                          _steps.apply_perm(cur.G, sigma),
                          _steps.apply_perm(cur.Fs, sigma),
                          cur.path + (("perm", sigma.images),))
            perm_edges[(vid, sigma.images)] = wid
            perm_edges[(wid, sigma.images)] = vid
    return ExchangePattern(vertices, mut_edges, perm_edges, type_tag,
                           include_permutations, None)


def a2():
    return pattern_from_type("A2")


def test_a2_chain_frozen_values():
    """The alternating mutation chain from the base vertex, with every
    matrix pinned to hand-computed values."""
    P = a2()
    v1 = P.mut_edges[(0, 0)]
    v2 = P.mut_edges[(v1, 1)]

    assert P.vertex(0).eps.entries == ((0, -1), (1, 0))
    assert P.vertex(0).C == ((1, 0), (0, 1))

    assert P.vertex(v1).eps.entries == ((0, 1), (-1, 0))
    assert P.vertex(v1).C == ((-1, 0), (1, 1))
    assert [sorted(f.terms.items()) for f in P.vertex(v1).Fs] == [
        [((0, 0), 1), ((1, 0), 1)],          # 1 + y0
        [((0, 0), 1)],                       # 1
    ]

    assert P.vertex(v2).eps.entries == ((0, -1), (1, 0))
    assert P.vertex(v2).C == ((0, 1), (-1, -1))
    assert [sorted(f.terms.items()) for f in P.vertex(v2).Fs] == [
        [((0, 0), 1), ((1, 0), 1)],                       # 1 + y0
        [((0, 0), 1), ((1, 0), 1), ((1, 1), 1)],          # 1 + y0 + y0*y1
    ]
    assert P.vertex(v2).G == ((-1, 1), (-1, 0))

    # period five: five alternating mutations come back with labels swapped
    w = 0
    for k in (0, 1, 0, 1, 0):
        w = P.mut_edges[(w, k)]
    assert w != 0
    assert P.perm_edges[(w, (1, 0))] == 0


@pytest.mark.parametrize("label,vertices,cones", [
    ("A1xA1", 8, 4),
    ("A2", 10, 5),
    ("B2", 6, 6),
    ("G2", 8, 8),
    ("A3", 84, 14),
    ("B3", 40, 20),
    ("C3", 40, 20),
])
def test_counts(label, vertices, cones):
    P = pattern_from_type(label)
    assert len(P) == vertices
    assert len(P.fan()) == cones


def test_a2_fan_frozen():
    fan = a2().fan()
    gens = {frozenset(c.generators) for c in fan}
    assert gens == {
        frozenset({(1, 0), (0, 1)}),
        frozenset({(-1, 0), (0, 1)}),
        frozenset({(-1, 0), (0, -1)}),
        frozenset({(0, -1), (1, -1)}),
        frozenset({(1, 0), (1, -1)}),
    }
    # members partition the vertex set, two labels per cone
    seen = sorted(v for c in fan for v in c.members)
    assert seen == list(range(10))
    assert all(len(c.members) == 2 for c in fan)
    assert all(c.vertex_id == min(c.members) for c in fan)


def test_fan_members_partition_vertices():
    for label in ["A1xA1", "B2", "A3"]:
        P = pattern_from_type(label)
        seen = sorted(v for c in P.fan() for v in c.members)
        assert seen == list(range(len(P)))


def test_permutation_edges_reach_disconnected_relabelings():
    # the two mutation components of A1xA1 are only joined by relabeling
    with_perms = pattern_from_type("A1xA1")
    without = enumerate_pattern(seed_from_type("A1xA1"),
                                include_permutations=False)
    assert len(with_perms) == 8
    assert len(without) == 4


def test_no_perm_enumeration_of_a2_still_closes():
    P = enumerate_pattern(seed_from_type("A2"), include_permutations=False)
    assert len(P) == 10
    assert not P.perm_edges


def test_c_recursion_two_forms_agree():
    # the sign-based and the two-bracket forms must produce identical
    # matrices at every vertex and direction
    for label in ["A2", "B2", "G2", "A3"]:
        P = pattern_from_type(label)
        for v in P.vertices:
            for k in range(P.n):
                assert (mutate_c_matrix(v.C, v.eps, k)
                        == mutate_c_matrix_printed(v.C, v.eps, k))


def test_tropical_signs_at_base():
    P = pattern_from_type("B3")
    for k in range(P.n):
        assert P.tropical_sign(P.base, k) == 1


def test_g_matrix_definition():
    P = pattern_from_type("G2")
    d = P.d
    for v in P.vertices:
        n = P.n
        cinv = intmat.inverse_unimodular(v.C)
        expected = [[Fraction(d[i]) * cinv[j][i] / d[j] for j in range(n)]
                    for i in range(n)]
        assert all(x == y for row_g, row_e in zip(v.G, expected)
                   for x, y in zip(row_g, row_e))


def test_duality_and_fugy():
    for label in ["A2", "B2", "G2"]:
        P = pattern_from_type(label)
        opp = P.opposite()
        for v in P.vertices:
            dual = intmat.inverse_unimodular(
                opp.vertex(P.opposite_vertex(v.id)).C)
            assert dual == P.cone_matrix(v.id)
            ok, residual = P.fuGy_check(v.id)
            assert ok, (label, v.id, residual)


def test_fc_products_nonpositive():
    P = pattern_from_type("B2")
    for v in P.vertices:
        for sign in (1, -1):
            product, ok = P.fc_product(v.id, sign)
            assert ok
            assert all(x <= 0 for row in product for x in row)


def test_opposite_pattern_structure():
    P = a2()
    opp = P.opposite()
    assert len(opp) == len(P)
    assert opp.eps0 == -P.eps0
    for v in P.vertices:
        w = P.opposite_vertex(v.id)
        assert opp.vertex(w).eps == -v.eps


def test_route_replay_reaches_destination():
    P = pattern_from_type("B3")
    for src in range(0, len(P), 7):
        for dst in range(0, len(P), 11):
            at = src
            for ambient, edge in P.route(src, dst):
                assert ambient == at
                at = P.neighbor(at, edge)
            assert at == dst


def test_budget_error_carries_partial():
    with pytest.raises(PatternBudgetError) as err:
        pattern_from_type("D4", cap=50)
    assert len(err.value.partial) == 50
    assert all(v.G is not None for v in err.value.partial.vertices)
    markov = ExchangeMatrix.make(NOT_FINITE_TYPE["markov"])
    with pytest.raises(ValueError):
        enumerate_pattern(markov, cap=0)


@pytest.mark.parametrize("name", sorted(NOT_FINITE_TYPE))
def test_not_finite_type_raises_at_once(name):
    # every matrix of a finite-type class has |eps_ij * eps_ji| <= 3, so
    # the enumeration stops at the first one that does not, cap or no cap
    eps = ExchangeMatrix.make(NOT_FINITE_TYPE[name])
    start = time.process_time()
    with pytest.raises(NotFiniteTypeError) as err:
        enumerate_pattern(eps)
    assert time.process_time() - start < 1.0
    assert isinstance(err.value, PatternBudgetError)
    assert "not of finite type" in str(err.value)
    partial = err.value.partial
    assert partial.vertex(0).eps == eps
    assert any(abs(e[i][j] * e[j][i]) > 3
               for e in (v.eps.entries for v in partial.vertices)
               for i in range(eps.n) for j in range(eps.n))


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
@pytest.mark.parametrize("include_permutations", [True, False])
def test_carried_matrices_match_fraction_oracle(label, include_permutations):
    # G and Cdual come from integer one-step recursions; the oracles are the
    # Fraction inverse of C and of the route-replayed cone matrix
    P = enumerate_pattern(seed_from_type(label),
                          include_permutations=include_permutations)
    d = P.d
    for v in P.vertices:
        assert v.G == conjugate_by_diag(
            d, intmat.transpose(intmat.inverse_unimodular(v.C))), v.id
        assert P.cone_matrix_inv(v.id) == intmat.inverse_unimodular(
            P.cone_matrix(v.id)), v.id


def test_wrong_g_recursion_fails_the_duality_check(monkeypatch):
    monkeypatch.setattr(patterns, "mutate_g_matrix",
                        lambda G, C, eps, k: G)
    with pytest.raises(InternalConsistencyError, match="diag"):
        pattern_from_type("B2")


def test_build_path_needs_no_fraction_inverse(monkeypatch):
    def forbidden(m):
        raise AssertionError("inverse_unimodular called on the build path")

    monkeypatch.setattr(intmat, "inverse_unimodular", forbidden)
    P = pattern_from_type("D4")
    assert len(P.fan()) == 50
    for v in P.vertices:
        P.cone_matrix_inv(v.id)
    with pytest.raises(PatternBudgetError) as err:
        pattern_from_type("D4", cap=50)
    assert len(err.value.partial.fan()) >= 1


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("CLUSTER_QUAKE_CAP", "6")
    with pytest.raises(PatternBudgetError):
        pattern_from_type("A2")
    monkeypatch.setenv("CLUSTER_QUAKE_CAP", "100")
    assert len(pattern_from_type("A2")) == 10


def test_to_json_obj_shape():
    P = pattern_from_type("B2")
    obj = P.to_json_obj()
    assert obj["type"] == "B2" and obj["base"] == 0 and obj["d"] == [1, 2]
    assert len(obj["vertices"]) == 6
    v0 = obj["vertices"][0]
    assert v0["eps"] == [[0, -1], [2, 0]]
    assert v0["C"] == [[1, 0], [0, 1]]
    assert v0["F"] == [[{"exp": [0, 0], "coef": 1}],
                       [{"exp": [0, 0], "coef": 1}]]
    mutation_edges = [e for e in obj["edges"] if e["kind"] == "mutation"]
    # undirected: one record per unordered edge, n per vertex, halved
    assert len(mutation_edges) == 6 * 2 // 2


def test_unimodular_cone_matrices():
    P = pattern_from_type("A3")
    for v in P.vertices:
        m = P.cone_matrix(v.id)
        inv = intmat.inverse_unimodular(m)
        assert intmat.matmul(m, inv) == intmat.identity(3)
        for k in range(3):
            assert P.ray(v.id, k) == intmat.column(m, k)


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
@pytest.mark.parametrize("include_permutations", [True, False])
def test_cluster_memo_matches_labeled_bfs_oracle(label, include_permutations):
    eps0 = seed_from_type(label)
    P = enumerate_pattern(eps0, include_permutations=include_permutations,
                          type_tag=label)
    oracle = labeled_bfs_oracle(eps0, include_permutations, label)
    assert P.to_json_obj() == oracle.to_json_obj()
    assert P.vertices == oracle.vertices
    assert P.mut_edges == oracle.mut_edges
    assert P.perm_edges == oracle.perm_edges
    assert ([(c.vertex_id, c.generators, c.members) for c in P.fan()]
            == [(c.vertex_id, c.generators, c.members) for c in oracle.fan()])


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_f_polynomials_mutated_once_per_new_cluster(label, monkeypatch):
    calls = []
    real = patterns.mutate_F

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(patterns, "mutate_F", counting)
    P = pattern_from_type(label)
    clusters = len({frozenset(v.C) for v in P.vertices})
    assert len(calls) == clusters - 1
    assert P.stats["clusters"] == clusters


def test_wrong_landing_relabeling_is_caught(monkeypatch):
    real = patterns._landing_perm
    monkeypatch.setattr(patterns, "_landing_perm",
                        lambda cluster, C: real(cluster, C)[::-1])
    with pytest.raises(InternalConsistencyError, match="relabeling"):
        pattern_from_type("A2")


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_relabel_edges_are_involutions(label):
    # route() walks a stored relabel edge backwards as it is
    P = pattern_from_type(label)
    for _, images in P.perm_edges:
        assert all(images[images[i]] == i for i in range(len(images)))


def test_stats():
    P = pattern_from_type("D4")
    stats = P.stats
    assert {k: stats[k] for k in ("vertices", "clusters", "mutation_edges",
                                  "relabel_edges", "cones")} == {
        # four mutations and six transpositions per vertex, both ways
        "vertices": 1200, "clusters": 50, "mutation_edges": 1200 * 4 // 2,
        "relabel_edges": 1200 * 6 // 2, "cones": 50}
    assert stats["bfs_s"] > 0 and stats["fan_s"] >= 0
    assert stats["cone_cache"] == 50 and stats["based_cache"] == 0
    P.based_matrices(7)
    assert P.stats["based_cache"] == 1
