import dataclasses
import json
import random
import re
import time
from collections import deque
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterquake import (
    CentralCharge,
    ExchangeMatrix,
    FloatRangeError,
    InternalConsistencyError,
    NotFiniteTypeError,
    PatternBudgetError,
    PositivePoint,
    PreconditionError,
    TropicalPoint,
    cluster_reduce,
    enumerate_pattern,
    glue,
    inverse_quake,
    limit_L,
    limit_g,
    locate_cone,
    log_transport,
    pattern_from_type,
    positive_transport,
    quake,
    seed_from_type,
    separation_eval,
    tropical_transport,
)
from clusterquake import _steps, checks, intmat, patterns
from clusterquake.cli import main
from clusterquake.fpoly import FPolynomial, f_matrix
from clusterquake.patterns import (
    BasedMatrices,
    ExchangePattern,
    PatternVertex,
    mutate_c_matrix,
    mutate_g_matrix,
)

ENUMERATE_TYPES = ["A1xA1", "A2", "B2", "G2", "A3", "B3", "C3",
                   "A4", "B4", "C4", "D4", "F4"]
# the two oracle tests keep the "True-" ids their cases had when relabel
# edges (always on now) could be switched off
RELABELED_IDS = [f"True-{label}" for label in ENUMERATE_TYPES]
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


def labeled_bfs_oracle(eps0, type_tag="custom", cap=None):
    """The labeled-seed BFS as it was before the per-cluster memo: every
    labeled seed is mutated and relabeled with the exact recursions
    (ExchangeMatrix.relabel and _steps.apply_perm on relabel edges) and
    deduplicated by (eps, C).  Kept as the reference for enumerate_pattern
    on finite types; with a cap it stops where enumerate_pattern raises
    PatternBudgetError, and returns what it has.  Its search tree is kept
    on the pattern as paths, the edges from the base to each vertex in id
    order, and its own edge maps as edge_maps = (mut_edges, perm_edges),
    the edges its BFS found, and edges_within, the same maps for every
    edge between two vertices it has (which a capped BFS may not have
    found)."""
    n = eps0.n
    vertices, paths, index, mut_edges, perm_edges = [], [], {}, {}, {}
    transpositions = eps0.admissible_transpositions()
    queue = deque()

    class Full(Exception):
        pass

    def add(eps, C, Cdual, G, Fs, path):
        vid = len(vertices)
        if cap is not None and vid >= cap:
            raise Full
        vertices.append(PatternVertex(
            id=vid, eps=eps, C=C, Cdual=Cdual, G=G, Fs=Fs))
        paths.append(path)
        index[(eps.entries, C)] = vid
        queue.append(vid)
        return vid

    ident = intmat.identity(n)
    add(eps0, ident, ident, ident,
        tuple(FPolynomial.constant(n) for _ in range(n)), ())
    try:
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
                              paths[vid] + (("mu", k),))
                mut_edges[(vid, k)] = wid
                mut_edges[(wid, k)] = vid
            for sigma in transpositions:
                if (vid, sigma.images) in perm_edges:
                    continue
                new_eps = eps.relabel(sigma)
                new_c = _steps.apply_perm(C, sigma.images)
                wid = index.get((new_eps.entries, new_c))
                if wid is None:
                    wid = add(new_eps, new_c,
                              _steps.apply_perm(cur.Cdual, sigma.images),
                              _steps.apply_perm(cur.G, sigma.images),
                              _steps.apply_perm(cur.Fs, sigma.images),
                              paths[vid] + (("perm", sigma.images),))
                perm_edges[(vid, sigma.images)] = wid
                perm_edges[(wid, sigma.images)] = vid
    except Full:
        pass
    P = pattern_of(vertices, paths, mut_edges, perm_edges, type_tag)
    P.paths = paths
    P.edge_maps = (mut_edges, perm_edges)
    P.edges_within = ({}, {})
    for v in vertices:
        for k in range(n):
            wid = index.get((v.eps.mutate(k).entries,
                             mutate_c_matrix(v.C, v.eps, k)))
            if wid is not None:
                P.edges_within[0][(v.id, k)] = wid
        for sigma in transpositions:
            wid = index.get((v.eps.relabel(sigma).entries,
                             _steps.apply_perm(v.C, sigma.images)))
            if wid is not None:
                P.edges_within[1][(v.id, sigma.images)] = wid
    return P


def route_edges(P):
    """The edges of P.route(P.base, vid) for every vertex, in id order."""
    return [tuple(edge for _, edge in P.route(P.base, vid))
            for vid in range(len(P))]


def oracle_neighbor(oracle):
    """neighbor() read off the oracle's own edge maps."""
    mut_edges, perm_edges = oracle.edge_maps
    return lambda vid, edge: (mut_edges if edge[0] == "mu"
                              else perm_edges)[(vid, edge[1])]


def pattern_of(vertices, paths, mut_edges, perm_edges, type_tag):
    """An ExchangePattern whose slots hold the given vertices as they
    are, each labeled by its cone, numbered in order of first appearance,
    and reached from the base by the given paths.  Two vertices share a
    cone exactly when their cone matrices have the same set of columns,
    that is when their inverses (the Cdual matrices) have the same set of
    rows.  Each cone's record holds the matrices of its first vertex,
    generators transported along that vertex's route (walked_cone_matrix),
    the vertex ids of its labels, and as parent the cone and direction of
    its first vertex's last edge; so the pattern's fan() is the fan
    oracle.  The BFS parent of a vertex is the one whose path is its path
    without the last edge.  The records' landings are read off the edge
    maps: a mutation edge (c, p) -> (c', p') in direction k is the
    landing (c', tau) of cluster c in direction p[k], tau = p' o p^-1,
    and every edge of one cluster and direction must land alike.  Every
    relabel edge must lead to the label the pattern forms for it."""
    cones = {}
    labels = []
    for v in vertices:
        c, first = cones.setdefault(frozenset(v.Cdual), (len(cones), v))
        labels.append((c, tuple(map(first.Cdual.index, v.Cdual))))
    by_path = {path: vid for vid, path in enumerate(paths)}
    parents = [(by_path[path[:-1]], path[-1]) if path else None
               for path in paths]
    records = [patterns.Cone(v.eps, v.C, v.G, None, v.Cdual,
                             parents[v.id] and (labels[parents[v.id][0]][0],
                                                parents[v.id][1][1]),
                             [None] * v.eps.n, v.Fs)
               for _, v in cones.values()]
    for (vid, k), wid in mut_edges.items():
        (c, p), (target, q) = labels[vid], labels[wid]
        landing = (target, tuple(q[p.index(j)] for j in range(len(p))))
        landings = records[c].landings
        assert landings[p[k]] in (None, landing), (vid, k)
        landings[p[k]] = landing
    for (vid, images), wid in perm_edges.items():
        c, p = labels[vid]
        assert labels[wid] == (c, tuple(p[i] for i in images)), (vid, images)
    for vid, (c, p) in enumerate(labels):
        records[c].ids[p] = vid
    P = ExchangePattern(labels, type_tag, None, records)
    # the oracle's own tree, in place of the one route() would replay
    P.__dict__["_parents"] = parents
    P._slots[:] = vertices
    for cone in records:
        cone.generators = intmat.transpose(
            walked_cone_matrix(P, cone.vertex_id))
    return P


def trop_columns(M, eps, k):
    """trop_mutation applied to each column of M (rows are directions)."""
    return tuple(zip(*(_steps.trop_mutation(col, eps, k) for col in zip(*M))))


def route_walk(P, state, src, dst, mutation):
    """P.walk along the labeled BFS tree, as the library walked before it
    walked the fan tree: on P.route(src, dst), a mutation edge k is
    mutation(state, eps, k) with eps the entries of the exchange matrix
    of the vertex the step starts from, and a relabel edge permutes the
    state by its images.  Kept as the oracle of P.walk, independent of
    the cone records."""
    P.check_rank(state)
    for at, edge in P.route(src, dst):
        if edge[0] == "mu":
            state = mutation(state, P.vertex(at).eps.entries, edge[1])
        else:
            state = _steps.apply_perm(state, edge[1])
    return state


def walked_cone_matrix(P, vid):
    """C^s_{v->v0} by transporting the chart-v basis vectors to the base
    chart along route(v, base), independently of the generators the
    clusters carry."""
    return route_walk(P, intmat.identity(P.n), vid, P.base, trop_columns)


def walked_based_matrices(P, vid):
    """based_matrices(vid) by the C- and F-recursions along route(v,
    base), for every vertex alike."""
    d = P.d

    def step(rows, eps, k):
        C, Fs = zip(*rows)
        eps = ExchangeMatrix(eps, d)
        return tuple(zip(mutate_c_matrix(C, eps, k),
                         patterns.mutate_F(Fs, C, eps, k)))

    start = tuple((row, FPolynomial.constant(P.n))
                  for row in intmat.identity(P.n))
    C, Fs = zip(*route_walk(P, start, vid, P.base, step))
    return BasedMatrices(C, Fs, f_matrix(Fs))


def relabel_neighbors(P):
    """{(vid, images): P.neighbor(vid, ("perm", images))} for every vertex
    and every transposition that preserves d, where the far end is in
    P."""
    out = {}
    for s in P.eps0.admissible_transpositions():
        for vid in range(len(P)):
            try:
                out[(vid, s.images)] = P.neighbor(vid, ("perm", s.images))
            except PreconditionError:
                pass
    return out


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
    assert P.neighbor(w, ("perm", (1, 0))) == 0


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
    # the two mutation components of A1xA1 (4 vertices each) are only
    # joined by relabeling
    assert len(pattern_from_type("A1xA1")) == 8


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


@pytest.mark.parametrize("cap", [None, 333])
def test_bfs_tree_reaches_every_vertex(cap):
    try:
        P = pattern_from_type("D4", cap=cap)
    except PatternBudgetError as err:
        P = err.partial
    assert len(P) == (cap or 1200)
    assert P._parents[0] is None
    for vid in range(1, len(P)):
        parent, edge = P._parents[vid]
        assert parent < vid
        assert P.neighbor(parent, edge) == vid
        seq = [P.base]
        for _, step in P.route(P.base, vid):
            seq.append(P.neighbor(seq[-1], step))
        assert P.vertex_sequence(vid) == tuple(seq)
        assert seq[-1] == vid and seq[-2] == parent


def prefix_cancelling_route(paths, neighbor, src, dst):
    """route() as it was built from stored base paths: the common prefix
    cancelled, src's path walked back, then dst's walked forward."""
    def sequence(path):
        seq = [0]
        for edge in path:
            seq.append(neighbor(seq[-1], edge))
        return seq

    p_src, p_dst = paths[src], paths[dst]
    s_src, s_dst = sequence(p_src), sequence(p_dst)
    common = 0
    while (common < min(len(p_src), len(p_dst))
           and p_src[common] == p_dst[common]):
        common += 1
    return ([(s_src[pos + 1], p_src[pos])
             for pos in range(len(p_src) - 1, common - 1, -1)]
            + [(s_dst[pos], p_dst[pos]) for pos in range(common, len(p_dst))])


def test_route_matches_prefix_cancelling_construction():
    # the oracle's paths and edge maps come from its own BFS
    eps0 = seed_from_type("B3")
    P = enumerate_pattern(eps0, type_tag="B3")
    oracle = labeled_bfs_oracle(eps0, "B3")
    paths = oracle.paths
    for src in range(len(P)):
        for dst in range(len(P)):
            assert P.route(src, dst) == prefix_cancelling_route(
                paths, oracle_neighbor(oracle), src, dst), (src, dst)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_based_c_matrix_is_the_cone_matrix(label):
    # C^s_{v->v0} by the C-matrix row recursion, walked along the fan
    # tree, and by the generator recursion of the build
    P = pattern_from_type(label)
    for vid in range(len(P)):
        assert P.based_matrices(vid).C == P.cone_matrix(vid), vid


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


@pytest.mark.parametrize("label", ENUMERATE_TYPES, ids=RELABELED_IDS)
def test_carried_matrices_match_fraction_oracle(label):
    # G and Cdual come from integer one-step recursions; the oracles are the
    # Fraction inverse of C and of the route-replayed cone matrix
    P = pattern_from_type(label)
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


def test_matrices_suite_decides_duality_in_integers(monkeypatch):
    def forbidden(m):
        raise AssertionError("inverse_unimodular called by the suite")

    monkeypatch.setattr(intmat, "inverse_unimodular", forbidden)
    [check] = checks.matrices(pattern_from_type("D4"), random.Random(0))
    assert check.ok, check.detail
    # a C^- that is still unimodular, but no longer the inverse of the
    # cone matrix, fails the duality on its cluster's vertices
    P = pattern_from_type("D4")
    cone = P._cones[3]
    Cdual = list(cone.inequalities)
    Cdual[1] = tuple(a + b for a, b in zip(Cdual[1], Cdual[0]))
    cone.inequalities = tuple(Cdual)
    [check] = checks.matrices(P, random.Random(0))
    assert not check.ok and "duality=False" in check.detail


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


@pytest.mark.parametrize("label", ENUMERATE_TYPES, ids=RELABELED_IDS)
def test_cluster_memo_matches_labeled_bfs_oracle(label):
    eps0 = seed_from_type(label)
    P = enumerate_pattern(eps0, type_tag=label)
    oracle = labeled_bfs_oracle(eps0, label)
    assert P.to_json_obj() == oracle.to_json_obj()
    assert P.vertices == oracle.vertices
    assert route_edges(P) == oracle.paths
    assert (P.mut_edges, relabel_neighbors(P)) == oracle.edge_maps
    assert_record_graph(P, oracle)
    assert ([(c.vertex_id, c.generators, c.members) for c in P.fan()]
            == [(c.vertex_id, c.generators, c.members) for c in oracle.fan()])


@pytest.mark.parametrize("make", [
    lambda: pattern_from_type("A1"),
    lambda: enumerate_pattern(ExchangeMatrix.make([[0]]))], ids=["A1", "0"])
def test_rank_one_pattern_matches_labeled_bfs_oracle(make):
    # at rank 1 the one label is (0,), where itemgetter(0) would give the
    # bare entry 0
    P = make()
    assert len(P) == 2 and len(P.fan()) == 2
    assert P._labels == [(0, (0,)), (1, (0,))]
    oracle = labeled_bfs_oracle(P.eps0, P.type_tag)
    assert (P._labels, P._parents) == (oracle._labels, oracle._parents)
    assert ([list(c.ids.items()) for c in P._cones]
            == [list(c.ids.items()) for c in oracle._cones])


def test_each_label_is_one_shared_tuple():
    # D4's 1200 vertices carry its 4! labels, the base's identity included
    P = pattern_from_type("D4")
    assert len({p for _, p in P._labels}) == 24
    assert len({id(p) for _, p in P._labels}) == 24
    assert all(key is P._labels[vid][1]
               for cone in P._cones for key, vid in cone.ids.items())


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_f_polynomials_mutated_once_per_new_cluster(label, monkeypatch):
    # the build, the fan, the vertices and the cone matrices read no F;
    # the first read of every v.Fs mutates each cluster's F once, from
    # its BFS parent cluster's, and a second read mutates none
    calls = []
    real = patterns.mutate_F

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(patterns, "mutate_F", counting)
    P = pattern_from_type(label)
    P.fan()
    for v in P.vertices:
        P.cone_matrix(v.id)
    clusters = len({frozenset(v.C) for v in P.vertices})
    assert calls == []
    assert P.stats["clusters"] == clusters and P.stats["f_clusters"] == 1
    first = [v.Fs for v in P.vertices]
    assert len(calls) == clusters - 1
    assert P.stats["f_clusters"] == clusters
    assert [v.Fs for v in P.vertices] == first
    assert len(calls) == clusters - 1


@pytest.mark.parametrize("label", ENUMERATE_TYPES + ["A5", "B5", "D5"])
def test_carried_cone_data_match_route_walks(label):
    # the generators each cluster carries, and the based matrices derived
    # from each cluster's first vertex, against walks of every vertex's
    # own route
    P = pattern_from_type(label)
    ident = intmat.identity(P.n)
    for vid in range(len(P)):
        K = P.cone_matrix(vid)
        assert K == walked_cone_matrix(P, vid), vid
        assert intmat.matmul(K, P.cone_matrix_inv(vid)) == ident, vid
    for cone in P.fan():
        assert cone.generators == intmat.transpose(
            walked_cone_matrix(P, cone.vertex_id)), cone.vertex_id
    for vid in range(len(P)):
        assert P.based_matrices(vid) == walked_based_matrices(P, vid), vid


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_walk_matches_route_walk_exactly(label):
    # the fan-tree walk against the labeled-route walk, on every vertex:
    # from the base, to the base, and to the vertex of the reflected id,
    # whose ends mostly meet below the base; int tropical and Fraction
    # positive states are exact, so the two must be equal
    P = pattern_from_type(label)
    x = (3, -5, 2, 7)[:P.n]
    X = (Fraction(1, 2), Fraction(3), Fraction(2, 3), Fraction(5, 4))[:P.n]
    for vid in range(len(P)):
        for src, dst in ((P.base, vid), (vid, P.base), (vid, len(P) - 1 - vid)):
            for state, step in ((x, _steps.trop_mutation),
                                (X, _steps.pos_mutation)):
                assert P.walk(state, src, dst, step) == route_walk(
                    P, state, src, dst, step), (src, dst)


@lru_cache(maxsize=None)
def walk_pattern(label):
    return pattern_from_type(label)


def transport_outcome(transport, *args):
    """The reprs of the coordinates transport(*args) gives, so that nan
    and the sign of a zero count, or FloatRangeError."""
    try:
        return tuple(map(repr, transport(*args)))
    except FloatRangeError:
        return FloatRangeError


WALK_TRANSPORTS = {
    "tropical": lambda P, x, src, dst: tropical_transport(
        TropicalPoint(src, x), P, dst).x,
    "positive": lambda P, X, src, dst: positive_transport(
        PositivePoint(src, X), P, dst).X,
    "log": lambda P, u, src, dst: log_transport(u, P, src, dst),
}
# |x| from 1e-300 to 1e300, spread evenly over the exponents
MAGNITUDES = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1, 10),
                       st.integers(-300, 299))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["A3", "B3", "D4"]), st.data())
def test_member_chart_transport_is_its_cone_chart_transport_permuted(
        label, data):
    # member v labeled p sees its cone chart's coordinates renumbered:
    # its coordinate i is the cone chart's p[i].  The walk from or to v
    # makes the cone chart's steps, so its floats are the cone chart's,
    # bit for bit, and either both leave the float range or neither does
    P = walk_pattern(label)
    vid, other = (data.draw(st.integers(0, len(P) - 1)) for _ in range(2))
    c, p = P._labels[vid]
    rep = P.fan()[c].vertex_id
    size = data.draw(st.tuples(*[MAGNITUDES] * P.n))
    signs = data.draw(st.tuples(*[st.sampled_from((1.0, -1.0))] * P.n))
    for kind, point in (("tropical", tuple(map(mul, signs, size))),
                        ("positive", size),
                        ("log", tuple(map(mul, signs, size)))):
        transport = WALK_TRANSPORTS[kind]
        at_rep = tuple(x for _, x in sorted(zip(p, point)))
        assert transport_outcome(transport, P, point, vid, other) \
            == transport_outcome(transport, P, at_rep, rep, other), kind
        to_rep = transport_outcome(transport, P, point, other, rep)
        assert transport_outcome(transport, P, point, other, vid) == (
            to_rep if to_rep is FloatRangeError
            else tuple(map(to_rep.__getitem__, p))), kind


def test_walk_calls_no_route_and_builds_no_vertex(monkeypatch):
    def refused(*args):
        raise AssertionError("walk read the labeled tree")

    monkeypatch.setattr(ExchangePattern, "route", refused)
    monkeypatch.setattr(ExchangePattern, "_build", refused)
    P = pattern_from_type("D4")
    x = (3, -5, 2, 7)
    for vid in range(len(P)):
        P.walk(x, vid, (7 * vid) % len(P), _steps.trop_mutation)
        P.based_matrices(vid)
    g0 = PositivePoint(5, (1.0, 2.0, 0.5, 3.0))
    L = TropicalPoint(9, (2.0, -1.0, 3.0, -0.5))
    inverse_quake(P, g0, quake(P, g0, L).g)
    assert P.stats["vertex_cache"] == 0


def test_based_matrices_walk_once_per_cluster(monkeypatch):
    walked = []
    real = ExchangePattern.walk

    def counting(self, state, src, dst, mutation):
        walked.append(src)
        return real(self, state, src, dst, mutation)

    monkeypatch.setattr(ExchangePattern, "walk", counting)
    P = pattern_from_type("D4")
    for vid in reversed(range(len(P))):
        P.based_matrices(vid)
    assert sorted(walked) == [cone.vertex_id for cone in P.fan()]


def test_wrong_landing_relabeling_is_caught(monkeypatch):
    real = patterns._landing_perm
    monkeypatch.setattr(patterns, "_landing_perm",
                        lambda cluster, C: real(cluster, C)[::-1])
    with pytest.raises(InternalConsistencyError, match="relabeling"):
        pattern_from_type("A2")


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_relabel_edges_are_involutions(label):
    # route() walks a relabel edge backwards as it is
    P = pattern_from_type(label)
    for (vid, images), wid in relabel_neighbors(P).items():
        assert all(images[images[i]] == i for i in range(len(images)))
        assert P.neighbor(wid, ("perm", images)) == vid


def test_neighbor_rejects_what_is_no_edge_of_the_pattern():
    P = a2()
    assert P.neighbor(0, ("mu", 0)) == P.mut_edges[(0, 0)]
    for vid, edge in [(-1, ("mu", 0)), (len(P), ("mu", 0)),
                      (-1, ("perm", (1, 0))), (len(P), ("perm", (1, 0))),
                      (0, ("mu", -1)), (0, ("mu", 2)), (0, ("perm", (0, 1))),
                      (0, ("perm", (1, 0, 2)))]:
        with pytest.raises(PreconditionError):
            P.neighbor(vid, edge)
    # the first mutation of the base leads out of a one-vertex pattern
    with pytest.raises(PatternBudgetError) as err:
        pattern_from_type("D4", cap=1)
    with pytest.raises(PreconditionError):
        err.value.partial.neighbor(0, ("mu", 0))


VERTEX_READERS = {
    "vertex": lambda P, v: P.vertex(v),
    "cone_matrix": lambda P, v: P.cone_matrix(v),
    "cone_matrix_inv": lambda P, v: P.cone_matrix_inv(v),
    "ray": lambda P, v: P.ray(v, 0),
    "based_matrices": lambda P, v: P.based_matrices(v),
    "fuGy_check": lambda P, v: P.fuGy_check(v),
    "fc_product": lambda P, v: P.fc_product(v),
    "tropical_sign": lambda P, v: P.tropical_sign(v, 0),
    "opposite_cone_matrix": lambda P, v: P.opposite_cone_matrix(v),
    "limit_L": lambda P, v: limit_L(P, PositivePoint(0, (1.0, 1.0)), v, 0,
                                    1.0),
    "limit_g": lambda P, v: limit_g(P, PositivePoint(0, (1.0, 1.0)), v),
    "separation_eval": lambda P, v: separation_eval(P, v, (1, 2)),
    "route": lambda P, v: P.route(0, v),
    "neighbor": lambda P, v: P.neighbor(v, ("mu", 0)),
    "positive_transport": lambda P, v: positive_transport(
        PositivePoint(0, (1.0, 1.0)), P, v),
}
# the readers that name the id in words of their own
READER_MESSAGES = {
    "route": "charts 0 and {vid} must be vertex ids",
    "positive_transport": "charts 0 and {vid} must be vertex ids",
    "neighbor": r"no edge \('mu', 0\) leaves vertex {vid} ",
}


@pytest.mark.parametrize("reader", sorted(VERTEX_READERS))
@pytest.mark.parametrize("where", ["past_the_end", "negative", "non_integer",
                                   "string"])
def test_vertex_ids_out_of_range_raise_precondition_error(reader, where):
    # an id of -1 used to read the last vertex, one past the end raised
    # IndexError, and 1.5 a bare TypeError; the message gives the id's
    # repr, so "1" does not read as the in-range 1
    P = a2()
    vid = {"past_the_end": len(P), "negative": -1, "non_integer": 1.5,
           "string": "1"}[where]
    match = READER_MESSAGES.get(reader, "vertex id {vid} not in")
    with pytest.raises(PreconditionError,
                       match=match.format(vid=re.escape(repr(vid)))):
        VERTEX_READERS[reader](P, vid)
    # nothing was built, per vertex or per cluster
    assert P.stats["based_cache"] == P.stats["vertex_cache"] == 0
    assert all(cone.opp_cone is None for cone in P.fan())


DIRECTION_READERS = {
    "ray": lambda P, k: P.ray(0, k),
    "tropical_sign": lambda P, k: P.tropical_sign(0, k),
    "limit_L": lambda P, k: limit_L(P, PositivePoint(0, (1.0, 1.0)), 0, k,
                                    10.0),
}


@pytest.mark.parametrize("reader", sorted(DIRECTION_READERS))
@pytest.mark.parametrize("k", [-1, 2, 1.5])
def test_directions_out_of_range_raise_precondition_error(reader, k):
    # -1 used to read direction n-1, n raised a bare IndexError and 1.5 a
    # bare TypeError
    with pytest.raises(PreconditionError,
                       match=re.escape(f"direction {k!r} not in range(2)")):
        DIRECTION_READERS[reader](a2(), k)


def test_numpy_integer_vertex_ids_are_read():
    # predict returns numpy integers, which name vertices as ints do; a
    # vertex first built from one still has an int id, which JSON takes
    P = pattern_from_type("B3")
    vid = np.int64(7)
    assert type(P.vertex(vid).id) is int
    json.dumps(P.to_json_obj())
    assert P.vertex(vid) == P.vertex(7)
    assert P.route(0, vid) == P.route(0, 7)
    assert P.neighbor(vid, ("mu", 1)) == P.neighbor(7, ("mu", 1))
    assert P.opposite_cone_matrix(vid) == P.opposite_cone_matrix(7)


def test_library_paths_read_no_edge_map():
    # every edge is read off the landings; only a reader of P.mut_edges
    # builds that map
    P = pattern_from_type("B3")
    g0 = PositivePoint(0, (1.0, 2.0, 0.5))
    L = TropicalPoint(0, (2.0, -1.0, 3.0))
    P.fan()
    locate_cone(L, P)
    inverse_quake(P, g0, quake(P, g0, L).g)
    glue(CentralCharge(0, (-1, 2 + 1j, 1j)), P, 0)
    v0 = P.neighbor(0, ("mu", 1))
    cluster_reduce(P, v0, [0, 1], PositivePoint(v0, (1.5, 0.7, 2.0)),
                   TropicalPoint(v0, (-2.0, 1.0, 4.0)))
    P.to_json_obj()
    P.stats
    assert "mut_edges" not in vars(P)


def test_stats():
    P = pattern_from_type("D4")
    stats = P.stats
    assert {k: stats[k] for k in ("vertices", "clusters", "mutation_edges",
                                  "relabel_edges", "cones")} == {
        # four mutations and six transpositions per vertex, both ways
        "vertices": 1200, "clusters": 50, "mutation_edges": 1200 * 4 // 2,
        "relabel_edges": 1200 * 6 // 2, "cones": 50}
    assert stats["bfs_s"] > 0 and stats["fan_s"] >= 0
    # the fan reads its cones off the clusters: no vertex, no F built
    assert stats["based_cache"] == 0 and stats["vertex_cache"] == 0
    assert stats["f_clusters"] == 1
    # D4's 50 cones fill all 16 orthants; the fullest holds 15
    assert stats["orthants"] == 16 and stats["orthant_max"] == 15
    # vertex 7 is not its cluster's first, which walks to the base for it
    # and keeps its matrices on the record; vertex 7's are not kept
    assert 7 not in {c.vertex_id for c in P.fan()}
    P.based_matrices(7)
    assert P.stats["based_cache"] == 1 and P.stats["f_clusters"] == 1
    # one vertex's F builds those of its cluster's BFS ancestors only
    P.vertex(1199).Fs
    assert 0 < P.stats["vertex_cache"] < 1200
    assert 1 < P.stats["f_clusters"] < 50


def walked_edge_counts(P):
    """(mutation edges, relabel edges) of P, each counted once by walking
    every vertex's edges off the landings."""
    return tuple(sum(v < w for v, _, w in P._edges(kind))
                 for kind in ("mu", "perm"))


@pytest.mark.parametrize("label", ENUMERATE_TYPES + ["A5", "B5", "D5"])
def test_stats_edge_counts_of_a_complete_pattern_are_closed_forms(
        label, monkeypatch):
    P = pattern_from_type(label)
    walked = walked_edge_counts(P)
    # a complete pattern counts its edges with no walk
    monkeypatch.setattr(ExchangePattern, "_edges", None)
    stats = P.stats
    assert (stats["mutation_edges"], stats["relabel_edges"]) == walked
    t = len(P.eps0.admissible_transpositions())
    assert walked == (len(P) * P.n // 2, len(P) * t // 2)


@pytest.mark.parametrize("label, caps", [("A3", range(1, 84)),
                                         ("B3", range(1, 40)),
                                         ("D4", [1, 7, 50, 333, 1199])])
def test_stats_edge_counts_of_a_partial_pattern_are_walked(label, caps):
    for cap in caps:
        with pytest.raises(PatternBudgetError) as err:
            pattern_from_type(label, cap=cap)
        P = err.value.partial
        stats = P.stats
        assert (stats["mutation_edges"], stats["relabel_edges"]) == (
            walked_edge_counts(P)), cap


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_opposite_sign_matrices_match_opposite_pattern(label):
    # C^{-s}_{v->v0} read off G, and C^{-s}_{v0->v} = Cdual, against the
    # second enumeration they replace
    P = pattern_from_type(label)
    opp = P.opposite()
    for v in P.vertices:
        w = P.opposite_vertex(v.id)
        assert P.opposite_cone_matrix(v.id) == opp.based_matrices(w).C, v.id
        assert P.fc_product(v.id, -1)[0] == intmat.matmul(
            P.based_matrices(v.id).Fmat, opp.vertex(w).C), v.id


def test_opposite_sign_matrices_need_no_second_pattern(monkeypatch, capsys):
    def forbidden(self):
        raise AssertionError("opposite() enumerated")

    monkeypatch.setattr(ExchangePattern, "opposite", forbidden)
    P = pattern_from_type("B3")
    g0 = PositivePoint(0, (1, 2, 1))
    for v in P.vertices:
        assert P.fuGy_check(v.id)[0]
        assert P.fc_product(v.id, -1)[1]
    for cone in P.fan():
        estimate, target = limit_L(P, g0, cone.vertex_id, 1, 1000.0)
        assert max(abs(a - b) for a, b in zip(estimate, target)) < 1e-2
    assert main(["verify", "--suite", "matrices", "--type", "B3"]) == 0
    assert capsys.readouterr().out.startswith("PASS matrices")


def test_opposite_cone_matrix_must_be_integral():
    # B2 has d = (1, 2): entry (0, 1) is d_0 * G_10 / d_1 = G_10 / 2
    P = pattern_from_type("B2")
    odd_g = ((1, 0), (1, 1))
    P.fan()[0].G = odd_g
    with pytest.raises(InternalConsistencyError, match="integral"):
        P.opposite_cone_matrix(0)


def vertex_identity_oracle(P, vid):
    """The readers of vertex vid's identity data, by their formulas on the
    PatternVertex's own G, C and Cdual, and on based_matrices(vid)."""
    v = P.vertex(vid)
    based = P.based_matrices(vid)
    d = P.d
    opp = tuple(tuple(divmod(d[i] * v.G[j][i], d[j]) for j in range(P.n))
                for i in range(P.n))
    assert not any(r for row in opp for _, r in row), vid
    opp = tuple(tuple(q for q, _ in row) for row in opp)
    lhs = intmat.matmul(P.eps0.entries, based.Fmat)
    residual = tuple(tuple(c + e - o for c, e, o in zip(*rows))
                     for rows in zip(based.C, lhs, opp))
    products = [intmat.matmul(based.Fmat, M) for M in (v.C, v.Cdual)]
    return {
        "opposite_cone_matrix": opp,
        "fc_product": [(m, all(x <= 0 for row in m for x in row))
                       for m in products],
        "tropical_sign": [1 if min(row) >= 0 else -1 for row in v.C],
        "cone_matrix_inv": v.Cdual,
        "fuGy_check": (not any(map(any, residual)), residual),
    }


@pytest.mark.parametrize("label", ENUMERATE_TYPES + ["A5", "B5", "D5"])
def test_identity_data_read_off_the_records_match_each_vertex(label):
    # the readers take each vertex's data from its cluster's record,
    # through its label: exactly what the vertex's own matrices give
    P = pattern_from_type(label)
    for vid in range(len(P)):
        assert vertex_identity_oracle(P, vid) == {
            "opposite_cone_matrix": P.opposite_cone_matrix(vid),
            "fc_product": [P.fc_product(vid, 1), P.fc_product(vid, -1)],
            "tropical_sign": [P.tropical_sign(vid, k) for k in range(P.n)],
            "cone_matrix_inv": P.cone_matrix_inv(vid),
            "fuGy_check": P.fuGy_check(vid),
        }, vid


def test_matrices_suite_builds_no_vertex():
    # every vertex's checks read its cluster's record, and each cluster's
    # based matrices walk the records' tree from its first vertex to the
    # base
    P = pattern_from_type("D4")
    assert checks.matrices(P, random.Random(0))[0].ok
    assert P.stats["based_cache"] == 50
    assert P.stats["vertex_cache"] == 0


def assert_prefix_of_oracle(partial, oracle):
    # vertex i agrees wherever both patterns have one, and every edge of
    # the partial pattern is an edge of the oracle; the partial pattern
    # reads its edges off the landings and ids, so it has every relabel
    # edge between two of its vertices, and a mutation edge wherever its
    # cluster's landing is known
    assert len(partial) <= len(oracle)
    assert partial.vertices == oracle.vertices[:len(partial)]
    assert route_edges(partial) == oracle.paths[:len(partial)]
    mut_within, perm_within = oracle.edges_within
    assert partial.mut_edges.items() <= mut_within.items()
    assert relabel_neighbors(partial) == perm_within


@pytest.mark.parametrize("label", ["D4", "B3"])
@pytest.mark.parametrize("cap", [1, 7, 50, 333])
def test_budget_partial_matches_labeled_bfs_oracle(label, cap):
    # B3 has 40 vertices, so caps 50 and 333 build it whole
    eps0 = seed_from_type(label)
    try:
        partial = enumerate_pattern(eps0, cap=cap, type_tag=label)
    except PatternBudgetError as err:
        partial = err.partial
    oracle = labeled_bfs_oracle(eps0, label, cap)
    assert len(partial) == len(oracle) == min(cap, {"D4": 1200,
                                                    "B3": 40}[label])
    assert_prefix_of_oracle(partial, oracle)
    # both searches stop at the same step, so the partial pattern has
    # every edge the oracle's search found
    mut_edges, perm_edges = oracle.edge_maps
    assert mut_edges.items() <= partial.mut_edges.items()
    assert perm_edges.items() <= relabel_neighbors(partial).items()


@pytest.mark.parametrize("name", sorted(NOT_FINITE_TYPE))
def test_not_finite_partial_matches_labeled_bfs_oracle(name):
    eps = ExchangeMatrix.make(NOT_FINITE_TYPE[name])
    with pytest.raises(NotFiniteTypeError) as err:
        enumerate_pattern(eps)
    partial = err.value.partial
    # the F-polynomials of these classes grow fast: stop the oracle at the
    # partial pattern's size
    oracle = labeled_bfs_oracle(eps, cap=len(partial))
    assert len(oracle) == len(partial)
    assert_prefix_of_oracle(partial, oracle)


@pytest.mark.parametrize("label", ["B3", "D4"])
def test_vertices_read_like_a_tuple(label):
    eps0 = seed_from_type(label)
    P = enumerate_pattern(eps0, type_tag=label)
    oracle = labeled_bfs_oracle(eps0, label)
    expected = oracle.vertices
    assert len(P.vertices) == len(P) == len(expected)
    assert P.vertices[-1] == expected[-1] and P.vertices[-7] == expected[-7]
    assert P.vertices[3:40:5] == expected[3:40:5]
    assert P.vertices[::-1] == expected[::-1]
    assert P.vertices == expected
    assert route_edges(P) == oracle.paths
    assert list(P.vertices) == list(expected)
    assert [v.id for v in P.vertices] == list(range(len(P)))
    with pytest.raises(IndexError):
        P.vertices[len(P)]


def test_only_route_replays_the_bfs_tree():
    # the build stores no BFS tree, and no reader but route() replays it
    P = pattern_from_type("B3")
    P.fan()
    assert P.stats["vertices"] == len(P.to_json_obj()["vertices"]) == 40
    g0 = PositivePoint(0, (1.0, 2.0, 0.5))
    L = TropicalPoint(0, (1.0, -2.0, 0.5))
    locate_cone(L, P)
    g = quake(P, g0, L).g
    inverse_quake(P, g0, g)
    P.walk(L.x, 7, len(P) - 1, _steps.trop_mutation)
    assert "_parents" not in vars(P)
    assert P.route(P.base, 7) and "_parents" in vars(P)


def test_vertices_are_built_on_first_read():
    P = pattern_from_type("D4")
    assert P._slots.count(None) == len(P)  # stats would build the fan
    v = P.vertex(5)
    assert P.vertex(5) is v
    P.fan()
    assert 0 < P.stats["vertex_cache"] < len(P)
    assert P.vertices[5] is v
    assert P.stats["vertex_cache"] == len(P)


def test_building_vertices_walks_no_route(monkeypatch):
    # a vertex stores no path: route() and vertex_sequence() read the
    # BFS tree
    calls = []
    real = ExchangePattern.route

    def counting(self, src, dst):
        calls.append((src, dst))
        return real(self, src, dst)

    monkeypatch.setattr(ExchangePattern, "route", counting)
    P = pattern_from_type("D4")
    assert len(P.vertices) == 1200
    assert calls == []
    assert not hasattr(P.vertex(5), "path")


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_each_cluster_edge_is_mutated_once(label, monkeypatch):
    # a cluster's mutations are made when its first vertex is popped, each
    # edge from whichever end is popped first; the labeled steps make none
    calls = []
    real = ExchangeMatrix.mutate

    def counting(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(ExchangeMatrix, "mutate", counting)
    P = pattern_from_type(label)
    assert len(calls) == len(P.fan()) * P.n // 2


@pytest.mark.parametrize("cap", [2, 7, 50, 333])
def test_partial_pattern_knows_every_landing_of_its_popped_clusters(cap):
    with pytest.raises(PatternBudgetError) as err:
        pattern_from_type("D4", cap=cap)
    P = err.value.partial
    # the last vertex added was added while its BFS parent was popped
    popped = P._parents[-1][0]
    for cone in P.fan():
        if cone.vertex_id <= popped:
            assert None not in cone.landings, cone.vertex_id
    # the clusters made at one pop that got no vertex before the cap
    assert len(P._cones) - len(P.fan()) < P.n


def fan_tree_holds(P):
    """Every cone but the base's is one mutation of an earlier cone: its
    parent is at an earlier fan position, the mutation edge leads from
    the parent's first vertex to the cone's, and the route from the base
    runs through it; and every cone's inequalities are its C^- rows."""
    fan = P.fan()
    for i, cone in enumerate(fan):
        v = cone.vertex_id
        if cone.inequalities != P.cone_matrix_inv(v):
            return False
        if cone.parent is None:
            if v != P.base:
                return False
        else:
            up, k = cone.parent
            if not up < i:
                return False
            w = fan[up].vertex_id
            if (P.mut_edges.get((w, k)) != v
                    or P.route(P.base, v) != P.route(P.base, w)
                    + [(w, ("mu", k))]):
                return False
    return True


def assert_record_graph(P, oracle):
    """P.fan()[i] is cluster i, made from a cone at a smaller position,
    and the records' landings agree with the oracle's mutation edges.
    Where cone i's landing in direction q is (t, tau), the landing of
    cone t in direction tau[q] leads back by tau^-1, and the oracle has
    an edge from cone i's first vertex in direction q exactly when the
    far end, labeled (t, tau), is in the pattern, and to it.  A mutation
    not yet made is no edge the oracle's search found."""
    ident = tuple(range(P.n))
    found, within = oracle.edge_maps[0], oracle.edges_within[0]
    for i, cone in enumerate(P.fan()):
        assert cone is P._cones[i] and P._labels[cone.vertex_id] == (i, ident)
        assert cone.parent is None if i == 0 else cone.parent[0] < i
        for q, landing in enumerate(cone.landings):
            edge = (cone.vertex_id, q)
            if landing is None:
                assert edge not in found
                continue
            t, tau = landing
            back = tuple(sorted(ident, key=tau.__getitem__))
            assert P._cones[t].landings[tau[q]] == (i, back)
            assert within.get(edge) == P._cones[t].ids.get(tau)


@pytest.mark.parametrize("label", ENUMERATE_TYPES)
def test_fan_is_a_tree_of_mutations(label):
    assert fan_tree_holds(pattern_from_type(label))


@pytest.mark.parametrize("label", ["D4", "F4"])
@pytest.mark.parametrize("cap", [1, 7, 50, 333])
def test_partial_fan_is_a_tree_of_mutations(label, cap):
    with pytest.raises(PatternBudgetError) as err:
        pattern_from_type(label, cap=cap)
    partial = err.value.partial
    assert len(partial.fan()) >= 1 and fan_tree_holds(partial)
    assert_record_graph(partial,
                        labeled_bfs_oracle(seed_from_type(label), label, cap))


def test_broken_cone_parent_fails_the_tree_property():
    P = pattern_from_type("B3")
    fan = list(P.fan())
    w, k = fan[5].parent
    wrong = next(j for j in range(P.n) if j != k)
    fan[5] = dataclasses.replace(fan[5], parent=(w, wrong))
    P._fan = tuple(fan)
    assert not fan_tree_holds(P)


def test_fan_rejects_a_cone_reached_from_no_earlier_cone():
    # the landing of the parent's mutation moved to another cluster, or
    # to a relabeled member of the cone: either way the tree edge of the
    # records does not reach the cone's first vertex
    P = pattern_from_type("B3")
    cone = P.fan()[5]
    up, k = cone.parent
    for landing in ((6, tuple(range(P.n))), P._labels[cone.members[1]]):
        Q = pattern_from_type("B3")
        Q._cones[up].landings[k] = landing
        with pytest.raises(InternalConsistencyError, match="earlier cone"):
            Q.fan()


def test_fan_rejects_a_parent_that_is_not_an_earlier_cone():
    # cone 5 claims itself, or the next cone, as its parent
    for up in (5, 6):
        P = pattern_from_type("B3")
        cone = P._cones[5]
        cone.parent = (up, cone.parent[1])
        with pytest.raises(InternalConsistencyError, match="earlier cone"):
            P.fan()


def test_fan_rejects_a_cone_with_no_vertex_before_the_last():
    # only the last record can lack members, made just before the cap;
    # one before it would shift the positions of the cones after it
    P = pattern_from_type("B3")
    P._cones[5].ids.clear()
    with pytest.raises(InternalConsistencyError,
                       match="canonical seed of cluster 5$"):
        P.fan()


def test_fan_rejects_a_representative_not_labeled_by_the_identity():
    # a cone's record reads its first vertex's rows unpermuted, so a
    # first vertex labeled by another member's permutation is a fault
    P = pattern_from_type("B3")
    rep, other = P._cones[5].members[:2]
    P._labels[rep] = P._labels[other]
    with pytest.raises(InternalConsistencyError, match="canonical seed"):
        P.fan()


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_every_partial_fan_is_a_tree_of_cones_with_members(label):
    # a cap can stop the build right after a mutation made a cluster and
    # before its first vertex was added; that cluster has no cone
    for cap in range(1, len(pattern_from_type(label))):
        with pytest.raises(PatternBudgetError) as err:
            pattern_from_type(label, cap=cap)
        partial = err.value.partial
        fan = partial.fan()
        assert all(cone.members for cone in fan), cap
        assert all(cone.vertex_id == min(cone.members) for cone in fan), cap
        assert fan_tree_holds(partial), cap
        oracle = labeled_bfs_oracle(seed_from_type(label), label, cap)
        assert_record_graph(partial, oracle)
        # the tree route() replays is the oracle's search tree
        assert route_edges(partial) == oracle.paths[:len(partial)], cap


@pytest.mark.parametrize("label", ENUMERATE_TYPES + ["A5", "D5", "B5"])
def test_orthant_index_buckets_every_cone_by_its_generator_signs(label):
    P = pattern_from_type(label)
    P.fan()
    assert "orthants" not in vars(P)  # the fan does not build the index
    index = P.orthants
    rows = {id(cone): list(zip(*cone.generators)) for cone in P.fan()}
    for key, cones in index.buckets.items():
        for cone in cones:
            for pos, row in zip(key, rows[id(cone)]):
                assert all(x >= 0 if pos else x <= 0 for x in row) and any(row)
    # each cone in one bucket, each bucket in fan order
    order = {id(cone): i for i, cone in enumerate(P.fan())}
    assert sorted(order[id(c)] for b in index.buckets.values() for c in b) \
        == list(range(len(P.fan())))
    for cones in index.buckets.values():
        assert [order[id(c)] for c in cones] == sorted(order[id(c)]
                                                        for c in cones)
    assert index.reach == max(sum(map(abs, row)) for r in rows.values()
                              for row in r)
    assert index.spread == max(sum(map(abs, row)) for cone in P.fan()
                               for row in cone.inequalities)
