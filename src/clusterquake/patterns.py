"""Labeled exchange graphs of finite-type mutation classes.

enumerate_pattern performs a breadth-first closure of an initial seed
under the n matrix mutations (and, by default, under the symmetrizer-
preserving transpositions), deduplicating labeled seeds by the pair
(exchange matrix, C-matrix).  Each vertex carries its C-matrix, its
dual C-matrix C^- and its G-matrix, each from an integer one-step
recursion, plus its F-polynomials.  These are computed once per
cluster, along the BFS edge that first reached it; every labeled vertex
is its cluster's canonical seed with the rows permuted.  The pattern
object then answers the derived questions: tropical signs, cones and
the fan, opposite class, FuGy identity, F*C products.

Conventions (all 0-based):
  * C-matrix rows are c-vectors; C^s_{v0->v} linearizes the tropical
    coordinate change x^(v) = C * x^(v0) on the non-negative orthant of
    the base chart.
  * Cdual = C^{-s}_{v0->v}, the C-matrix of the opposite pattern at the
    same path, steps by mutate_c_matrix with -eps.  By the tropical
    duality of Nakanishi-Zelevinsky it is the inverse of cone_matrix(v),
    so its rows cut out the cone of v.
  * G-matrix rows are g-vectors, g'_k = -g_k + sum_i [-s * eps_ki]+ g_i
    with s the tropical sign of c_k (Fomin-Zelevinsky IV); every vertex
    is checked against the duality C * diag(d) * G^T = diag(d).
  * cone_matrix(v) = C^s_{v->v0}; its columns generate the cone of v in
    base-chart coordinates and are computed independently of the row
    recursions by transporting basis vectors along the reversed path.
"""

from __future__ import annotations

import os
import time
from collections import deque
from operator import mul
from dataclasses import dataclass, field
from typing import NamedTuple

from . import _steps, intmat
from .errors import (
    InternalConsistencyError,
    NotFiniteTypeError,
    PatternBudgetError,
    PreconditionError,
)
from .fpoly import FPolynomial, f_matrix, mutate_F
from .seeds import ExchangeMatrix, Permutation, seed_from_type

DEFAULT_CAP = 50_000

MutEdge = tuple  # ("mu", k)
PermEdge = tuple  # ("perm", images)


def _row_sign(row):
    if all(x >= 0 for x in row) and any(row):
        return 1
    if all(x <= 0 for x in row) and any(row):
        return -1
    raise InternalConsistencyError(f"c-vector {row} is not sign-coherent")


def mutate_c_matrix(C, eps: ExchangeMatrix, k: int):
    """Row recursion for the C-matrix, written with the tropical sign of
    the k-th c-vector so that it is manifestly equivalent to transporting
    basis vectors: c'_k = -c_k, c'_i = c_i + [sign * eps_ik]+ * c_k."""
    sign = _row_sign(C[k])
    ck = C[k]
    rows = []
    for i, row in enumerate(C):
        if i == k:
            rows.append(tuple(-x for x in ck))
            continue
        coef = max(0, sign * eps.entries[i][k])
        if coef:
            rows.append(tuple(x + coef * y for x, y in zip(row, ck)))
        else:
            rows.append(row)
    return tuple(rows)


def mutate_g_matrix(G, C, eps: ExchangeMatrix, k: int):
    """Row recursion for the G-matrix (rows are g-vectors) along mutation
    k, with the tropical sign s of the k-th c-vector in C:
    g'_k = -g_k + sum_i [-s * eps_ki]+ * g_i, the other rows unchanged."""
    sign = _row_sign(C[k])
    gk = [-x for x in G[k]]
    for i, e in enumerate(eps.entries[k]):
        coef = max(0, -sign * e)
        if coef:
            gk = [x + coef * y for x, y in zip(gk, G[i])]
    return G[:k] + (tuple(gk),) + G[k + 1:]


@dataclass(frozen=True)
class PatternVertex:
    id: int
    eps: ExchangeMatrix
    C: intmat.IntMatrix
    Cdual: intmat.IntMatrix  # C^{-s}_{v0->v} = cone_matrix(v)^-1
    G: intmat.IntMatrix
    Fs: tuple
    Fmat: intmat.IntMatrix
    path: tuple


@dataclass(frozen=True)
class Cone:
    """A maximal cone of the fan, in base-chart coordinates."""

    vertex_id: int
    generators: tuple  # columns of C^s_{v->v0}
    members: tuple  # all vertex ids sharing this cone


class BasedMatrices(NamedTuple):
    C: intmat.IntMatrix  # C^s_{v->v0}
    Fs: tuple  # F-polynomials from v to v0
    Fmat: intmat.IntMatrix


class ExchangePattern:
    """Immutable labeled exchange graph rooted at vertex 0."""

    def __init__(self, vertices, mut_edges, perm_edges, type_tag,
                 include_permutations, cap, clusters=None, bfs_s=None):
        self.vertices = tuple(vertices)
        self.mut_edges = dict(mut_edges)  # (vid, k) -> wid
        self.perm_edges = dict(perm_edges)  # (vid, images) -> wid
        self.base = 0
        self.type_tag = type_tag
        self.include_permutations = include_permutations
        self.cap = cap
        self._seq_cache = {}
        self._based_cache = {}
        self._cone_cache = {}
        self._opposite = None
        self._opp_map = None
        self._fan = None
        self._clusters = clusters
        self._bfs_s = bfs_s
        self._fan_s = None

    # -- basic access ----------------------------------------------------

    @property
    def n(self):
        return self.vertices[0].eps.n

    @property
    def d(self):
        return self.vertices[0].eps.d

    @property
    def eps0(self):
        return self.vertices[0].eps

    def __len__(self):
        return len(self.vertices)

    def vertex(self, vid) -> PatternVertex:
        return self.vertices[vid]

    def neighbor(self, vid, edge):
        kind = edge[0]
        if kind == "mu":
            return self.mut_edges[(vid, edge[1])]
        return self.perm_edges[(vid, edge[1])]

    def vertex_sequence(self, vid):
        """Vertex ids visited by path(vid), base first, vid last."""
        if vid not in self._seq_cache:
            seq = [self.base]
            for edge in self.vertices[vid].path:
                seq.append(self.neighbor(seq[-1], edge))
            if seq[-1] != vid:
                raise InternalConsistencyError("stored path does not reach vertex")
            self._seq_cache[vid] = tuple(seq)
        return self._seq_cache[vid]

    def route(self, src, dst):
        """Steps [(ambient vid, edge), ...] leading from chart src to dst.

        Built from the stored base paths with the common prefix cancelled;
        a path is walked back edge by edge, since every edge is its own
        inverse (mutations, and relabelings by transpositions).
        """
        if src == dst:
            return []
        p_src, p_dst = self.vertices[src].path, self.vertices[dst].path
        s_src, s_dst = self.vertex_sequence(src), self.vertex_sequence(dst)
        common = 0
        while (common < len(p_src) and common < len(p_dst)
               and p_src[common] == p_dst[common]):
            common += 1
        steps = []
        for pos in range(len(p_src) - 1, common - 1, -1):
            steps.append((s_src[pos + 1], p_src[pos]))
        for pos in range(common, len(p_dst)):
            steps.append((s_dst[pos], p_dst[pos]))
        return steps

    # -- per-vertex derived data ------------------------------------------

    def tropical_sign(self, vid, k):
        """Sign (+1/-1) of the k-th c-vector at the given vertex."""
        return _row_sign(self.vertices[vid].C[k])

    def cone_matrix(self, vid):
        """C^s_{v->v0}: transport of the chart-v basis vectors to the base
        chart (columns are the cone generators)."""
        if vid not in self._cone_cache:
            n = self.n
            cols = []
            steps = self.route(vid, self.base)
            for j in range(n):
                x = tuple(1 if i == j else 0 for i in range(n))
                for at, edge in steps:
                    eps = self.vertices[at].eps
                    if edge[0] == "mu":
                        x = _steps.trop_mutation(x, eps.entries, edge[1])
                    else:
                        x = _steps.apply_perm(x, Permutation(edge[1]))
                cols.append(x)
            self._cone_cache[vid] = tuple(zip(*cols))
        return self._cone_cache[vid]

    def cone_matrix_inv(self, vid):
        """C^{-s}_{v0->v}, the inverse of cone_matrix(v): its rows give the
        coordinates of a base-chart point in the cone generators."""
        return self.vertices[vid].Cdual

    def based_matrices(self, vid) -> BasedMatrices:
        """C-, F-, and F-degree matrices of the pattern re-based at vid
        with target the original base (C^s_{v->v0}, F^{v->v0})."""
        if vid not in self._based_cache:
            n = self.n
            C = intmat.identity(n)
            Fs = tuple(FPolynomial.constant(n) for _ in range(n))
            for at, edge in self.route(vid, self.base):
                eps = self.vertices[at].eps
                if edge[0] == "mu":
                    k = edge[1]
                    Fs = mutate_F(Fs, C, eps, k)
                    C = mutate_c_matrix(C, eps, k)
                else:
                    sigma = Permutation(edge[1])
                    C = _steps.apply_perm(C, sigma)
                    Fs = _steps.apply_perm(Fs, sigma)
            self._based_cache[vid] = BasedMatrices(C, Fs, f_matrix(Fs))
        return self._based_cache[vid]

    # -- opposite class ----------------------------------------------------

    def opposite(self) -> "ExchangePattern":
        """Pattern of the opposite mutation class (all matrices negated)."""
        if self._opposite is None:
            self._opposite = enumerate_pattern(
                -self.eps0, cap=self.cap,
                include_permutations=self.include_permutations,
                type_tag=self.type_tag + "-opposite" if self.type_tag else "opposite")
        return self._opposite

    def opposite_vertex(self, vid):
        """Vertex of opposite() reached by replaying path(vid)."""
        if self._opp_map is None:
            self._opp_map = {}
        if vid not in self._opp_map:
            opp = self.opposite()
            w = opp.base
            for edge in self.vertices[vid].path:
                w = opp.neighbor(w, edge)
            self._opp_map[vid] = w
        return self._opp_map[vid]

    # -- identities ---------------------------------------------------------

    def fuGy_check(self, vid):
        """Residual of C^s_{v->v0} + eps^(v0) * F^s_{v->v0} - C^{-s}_{v->v0}
        (exchange matrix taken at the common endpoint v0 of the paths);
        returns (all_zero, residual_matrix)."""
        based = self.based_matrices(vid)
        lhs = intmat.matmul(self.eps0.entries, based.Fmat)
        lhs = tuple(tuple(c + e for c, e in zip(crow, erow))
                    for crow, erow in zip(based.C, lhs))
        opp = self.opposite()
        rhs = opp.based_matrices(self.opposite_vertex(vid)).C
        residual = tuple(tuple(a - b for a, b in zip(ra, rb))
                         for ra, rb in zip(lhs, rhs))
        ok = all(x == 0 for row in residual for x in row)
        return ok, residual

    def fc_product(self, vid, sign=1):
        """F^s_{v->v0} * C^{(+/-)s}_{v0->v} and whether it is entrywise <= 0."""
        fmat = self.based_matrices(vid).Fmat
        if sign >= 0:
            target_c = self.vertices[vid].C
        else:
            opp = self.opposite()
            target_c = opp.vertices[self.opposite_vertex(vid)].C
        product = intmat.matmul(fmat, target_c)
        ok = all(x <= 0 for row in product for x in row)
        return product, ok

    # -- fan -----------------------------------------------------------------

    def fan(self):
        """Maximal cones, deduplicated across relabeled vertices.

        Two vertices share a cone exactly when their cone matrices have the
        same set of columns, that is when their inverses (the Cdual
        matrices) have the same set of rows; the generators are then
        transported once per cone, for its lowest vertex id."""
        if self._fan is None:
            start = time.process_time()
            groups = {}
            for v in self.vertices:
                groups.setdefault(frozenset(v.Cdual), []).append(v.id)
            cones = []
            for members in groups.values():
                rep = members[0]
                cones.append(Cone(rep, intmat.transpose(self.cone_matrix(rep)),
                                  tuple(members)))
            self._fan = tuple(cones)
            self._fan_s = time.process_time() - start
        return self._fan

    def ray(self, vid, k):
        """Base-chart coordinates of the k-th cone generator of vertex vid."""
        return intmat.column(self.cone_matrix(vid), k)

    # -- observability --------------------------------------------------------

    @property
    def stats(self):
        """Counts, CPU seconds per phase and cache sizes, as a dict.

        Builds the fan if it has not been built.  `clusters` and `bfs_s`
        are None for a pattern not made by enumerate_pattern."""
        fan = self.fan()
        return {
            "vertices": len(self.vertices),
            "clusters": self._clusters,
            "mutation_edges": len(self.mut_edges) // 2,
            "relabel_edges": len(self.perm_edges) // 2,
            "cones": len(fan),
            "bfs_s": self._bfs_s,
            "fan_s": self._fan_s,
            "seq_cache": len(self._seq_cache),
            "based_cache": len(self._based_cache),
            "cone_cache": len(self._cone_cache),
        }

    # -- serialization --------------------------------------------------------

    def to_json_obj(self):
        verts = []
        for v in self.vertices:
            verts.append({
                "id": v.id,
                "eps": [list(r) for r in v.eps.entries],
                "C": [list(r) for r in v.C],
                "G": [list(r) for r in v.G],
                "F": [sorted(
                    ({"exp": list(e), "coef": c} for e, c in f.terms.items()),
                    key=lambda t: (sum(t["exp"]), t["exp"]))
                    for f in v.Fs],
            })
        edges = []
        seen = set()
        for (vid, k), wid in sorted(self.mut_edges.items()):
            if (wid, k, vid) in seen:
                continue
            seen.add((vid, k, wid))
            edges.append({"src": vid, "dst": wid, "kind": "mutation", "k": k})
        pseen = set()
        for (vid, images), wid in sorted(self.perm_edges.items()):
            key = (min(vid, wid), max(vid, wid), images)
            if key in pseen:
                continue
            pseen.add(key)
            edges.append({"src": vid, "dst": wid, "kind": "relabel",
                          "sigma": list(images)})
        return {"type": self.type_tag, "base": self.base, "d": list(self.d),
                "vertices": verts, "edges": edges}


def _resolve_cap(cap):
    source = "cap"
    if cap is None:
        cap = os.environ.get("CLUSTER_QUAKE_CAP") or DEFAULT_CAP
        source = "CLUSTER_QUAKE_CAP"
    try:
        cap = int(cap)
    except (TypeError, ValueError):
        raise PreconditionError(
            f"{source} must be an integer, got {cap!r}") from None
    if cap < 1:
        raise PreconditionError(f"{source} must be at least 1, got {cap}")
    return cap


def _two_finite_violation(eps: ExchangeMatrix):
    """A pair (i, j) with |eps_ij * eps_ji| > 3, or None.  No matrix in a
    mutation class of finite type has one (Fomin-Zelevinsky, Cluster
    algebras II)."""
    e = eps.entries
    for i in range(eps.n):
        for j in range(i + 1, eps.n):
            if abs(e[i][j] * e[j][i]) > 3:
                return i, j
    return None


def _duality_holds(C, G, d, diag_d):
    """C * diag(d) * G^T == diag(d), exactly."""
    gd = [tuple(map(mul, row, d)) for row in G]
    return tuple(tuple(sum(map(mul, c_row, g_row)) for g_row in gd)
                 for c_row in C) == diag_d


class _Cluster(NamedTuple):
    """Canonical labeled seed of one cluster: the labeling in which the
    BFS first reached it, with each c-vector's row index."""

    eps: ExchangeMatrix
    C: intmat.IntMatrix
    Cdual: intmat.IntMatrix
    G: intmat.IntMatrix
    Fs: tuple
    Fmat: intmat.IntMatrix
    rows: dict  # c-vector -> row index


def _landing_perm(cluster: _Cluster, C):
    """tau with C[i] == cluster.C[tau[i]] for every row i."""
    return tuple(cluster.rows[row] for row in C)


def _is_relabeling(cluster: _Cluster, tau, eps: ExchangeMatrix, C):
    """Whether (eps, C) is the cluster's canonical seed with row i taken
    from row tau[i], by a tau that preserves the symmetrizer."""
    e, d = cluster.eps.entries, cluster.eps.d
    return (all(d[t] == x for t, x in zip(tau, d))
            and tuple(cluster.C[t] for t in tau) == C
            and tuple(tuple(e[a][b] for b in tau) for a in tau) == eps.entries)


def enumerate_pattern(eps0: ExchangeMatrix, cap=None,
                      include_permutations=True,
                      type_tag="custom") -> ExchangePattern:
    """Breadth-first closure of the initial seed under mutations (and
    admissible transpositions), deduplicated by (eps, C).

    A labeled seed is stored as (cluster, p): row i of each of its
    matrices is row p[i] of the cluster's canonical seed.  Mutation
    commutes with relabeling, so the exact mutation of eps, C, C^-, G
    and F runs once per cluster edge, memoised as (cluster', tau) with
    row i of the landed seed equal to row tau[i] of the canonical seed of
    cluster' (clusters are keyed by their set of c-vectors); a labeled
    step (cluster, p) -> (cluster', tau o p) is then tuple arithmetic.

    Raises NotFiniteTypeError at the first exchange matrix that shows the
    class is not of finite type, and PatternBudgetError when the vertex
    budget is exceeded; either way the partially built pattern is
    attached to the exception.
    """
    start = time.process_time()
    cap = _resolve_cap(cap)
    n = eps0.n
    d = eps0.d
    diag_d = tuple(tuple(x if i == j else 0 for j in range(n))
                   for i, x in enumerate(d))
    ident = tuple(range(n))
    clusters = []
    cluster_of = {}  # frozenset of c-vectors -> cluster id
    memo = {}  # (cluster id, direction) -> (cluster id, tau)
    checked = set()  # cluster ids whose matrix passed the finite-type test
    vertices = []
    labels = []  # vid -> (cluster id, p)
    index = {}  # (cluster id, p) -> vid
    mut_edges = {}
    perm_edges = {}
    transpositions = ([s.images for s in eps0.admissible_transpositions()]
                      if include_permutations else [])
    queue = deque()

    def pattern_so_far():
        return ExchangePattern(vertices, mut_edges, perm_edges, type_tag,
                               include_permutations, cap,
                               clusters=len(clusters),
                               bfs_s=time.process_time() - start)

    def new_cluster(eps, C, Cdual, G, Fs):
        cluster_of[frozenset(C)] = len(clusters)
        clusters.append(_Cluster(eps, C, Cdual, G, Fs, f_matrix(Fs),
                                 {row: i for i, row in enumerate(C)}))
        return len(clusters) - 1

    def mutate(c, q):
        """(cluster', tau) reached from cluster c by mutation q."""
        hit = memo.get((c, q))
        if hit is not None:
            return hit
        src = clusters[c]
        eps = src.eps.mutate(q)
        C = mutate_c_matrix(src.C, src.eps, q)
        target = cluster_of.get(frozenset(C))
        if target is None:
            target = new_cluster(eps, C,
                                 mutate_c_matrix(src.Cdual, -src.eps, q),
                                 mutate_g_matrix(src.G, src.C, src.eps, q),
                                 mutate_F(src.Fs, src.C, src.eps, q))
            tau = ident
        else:
            tau = _landing_perm(clusters[target], C)
            if not _is_relabeling(clusters[target], tau, eps, C):
                raise InternalConsistencyError(
                    f"mutation {q} of cluster {c} lands in cluster {target} "
                    f"by the relabeling {tau}, which does not carry its "
                    "canonical seed to the landed one")
        inverse = [0] * n
        for i, t in enumerate(tau):
            inverse[t] = i
        # mutation is an involution: cluster' by tau[q] returns to c
        memo[(c, q)] = (target, tau)
        memo[(target, tau[q])] = (c, tuple(inverse))
        return target, tau

    def add(c, p, path):
        vid = len(vertices)
        if vid >= cap:
            raise PatternBudgetError(
                f"exchange graph exceeds {cap} vertices; the mutation class "
                "does not look finite (raise the cap via CLUSTER_QUAKE_CAP "
                "if it is)", partial=pattern_so_far())
        cl = clusters[c]
        e = cl.eps.entries
        eps = ExchangeMatrix(tuple(tuple(e[a][b] for b in p) for a in p), d)
        C, Cdual, G, Fs, Fmat = (tuple(m[a] for a in p) for m in (
            cl.C, cl.Cdual, cl.G, cl.Fs, cl.Fmat))
        if not _duality_holds(C, G, d, diag_d):
            raise InternalConsistencyError(
                f"vertex {vid}: C * diag(d) * G^T != diag(d)")
        vertices.append(PatternVertex(
            id=vid, eps=eps, C=C, Cdual=Cdual, G=G, Fs=Fs, Fmat=Fmat,
            path=path))
        labels.append((c, p))
        index[(c, p)] = vid
        queue.append(vid)
        return vid

    ident_m = intmat.identity(n)
    new_cluster(eps0, ident_m, ident_m, ident_m,
                tuple(FPolynomial.constant(n) for _ in range(n)))
    add(0, ident, ())
    while queue:
        vid = queue.popleft()
        c, p = labels[vid]
        path = vertices[vid].path
        if c not in checked:
            # the first vertex popped from a cluster; relabeling keeps
            # |eps_ij * eps_ji| over the pairs, so one test per cluster
            checked.add(c)
            eps = vertices[vid].eps
            bad = _two_finite_violation(eps)
            if bad is not None:
                i, j = bad
                product = abs(eps.entries[i][j] * eps.entries[j][i])
                raise NotFiniteTypeError(
                    f"exchange matrix at vertex {vid} has |eps_{i}{j} * "
                    f"eps_{j}{i}| = {product} > 3; the mutation class is "
                    "not of finite type", partial=pattern_so_far())
        for k in range(n):
            if (vid, k) in mut_edges:
                continue
            target, tau = mutate(c, p[k])
            q = tuple(tau[a] for a in p)
            wid = index.get((target, q))
            if wid is None:
                wid = add(target, q, path + (("mu", k),))
            mut_edges[(vid, k)] = wid
            mut_edges[(wid, k)] = vid
        for images in transpositions:
            if (vid, images) in perm_edges:
                continue
            # row i of the relabeled seed is row images^-1(i) = images(i)
            # (a transposition is its own inverse)
            q = tuple(p[j] for j in images)
            wid = index.get((c, q))
            if wid is None:
                wid = add(c, q, path + (("perm", images),))
            perm_edges[(vid, images)] = wid
            perm_edges[(wid, images)] = vid
    return pattern_so_far()


def pattern_from_type(label, cap=None, include_permutations=True,
                      orientation="linear") -> ExchangePattern:
    """enumerate_pattern(seed_from_type(label)) with the label as tag."""
    return enumerate_pattern(seed_from_type(label, orientation), cap=cap,
                             include_permutations=include_permutations,
                             type_tag=label)
