"""Labeled exchange graphs of finite-type mutation classes.

enumerate_pattern performs a breadth-first closure of an initial seed
under the n matrix mutations and the symmetrizer-preserving
transpositions, deduplicating labeled seeds by the pair
(exchange matrix, C-matrix).  Each vertex carries its C-matrix, its
dual C-matrix C^- and its G-matrix, each from an integer one-step
recursion, plus its F-polynomials.  These are computed once per
cluster, along the BFS edge that first reached it; every labeled vertex
is its cluster's canonical seed with the rows permuted, stored as that
pair and built into a PatternVertex the first time it is read.  The
pattern object then answers the derived questions: tropical signs,
cones and the fan, opposite class, FuGy identity, F*C products.

Conventions (all 0-based):
  * C-matrix rows are c-vectors; C^s_{v0->v} linearizes the tropical
    coordinate change x^(v) = C * x^(v0) on the non-negative orthant of
    the base chart.
  * Cdual = C^{-s}_{v0->v}, the C-matrix of the opposite pattern at the
    same path, steps by mutate_c_matrix with -eps.  By the tropical
    duality of Nakanishi-Zelevinsky it is the inverse of cone_matrix(v),
    so its rows cut out the cone of v.
  * G-matrix rows are g-vectors, g'_k = -g_k + sum_i [-s * eps_ki]+ g_i
    with s the tropical sign of c_k (Fomin-Zelevinsky IV); every cluster
    is checked against the duality C * diag(d) * G^T = diag(d).
  * cone_matrix(v) = C^s_{v->v0}; its columns generate the cone of v in
    base-chart coordinates and are computed independently of the row
    recursions by transporting basis vectors along the reversed path.
  * opposite_cone_matrix(v) = C^{-s}_{v->v0} = diag(d) G^T diag(d)^-1;
    with Cdual it gives the opposite-sign matrices, and opposite(), a
    second enumeration, stays as their oracle.
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
from .seeds import ExchangeMatrix, seed_from_type

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


def _trop_columns(M, eps, k):
    """trop_mutation applied to each column of M (rows are directions)."""
    return tuple(zip(*(_steps.trop_mutation(col, eps, k) for col in zip(*M))))


@dataclass(frozen=True, slots=True)
class PatternVertex:
    id: int
    eps: ExchangeMatrix
    C: intmat.IntMatrix
    Cdual: intmat.IntMatrix  # C^{-s}_{v0->v} = cone_matrix(v)^-1
    G: intmat.IntMatrix
    Fs: tuple
    path: tuple


@dataclass(frozen=True)
class Cone:
    """A maximal cone of the fan, in base-chart coordinates."""

    vertex_id: int
    generators: tuple  # columns of C^s_{v->v0}
    members: tuple  # all vertex ids sharing this cone
    inequalities: tuple  # rows of C^{-s}_{v0->v}: >= 0 exactly on the cone
    parent: tuple | None  # (parent cone's vertex id, direction); None at base


class BasedMatrices(NamedTuple):
    C: intmat.IntMatrix  # C^s_{v->v0}
    Fs: tuple  # F-polynomials from v to v0
    Fmat: intmat.IntMatrix


class ExchangePattern:
    """Immutable labeled exchange graph rooted at vertex 0.

    Vertex vid is the labeled seed labels[vid] = (cluster id, p), first
    reached by the BFS tree edge parents[vid] = (parent id, edge): row i
    of each of its matrices is row p[i] of the canonical seed
    clusters[cluster id].  Its PatternVertex is built from there the first
    time it is read and kept in its slot.  The pattern owns the lists and
    edge maps it is given."""

    def __init__(self, labels, parents, mut_edges, perm_edges, type_tag, cap,
                 clusters, bfs_s=None):
        self._labels = labels
        self._parents = parents
        self._slots = [None] * len(labels)
        self.mut_edges = mut_edges  # (vid, k) -> wid
        self.perm_edges = perm_edges  # (vid, images) -> wid
        self.base = 0
        self.type_tag = type_tag
        self.cap = cap
        self._based_cache = {}
        self._cone_cache = {}
        self._opp_cone_cache = {}
        self._opposite = None
        self._opp_map = {}
        self._fan = None
        self._clusters = clusters
        self._bfs_s = bfs_s
        self._fan_s = None

    # -- basic access ----------------------------------------------------

    @property
    def n(self):
        return self.eps0.n

    @property
    def d(self):
        return self.eps0.d

    @property
    def eps0(self):
        return self.vertex(0).eps

    @property
    def vertices(self):
        """Every vertex, in id order, as a tuple; builds the ones not yet
        built."""
        return tuple(map(self.vertex, range(len(self))))

    def __len__(self):
        return len(self._slots)

    def _build(self, vid):
        """The PatternVertex of an empty slot: its cluster's canonical seed
        with the rows permuted by its label."""
        vid %= len(self._slots)
        c, p = self._labels[vid]
        cl = self._clusters[c]
        e = cl.eps.entries
        C, Cdual, G, Fs = (tuple(map(m.__getitem__, p))
                           for m in (cl.C, cl.Cdual, cl.G, cl.Fs))
        v = self._slots[vid] = PatternVertex(
            id=vid,
            eps=ExchangeMatrix(
                tuple(tuple(map(e[a].__getitem__, p)) for a in p), cl.eps.d),
            C=C, Cdual=Cdual, G=G, Fs=Fs,
            path=tuple(edge for _, edge in self.route(self.base, vid)))
        return v

    def vertex(self, vid) -> PatternVertex:
        return self._slots[vid] or self._build(vid)

    def neighbor(self, vid, edge):
        kind = edge[0]
        if kind == "mu":
            return self.mut_edges[(vid, edge[1])]
        return self.perm_edges[(vid, edge[1])]

    def vertex_sequence(self, vid):
        """Vertex ids on the tree path from the base to vid, both included."""
        return tuple(at for at, _ in self.route(self.base, vid)) + (vid,)

    def route(self, src, dst):
        """Steps [(ambient vid, edge), ...] leading from chart src to dst.

        Read off the BFS tree: a parent's id is smaller than its child's,
        so the larger end steps to its parent until the two ends meet.  An
        edge going up is walked back as it is, since every edge is its own
        inverse (mutations, and relabelings by transpositions).
        """
        parents = self._parents
        n = len(parents)
        if not (0 <= src < n and 0 <= dst < n):
            raise PreconditionError(
                f"charts {src} and {dst} must be vertex ids in range({n})")
        up, down = [], []
        while src != dst:
            if src > dst:
                parent, edge = parents[src]
                up.append((src, edge))
                src = parent
            else:
                parent, edge = parents[dst]
                down.append((parent, edge))
                dst = parent
        down.reverse()
        return up + down

    def walk(self, state, src, dst, mutation):
        """Carry `state`, a sequence indexed by direction, from chart src
        to chart dst along route(src, dst).

        A mutation edge k becomes mutation(state, eps, k), with eps the
        entries of the exchange matrix of the chart the step starts from;
        a relabel edge permutes the entries of state by its images."""
        if len(state) != self.n:
            raise PreconditionError(f"point has {len(state)} coordinates, "
                                    f"pattern has rank {self.n}")
        slots = self._slots
        for at, edge in self.route(src, dst):
            if edge[0] == "mu":
                state = mutation(state,
                                 (slots[at] or self._build(at)).eps.entries,
                                 edge[1])
            else:
                state = _steps.apply_perm(state, edge[1])
        return state

    # -- per-vertex derived data ------------------------------------------

    def tropical_sign(self, vid, k):
        """Sign (+1/-1) of the k-th c-vector at the given vertex."""
        return _row_sign(self.vertex(vid).C[k])

    def cone_matrix(self, vid):
        """C^s_{v->v0}: transport of the chart-v basis vectors to the base
        chart (columns are the cone generators)."""
        if vid not in self._cone_cache:
            self._cone_cache[vid] = self.walk(
                intmat.identity(self.n), vid, self.base, _trop_columns)
        return self._cone_cache[vid]

    def cone_matrix_inv(self, vid):
        """C^{-s}_{v0->v}, the inverse of cone_matrix(v): its rows give the
        coordinates of a base-chart point in the cone generators."""
        return self.vertex(vid).Cdual

    def based_matrices(self, vid) -> BasedMatrices:
        """C-, F-, and F-degree matrices of the pattern re-based at vid
        with target the original base (C^s_{v->v0}, F^{v->v0})."""
        if vid not in self._based_cache:
            d = self.d

            def step(rows, eps, k):
                C, Fs = zip(*rows)
                eps = ExchangeMatrix(eps, d)
                return tuple(zip(mutate_c_matrix(C, eps, k),
                                 mutate_F(Fs, C, eps, k)))

            start = tuple((row, FPolynomial.constant(self.n))
                          for row in intmat.identity(self.n))
            C, Fs = zip(*self.walk(start, vid, self.base, step))
            self._based_cache[vid] = BasedMatrices(C, Fs, f_matrix(Fs))
        return self._based_cache[vid]

    def opposite_cone_matrix(self, vid):
        """C^{-s}_{v->v0}, the cone matrix of the opposite pattern at the
        same path, read off the G-matrix by tropical duality: entry (i, j)
        is d_i * G_ji / d_j (Nakanishi-Zelevinsky)."""
        if vid not in self._opp_cone_cache:
            d, G = self.d, self.vertex(vid).G
            scaled = [[(di * G[j][i], dj) for j, dj in enumerate(d)]
                      for i, di in enumerate(d)]
            if any(a % b for row in scaled for a, b in row):
                raise InternalConsistencyError(
                    f"vertex {vid}: diag(d) * G^T * diag(d)^-1 is not "
                    "integral")
            self._opp_cone_cache[vid] = tuple(
                tuple(a // b for a, b in row) for row in scaled)
        return self._opp_cone_cache[vid]

    # -- opposite class ----------------------------------------------------

    def opposite(self) -> "ExchangePattern":
        """Pattern of the opposite mutation class (all matrices negated),
        kept as the oracle of Cdual and opposite_cone_matrix."""
        if self._opposite is None:
            self._opposite = enumerate_pattern(
                -self.eps0, cap=self.cap,
                type_tag=self.type_tag + "-opposite" if self.type_tag else "opposite")
        return self._opposite

    def opposite_vertex(self, vid):
        """Vertex of opposite() reached by replaying the path of vid."""
        if vid not in self._opp_map:
            opp = self.opposite()
            w = opp.base
            for _, edge in self.route(self.base, vid):
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
        rhs = self.opposite_cone_matrix(vid)
        residual = tuple(tuple(a - b for a, b in zip(ra, rb))
                         for ra, rb in zip(lhs, rhs))
        ok = all(x == 0 for row in residual for x in row)
        return ok, residual

    def fc_product(self, vid, sign=1):
        """F^s_{v->v0} * C^{(+/-)s}_{v0->v} and whether it is entrywise <= 0."""
        v = self.vertex(vid)
        product = intmat.matmul(self.based_matrices(vid).Fmat,
                                v.C if sign >= 0 else v.Cdual)
        ok = all(x <= 0 for row in product for x in row)
        return product, ok

    # -- fan -----------------------------------------------------------------

    def fan(self):
        """Maximal cones, deduplicated across relabeled vertices, in
        vertex-id order of their representatives.

        The vertices of one cluster share its cone, and distinct clusters
        of a finite type have distinct cones; the generators are
        transported once per cone, for its lowest vertex id.  The cones
        form a tree: a representative's BFS parent is an earlier
        representative, reached by a mutation edge, since a relabeled
        seed mutates into the same clusters as its cluster's smallest
        member and the BFS pops that member first.  So one pass in fan
        order can carry a point from each cone's parent to the cone by
        one mutation."""
        if self._fan is None:
            start = time.process_time()
            groups = {}
            for vid, (c, _) in enumerate(self._labels):
                groups.setdefault(c, []).append(vid)
            cones = []
            reps = set()
            for members in groups.values():
                rep = members[0]
                parent = self._parents[rep]
                if parent is not None:
                    pid, edge = parent
                    if edge[0] != "mu" or pid not in reps:
                        raise InternalConsistencyError(
                            f"cone {rep} is reached by {edge} from vertex "
                            f"{pid}, not by a mutation from an earlier cone")
                    parent = (pid, edge[1])
                reps.add(rep)
                cones.append(Cone(rep, intmat.transpose(self.cone_matrix(rep)),
                                  tuple(members), self.cone_matrix_inv(rep),
                                  parent))
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

        Builds the fan if it has not been built.  `vertex_cache` counts
        the vertices built so far."""
        fan = self.fan()
        return {
            "vertices": len(self),
            "clusters": len(self._clusters),
            "mutation_edges": len(self.mut_edges) // 2,
            "relabel_edges": len(self.perm_edges) // 2,
            "cones": len(fan),
            "bfs_s": self._bfs_s,
            "fan_s": self._fan_s,
            "based_cache": len(self._based_cache),
            "cone_cache": len(self._cone_cache),
            "vertex_cache": len(self._slots) - self._slots.count(None),
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
                "F": [f.to_records() for f in v.Fs],
            })
        # both edge maps hold every edge from both ends, and no edge is a
        # loop: list each from its smaller end
        edges = [{"src": vid, "dst": wid, "kind": "mutation", "k": k}
                 for (vid, k), wid in sorted(self.mut_edges.items())
                 if vid < wid]
        edges += [{"src": vid, "dst": wid, "kind": "relabel",
                   "sigma": list(images)}
                  for (vid, images), wid in sorted(self.perm_edges.items())
                  if vid < wid]
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


def _two_finite_violation(e):
    """A pair (i, j) with |e_ij * e_ji| > 3 in the exchange matrix entries
    e, or None.  No matrix in a mutation class of finite type has one
    (Fomin-Zelevinsky, Cluster algebras II)."""
    for i in range(len(e)):
        for j in range(i + 1, len(e)):
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
                      type_tag="custom") -> ExchangePattern:
    """Breadth-first closure of the initial seed under mutations and
    admissible transpositions, deduplicated by (eps, C).

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
    labels = []  # vid -> (cluster id, p)
    parents = []  # vid -> (BFS parent id, edge); None at the base
    index = {}  # (cluster id, p) -> vid
    mut_edges = {}
    perm_edges = {}
    # one tuple per edge label, shared by every tree edge that takes it
    mu_steps = [(k, ("mu", k)) for k in range(n)]
    perm_steps = [(s.images, ("perm", s.images))
                  for s in eps0.admissible_transpositions()]
    queue = deque()

    def pattern_so_far():
        return ExchangePattern(labels, parents, mut_edges, perm_edges,
                               type_tag, cap, clusters,
                               bfs_s=time.process_time() - start)

    def new_cluster(eps, C, Cdual, G, Fs):
        # a labeled vertex is the cluster's seed with its rows permuted by
        # a d-preserving p, so the identity then holds there as well
        if not _duality_holds(C, G, d, diag_d):
            raise InternalConsistencyError(
                f"cluster {len(clusters)}: C * diag(d) * G^T != diag(d)")
        cluster_of[frozenset(C)] = len(clusters)
        clusters.append(_Cluster(eps, C, Cdual, G, Fs,
                                 {row: i for i, row in enumerate(C)}))
        return len(clusters) - 1

    def mutate(c, q):
        """(cluster', tau) reached from cluster c by mutation q, memoised."""
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

    def add(label, parent):
        vid = len(labels)
        if vid >= cap:
            raise PatternBudgetError(
                f"exchange graph exceeds {cap} vertices; the mutation class "
                "does not look finite (raise the cap via CLUSTER_QUAKE_CAP "
                "if it is)", partial=pattern_so_far())
        labels.append(label)
        parents.append(parent)
        index[label] = vid
        queue.append(vid)
        return vid

    ident_m = intmat.identity(n)
    new_cluster(eps0, ident_m, ident_m, ident_m,
                tuple(FPolynomial.constant(n) for _ in range(n)))
    add((0, ident), None)
    while queue:
        vid = queue.popleft()
        c, p = labels[vid]
        if c not in checked:
            # the first vertex popped from a cluster; relabeling keeps
            # |eps_ij * eps_ji| over the pairs, so one test per cluster
            checked.add(c)
            e = clusters[c].eps.entries
            e = tuple(tuple(e[a][b] for b in p) for a in p)
            bad = _two_finite_violation(e)
            if bad is not None:
                i, j = bad
                raise NotFiniteTypeError(
                    f"exchange matrix at vertex {vid} has |eps_{i}{j} * "
                    f"eps_{j}{i}| = {abs(e[i][j] * e[j][i])} > 3; the "
                    "mutation class is not of finite type",
                    partial=pattern_so_far())
        for k, step in mu_steps:
            if (vid, k) in mut_edges:
                continue
            target, tau = memo.get((c, p[k])) or mutate(c, p[k])
            label = (target, tuple(map(tau.__getitem__, p)))
            wid = index.get(label)
            if wid is None:
                wid = add(label, (vid, step))
            mut_edges[(vid, k)] = wid
            mut_edges[(wid, k)] = vid
        for images, step in perm_steps:
            if (vid, images) in perm_edges:
                continue
            # row i of the relabeled seed is row images^-1(i) = images(i)
            # (a transposition is its own inverse)
            label = (c, tuple(map(p.__getitem__, images)))
            wid = index.get(label)
            if wid is None:
                wid = add(label, (vid, step))
            perm_edges[(vid, images)] = wid
            perm_edges[(wid, images)] = vid
    return pattern_so_far()


def pattern_from_type(label, cap=None) -> ExchangePattern:
    """enumerate_pattern(seed_from_type(label)) with the label as tag."""
    return enumerate_pattern(seed_from_type(label), cap=cap, type_tag=label)
