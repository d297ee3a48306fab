"""Labeled exchange graphs of finite-type mutation classes.

enumerate_pattern performs a breadth-first closure of an initial seed
under the n matrix mutations and the symmetrizer-preserving
transpositions, deduplicating labeled seeds by the pair (exchange
matrix, C-matrix).  The exact work is done once per cluster, and each
cluster is one Cone record, made by the first mutation that reaches it.
A cluster's n mutations are made once, when the BFS pops its first
vertex; the labeled layer is only a numbering over the records: every
labeled vertex is its cluster's canonical seed with the rows permuted,
stored as the pair (cluster id, permutation), numbered through the
record's map from permutations to vertex ids, and built into a
PatternVertex the first time it is read.  Each distinct permutation is
one tuple, shared by every vertex and map key that carries it, and a
labeled step composes permutations by one operator.itemgetter call.
Each record carries its cluster's C-matrix, its dual C-matrix C^- (the
cone's inequalities), its G-matrix and its cone generators, each
stepped from its parent cone by an integer one-step recursion.  Its F-polynomials are not built with it:
the first read of a cluster's F mutates them down from the nearest
ancestor that has them, and keeps them, so the build, the fan and point
location build none.  The based matrices and the opposite cone matrix
are kept on the record as well, built for the cluster's first vertex
on first read; the readers of one vertex's cone, signs, based matrices
and identities take the record's rows or columns by the vertex's label
and build no PatternVertex.  Neither does a walk from chart to chart
(ExchangePattern.walk): it carries a state along the records' tree,
from each cone to its parent, in the clusters' canonical labelings, and
the labels only renumber its ends.  No labeled edge is stored either:
the records form the cluster-level exchange graph, each holding its
parent's position in the record list and its landings, the cluster and
relabeling that each mutation reaches.  They fix every labeled edge,
and the pattern reads an edge's far end off them
(ExchangePattern.neighbor).
A record's position in the list is its cluster id and its position in
fan(), which returns the records.  The pattern object then answers the
derived questions: tropical signs, cones and the fan, the based
matrices, FuGy identity, F*C products.

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
    base-chart coordinates.  They step by mutate_generators, column
    K'_k = -K_k + sum_i [-s * eps_ik]+ K_i with s the sign of row k of
    Cdual, the tropical mutation of generator k.
  * opposite_cone_matrix(v) = C^{-s}_{v->v0} = diag(d) G^T diag(d)^-1;
    with Cdual it gives the opposite-sign matrices, and opposite(), a
    second enumeration, stays as their oracle.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from functools import cached_property, lru_cache
from math import factorial, prod
from operator import index, itemgetter, mul
from dataclasses import dataclass, field
from typing import NamedTuple

from . import intmat
from .errors import (
    InternalConsistencyError,
    NotFiniteTypeError,
    PatternBudgetError,
    PreconditionError,
)
from .fpoly import FPolynomial, f_matrix, mutate_F
from .seeds import ExchangeMatrix, seed_from_type

DEFAULT_CAP = 50_000


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


def _mutate_one(M, sign, coefs, k):
    """M with entry k replaced by -M_k + sum_i [-sign * coefs_i]+ M_i, the
    others unchanged (coefs_k is 0)."""
    mk = [-x for x in M[k]]
    for i, e in enumerate(coefs):
        coef = max(0, -sign * e)
        if coef:
            mk = [x + coef * y for x, y in zip(mk, M[i])]
    return M[:k] + (tuple(mk),) + M[k + 1:]


def mutate_g_matrix(G, C, eps: ExchangeMatrix, k: int):
    """Row recursion for the G-matrix (rows are g-vectors) along mutation
    k, with the tropical sign s of the k-th c-vector in C:
    g'_k = -g_k + sum_i [-s * eps_ki]+ * g_i, the other rows unchanged."""
    return _mutate_one(G, _row_sign(C[k]), eps.entries[k], k)


def mutate_generators(gens, Cdual, eps: ExchangeMatrix, k: int):
    """Recursion for the cone generators (the columns of C^s_{v->v0})
    along mutation k, with s the sign of row k of Cdual:
    K'_k = -K_k + sum_i [-s * eps_ik]+ * K_i, the other columns unchanged.
    The new generator is the tropical mutation of the chart-v' basis
    vector e_k, carried to the base chart."""
    return _mutate_one(gens, _row_sign(Cdual[k]),
                       [row[k] for row in eps.entries], k)


@dataclass(frozen=True, slots=True)
class PatternVertex:
    id: int
    eps: ExchangeMatrix
    C: intmat.IntMatrix
    Cdual: intmat.IntMatrix  # C^{-s}_{v0->v} = cone_matrix(v)^-1
    G: intmat.IntMatrix
    Fs: tuple
    # the pattern's cones and labels, not the pattern, which holds the
    # vertex: with no reference cycle a dropped pattern is freed at once
    f_source: tuple | None = field(default=None, compare=False, repr=False)

    def __getattr__(self, name):
        # reached only for an unset slot: ExchangePattern builds its
        # vertices with Fs unset, and the first read fills it from the
        # cone, so that every later read is a plain slot read
        if name != "Fs":
            raise AttributeError(name)
        cones, labels = self.f_source
        c, p = labels[self.id]
        Fs = tuple(map(_f_polynomials(cones, c).__getitem__, p))
        object.__setattr__(self, "Fs", Fs)
        return Fs


@dataclass(eq=False, slots=True)
class Cone:
    """One cluster and its maximal cone of the fan, in base-chart
    coordinates: the record enumerate_pattern makes when it first reaches
    the cluster, by one mutation from its parent cone.  The records are
    kept in the order they are made, and a record's place in that list
    is its cluster id and its position in fan().

    It holds the cluster's canonical seed, in the labeling of that first
    vertex, and ids, {label p: vertex id} for the cluster's labeled seeds
    in id order; the first vertex carries the identity label.  The
    records form the cluster-level exchange graph: parent is (parent
    cone's position, direction), a smaller position, and landings[q] is
    (position, tau) for the cluster that mutation q reaches, row i of the
    landed seed being row tau[i] of that cluster's canonical seed, or None
    while that mutation has not been made: all n are made when the BFS
    pops the cluster's first vertex, so only a cluster not yet popped
    (in a partial pattern) lacks some.

    The rest is built on first read and kept, for the first vertex: Fs by
    _f_polynomials, based by ExchangePattern.based_matrices and opp_cone
    by ExchangePattern.opposite_cone_matrix.  A member labeled p reads
    them with its direction i taken from direction p[i]."""

    eps: ExchangeMatrix
    C: intmat.IntMatrix
    G: intmat.IntMatrix
    generators: tuple  # columns of C^s_{v->v0}
    inequalities: tuple  # rows of C^{-s}_{v0->v}: >= 0 exactly on the cone
    parent: tuple | None  # (parent cone's position, direction); None at base
    landings: list  # direction -> (position, tau), or None
    Fs: tuple | None = None
    ids: dict = field(default_factory=dict)
    based: BasedMatrices | None = None  # the first vertex's based_matrices
    opp_cone: tuple | None = None  # the first vertex's C^{-s}_{v->v0}

    @property
    def vertex_id(self):
        """The cluster's first vertex, the one labeled by the identity."""
        return next(iter(self.ids.values()))

    @property
    def members(self):
        """All vertex ids sharing this cone, ascending."""
        return tuple(self.ids.values())


def _is_id(vid, n):
    """Whether vid is a vertex id of a pattern of n vertices: an integer
    (an int, or what operator.index takes) in range(n)."""
    try:
        return 0 <= index(vid) < n
    except TypeError:  # no integer, or an array of more than one
        return False


def _columns(M, p):
    """M with column i taken from column p[i]."""
    return tuple(tuple(map(row.__getitem__, p)) for row in M)


def _composer(p):
    """The map t -> t o p = (t[p[0]], ..., t[p[n-1]]) on n-tuples: one
    itemgetter, made once and applied to many t.  At rank 1 itemgetter
    would return the entry itself, and the one label is (0,), so tuple
    stands in."""
    return itemgetter(*p) if len(p) > 1 else tuple


@lru_cache(maxsize=None)
def _relabelers(p):
    """The pair of maps between the coordinates of a vertex labeled p and
    those of its cluster's canonical seed, made once per distinct label:
    the first puts coordinate i at place p[i] (t -> t o p^-1), the
    second, _composer(p), takes them back."""
    return _composer(tuple(map(p.index, range(len(p))))), _composer(p)


def _f_polynomials(cones, c):
    """The F-polynomials of cones[c], built on first read: one mutate_F
    for each cone between it and its nearest ancestor that has them, each
    kept."""
    path = [cones[c]]
    while path[-1].Fs is None:
        path.append(cones[path[-1].parent[0]])
    for parent, cone in zip(path[::-1], path[-2::-1]):
        cone.Fs = mutate_F(parent.Fs, parent.C, parent.eps, cone.parent[1])
    return path[0].Fs


class OrthantIndex(NamedTuple):
    buckets: dict  # sign key -> the cones of that closed orthant
    reach: int  # largest l1 norm of a row of a cone's generator matrix
    spread: int  # largest l1 norm of a row of a cone's inequalities


class BasedMatrices(NamedTuple):
    C: intmat.IntMatrix  # C^s_{v->v0}
    Fs: tuple  # F-polynomials from v to v0
    Fmat: intmat.IntMatrix


class ExchangePattern:
    """Immutable labeled exchange graph rooted at vertex 0.

    Vertex vid is the labeled seed labels[vid] = (cluster id, p): row i
    of each of its matrices is row p[i] of the canonical seed held by
    the Cone record cones[cluster id], and its cone generator i is the
    cone's generator p[i]; that record maps p back to vid.  The
    PatternVertex is built from there the first time it is read and kept
    in its slot.  No edge is stored: neighbor() reads an edge's far end
    off the records' landings.  Nor is the labeled BFS tree: route()
    replays it from the landings on first read (_parents).  The pattern
    owns the lists it is given."""

    def __init__(self, labels, type_tag, cap, cones, bfs_s=None):
        self._labels = labels
        self._cones = cones
        self._slots = [None] * len(labels)
        self.eps0 = cones[0].eps
        # every edge label: ("mu", k), then ("perm", images) by images
        self._edge_labels = [("mu", k) for k in range(self.eps0.n)] + sorted(
            ("perm", s.images) for s in self.eps0.admissible_transpositions())
        self.base = 0
        self.type_tag = type_tag
        self.cap = cap
        self._opposite = None
        self._fan = None
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
    def vertices(self):
        """Every vertex, in id order, as a tuple; builds the ones not yet
        built."""
        return tuple(map(self.vertex, range(len(self))))

    def __len__(self):
        return len(self._slots)

    def _record(self, vid):
        """(cone, p): the Cone record of vertex vid's cluster and the
        vertex's label p; PreconditionError when vid is not an integer in
        range(len(self))."""
        if _is_id(vid, len(self._labels)):
            c, p = self._labels[vid]
            return self._cones[c], p
        raise PreconditionError(
            f"vertex id {vid!r} not in range({len(self)})")

    def _build(self, vid):
        """The PatternVertex of an empty slot: its cone's canonical seed
        with the rows permuted by its label.  Fs is left unset, to be read
        from the cone on first access (see PatternVertex)."""
        cone, p = self._record(vid)
        eps, C, Cdual, G = (tuple(map(m.__getitem__, p)) for m in (
            cone.eps.entries, cone.C, cone.inequalities, cone.G))
        v = self._slots[vid] = PatternVertex(
            id=index(vid), eps=ExchangeMatrix(_columns(eps, p), cone.eps.d),
            C=C, Cdual=Cdual, G=G, Fs=None,
            f_source=(self._cones, self._labels))
        object.__delattr__(v, "Fs")
        return v

    def vertex(self, vid) -> PatternVertex:
        # a slot read would wrap a negative vid: _build raises for it
        return _is_id(vid, len(self)) and self._slots[vid] or self._build(vid)

    def neighbor(self, vid, edge):
        """The vertex at the other end of edge, ("mu", k) or ("perm",
        images), from vertex vid, read off the cone records.  Raises
        PreconditionError when vid is not an integer in range(len(self)),
        edge is not an edge label, or the edge leaves a partial pattern."""
        if _is_id(vid, len(self)) and edge in self._edge_labels:
            wid = self._far_end(vid, edge)
            if wid is not None:
                return wid
        raise PreconditionError(f"no edge {edge} leaves vertex {vid!r} in "
                                f"this pattern of {len(self)} vertices")

    def _far_end(self, vid, edge):
        """neighbor(vid, edge) for a vertex id and an edge label, or None
        where the edge leaves a partial pattern.  Vertex (c, p) relabels by
        images to (c, p o images), and mutates in direction k as cluster c
        does in direction p[k]: to (c', tau o p), with (c', tau) the
        landing cones[c].landings[p[k]], as enumerate_pattern steps."""
        c, p = self._labels[vid]
        if edge[0] == "perm":
            return self._cones[c].ids.get(_composer(edge[1])(p))
        # a mutation not yet made leads to no label
        c, tau = self._cones[c].landings[p[edge[1]]] or (c, None)
        return tau and self._cones[c].ids.get(_composer(p)(tau))

    def _edges(self, kind):
        """(vid, arg, neighbor(vid, (kind, arg))) for every edge of that kind
        in the pattern, at both its ends, in (vid, arg) order."""
        edges = [edge for edge in self._edge_labels if edge[0] == kind]
        for vid in range(len(self)):
            for edge in edges:
                if (wid := self._far_end(vid, edge)) is not None:
                    yield vid, edge[1], wid

    @cached_property
    def mut_edges(self):
        """{(vid, k): neighbor(vid, ("mu", k))} for every mutation edge in
        the pattern, built on first read and kept.  The library reads
        neighbor(); the map is there for callers that want it whole."""
        return {(vid, k): wid for vid, k, wid in self._edges("mu")}

    def vertex_sequence(self, vid):
        """Vertex ids on the tree path from the base to vid, both included."""
        return tuple(at for at, _ in self.route(self.base, vid)) + (vid,)

    @cached_property
    def _parents(self):
        """[(BFS parent id, edge), ...] by vertex id, None at the base: the
        tree enumerate_pattern's search found, replayed on first read and
        kept.  The search pops the vertices in id order and adds each new
        far end of the popped vertex's edges, so a vertex's parent is the
        first vertex in id order with an edge to it.  The edges of one
        vertex reach distinct vertices, so their order does not matter."""
        parents = [None] * len(self)
        for vid in range(len(self)):
            for edge in self._edge_labels:
                wid = self._far_end(vid, edge)
                if wid and parents[wid] is None:
                    parents[wid] = vid, edge
        return parents

    def route(self, src, dst):
        """Steps [(ambient vid, edge), ...] leading from chart src to dst.

        Read off the BFS tree, which no build stores: the first route
        replays it (_parents).  A parent's id is smaller than its child's,
        so the larger end steps to its parent until the two ends meet.  An
        edge going up is walked back as it is, since every edge is its own
        inverse (mutations, and relabelings by transpositions).
        """
        self._check_charts(src, dst)
        parents = self._parents
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
        to chart dst along the fan tree.

        Vertex (c, p) sees cluster c's coordinates renumbered by its
        label: its coordinate i is the cluster's coordinate p[i].  So the
        state is put into cluster c's canonical labeling, carried from
        cone to cone, the larger position stepping to its record's parent
        until the two meet (as route() does with ids), and read out by
        dst's label.  Each step is mutation(state, eps, k), with eps the
        entries of the canonical exchange matrix of the cone the step
        starts from and k the direction that joins the cone to its
        parent.  No vertex is built and no relabel edge is crossed."""
        self.check_rank(state)
        self._check_charts(src, dst)
        (c, p), (e, q) = self._labels[src], self._labels[dst]
        state = _relabelers(p)[0](state)
        cones = self._cones
        down = []
        while c != e:
            if c > e:
                cone = cones[c]
                c, k = cone.parent
                state = mutation(state, cone.eps.entries, k)
            else:
                e, k = cones[e].parent
                down.append((cones[e].eps.entries, k))
        for eps, k in reversed(down):
            state = mutation(state, eps, k)
        return _relabelers(q)[1](state)

    def _check_charts(self, src, dst):
        """PreconditionError unless src and dst are both vertex ids."""
        n = len(self._labels)
        if not (_is_id(src, n) and _is_id(dst, n)):
            raise PreconditionError(
                f"charts {src!r} and {dst!r} must be vertex ids in "
                f"range({n})")

    def check_rank(self, coords):
        """PreconditionError unless coords has one entry per direction."""
        if len(coords) != self.n:
            raise PreconditionError(f"point has {len(coords)} coordinates, "
                                    f"pattern has rank {self.n}")

    # -- per-vertex derived data ------------------------------------------

    def _direction(self, vid, k):
        """(cone, p[k]): vertex vid's Cone record and the direction of its
        cluster that is the vertex's direction k; PreconditionError when
        vid is not a vertex id or k is not an integer in range(n)."""
        cone, p = self._record(vid)
        if _is_id(k, self.n):
            return cone, p[k]
        raise PreconditionError(f"direction {k!r} not in range({self.n})")

    def tropical_sign(self, vid, k):
        """Sign (+1/-1) of the k-th c-vector at the given vertex."""
        cone, j = self._direction(vid, k)
        return _row_sign(cone.C[j])

    def cone_matrix(self, vid):
        """C^s_{v->v0}: transport of the chart-v basis vectors to the base
        chart (columns are the cone generators), read off the generators
        its cone carries."""
        cone, p = self._record(vid)
        return tuple(zip(*map(cone.generators.__getitem__, p)))

    def cone_matrix_inv(self, vid):
        """C^{-s}_{v0->v}, the inverse of cone_matrix(v): its rows give the
        coordinates of a base-chart point in the cone generators."""
        cone, p = self._record(vid)
        return tuple(map(cone.inequalities.__getitem__, p))

    def based_matrices(self, vid) -> BasedMatrices:
        """C-, F-, and F-degree matrices of the pattern re-based at vid
        with target the original base (C^s_{v->v0}, F^{v->v0}).

        Only the first vertex r of a cluster walks to the base, once,
        along the fan tree, and its matrices are kept on the cluster's
        record.  r carries the identity label, so direction i of another
        member v, labeled p, is direction p[i] of r, and v's matrices are
        r's with every C column, F exponent and Fmat column i taken from
        p[i], built on each read and not kept."""
        cone, p = self._record(vid)
        if cone.based is None:
            d = self.d

            def step(rows, eps, k):
                C, Fs = zip(*rows)
                eps = ExchangeMatrix(eps, d)
                return tuple(zip(mutate_c_matrix(C, eps, k),
                                 mutate_F(Fs, C, eps, k)))

            start = tuple((row, FPolynomial.constant(self.n))
                          for row in intmat.identity(self.n))
            C, Fs = zip(*self.walk(start, cone.vertex_id, self.base, step))
            cone.based = BasedMatrices(C, Fs, f_matrix(Fs))
        if p == tuple(range(self.n)):  # the first vertex: the record's own
            return cone.based
        C, Fs, Fmat = cone.based
        Fs = tuple(FPolynomial._of(f.nvars, dict(zip(_columns(f.terms, p),
                                                     f.terms.values())))
                   for f in Fs)
        return BasedMatrices(_columns(C, p), Fs, _columns(Fmat, p))

    def opposite_cone_matrix(self, vid):
        """C^{-s}_{v->v0}, the cone matrix of the opposite pattern at the
        same path, read off the G-matrix by tropical duality: entry (i, j)
        is d_i * G_ji / d_j (Nakanishi-Zelevinsky).  It is built once per
        cluster, from the canonical G, and a member's is its columns taken
        by the label: row i of the member's G is row p[i], and p keeps d."""
        cone, p = self._record(vid)
        if cone.opp_cone is None:
            d, G = self.d, cone.G
            qr = [[divmod(di * G[j][i], dj) for j, dj in enumerate(d)]
                  for i, di in enumerate(d)]
            if any(r for row in qr for _, r in row):
                raise InternalConsistencyError(
                    f"cone {cone.vertex_id}: diag(d) * G^T * diag(d)^-1 is "
                    "not integral")
            cone.opp_cone = tuple(tuple(q for q, _ in row) for row in qr)
        return _columns(cone.opp_cone, p)

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
        opp = self.opposite()
        w = opp.base
        for _, edge in self.route(self.base, vid):
            w = opp.neighbor(w, edge)
        return w

    # -- identities ---------------------------------------------------------

    def fuGy_check(self, vid):
        """Residual of C^s_{v->v0} + eps^(v0) * F^s_{v->v0} - C^{-s}_{v->v0}
        (exchange matrix taken at the common endpoint v0 of the paths);
        returns (all_zero, residual_matrix).  C and Fmat are the columns
        of the cluster's, taken by v's label; no F-polynomial is
        permuted."""
        cone, p = self._record(vid)
        based = self.based_matrices(cone.vertex_id)
        eF = intmat.matmul(self.eps0.entries, _columns(based.Fmat, p))
        residual = tuple(tuple(c + e - o for c, e, o in zip(*rows))
                         for rows in zip(_columns(based.C, p), eF,
                                         self.opposite_cone_matrix(vid)))
        ok = all(x == 0 for row in residual for x in row)
        return ok, residual

    def fc_product(self, vid, sign=1):
        """F^s_{v->v0} * C^{(+/-)s}_{v0->v} and whether it is entrywise <= 0.

        v's label p takes both the columns of F^s and the rows of C^{+/-s}
        from p, so the product is its cluster's, read off the record."""
        cone, _ = self._record(vid)
        product = intmat.matmul(self.based_matrices(cone.vertex_id).Fmat,
                                cone.C if sign >= 0 else cone.inequalities)
        ok = all(x <= 0 for row in product for x in row)
        return product, ok

    # -- fan -----------------------------------------------------------------

    def fan(self):
        """Maximal cones, one Cone record per cluster, in cluster-id order,
        which is the vertex-id order of their first vertices; the clusters
        made at the last popped vertex before the cap stopped the build
        may have no vertex and then no cone, and they are the last
        records.  So a cone's position in the fan is its cluster id, which
        the labels of the first vertices confirm: a record with no vertex
        before one with a vertex would shift the positions after it.

        The vertices of one cluster share its cone, and distinct clusters
        of a finite type have distinct cones; a cone's generators and
        inequalities are its cluster's, in the labeling of its first
        vertex, the identity, and no vertex is built.  The cones form a
        tree: a cluster is made by a mutation of its parent cluster's
        first vertex, which the BFS pops before any other member, and its
        own first vertex is reached by that edge; each record is checked
        to be so, its parent at an earlier position whose landing in the
        record's direction is the record's identity label.  So one pass
        in fan order can carry a point from each cone's parent, at
        fan()[cone.parent[0]], to the cone by one mutation."""
        if self._fan is None:
            start = time.process_time()
            fan = tuple(cone for cone in self._cones if cone.ids)
            ident = tuple(range(self.n))
            for c, cone in enumerate(fan):
                rep = cone.vertex_id
                if self._labels[rep] != (c, ident):
                    raise InternalConsistencyError(
                        f"cone {rep} is labeled {self._labels[rep]}, not as "
                        f"the canonical seed of cluster {c}")
                # mutation k of fan[up], an earlier cone, lands on the
                # cone's first vertex
                up, k = cone.parent or (c, None)
                if c and not (up < c and fan[up].landings[k] == (c, ident)):
                    raise InternalConsistencyError(
                        f"cone {rep} has parent {cone.parent}, which is not "
                        "a mutation from an earlier cone landing on it")
            self._fan = fan
            self._fan_s = time.process_time() - start
        return self._fan

    @cached_property
    def orthants(self):
        """The fan indexed by orthant, built on first read and kept: an
        OrthantIndex whose buckets map a sign key (True for a positive
        coordinate) to the cones of that closed orthant, in fan order.

        By sign-coherence of c-vectors, row i of a cone's generator
        matrix C^s_{v->v0} has one sign s_i, so the cone lies in the
        orthant s_i * x_i >= 0.  Each cone is checked here, exactly: its
        generator rows are sign-coherent and its inequalities times its
        generators are the identity.  reach is the largest l1 norm of a
        generator-matrix row, spread the largest of a C^- row."""
        ident = intmat.identity(self.n)
        buckets = {}
        reach = spread = 0
        for cone in self.fan():
            # the rows of C^s_{v->v0} are c-vectors: _row_sign raises
            # for one that is not sign-coherent
            rows = tuple(zip(*cone.generators))
            key = tuple(_row_sign(row) > 0 for row in rows)
            if tuple(tuple(sum(map(mul, r, g)) for g in cone.generators)
                     for r in cone.inequalities) != ident:
                raise InternalConsistencyError(
                    f"cone {cone.vertex_id}: its inequalities are not the "
                    "inverse of its generators")
            buckets.setdefault(key, []).append(cone)
            reach = max(reach, *(sum(map(abs, row)) for row in rows))
            spread = max(spread, *(sum(map(abs, row))
                                   for row in cone.inequalities))
        return OrthantIndex({key: tuple(cones)
                             for key, cones in buckets.items()},
                            reach, spread)

    def ray(self, vid, k):
        """Base-chart coordinates of the k-th cone generator of vertex vid."""
        cone, j = self._direction(vid, k)
        return cone.generators[j]

    # -- observability --------------------------------------------------------

    @property
    def stats(self):
        """Counts, CPU seconds per phase and cache sizes, as a dict.

        Builds the fan and its orthant index if they have not been built.
        `vertex_cache` counts the vertices built so far, `f_clusters` the
        clusters whose F-polynomials are built (the base's from the
        start), and `based_cache` the clusters whose based matrices are
        built: no cache is kept per vertex but the built vertices.
        `orthants` counts the orthants that hold a cone, and `orthant_max`
        the cones of the fullest one.

        No edge map is built and no vertex.  On a complete pattern, where
        every record has all n landings and every cluster all of its
        prod m_i! labels (one per permutation that keeps d), each vertex
        has n mutation edges and one relabel edge per admissible
        transposition, none a loop: so V*n/2 and V*t/2 edges.  A partial
        pattern's edges are counted by walking the landings."""
        fan = self.fan()
        buckets = self.orthants.buckets
        V = len(self)
        t = len(self._edge_labels) - self.n
        per_cluster = prod(map(factorial, Counter(self.d).values()))
        if (V == len(self._cones) * per_cluster
                and all(None not in cone.landings for cone in self._cones)):
            mu, perm = V * self.n // 2, V * t // 2
        else:
            mu, perm = (sum(v < w for v, _, w in self._edges(kind))
                        for kind in ("mu", "perm"))
        return {
            "vertices": V,
            "clusters": len(self._cones),
            "mutation_edges": mu,
            "relabel_edges": perm,
            "cones": len(fan),
            "bfs_s": self._bfs_s,
            "fan_s": self._fan_s,
            "based_cache": sum(c.based is not None for c in self._cones),
            "f_clusters": sum(cone.Fs is not None for cone in self._cones),
            "vertex_cache": len(self._slots) - self._slots.count(None),
            "orthants": len(buckets),
            "orthant_max": max(map(len, buckets.values())),
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
        # an edge is known at both ends (the landings hold each mutation
        # with its inverse): list it from its smaller one
        edges = [{"src": vid, "dst": wid, "kind": "mutation", "k": k}
                 for vid, k, wid in self._edges("mu") if vid < wid]
        edges += [{"src": vid, "dst": wid, "kind": "relabel",
                   "sigma": list(images)}
                  for vid, images, wid in self._edges("perm") if vid < wid]
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


def _landing_perm(cone: Cone, C):
    """tau with C[i] == cone.C[tau[i]] for every row i."""
    return tuple(map(cone.C.index, C))


def _is_relabeling(cone: Cone, tau, eps: ExchangeMatrix, C):
    """Whether (eps, C) is the cone's canonical seed with row i taken
    from row tau[i], by a tau that preserves the symmetrizer."""
    e, d = cone.eps.entries, cone.eps.d
    return (all(d[t] == x for t, x in zip(tau, d))
            and tuple(cone.C[t] for t in tau) == C
            and tuple(tuple(e[a][b] for b in tau) for a in tau) == eps.entries)


def enumerate_pattern(eps0: ExchangeMatrix, cap=None,
                      type_tag="custom") -> ExchangePattern:
    """Breadth-first closure of the initial seed under mutations and
    admissible transpositions, deduplicated by (eps, C).

    A labeled seed is stored as (cluster, p): row i of each of its
    matrices is row p[i] of the canonical seed in the cluster's Cone
    record, whose ids map p back to the vertex id.  Mutation commutes
    with relabeling, so a cluster's work runs once, when its first vertex
    is popped: the 2-finite test, then every mutation of the cluster not
    yet made from the other end.  The exact mutation of eps and C runs
    once per cluster edge, and that of C^-, G and the cone generators
    once per new cluster; F is left to the first read (see
    _f_polynomials).  The landing is kept at both ends, in the records'
    landings, as (cluster', tau) with row i of the landed seed equal to
    row tau[i] of the canonical seed of cluster' (clusters are keyed by
    their set of c-vectors); a labeled step (cluster, p) -> (cluster',
    tau o p) only reads it.  It composes by itemgetter(*p), made once per
    popped vertex and applied to each landing's tau, and a relabeling by
    one getter per admissible transposition, made once per build (see
    _composer).  Each distinct label is stored as one tuple, which every
    vertex and ids key that carries it shares.  A new cluster is only
    ever made at the first vertex of its parent cluster, which carries
    the identity label, so the new cluster's first vertex is labeled by
    the identity as well.  The search tree is not stored: the records'
    parents and landings hold it at cluster level, and route() replays
    the labeled tree from them when it is first read.

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
    cones = []  # cluster id -> Cone
    cluster_of = {}  # frozenset of c-vectors -> cluster id
    labels = []  # vid -> (cluster id, p)
    shared = {}.setdefault  # one tuple per distinct label
    # row i of a seed relabeled by a transposition is row images^-1(i) =
    # images(i) (a transposition is its own inverse): it is labeled
    # p o images
    perm_steps = [_composer(s.images)
                  for s in eps0.admissible_transpositions()]

    def pattern_so_far():
        return ExchangePattern(labels, type_tag, cap, cones,
                               bfs_s=time.process_time() - start)

    def new_cone(cone):
        # a labeled vertex is the cluster's seed with its rows permuted by
        # a d-preserving p, so the identity then holds there as well
        if not _duality_holds(cone.C, cone.G, d, diag_d):
            raise InternalConsistencyError(
                f"cluster {len(cones)}: C * diag(d) * G^T != diag(d)")
        cluster_of[frozenset(cone.C)] = len(cones)
        cones.append(cone)
        return len(cones) - 1

    def mutate(c, q):
        """Make mutation q of cluster c: the landing (cluster', tau) it
        reaches, kept in the landings at both ends."""
        src = cones[c]
        eps = src.eps.mutate(q)
        C = mutate_c_matrix(src.C, src.eps, q)
        target = cluster_of.get(frozenset(C))
        if target is None:
            target = new_cone(Cone(
                eps, C, mutate_g_matrix(src.G, src.C, src.eps, q),
                mutate_generators(src.generators, src.inequalities,
                                  src.eps, q),
                mutate_c_matrix(src.inequalities, -src.eps, q),
                (c, q), [None] * n))
            tau = ident
        else:
            tau = _landing_perm(cones[target], C)
            if not _is_relabeling(cones[target], tau, eps, C):
                raise InternalConsistencyError(
                    f"mutation {q} of cluster {c} lands in cluster {target} "
                    f"by the relabeling {tau}, which does not carry its "
                    "canonical seed to the landed one")
        # mutation is an involution: cluster' by tau[q] returns to c, by
        # the inverse of tau
        src.landings[q] = target, tau
        cones[target].landings[tau[q]] = c, tuple(map(tau.index, ident))

    def add(c, p):
        vid = len(labels)
        if vid >= cap:
            raise PatternBudgetError(
                f"exchange graph exceeds {cap} vertices; the mutation class "
                "does not look finite (raise the cap via CLUSTER_QUAKE_CAP "
                "if it is)", partial=pattern_so_far())
        p = shared(p, p)
        labels.append((c, p))
        cones[c].ids[p] = vid

    ident_m = intmat.identity(n)
    new_cone(Cone(eps0, ident_m, ident_m, ident_m, ident_m, None, [None] * n,
                  tuple(FPolynomial.constant(n) for _ in range(n))))
    add(0, ident)
    # labels is the queue: vertices are popped in id order, as added
    for vid, (c, p) in enumerate(labels):
        if p == ident:
            # the first vertex popped from a cluster, where the cluster's
            # own work runs once; relabeling keeps |eps_ij * eps_ji| over
            # the pairs, so one test per cluster
            e = cones[c].eps.entries
            bad = _two_finite_violation(e)
            if bad is not None:
                i, j = bad
                raise NotFiniteTypeError(
                    f"exchange matrix at vertex {vid} has |eps_{i}{j} * "
                    f"eps_{j}{i}| = {abs(e[i][j] * e[j][i])} > 3; the "
                    "mutation class is not of finite type",
                    partial=pattern_so_far())
            # then every mutation not yet made from the other end, so
            # that the labeled steps below only read landings
            for q in range(n):
                cones[c].landings[q] or mutate(c, q)
        # the far ends' labels, as ExchangePattern._far_end makes them; one
        # already in its cone's ids is an edge already found
        landings, ids, at = cones[c].landings, cones[c].ids, _composer(p)
        for j in p:  # its mutation k is mutation p[k] of cluster c
            target, tau = landings[j]
            q = at(tau)
            if q not in cones[target].ids:
                add(target, q)
        for get in perm_steps:
            q = get(p)
            if q not in ids:
                add(c, q)
    return pattern_so_far()


def pattern_from_type(label, cap=None) -> ExchangePattern:
    """enumerate_pattern(seed_from_type(label)) with the label as tag."""
    return enumerate_pattern(seed_from_type(label), cap=cap, type_tag=label)
