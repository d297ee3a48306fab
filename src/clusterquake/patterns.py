"""Labeled exchange graphs of finite-type mutation classes.

enumerate_pattern performs a breadth-first closure of an initial seed
under the n matrix mutations (and, by default, under the symmetrizer-
preserving transpositions), deduplicating labeled seeds by the pair
(exchange matrix, C-matrix).  Each vertex carries its C-, G-, F- data;
the pattern object then answers the derived questions: tropical signs,
cones and the fan, opposite class, FuGy identity, F*C products.

Conventions (all 0-based):
  * C-matrix rows are c-vectors; C^s_{v0->v} linearizes the tropical
    coordinate change x^(v) = C * x^(v0) on the non-negative orthant of
    the base chart.
  * cone_matrix(v) = C^s_{v->v0}; its columns generate the cone of v in
    base-chart coordinates and are computed independently of the row
    recursion by transporting basis vectors along the reversed path.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from . import _steps, intmat
from .errors import (
    InternalConsistencyError,
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


@dataclass(frozen=True)
class PatternVertex:
    id: int
    eps: ExchangeMatrix
    C: intmat.IntMatrix
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
                 include_permutations, cap):
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
        self._cone_inv_cache = {}
        self._opposite = None
        self._opp_map = None
        self._fan = None

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

    @staticmethod
    def _invert_edge(edge):
        if edge[0] == "mu":
            return edge
        images = edge[1]
        inv = [0] * len(images)
        for i, img in enumerate(images):
            inv[img] = i
        return ("perm", tuple(inv))

    def route(self, src, dst):
        """Steps [(ambient vid, edge), ...] leading from chart src to dst.

        Built from the stored base paths with the common prefix cancelled.
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
            steps.append((s_src[pos + 1], self._invert_edge(p_src[pos])))
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
        if vid not in self._cone_inv_cache:
            self._cone_inv_cache[vid] = intmat.inverse_unimodular(
                self.cone_matrix(vid))
        return self._cone_inv_cache[vid]

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
        """Maximal cones, deduplicated across relabeled vertices."""
        if self._fan is None:
            groups = {}
            for v in self.vertices:
                m = self.cone_matrix(v.id)
                key = frozenset(zip(*m))
                groups.setdefault(key, []).append(v.id)
            cones = []
            for members in groups.values():
                members.sort()
                rep = members[0]
                m = self.cone_matrix(rep)
                cones.append(Cone(rep, tuple(zip(*m)), tuple(members)))
            cones.sort(key=lambda c: c.vertex_id)
            self._fan = tuple(cones)
        return self._fan

    def ray(self, vid, k):
        """Base-chart coordinates of the k-th cone generator of vertex vid."""
        return intmat.column(self.cone_matrix(vid), k)

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


def enumerate_pattern(eps0: ExchangeMatrix, cap=None,
                      include_permutations=True,
                      type_tag="custom") -> ExchangePattern:
    """Breadth-first closure of the initial seed under mutations (and
    admissible transpositions), deduplicated by (eps, C).

    Raises PatternBudgetError when the vertex budget is exceeded; the
    partially built pattern is attached to the exception.
    """
    cap = _resolve_cap(cap)
    n = eps0.n
    C0 = intmat.identity(n)
    F0 = tuple(FPolynomial.constant(n) for _ in range(n))
    store = [{"eps": eps0, "C": C0, "Fs": F0, "path": ()}]
    index = {(eps0.entries, C0): 0}
    mut_edges = {}
    perm_edges = {}
    transpositions = eps0.admissible_transpositions() if include_permutations else []
    queue = deque([0])

    def budget_error():
        partial = _build(store, mut_edges, perm_edges, type_tag,
                         include_permutations, cap, strict=False)
        return PatternBudgetError(
            f"exchange graph exceeds {cap} vertices; the mutation class "
            "does not look finite (raise the cap via CLUSTER_QUAKE_CAP "
            "if it is)", partial=partial)

    while queue:
        vid = queue.popleft()
        cur = store[vid]
        for k in range(n):
            if (vid, k) in mut_edges:
                continue
            new_fs = mutate_F(cur["Fs"], cur["C"], cur["eps"], k)
            new_c = mutate_c_matrix(cur["C"], cur["eps"], k)
            new_eps = cur["eps"].mutate(k)
            key = (new_eps.entries, new_c)
            wid = index.get(key)
            if wid is None:
                if len(store) >= cap:
                    raise budget_error()
                wid = len(store)
                index[key] = wid
                store.append({"eps": new_eps, "C": new_c, "Fs": new_fs,
                              "path": cur["path"] + (("mu", k),)})
                queue.append(wid)
            mut_edges[(vid, k)] = wid
            mut_edges[(wid, k)] = vid
        for sigma in transpositions:
            ekey = (vid, sigma.images)
            if ekey in perm_edges:
                continue
            new_eps = cur["eps"].relabel(sigma)
            new_c = _steps.apply_perm(cur["C"], sigma)
            key = (new_eps.entries, new_c)
            wid = index.get(key)
            if wid is None:
                if len(store) >= cap:
                    raise budget_error()
                wid = len(store)
                index[key] = wid
                store.append({"eps": new_eps,
                              "C": new_c,
                              "Fs": _steps.apply_perm(cur["Fs"], sigma),
                              "path": cur["path"] + (("perm", sigma.images),)})
                queue.append(wid)
            perm_edges[(vid, sigma.images)] = wid
            perm_edges[(wid, sigma.images)] = vid
    return _build(store, mut_edges, perm_edges, type_tag,
                  include_permutations, cap, strict=True)


def _build(store, mut_edges, perm_edges, type_tag, include_permutations,
           cap, strict):
    d = store[0]["eps"].d
    vertices = []
    for vid, rec in enumerate(store):
        try:
            c_inv = intmat.inverse_unimodular(rec["C"])
            G = intmat.conjugate_by_diag(d, intmat.transpose(c_inv))
        except InternalConsistencyError:
            if strict:
                raise
            G = None
        vertices.append(PatternVertex(
            id=vid, eps=rec["eps"], C=rec["C"], G=G, Fs=rec["Fs"],
            Fmat=f_matrix(rec["Fs"]), path=rec["path"]))
    return ExchangePattern(vertices, mut_edges, perm_edges, type_tag,
                           include_permutations, cap)


def pattern_from_type(label, cap=None, include_permutations=True,
                      orientation="linear") -> ExchangePattern:
    """enumerate_pattern(seed_from_type(label)) with the label as tag."""
    return enumerate_pattern(seed_from_type(label, orientation), cap=cap,
                             include_permutations=include_permutations,
                             type_tag=label)
