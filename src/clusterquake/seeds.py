"""Exchange matrices: exact integer seeds, mutation, relabeling, Dynkin types.

An exchange matrix is a skew-symmetrizable integer matrix eps together
with its positive integer symmetrizer d: eps[i][j] * d[j] == -eps[j][i] * d[i]
for all i, j (i.e. eps @ diag(d) is skew-symmetric).  The minimal positive
integer symmetrizer is computed on construction and stored.

All indices are 0-based throughout the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    InvalidTypeError,
    PreconditionError,
    SkewSymmetrizabilityError,
    SymmetrizerMismatchError,
)
from .intmat import IntMatrix


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def solve_symmetrizer(entries: IntMatrix) -> tuple[int, ...]:
    """Minimal positive integer d with entries[i][j]*d[j] == -entries[j][i]*d[i].

    Solved by ratio propagation over the support graph, one connected
    component at a time; each component is scaled to integers with gcd 1.
    Raises SkewSymmetrizabilityError if no positive solution exists.
    """
    n = len(entries)
    for i in range(n):
        if entries[i][i] != 0:
            raise SkewSymmetrizabilityError("diagonal entries must vanish")
        for j in range(n):
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise SkewSymmetrizabilityError(
                    f"support is not symmetric at ({i},{j})")
            if entries[i][j] * entries[j][i] > 0:
                raise SkewSymmetrizabilityError(
                    f"entries ({i},{j}) and ({j},{i}) must have opposite signs")

    d: list[Fraction | None] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if entries[i][j] == 0:
                    continue
                # d_j / d_i = -eps_ji / eps_ij  (positive by the sign check)
                ratio = Fraction(-entries[j][i], entries[i][j])
                if d[j] is None:
                    d[j] = d[i] * ratio
                    component.append(j)
                    stack.append(j)
                elif d[j] != d[i] * ratio:
                    raise SkewSymmetrizabilityError(
                        "inconsistent symmetrizer ratios around a cycle")
        # scale this component to minimal positive integers
        denom_lcm = 1
        for i in component:
            denom_lcm = denom_lcm * d[i].denominator // gcd(
                denom_lcm, d[i].denominator)
        ints = [int(d[i] * denom_lcm) for i in component]
        g = 0
        for v in ints:
            g = gcd(g, v)
        for i, v in zip(component, ints):
            d[i] = Fraction(v // g)
    return tuple(int(x) for x in d)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        images = list(range(n))
        images[i], images[j] = j, i
        return cls(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def __len__(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class ExchangeMatrix:
    entries: IntMatrix
    d: tuple[int, ...]

    @classmethod
    def make(cls, rows, d=None) -> "ExchangeMatrix":
        """Build from any nested iterable of ints; d is validated if given
        but the stored symmetrizer is always the canonical minimal one."""
        try:
            entries = tuple(tuple(int(x) for x in row) for row in rows)
        except (TypeError, ValueError):
            raise PreconditionError(
                f"exchange matrix must be rows of integers, got {rows!r}"
            ) from None
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise PreconditionError("exchange matrix must be square")
        canonical = solve_symmetrizer(entries)
        if d is not None:
            d = tuple(int(x) for x in d)
            if len(d) != n or any(x < 1 for x in d):
                raise SymmetrizerMismatchError("symmetrizer must be positive")
            for i in range(n):
                for j in range(n):
                    if entries[i][j] * d[j] != -entries[j][i] * d[i]:
                        raise SymmetrizerMismatchError(
                            "given symmetrizer does not skew-symmetrize eps")
        return cls(entries, canonical)

    @property
    def n(self) -> int:
        return len(self.entries)

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Matrix mutation in direction k (an involution)."""
        n = self.n
        if not 0 <= k < n:
            raise IndexError(f"direction {k} out of range for rank {n}")
        e = self.entries
        new = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == k or j == k:
                    row.append(-e[i][j])
                else:
                    row.append(e[i][j] + _sgn(e[i][k]) * max(0, e[i][k] * e[k][j]))
            new.append(tuple(row))
        return ExchangeMatrix(tuple(new), self.d)

    def relabel(self, sigma: Permutation) -> "ExchangeMatrix":
        """Simultaneous row/column relabeling by sigma."""
        n = self.n
        if len(sigma) != n:
            raise ValueError("permutation size mismatch")
        inv = sigma.inverse()
        for i in range(n):
            if self.d[inv(i)] != self.d[i]:
                raise SymmetrizerMismatchError(
                    f"permutation {sigma.images} does not preserve the symmetrizer")
        new = tuple(
            tuple(self.entries[inv(i)][inv(j)] for j in range(n)) for i in range(n)
        )
        new_d = tuple(self.d[inv(i)] for i in range(n))
        return ExchangeMatrix(new, new_d)

    def admissible_transpositions(self):
        """All transpositions preserving the symmetrizer (generators of the
        relabeling subgroup)."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.d[i] == self.d[j]:
                    out.append(Permutation.transposition(self.n, i, j))
        return out

    def __neg__(self) -> "ExchangeMatrix":
        return ExchangeMatrix(
            tuple(tuple(-x for x in row) for row in self.entries), self.d)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "entries": [list(r) for r in self.entries],
                "d": list(self.d)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, data) -> "ExchangeMatrix":
        """Accepts the JSON text or the already-decoded mapping
        {"entries": rows, "d": symmetrizer (optional)}."""
        try:
            obj = json.loads(data) if isinstance(data, (str, bytes)) else data
        except ValueError as exc:
            raise PreconditionError(f"seed is not valid JSON: {exc}") from None
        if not isinstance(obj, dict) or "entries" not in obj:
            raise PreconditionError(
                'seed JSON must be an object {"entries": [[...], ...]}, '
                f"got {obj!r}")
        return cls.make(obj["entries"], obj.get("d"))


def _chain_edges(rank):
    return [(i, i + 1, 1, 1) for i in range(rank - 1)]


def _dynkin_edges(family: str, rank: int):
    """Edges (i, j, w_ij, w_ji) of the Dynkin diagram, i < j; w_ij is the
    arrow weight |eps_ij| attached to the edge."""
    if family == "A" and rank >= 1:
        return _chain_edges(rank)
    if family == "B" and rank >= 2:
        edges = _chain_edges(rank)
        edges[-1] = (rank - 2, rank - 1, 1, 2)
        return edges
    if family == "C" and rank >= 3:
        edges = _chain_edges(rank)
        edges[-1] = (rank - 2, rank - 1, 2, 1)
        return edges
    if family == "D" and rank >= 4:
        edges = _chain_edges(rank - 1)
        edges.append((rank - 3, rank - 1, 1, 1))
        return edges
    if family == "E" and rank in (6, 7, 8):
        edges = [(0, 2, 1, 1), (1, 3, 1, 1)]
        edges += [(i, i + 1, 1, 1) for i in range(2, rank - 1)]
        return edges
    if family == "F" and rank == 4:
        return [(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1)]
    if family == "G" and rank == 2:
        return [(0, 1, 1, 3)]
    raise InvalidTypeError(f"unknown Dynkin type {family}{rank}")


def build_cartan_seed(family: str, rank: int,
                      orientation: str = "linear") -> ExchangeMatrix:
    """Exchange matrix of a finite-type seed.

    family is one of A, B, C, D, E, F, G or the special token "A1xA1";
    orientation "linear" orients every diagram edge (i,j), i<j, the same
    way, so e.g. A2 -> [[0,-1],[1,0]] and G2 -> [[0,-1],[3,0]]; "bipartite"
    makes every node a source or a sink.
    """
    if family.upper() in ("A1XA1", "A1×A1"):
        return ExchangeMatrix.make([[0, 0], [0, 0]])
    family = family.upper()
    rank = int(rank)
    if family == "A" and rank == 1:
        return ExchangeMatrix.make([[0]])
    edges = _dynkin_edges(family, rank)
    if orientation not in ("linear", "bipartite"):
        raise InvalidTypeError(f"unknown orientation {orientation!r}")

    flip = [False] * rank
    if orientation == "bipartite":
        # 2-color the (tree) diagram; edges into color-1 keep the linear
        # orientation, edges out of color-1 are flipped.
        adj = {i: [] for i in range(rank)}
        for i, j, _, _ in edges:
            adj[i].append(j)
            adj[j].append(i)
        color = {0: 0}
        queue = [0]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
        flip = [color.get(i, 0) == 1 for i in range(rank)]

    m = [[0] * rank for _ in range(rank)]
    for i, j, wij, wji in edges:
        s = -1 if (orientation == "linear" or not flip[i]) else 1
        m[i][j] = s * wij
        m[j][i] = -s * wji
    return ExchangeMatrix.make(m)


def seed_from_type(label: str, orientation: str = "linear") -> ExchangeMatrix:
    """Parse labels like "A2", "B3", "G2", "A1xA1" into an exchange matrix."""
    if not isinstance(label, str):
        raise InvalidTypeError(f"a type label is a string, got {label!r}")
    token = label.strip()
    if token.upper() in ("A1XA1", "A1×A1"):
        return build_cartan_seed("A1xA1", 2, orientation)
    family, digits = token[0], token[1:]
    if not digits.isdigit():
        raise InvalidTypeError(f"cannot parse type label {label!r}")
    return build_cartan_seed(family, int(digits), orientation)
