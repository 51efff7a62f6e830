"""Graphs, Seidel matrices, switching, cones, and switching-class keys.

A switching class (two-graph) is an orbit of graphs under vertex switching
G -> G^U combined with relabeling; equivalently an orbit of Seidel matrices
S' = P^T S P over signed permutation matrices P.  The canonical key computed
here is a total invariant: equal keys iff switching equivalent.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .canon import _pack_rows, _switch_rows, canonical_form_bits, pack_bits
from .exact_linalg import IntMatrix
from .weyl_orbits import _orbit_minima

__all__ = [
    "Graph",
    "SwitchingClassKey",
    "seidel_of_graph",
    "adjacency_matrix",
    "switch",
    "cone",
    "canonical_key",
    "switching_class_representatives",
]

MAX_VERTICES = 32


def _check_vertex_count(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}")


def pair_index(i: int, j: int, n: int) -> int:
    """Row-major index of pair (i, j), i < j, in the strict upper triangle."""
    if not 0 <= i < j < n:
        raise ValueError("need 0 <= i < j < n")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


class Graph(NamedTuple("Graph", [("n", int), ("adj", tuple[int, ...])])):
    """Simple undirected graph on n <= 32 vertices; adj[v] is a bitmask."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        _check_vertex_count(n)
        if len(adj) != n:
            raise ValueError("adjacency length must equal n")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError("adjacency bits out of range")
            if row >> v & 1:
                raise ValueError("loops are not allowed")
        for i in range(n):
            for j in range(i + 1, n):
                if (adj[i] >> j & 1) != (adj[j] >> i & 1):
                    raise ValueError("adjacency must be symmetric")
        return super().__new__(cls, n, adj)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        adj = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge endpoints must be in 0..{n - 1}")
            if i == j:
                raise ValueError("loops are not allowed")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return Graph(n, tuple(adj))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def cycle(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]) if n >= 3 else Graph.path(n)

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def complete_minus_matching(s: int, t: int) -> "Graph":
        """K_{s+t} minus a matching of size t (t <= s): the graph D_{s,t}."""
        if t > s:
            raise ValueError("matching size t must not exceed s")
        n = s + t
        g = Graph.complete(n)
        adj = list(g.adj)
        for k in range(t):
            a, b = 2 * k, 2 * k + 1
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
        return Graph(n, tuple(adj))

    @staticmethod
    def from_triangle_bits(n: int, bits: int) -> "Graph":
        """Graph from packed upper-triangle bits (MSB first, row-major)."""
        _check_vertex_count(n)
        m = n * (n - 1) // 2
        if not 0 <= bits < 1 << m:
            raise ValueError(f"triangle bits must be in 0..2**{m} - 1")
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if bits >> (m - 1 - pair_index(i, j, n)) & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        return Graph(n, tuple(adj))

    def triangle_bits(self) -> int:
        """Packed upper-triangle bits, pair (0,1) most significant."""
        return _pack_rows(self.adj, [1 << v for v in range(self.n)], 0, 0, self.n)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.adj[i] >> j & 1
        ]

    def relabel(self, perm) -> "Graph":
        """Graph with vertex v renamed to perm[v]."""
        return Graph(self.n, _relabel_rows(self.adj, perm))


def _relabel_rows(adj, perm) -> tuple[int, ...]:
    """The rows of the graph adj with vertex v renamed to perm[v]."""
    out = [0] * len(adj)
    for u, row in enumerate(adj):
        new_row = 0
        while row:
            low = row & (-row)
            new_row |= 1 << perm[low.bit_length() - 1]
            row ^= low
        out[perm[u]] = new_row
    return tuple(out)


class SwitchingClassKey(NamedTuple):
    """Canonical identifier of a switching class.

    key holds the packed upper triangle of the canonical representative;
    the serialized form is one byte n followed by key, rendered as lowercase
    hex.  Equal keys (with equal n) iff the source graphs are switching
    equivalent.
    """

    n: int
    key: bytes

    def to_bytes(self) -> bytes:
        return bytes([self.n]) + self.key

    @property
    def hex(self) -> str:
        return self.to_bytes().hex()


def adjacency_matrix(G: Graph) -> IntMatrix:
    return IntMatrix.from_rows(
        [G.adj[i] >> j & 1 for j in range(G.n)] for i in range(G.n)
    )


def seidel_of_graph(G: Graph) -> IntMatrix:
    """Seidel matrix S(G) = J - I - 2A(G)."""
    return IntMatrix.from_rows(
        [0 if i == j else (-1 if G.adj[i] >> j & 1 else 1) for j in range(G.n)]
        for i in range(G.n)
    )


def switch(G: Graph, U) -> Graph:
    """Graph switching G^U: complement the edges across the cut (U, V-U)."""
    mask = 0
    for v in U:
        if not 0 <= v < G.n:
            raise ValueError("switching set must consist of vertices")
        mask |= 1 << v
    return Graph(G.n, _switch_rows(G.adj, mask))


def cone(G: Graph) -> Graph:
    """The cone over G: one new vertex adjacent to every vertex of G."""
    if G.n + 1 > MAX_VERTICES:
        raise ValueError("cone would exceed the vertex limit")
    apex = 1 << G.n
    adj = [row | apex for row in G.adj]
    adj.append((1 << G.n) - 1)
    return Graph(G.n + 1, tuple(adj))


def canonical_key(G: Graph) -> SwitchingClassKey:
    """Canonical switching-class key of G.

    For each vertex v, switching by its neighbourhood isolates v; every graph
    in the switching class of G that has an isolated vertex arises this way.
    The least canonical form over those graphs is therefore a full invariant
    of the switching class of G up to isomorphism.  It packs into C(n, 2)
    bits, whose leading n - 1 zeros are the row of the isolated vertex; the
    rest is the canonical form of that graph with the vertex deleted.  One
    search finds it, whose root chooses v (canonical_form_bits with switching).
    """
    bits = canonical_form_bits(G.adj, switching=True)
    return SwitchingClassKey(G.n, pack_bits(bits, G.n * (G.n - 1) // 2))


def switching_class_representatives(n: int) -> list[int]:
    """One graph per switching class on n vertices, as triangle_bits.

    Switching by N(0) isolates vertex 0, so the least member of a class has
    its top n - 1 bits zero and the rest are the bits of a graph H on
    vertices 1..n-1, in the same order.  The scan walks every H in order and
    closes each orbit under re-rooting at v: switch by N(v), which isolates
    v, then swap 0 and v.  That sends H(a, b) to H(a, b) + H(v, a) + H(v, b)
    mod 2 and keeps H(v, a): bit {v, a} maps to every pair at a.  On the
    two-graph it is the relabelling (0 v), and these generate all of them.
    ValueError, before any table is built, for n >= 9: its 2^28 or more
    graphs H pass the scan's caps.
    """
    pairs = list(combinations(range(n - 1), 2))[::-1]  # H's bit p; vertex k is k + 1
    at = [0] * (n - 1)  # at[a]: the bits of the pairs at a
    for p, (a, b) in enumerate(pairs):
        at[a] |= 1 << p
        at[b] |= 1 << p
    reroots = [
        [at[a + b - v] if v in (a, b) else 1 << p for p, (a, b) in enumerate(pairs)]
        for v in range(n - 1)
    ]
    m = len(pairs)
    return _orbit_minima(range(1 << m), m, reroots, 1 << m)
