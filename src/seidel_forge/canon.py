"""Canonical labeling of small graphs (n <= 32) for isomorphism tests.

Individualization-refinement backtracking: equitable refinement of ordered
partitions, branching on the first non-singleton cell, with orbit pruning
from automorphisms discovered at equal leaves.  The canonical form is the
lexicographically least packed upper triangle over all leaves of the
(isomorphism-invariant) search tree, so two graphs are isomorphic iff their
canonical forms coincide.

Orbit pruning keeps one union-find per search node.  Before it tries each
vertex after the first, the node absorbs only the automorphisms found since
its last test, and of those only the ones that fix the node's
individualized vertices (a bitmask test against each automorphism's stored
fixed points).  Since a union-find partition does not depend on the order of
its unions, every test sees the orbits of all automorphisms known so far that
fix the prefix.

Adjacency is handled as per-vertex bitmasks throughout.
"""
from __future__ import annotations

__all__ = ["canonical_form_bits", "canonical_relabeling", "pack_bits"]


def pack_bits(bits: int, nbits: int) -> bytes:
    """Big-endian byte packing: bit 0 of the sequence is the MSB of byte 0."""
    nbytes = (nbits + 7) // 8
    return (bits << (8 * nbytes - nbits)).to_bytes(nbytes, "big") if nbytes else b""


def _refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition (cells as bitmasks).

    Repeatedly splits every non-singleton cell by the vector of neighbour
    counts into all current cells, ordering sub-cells by count profile.  The
    procedure is isomorphism-equivariant: it depends only on the partition
    structure, never on vertex labels.
    """
    while True:
        changed = False
        new_cells: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            v = cell
            while v:
                low = v & (-v)
                u = low.bit_length() - 1
                v ^= low
                sig = tuple((adj[u] & other).bit_count() for other in cells)
                groups[sig] = groups.get(sig, 0) | low
            if len(groups) > 1:
                changed = True
            for sig in sorted(groups):
                new_cells.append(groups[sig])
        if not changed:
            return cells
        cells = new_cells


def _packed_form(adj: tuple[int, ...], order: list[int]) -> int:
    """Packed strict upper triangle of the graph relabeled by order.

    order[k] is the original vertex that receives new label k; the bit for
    pair (i, j), i < j, sits at descending significance in row-major order.
    """
    n = len(order)
    bits = 0
    for i in range(n):
        row = adj[order[i]]
        for j in range(i + 1, n):
            bits = (bits << 1) | (row >> order[j] & 1)
    return bits


class _Canonizer:
    def __init__(self, adj: tuple[int, ...]):
        self.adj = adj
        self.n = len(adj)
        self.best: int | None = None
        self.best_order: list[int] | None = None
        self.autos: list[tuple[int, ...]] = []
        # fixed[i] is the bitmask of the points that autos[i] fixes
        self.fixed: list[int] = []

    def run(self) -> tuple[int, list[int]]:
        if self.n == 0:
            return 0, []
        cells = _refine(self.adj, [(1 << self.n) - 1])
        self._search(cells, 0)
        assert self.best is not None and self.best_order is not None
        return self.best, self.best_order

    def _search(self, cells: list[int], prefix: int) -> None:
        """Search below the node whose individualized vertices are the bits
        of prefix."""
        target = next((k for k, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            order = [c.bit_length() - 1 for c in cells]
            form = _packed_form(self.adj, order)
            if self.best is None or form < self.best:
                self.best = form
                self.best_order = order
            elif form == self.best:
                assert self.best_order is not None
                # equal leaves witness an automorphism: send the vertex with
                # label k in this leaf to the one with label k in the best leaf
                g = [0] * self.n
                fixed = 0
                for k in range(self.n):
                    g[order[k]] = self.best_order[k]
                    if order[k] == self.best_order[k]:
                        fixed |= 1 << order[k]
                self.autos.append(tuple(g))
                self.fixed.append(fixed)
            return
        cell = cells[target]
        # union-find orbits of the known automorphisms that fix prefix; autos
        # before index absorbed are already in it
        parent = list(range(self.n))
        absorbed = 0
        tried: list[int] = []
        v = cell
        while v:
            low = v & (-v)
            u = low.bit_length() - 1
            v ^= low
            if tried:
                for k in range(absorbed, len(self.autos)):
                    if self.fixed[k] & prefix == prefix:
                        g = self.autos[k]
                        for w in range(self.n):
                            if g[w] != w:
                                a, b = _find(parent, w), _find(parent, g[w])
                                if a != b:
                                    parent[a] = b
                absorbed = len(self.autos)
                root = _find(parent, u)
                if any(_find(parent, t) == root for t in tried):
                    continue
            tried.append(u)
            child = cells[:target] + [low, cell ^ low] + cells[target + 1 :]
            self._search(_refine(self.adj, child), prefix | low)


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def canonical_relabeling(adj: tuple[int, ...]) -> tuple[int, list[int]]:
    """Canonical packed form and a relabeling order achieving it.

    Returns (bits, order) where order[k] is the original vertex given new
    label k and bits is the packed upper triangle of the relabeled graph.
    """
    return _Canonizer(adj).run()


def canonical_form_bits(adj: tuple[int, ...]) -> int:
    """Canonical packed upper-triangle bits of the graph."""
    return _Canonizer(adj).run()[0]
