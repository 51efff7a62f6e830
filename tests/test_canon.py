"""Canonical labeling: isomorphism invariance and discrimination."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from seidel_forge.canon import (
    _Canonizer,
    _packed_form,
    _refine,
    canonical_form_bits,
    canonical_relabeling,
    pack_bits,
)
from seidel_forge.seidel_core import Graph, switch


@st.composite
def graphs_with_permutation(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    perm = draw(st.permutations(range(n)))
    return Graph.from_triangle_bits(n, bits), list(perm)


class TestPackBits:
    def test_msb_first(self):
        assert pack_bits(0b1, 1) == b"\x80"
        assert pack_bits(0b101, 3) == b"\xa0"
        assert pack_bits(0b111111111, 9) == b"\xff\x80"
        assert pack_bits(0, 0) == b""


class TestCanonicalForm:
    @settings(max_examples=120, deadline=None)
    @given(graphs_with_permutation())
    def test_invariant_under_relabeling(self, gp):
        G, perm = gp
        assert canonical_form_bits(G.adj) == canonical_form_bits(G.relabel(perm).adj)

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_permutation(max_n=6))
    def test_relabeling_achieves_the_form(self, gp):
        G, _ = gp
        bits, order = canonical_relabeling(G.adj)
        inverse = [0] * G.n
        for new, old in enumerate(order):
            inverse[old] = new
        assert G.relabel(inverse).triangle_bits() == bits

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_permutation(max_n=6))
    def test_idempotent(self, gp):
        G, _ = gp
        bits = canonical_form_bits(G.adj)
        H = Graph.from_triangle_bits(G.n, bits)
        assert canonical_form_bits(H.adj) == bits

    def test_separates_nonisomorphic(self):
        pairs = [
            (Graph.path(4), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])),
            (Graph.cycle(5), Graph.path(5)),
            (Graph.cycle(6), Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
            (Graph.complete_minus_matching(3, 1), Graph.path(4)),
        ]
        for A, B in pairs:
            assert canonical_form_bits(A.adj) != canonical_form_bits(B.adj)

    def test_identifies_isomorphic(self):
        C5 = Graph.cycle(5)
        twisted = Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        assert canonical_form_bits(C5.adj) == canonical_form_bits(twisted.adj)

    def test_trivial_sizes(self):
        assert canonical_form_bits(Graph.empty(0).adj) == 0
        assert canonical_form_bits(Graph.empty(1).adj) == 0

    def test_exhaustive_small_orders(self):
        # every graph on <= 4 vertices: forms agree exactly on isomorphic pairs
        for n in range(5):
            m = n * (n - 1) // 2
            graphs = [Graph.from_triangle_bits(n, b) for b in range(1 << m)]
            forms = [canonical_form_bits(G.adj) for G in graphs]
            # count distinct forms: 1, 1, 2, 4, 11 unlabeled graphs on 0..4 vertices
            assert len(set(forms)) == {0: 1, 1: 1, 2: 2, 3: 4, 4: 11}[n]


class ReferenceCanonizer:
    """The search with orbit pruning that rebuilds the union-find of the
    automorphisms fixing the prefix for every vertex it tries; the oracle
    for _Canonizer, which must visit the same tree."""

    def __init__(self, adj):
        self.adj = adj
        self.n = len(adj)
        self.best = None
        self.best_order = None
        self.autos = []

    def run(self):
        if self.n == 0:
            return 0, []
        self._search(_refine(self.adj, [(1 << self.n) - 1]), [])
        return self.best, self.best_order

    @staticmethod
    def _find(parent, v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def _orbits_fixing(self, prefix):
        parent = list(range(self.n))
        for g in self.autos:
            if all(g[p] == p for p in prefix):
                for v in range(self.n):
                    a, b = self._find(parent, v), self._find(parent, g[v])
                    if a != b:
                        parent[a] = b
        return parent

    def _search(self, cells, prefix):
        target = next((k for k, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            order = [c.bit_length() - 1 for c in cells]
            form = _packed_form(self.adj, order)
            if self.best is None or form < self.best:
                self.best, self.best_order = form, order
            elif form == self.best:
                g = [0] * self.n
                for k in range(self.n):
                    g[order[k]] = self.best_order[k]
                self.autos.append(tuple(g))
            return
        cell = cells[target]
        tried = []
        v = cell
        while v:
            low = v & (-v)
            u = low.bit_length() - 1
            v ^= low
            if tried:
                parent = self._orbits_fixing(prefix)
                root = self._find(parent, u)
                if any(self._find(parent, t) == root for t in tried):
                    continue
            tried.append(u)
            child = cells[:target] + [low, cell ^ low] + cells[target + 1 :]
            self._search(_refine(self.adj, child), prefix + [u])


def assert_matches_reference(adj):
    ref = ReferenceCanonizer(adj)
    expected = ref.run()
    assert canonical_relabeling(adj) == expected
    canonizer = _Canonizer(adj)
    canonizer.run()
    assert canonizer.autos == ref.autos


def _disjoint_triangles(k):
    return Graph.from_edges(
        3 * k, [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (1, 2), (0, 2))]
    )


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


_SYMMETRIC = {
    **{f"empty{n}": Graph.empty(n) for n in range(8, 15)},
    **{f"K{n}": Graph.complete(n) for n in range(8, 15)},
    **{
        f"D{n - t},{t}": Graph.complete_minus_matching(n - t, t)
        for n in range(8, 15)
        for t in (1, n // 4, n // 2)
    },
    **{f"C{n}": Graph.cycle(n) for n in range(3, 15)},
    **{f"{k}K3": _disjoint_triangles(k) for k in range(1, 5)},
    "petersen": _petersen(),
}


class TestAgainstReference:
    """(bits, order) and the automorphisms found equal the reference's."""

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_permutation(max_n=10))
    def test_random_graphs(self, gp):
        G, perm = gp
        assert_matches_reference(G.adj)
        assert_matches_reference(G.relabel(perm).adj)

    @pytest.mark.parametrize("name", _SYMMETRIC)
    def test_symmetric_graphs(self, name):
        assert_matches_reference(_SYMMETRIC[name].adj)

    def test_isolated_vertex_graphs_of_a_switched_k12(self):
        # every graph that canonical_key canonizes for a switched, relabelled K_12
        rng = random.Random(12)
        perm = list(range(12))
        rng.shuffle(perm)
        G = switch(Graph.complete(12), {v for v in range(12) if rng.random() < 0.5}).relabel(perm)
        for v in range(12):
            assert_matches_reference(switch(G, G.neighbors(v)).delete_vertex(v).adj)
