"""Graphs, switching, Seidel matrices, and switching-class keys."""
import hashlib
import random
import tracemalloc

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from seidel_forge import seidel_core, weyl_orbits
from seidel_forge.exact_linalg import max_eig_le
from seidel_forge.seidel_core import (
    Graph,
    SwitchingClassKey,
    canonical_key,
    cone,
    pair_index,
    seidel_of_graph,
    switch,
    switching_class_representatives,
)
from seidel_forge.weyl_orbits import _chunk_tables


def reference_representatives(n: int) -> list[int]:
    """Reference: close all 2^C(n,2) graphs, as triangle_bits, under the n
    single-vertex switchings and the n - 1 adjacent transpositions; no early
    stop."""
    m = n * (n - 1) // 2
    if n <= 1:
        return [0]
    masks = []
    for v in range(n):
        mask = 0
        for u in range(n):
            if u != v:
                mask |= 1 << m - 1 - pair_index(min(u, v), max(u, v), n)
        masks.append(mask)
    tables = []
    for v in range(n - 1):
        t = list(range(n))
        t[v], t[v + 1] = t[v + 1], t[v]
        perm = [0] * m
        for i in range(n):
            for j in range(i + 1, n):
                a, b = sorted((t[i], t[j]))
                perm[m - 1 - pair_index(i, j, n)] = m - 1 - pair_index(a, b, n)
        tables.append(_chunk_tables([1 << p for p in perm], m))
    visited = bytearray((1 << m) + 7 >> 3)
    reps = []
    for g in range(1 << m):
        if visited[g >> 3] >> (g & 7) & 1:
            continue
        reps.append(g)
        visited[g >> 3] |= 1 << (g & 7)
        stack = [g]
        while stack:
            cur = stack.pop()
            nexts = [cur ^ mask for mask in masks]
            nexts += [low[cur & (1 << split) - 1] | high[cur >> split] for split, low, high in tables]
            for nxt in nexts:
                if not visited[nxt >> 3] >> (nxt & 7) & 1:
                    visited[nxt >> 3] |= 1 << (nxt & 7)
                    stack.append(nxt)
    return reps


@st.composite
def graphs(draw, max_n=7, min_n=0):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return Graph.from_triangle_bits(n, bits)


@st.composite
def graph_and_subsets(draw, max_n=7, subsets=1):
    G = draw(graphs(max_n=max_n))
    subs = [
        {v for v in range(G.n) if draw(st.booleans())} for _ in range(subsets)
    ]
    return (G, *subs)


def checked_key(G):
    """canonical_key(G), after checking that it holds C(n, 2) pair bits, zero
    padded to whole bytes, and that its hex form is n's byte and then them."""
    key = canonical_key(G)
    m = G.n * (G.n - 1) // 2
    assert key.n == G.n and len(key.key) == (m + 7) // 8
    assert not key.key or key.key[-1] & ((1 << 8 * len(key.key) - m) - 1) == 0
    assert key.hex == bytes([G.n]).hex() + key.key.hex()
    return key


class TestGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10 | 0b01, 0b01))  # self-loop on vertex 0
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))  # asymmetric
        with pytest.raises(ValueError):
            Graph(33, tuple([0] * 33))  # beyond vertex limit
        for edge in ((0, 5), (0, -1), (3, 1)):
            with pytest.raises(ValueError, match=r"0\.\.2"):
                Graph.from_edges(3, [edge])

    def test_constructors(self):
        assert Graph.complete(4).edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert Graph.cycle(4).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert Graph.path(3).edges() == [(0, 1), (1, 2)]
        assert Graph.empty(3).edges() == []
        # D_{2,1}: triangle minus one matched pair = path via vertex 2
        assert Graph.complete_minus_matching(2, 1).edges() == [(0, 2), (1, 2)]
        for s, t in ((2, 3), (5, -2)):
            with pytest.raises(ValueError, match=r"^matching size t must be in 0\.\.s$"):
                Graph.complete_minus_matching(s, t)

    @pytest.mark.parametrize(
        "build,args",
        [
            (Graph.empty, (10**6,)),
            (Graph.from_edges, (10**6, [])),
            (Graph.complete, (10**4,)),
            (Graph.path, (10**4,)),
            (Graph.cycle, (10**4,)),
            (Graph.complete, (-1,)),
            (Graph.from_edges, (-1, [(0, 1)])),
        ],
        ids=["empty-1e6", "from_edges-1e6", "complete-1e4", "path-1e4", "cycle-1e4",
             "complete-neg", "from_edges-neg"],
    )
    def test_vertex_count_checked_before_building(self, build, args):
        # building these first would take from 8 to 16 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"vertex count must be in 0\.\.32"):
                build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_triangle_bits_roundtrip(self, G):
        assert Graph.from_triangle_bits(G.n, G.triangle_bits()) == G

    def test_triangle_bits_out_of_range(self):
        assert Graph.from_triangle_bits(3, 7) == Graph.complete(3)
        assert Graph.from_triangle_bits(0, 0) == Graph.empty(0)
        # the vertex count is checked before 1 << C(n, 2) is formed
        for n, bits in ((3, 8), (3, -1), (0, 1), (1, 1), (10**6, 0), (-1, 0)):
            with pytest.raises(ValueError):
                Graph.from_triangle_bits(n, bits)

    def test_pair_index_enumerates_upper_triangle(self):
        n = 6
        seen = [pair_index(i, j, n) for i in range(n) for j in range(i + 1, n)]
        assert seen == list(range(n * (n - 1) // 2))


class TestSeidelMatrix:
    def test_values(self):
        assert seidel_of_graph(Graph.complete(3)).rows == (
            (0, -1, -1),
            (-1, 0, -1),
            (-1, -1, 0),
        )
        assert seidel_of_graph(Graph.empty(3)).rows == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6))
    def test_relates_to_adjacency(self, G):
        # S = J - I - 2A entrywise
        S = seidel_of_graph(G)
        for i in range(G.n):
            for j in range(G.n):
                expect = 0 if i == j else 1 - 2 * (G.adj[i] >> j & 1)
                assert S.rows[i][j] == expect


class TestSwitching:
    def test_example(self):
        H = switch(Graph.complete(3), {0})
        assert H.edges() == [(1, 2)]
        assert H.adj[0] == 0

    def test_rejects_bad_vertices(self):
        with pytest.raises(ValueError):
            switch(Graph.complete(3), {3})

    @settings(max_examples=80, deadline=None)
    @given(graph_and_subsets(subsets=1))
    def test_involution(self, gu):
        G, U = gu
        assert switch(switch(G, U), U) == G

    @settings(max_examples=80, deadline=None)
    @given(graph_and_subsets(subsets=2))
    def test_group_action(self, guw):
        G, U, W = guw
        assert switch(switch(G, U), W) == switch(G, U ^ W)

    @settings(max_examples=60, deadline=None)
    @given(graph_and_subsets(subsets=1))
    def test_seidel_conjugation(self, gu):
        G, U = gu
        D = sympy.diag(*[-1 if i in U else 1 for i in range(G.n)])
        S = sympy.Matrix(seidel_of_graph(G).rows)
        assert D * S * D == sympy.Matrix(seidel_of_graph(switch(G, U)).rows)

    @settings(max_examples=60, deadline=None)
    @given(graph_and_subsets(subsets=1))
    def test_eigenvalue_bound_is_invariant(self, gu):
        G, U = gu
        assert max_eig_le(seidel_of_graph(G), 3) == max_eig_le(
            seidel_of_graph(switch(G, U)), 3
        )


class TestCone:
    def test_structure(self):
        W = cone(Graph.cycle(5))
        assert W.n == 6
        assert W.adj[5].bit_count() == 5
        assert all(W.adj[v].bit_count() == 3 for v in range(5))

    def test_vertex_limit(self):
        cone(Graph.empty(31))
        with pytest.raises(ValueError):
            cone(Graph.empty(32))


def _closure_partition(n):
    """Independent switching-class partition: BFS closure over single-vertex
    switchings and adjacent transpositions on packed triangle bits."""
    m = n * (n - 1) // 2
    comp = {}
    for start in range(1 << m):
        if start in comp:
            continue
        comp[start] = start
        stack = [start]
        while stack:
            bits = stack.pop()
            G = Graph.from_triangle_bits(n, bits)
            nbrs = [switch(G, {v}).triangle_bits() for v in range(n)]
            for v in range(n - 1):
                p = list(range(n))
                p[v], p[v + 1] = p[v + 1], p[v]
                nbrs.append(G.relabel(p).triangle_bits())
            for b in nbrs:
                if b not in comp:
                    comp[b] = start
                    stack.append(b)
    return comp


class TestCanonicalKey:
    def test_trivial_sizes(self):
        assert checked_key(Graph.empty(0)) == SwitchingClassKey(0, b"")
        assert checked_key(Graph.empty(1)) == SwitchingClassKey(1, b"")
        assert checked_key(Graph.complete(2)) == checked_key(Graph.empty(2))

    @settings(max_examples=80, deadline=None)
    @given(graph_and_subsets(max_n=6, subsets=1))
    def test_constant_on_switching_orbit(self, gu):
        G, U = gu
        assert checked_key(switch(G, U)) == checked_key(G)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6, min_n=1), st.randoms())
    def test_constant_under_relabeling(self, G, rng):
        perm = list(range(G.n))
        rng.shuffle(perm)
        assert checked_key(G.relabel(perm)) == checked_key(G)

    def test_matches_independent_closure(self):
        # the key is constant on each closure component and separates them
        for n in range(1, 5):
            comp = _closure_partition(n)
            key_of_comp = {}
            for bits, root in comp.items():
                key = checked_key(Graph.from_triangle_bits(n, bits))
                assert key_of_comp.setdefault(root, key) == key
            assert len(set(key_of_comp.values())) == len(key_of_comp)

    @pytest.mark.parametrize("n", [12, 16])
    def test_constant_on_large_symmetric_classes(self, n):
        # deep automorphism pruning: K_n and D_{n-t,t} have large groups
        rng = random.Random(n)
        keys = []
        for G in (Graph.complete(n), Graph.complete_minus_matching(n - n // 4, n // 4)):
            key = checked_key(G)
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                U = {v for v in range(n) if rng.random() < 0.5}
                assert checked_key(switch(G, U).relabel(perm)) == key
            keys.append(key)
        assert keys[0] != keys[1]

    def test_one_canonizer_call_per_key(self, monkeypatch):
        # a key reaches the search through the module-level name
        # seidel_core.canonical_form_bits, once, so wrapping that name sees
        # every key search
        calls = 0
        inner = seidel_core.canonical_form_bits

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(seidel_core, "canonical_form_bits", counting)
        for G in (Graph.empty(0), Graph.cycle(5), Graph.complete(8), Graph.complete_minus_matching(9, 3)):
            calls = 0
            checked_key(G)
            assert calls == 1

    def test_representative_counts(self):
        # switching classes on 0..5 vertices, independently derived
        assert [len(switching_class_representatives(n)) for n in range(6)] == [
            1, 1, 1, 2, 3, 7,
        ]

    @pytest.mark.parametrize("n", range(7))
    def test_representatives_match_reference(self, n):
        assert switching_class_representatives(n) == reference_representatives(n)

    def test_representative_count_n7(self):
        assert len(switching_class_representatives(7)) == 54

    def test_representatives_golden_digest_n7(self):
        # the 54 least members at n = 7, pinned by the digest the scan over
        # all 2^21 graphs gave
        digest = hashlib.sha256(repr(switching_class_representatives(7)).encode()).hexdigest()
        assert digest == "8564a6dc4446efefb08e20d7717e3a1aef936ceabb179e7bbb7123c9f8cf7b94"

    def test_bitmap_cap_checked_before_any_table(self, monkeypatch):
        # n = 9 has 2^36 graphs: refused before tables or the bitmap are built
        def fail(*args):
            raise AssertionError("built before the bitmap check")

        monkeypatch.setattr(weyl_orbits, "_chunk_tables", fail)
        with pytest.raises(ValueError, match="bitmap"):
            switching_class_representatives(9)


class TestSwitchingClassKey:
    def test_serialization_roundtrip(self):
        key = checked_key(Graph.cycle(5))
        assert key.to_bytes()[0] == 5
