"""Canonical labeling: isomorphism invariance and discrimination."""
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from seidel_forge import canon
from seidel_forge.canon import (
    _Canonizer,
    _pack_rows,
    _refine,
    _twin_autos,
    canonical_form_bits,
    pack_bits,
)
from seidel_forge.enumeration import class_transversal, phi_graph
from seidel_forge.seidel_core import Graph, SwitchingClassKey, canonical_key, switch


def delete_vertex(G: Graph, v: int) -> Graph:
    """G without vertex v; the vertices after v move down by one."""
    return Graph.from_edges(
        G.n - 1, [(a - (a > v), b - (b > v)) for a, b in G.edges() if v not in (a, b)]
    )


def neighbours(G: Graph, v: int) -> list[int]:
    return [u for u in range(G.n) if G.adj[v] >> u & 1]


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
        canonizer = _Canonizer(G.adj)
        bits = canonizer.run()
        inverse = [0] * G.n
        for new, old in enumerate(canonizer.best_order):
            inverse[old] = new
        assert G.relabel(inverse).triangle_bits() == bits

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_permutation(max_n=6))
    def test_idempotent(self, gp):
        G, _ = gp
        bits = canonical_form_bits(G.adj)
        H = Graph.from_triangle_bits(G.n, bits)
        assert canonical_form_bits(H.adj) == bits

    @pytest.mark.parametrize(
        "lengths", [(3, 4), (3, 5), (3, 3, 4), (4, 4, 5), (3, 4, 6)], ids=lambda ls: "+".join(f"C{m}" for m in ls)
    )
    def test_invariant_on_cycle_unions(self, lengths):
        # the equitable partition is coarser than the orbits, so every
        # branch the search skips must be an image of one it searched
        G = _cycle_union(*lengths)
        rng = random.Random(len(G.adj))
        for H in (G, Graph(G.n, tuple(((1 << G.n) - 1) ^ (1 << v) ^ row for v, row in enumerate(G.adj)))):
            form = canonical_form_bits(H.adj)
            for _ in range(20):
                perm = list(range(H.n))
                rng.shuffle(perm)
                assert canonical_form_bits(H.relabel(perm).adj) == form

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


def reference_refine(adj, cells):
    """Equitable refinement that recounts every vertex into every cell in
    each round; the oracle for the active-cell refinement of _refine."""
    while True:
        changed = False
        new_cells = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            groups = {}
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


def reference_form(adj, order):
    """The upper triangle of the graph relabeled by order, packed pair by
    pair in row-major order; the oracle for the search's row packing."""
    bits = 0
    for i, j in combinations(range(len(order)), 2):
        bits = bits << 1 | adj[order[i]] >> order[j] & 1
    return bits


class ReferenceCanonizer:
    """The search with orbit pruning that rebuilds the union-find of the
    automorphisms fixing the prefix for every vertex it tries, over the
    full-recount refinement; the oracle for _Canonizer, which must visit the
    same tree.  Pruned, it starts from the twin transpositions and, at a leaf
    equal to the best one, goes back to their last common ancestor, as
    _Canonizer does; unpruned, it does neither."""

    def __init__(self, adj, pruned=True):
        self.adj = adj
        self.n = len(adj)
        self.pruned = pruned
        self.best = None
        self.best_order = None
        self.best_path = None
        self.autos = _twin_autos(adj) if pruned else []

    def run(self):
        if self.n:
            self._search(reference_refine(self.adj, [(1 << self.n) - 1]), [])
        else:
            self.best, self.best_order = 0, []
        return self.best, self.best_order, self.autos

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
        """Search below the node with individualized vertices prefix (a
        list); return the depth to go back to, or None."""
        target = next((k for k, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            order = [c.bit_length() - 1 for c in cells]
            form = reference_form(self.adj, order)
            if self.best is None or form < self.best:
                self.best, self.best_order, self.best_path = form, order, prefix
            elif form == self.best:
                g = [0] * self.n
                for k in range(self.n):
                    g[order[k]] = self.best_order[k]
                self.autos.append(tuple(g))
                if self.pruned:
                    return next(d for d, (a, b) in enumerate(zip(prefix, self.best_path)) if a != b)
            return None
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
            back = self._search(reference_refine(self.adj, child), prefix + [u])
            if back is not None and back < len(prefix):
                return back
        return None


def assert_matches_reference(adj):
    canonizer = _Canonizer(adj)
    form = canonizer.run()
    assert form == canonical_form_bits(adj)
    assert (form, canonizer.best_order, canonizer.autos) == ReferenceCanonizer(adj).run()


def _disjoint_triangles(k):
    return Graph.from_edges(
        3 * k, [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (1, 2), (0, 2))]
    )


def _cycle_union(*lengths):
    # 2-regular, so refinement leaves one cell that holds several orbits
    edges, off = [], 0
    for m in lengths:
        edges += [(off + i, off + (i + 1) % m) for i in range(m)]
        off += m
    return Graph.from_edges(off, edges)


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
    **{
        "+".join(f"C{m}" for m in lengths): _cycle_union(*lengths)
        for lengths in ((3, 4), (3, 5), (4, 5), (3, 3, 4), (3, 4, 4), (3, 4, 5))
    },
    "petersen": _petersen(),
}


class TestAgainstReference:
    """(bits, order, autos) equal the pruned reference's.

    _Canonizer also drops each subtree whose fixed prefix exceeds the best
    leaf's; the reference does not.  Every leaf there is greater than the
    best, which no leaf of the subtree lowers, so walking it sets no best,
    finds no automorphism and jumps back nowhere, and both searches end in
    the same state.
    """

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
            assert_matches_reference(delete_vertex(switch(G, neighbours(G, v)), v).adj)


@st.composite
def graphs_of_any_density(draw, max_n):
    """Random graphs whose edge density is 1/2, 1/4 or 1/8, or one minus it,
    so that refinement meets cells of every size."""
    n = draw(st.integers(1, max_n))
    m = n * (n - 1) // 2
    bits = (1 << m) - 1
    for _ in range(draw(st.integers(1, 3))):
        bits &= draw(st.integers(0, (1 << m) - 1))
    if draw(st.booleans()):
        bits ^= (1 << m) - 1
    return Graph.from_triangle_bits(n, bits)


@settings(max_examples=150, deadline=None)
@given(graphs_of_any_density(max_n=12))
def test_incremental_refine_after_individualizing(G):
    # at the root all cells are active; after individualizing u only {u} is
    full = (1 << G.n) - 1
    root = _refine(G.adj, [full])
    assert root == reference_refine(G.adj, [full])
    target = next((k for k, c in enumerate(root) if c & (c - 1)), None)
    if target is None:
        return
    cell = root[target]
    for u in range(G.n):
        if cell >> u & 1:
            child = root[:target] + [1 << u, cell ^ 1 << u] + root[target + 1 :]
            assert _refine(G.adj, child, [1 << u]) == reference_refine(G.adj, child)


def _recorded_nodes(monkeypatch):
    """A list that collects the partition of every node the searches visit
    from now on."""
    nodes = []
    search = _Canonizer._search

    def recording(self, cells, *args):
        nodes.append(cells)
        return search(self, cells, *args)

    monkeypatch.setattr(_Canonizer, "_search", recording)
    return nodes


def _leaf_count(nodes):
    """The number of discrete partitions among nodes."""
    return sum(all(c & (c - 1) == 0 for c in cells) for cells in nodes)


@pytest.mark.parametrize("family", [Graph.complete, Graph.empty])
def test_twin_transpositions_leave_one_leaf(monkeypatch, family):
    # every vertex of K_n or its complement is a twin of every other, so the
    # seeds prune every branch but the first
    nodes = _recorded_nodes(monkeypatch)
    for n in range(8, 21):
        nodes.clear()
        canonical_form_bits(family(n).adj)
        assert _leaf_count(nodes) == 1, n


def _leaf_orders(adj, cells):
    """The orders of every leaf below the node with partition cells, with
    no pruning."""
    target = next((k for k, c in enumerate(cells) if c & (c - 1)), None)
    if target is None:
        yield [c.bit_length() - 1 for c in cells]
        return
    cell = cells[target]
    v = cell
    while v:
        low = v & (-v)
        v ^= low
        child = cells[:target] + [low, cell ^ low] + cells[target + 1 :]
        yield from _leaf_orders(adj, reference_refine(adj, child))


@pytest.mark.parametrize("seed", range(4))
def test_leading_rows_are_the_top_bits_of_every_leaf_below(monkeypatch, seed):
    # the prune and the leaf both read a node's form off the rows of its
    # leading singletons, packed as one run of bits per later cell
    nodes = _recorded_nodes(monkeypatch)
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 12)
        m = n * (n - 1) // 2
        bits = rng.getrandbits(m)
        for _ in range(rng.randint(0, 2)):  # density 1/2, 1/4 or 1/8
            bits &= rng.getrandbits(m)
        adj = Graph.from_triangle_bits(n, bits).adj
        nodes.clear()
        canonical_form_bits(adj)
        for cells in nodes:
            k = next((k for k, c in enumerate(cells) if c & (c - 1)), n)
            head = _pack_rows(adj, cells, 0, 0, k)
            tail = (n - k) * (n - k - 1) // 2
            for order in _leaf_orders(adj, cells):
                assert reference_form(adj, order) >> tail == head


def least_form_key(G, form):
    """The key of the least form(H_v) over the distinct H_v, each built
    through validated Graphs."""
    graphs = {delete_vertex(switch(G, neighbours(G, v)), v).adj for v in range(G.n)}
    least = min(map(form, graphs), default=0)
    return SwitchingClassKey(G.n, pack_bits(least, G.n * (G.n - 1) // 2))


def separate_key(G):
    """canonical_key with each H_v canonized in a search of its own."""
    return least_form_key(G, canonical_form_bits)


def _high_representatives():
    return [phi_graph(subset) for n in range(20, 29) for subset in class_transversal(n)]


def _count_calls(monkeypatch, module, name, graphs):
    """The number of calls canonical_key makes to module.name over graphs."""
    calls = 0
    inner = getattr(module, name)

    def counting(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(module, name, counting)
    for G in graphs:
        canonical_key(G)
    return calls


class TestBoundedKey:
    """canonical_key, one search whose root chooses v, whose least leaf
    bounds every later branch and whose automorphisms prune the branches in
    the orbit of a searched v, equals the key of a search of every H_v."""

    def test_high_orbit_representatives(self):
        graphs = _high_representatives()
        assert len(graphs) == 62
        for G in graphs:
            assert canonical_key(G) == separate_key(G)

    @pytest.mark.parametrize("n", range(20))
    def test_orbit_representatives(self, n):
        for subset in class_transversal(n):
            G = phi_graph(subset)
            assert canonical_key(G) == separate_key(G)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_and_their_twins(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            n = rng.randint(1, 14)
            m = n * (n - 1) // 2
            bits = rng.getrandbits(m)
            for _ in range(rng.randint(0, 2)):  # density 1/2, 1/4 or 1/8
                bits &= rng.getrandbits(m)
            G = Graph.from_triangle_bits(n, bits)
            key = separate_key(G)
            assert canonical_key(G) == key
            assert canonical_key(_switched_relabelled(G, rng)) == key

    @pytest.mark.parametrize(
        "G", [Graph.complete(28), Graph.complete_minus_matching(21, 7)], ids=["K28", "K28-7K2"]
    )
    def test_family_graphs_and_their_twins(self, G):
        key = separate_key(G)
        assert canonical_key(G) == key
        twin = _switched_relabelled(G, random.Random(28))
        assert canonical_key(twin) == key
        assert separate_key(twin) == key

    def test_leaf_count(self, monkeypatch):
        # 436 leaves when this guard was set; 535 with a search per H_v,
        # 1,079 with every H_v searched, 5,254 with every H_v searched from
        # nothing
        graphs = _high_representatives()
        nodes = _recorded_nodes(monkeypatch)
        for G in graphs:
            canonical_key(G)
        assert _leaf_count(nodes) <= 480

    def test_search_count(self, monkeypatch):
        # 374 root children (choices of v), each switched by the shared row
        # kernel, searched when this guard was set, 1,334 before the orbit
        # pruning reached them
        assert _count_calls(monkeypatch, canon, "_switch_rows", _high_representatives()) <= 400

    def test_automorphisms_preserve_the_two_graph(self):
        # the search's automorphisms at the root are relabelings that keep
        # the set of triples with an odd number of edges
        rng = random.Random(5)
        graphs = _high_representatives()[::7] + [
            _switched_relabelled(Graph.complete_minus_matching(n - 3, 3), rng) for n in (9, 12)
        ]
        found = 0
        for G in graphs:
            canonizer = _Canonizer(G.adj, switching=True)
            canonizer.run()
            odd = {t for t in combinations(range(G.n), 3) if _odd_triple(G, t)}
            for g in canonizer.autos:
                assert {tuple(sorted(g[x] for x in t)) for t in odd} == odd
            found += len(canonizer.autos) - len(_twin_autos(G.adj))
        assert found > 0


def _odd_triple(G, t):
    a, b, c = t
    return (G.adj[a] >> b ^ G.adj[a] >> c ^ G.adj[b] >> c) & 1


def reference_key(G):
    """canonical_key with each H_v searched by the unpruned reference."""
    return least_form_key(G, lambda adj: ReferenceCanonizer(adj, pruned=False).run()[0])


def _switched_relabelled(G, rng):
    perm = list(range(G.n))
    rng.shuffle(perm)
    return switch(G, {v for v in range(G.n) if rng.random() < 0.5}).relabel(perm)


class TestKeyAgainstReference:
    """canonical_key bytes equal those of the unpruned reference search."""

    @pytest.mark.parametrize("n", range(8, 17))
    def test_family_graphs_and_their_twins(self, n):
        rng = random.Random(n)
        for G in (Graph.complete(n), Graph.complete_minus_matching(n - n // 4, n // 4)):
            twin = _switched_relabelled(G, rng)
            key = reference_key(G)
            assert canonical_key(G) == key
            assert canonical_key(twin) == key
            assert reference_key(twin) == key

    @pytest.mark.parametrize("n", [6, 14, 21])
    def test_orbit_representatives(self, n):
        for subset in class_transversal(n):
            G = phi_graph(subset)
            assert canonical_key(G) == reference_key(G)
