"""Canonical labeling of small graphs (n <= 32) for isomorphism tests.

Individualization-refinement backtracking: equitable refinement of ordered
partitions, branching on the first non-singleton cell, with orbit pruning
from automorphisms.  The canonical form is the lexicographically least
packed upper triangle over all leaves of the (isomorphism-invariant) search
tree, so two graphs are isomorphic iff their canonical forms coincide.

Refinement counts neighbours only into the active cells.  A cell of the
previous round has constant counts into every cell that round did not
split, so only the cells it split are active; and since the counts into the
children of one split cell sum to the count into the cell, the last child
stays inactive too.  Dropping columns that are constant within a cell changes
neither how it splits nor the order of its pieces, so the result is the
partition that counting into every cell gives.  After individualizing u the
only active cell is {u}.

Orbit pruning keeps, per search node, orbit[v] as the bitmask of v's orbit
under the known automorphisms that fix the node's individualized vertices
(tested against each automorphism's stored fixed points), and skips a vertex
whose orbit meets the bitmask of those already tried.  Before each test the
node absorbs only the automorphisms found since its last one, merging the
orbits along their stored moved pairs.  The search starts from the
transpositions of consecutive members of each twin class (vertices with
equal neighbourhoods, open or closed).  A leaf equal to the best one gives
an automorphism that fixes their paths down to the last node they share and
maps the branch below it that holds the leaf onto the one that holds the
best leaf, so the search goes straight back to that node (nauty jumps back
the same way from a leaf equal to the first one).  Every automorphism used
prunes only subtrees that are images of subtrees searched already, so the
least form is the one the full tree gives.

A search prunes by the fixed prefix of the leaf forms below a node.  The
partition there is equitable, so each of its k leading singletons is
adjacent to all or none of every later cell, and rows 0..k-1 of every leaf
below are already known: the top k(2n - k - 1)/2 bits of its form.  A leaf
is the node whose partition is discrete, so these rows are its whole form.
Every node, a leaf included, packs the rows its parent did not and compares
them with the same bits of the least leaf found so far.  When they are
greater, no leaf below can become best or give an automorphism, so the
subtree is dropped; the search finds the same leaves <= best and the same
automorphisms as with no pruning.

A switching-class search (canonical_form_bits with switching) adds one
level at the root, which chooses a vertex v: its child is G switched by N(v)
(by _switch_rows, which switches by any vertex set), which isolates v, and
every leaf below is a leaf of that graph.  The child's partition [{v}, rest]
is refined like any other child's, except that its first active cell is the
rest, since no vertex has a neighbour in {v}.  Every leaf form below leads
with v's row of zeros, so the least leaf is the least canonical form over
the graphs in G's switching class that have an isolated vertex.
Everything above applies unchanged once an automorphism means a relabeling
that maps G into its own switching class (an automorphism of its
two-graph): one that fixes v maps the only graph there that isolates v
onto itself.  So G's twin transpositions qualify, and
two equal leaves below v and w give one that sends w to v: the search goes
back to the root, and prunes every later root child in the orbit of one
searched already.

Adjacency is handled as per-vertex bitmasks throughout.
"""
from __future__ import annotations

__all__ = ["canonical_form_bits", "pack_bits"]


def pack_bits(bits: int, nbits: int) -> bytes:
    """Big-endian byte packing: bit 0 of the sequence is the MSB of byte 0."""
    nbytes = (nbits + 7) // 8
    return (bits << (8 * nbytes - nbits)).to_bytes(nbytes, "big") if nbytes else b""


def _refine(
    adj: tuple[int, ...], cells: list[int], active: list[int] | None = None
) -> list[int]:
    """Equitable refinement of an ordered partition (cells as bitmasks).

    Repeatedly splits every non-singleton cell by the vector of neighbour
    counts into the active cells (by default, at first, all of them),
    ordering sub-cells by count profile.  The procedure is
    isomorphism-equivariant: it depends only on the partition structure,
    never on vertex labels.
    """
    if active is None:
        active = cells
    while active:
        new_cells: list[int] = []
        new_active: list[int] = []
        single = active[0] if len(active) == 1 else 0
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            # with one active cell, as after individualizing, the count
            # itself is the signature
            groups: dict[int | tuple[int, ...], int] = {}
            v = cell
            while v:
                low = v & (-v)
                row = adj[low.bit_length() - 1]
                v ^= low
                if single:
                    sig = (row & single).bit_count()
                else:
                    sig = tuple((row & other).bit_count() for other in active)
                groups[sig] = groups.get(sig, 0) | low
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            pieces = [groups[sig] for sig in sorted(groups)]
            new_cells += pieces
            new_active += pieces[:-1]
        cells, active = new_cells, new_active
    return cells


def _pack_rows(adj: tuple[int, ...], cells: list[int], rows: int, head: int, stop: int) -> int:
    """head followed by the rows of the singleton cells rows..stop-1.

    Each such vertex is adjacent to all or none of every later cell, so its
    row is one run of equal bits per later cell; the bit for pair (i, j),
    i < j, sits at descending significance in row-major order.
    """
    for k in range(rows, stop):
        row = adj[cells[k].bit_length() - 1]
        for later in cells[k + 1 :]:
            size = later.bit_count()
            head = head << size | ((1 << size) - 1 if row & later else 0)
    return head


def _twin_autos(adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Transpositions of consecutive members of each twin class: false twins
    share adj[u], true twins share adj[u] | 1 << u."""
    n = len(adj)
    false_twins: dict[int, list[int]] = {}
    true_twins: dict[int, list[int]] = {}
    for v, row in enumerate(adj):
        false_twins.setdefault(row, []).append(v)
        true_twins.setdefault(row | 1 << v, []).append(v)
    autos = []
    for members in (*false_twins.values(), *true_twins.values()):
        for a, b in zip(members, members[1:]):
            g = list(range(n))
            g[a], g[b] = b, a
            autos.append(tuple(g))
    return autos


def _merge_orbits(orbit: list[int], pairs) -> None:
    """Join the orbits of the two points of each pair; orbit[w] is the
    bitmask of w's orbit."""
    for a, b in pairs:
        if not orbit[a] >> b & 1:
            merged = orbit[a] | orbit[b]
            m = merged
            while m:
                bit = m & (-m)
                orbit[bit.bit_length() - 1] = merged
                m ^= bit


class _Canonizer:
    def __init__(self, adj: tuple[int, ...], switching: bool = False):
        # with switching, the root chooses v and the graph below it is
        # adj switched to isolate v: self.adj is the graph searched now
        self.graph = adj
        self.adj = adj
        self.n = len(adj)
        self.switching = switching
        self.best: int | None = None
        self.best_order: list[int] | None = None
        # the individualized vertices (as bits) from the root to the current
        # node, and to the leaf that gave best
        self.path: list[int] = []
        self.best_path: list[int] = []
        self.autos: list[tuple[int, ...]] = []
        # fixed[i] is the bitmask of the points that autos[i] fixes, moved[i]
        # the pairs (w, autos[i][w]) of the points it moves
        self.fixed: list[int] = []
        self.moved: list[list[tuple[int, int]]] = []
        for g in _twin_autos(adj):
            self._add_auto(g)

    def _add_auto(self, g: tuple[int, ...]) -> None:
        self.autos.append(g)
        self.fixed.append(sum(1 << w for w in range(self.n) if g[w] == w))
        self.moved.append([(w, x) for w, x in enumerate(g) if x != w])

    def run(self) -> int:
        """The least leaf form."""
        cells = [(1 << self.n) - 1] if self.n else []
        self._search(cells if self.switching else _refine(self.adj, cells), 0, 0, 0)
        assert self.best is not None
        return self.best

    def _search(self, cells: list[int], prefix: int, rows: int, head: int) -> int:
        """Search below the node whose individualized vertices are the bits
        of prefix, where every leaf form below starts with the rows rows
        packed in head; return the depth of the ancestor where the search
        goes on (n when it goes on at the parent)."""
        # at a leaf (a discrete partition) target is n and head its whole form
        target = next((k for k, c in enumerate(cells) if c & (c - 1)), self.n)
        head = _pack_rows(self.adj, cells, rows, head, target)
        if self.best is not None:
            tail = (self.n - target) * (self.n - target - 1) // 2
            if head > self.best >> tail:
                return self.n
        if target == self.n:
            order = [c.bit_length() - 1 for c in cells]
            if self.best is None or head < self.best:
                self.best = head
                self.best_order = order
                self.best_path = self.path[:]
                return self.n
            assert self.best_order is not None
            # equal leaves witness an automorphism: send the vertex with
            # label k in this leaf to the one with label k in the best leaf
            g = [0] * self.n
            for k in range(self.n):
                g[order[k]] = self.best_order[k]
            self._add_auto(tuple(g))
            # it fixes the path down to the last node shared with the best
            # leaf and maps this branch there onto the best leaf's branch,
            # searched already: go on at that node
            depth = 0
            while self.path[depth] == self.best_path[depth]:
                depth += 1
            return depth
        cell = cells[target]
        # orbit bitmasks of the known automorphisms that fix prefix; autos
        # before index absorbed are already in them
        orbit: list[int] = []
        absorbed = 0
        tried = 0
        v = cell
        while v:
            low = v & (-v)
            v ^= low
            if tried:
                if not orbit:
                    orbit = [1 << w for w in range(self.n)]
                for k in range(absorbed, len(self.autos)):
                    if self.fixed[k] & prefix == prefix:
                        _merge_orbits(orbit, self.moved[k])
                absorbed = len(self.autos)
                if orbit[low.bit_length() - 1] & tried:
                    continue
            tried |= low
            active = low
            if self.switching and not prefix:
                # the root chooses v: G switched by N(v), which isolates v,
                # so only the counts into the rest can split it
                self.adj = _switch_rows(self.graph, self.graph[low.bit_length() - 1])
                active = cell ^ low
            child = cells[:target] + [low, cell ^ low] + cells[target + 1 :]
            self.path.append(low)
            resume = self._search(_refine(self.adj, child, [active]), prefix | low, target, head)
            self.path.pop()
            if resume < len(self.path):
                return resume
        return self.n


def _switch_rows(adj: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The graph switched by the vertex set mask: each row flips across the
    cut, and never at its own bit, so no loop appears."""
    flip = ((1 << len(adj)) - 1) ^ mask
    return tuple(row ^ (flip if mask >> x & 1 else mask) for x, row in enumerate(adj))


def canonical_form_bits(adj: tuple[int, ...], switching: bool = False) -> int:
    """The canonical packed upper-triangle bits of the graph.  With
    switching, the least canonical form over the graphs in its switching
    class that have an isolated vertex, which leads with its row of zeros."""
    return _Canonizer(adj, switching).run()
