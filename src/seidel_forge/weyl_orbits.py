"""Weyl groups as permutation groups on their root sets, and orbit counting.

PermGroup carries a deterministic base/strong-generating-set chain
(Schreier-Sims): levels hold a base point, the strong generators whose first
moved base point is that level, and the orbit transversal of the base point
under the generators stored at this level and deeper.  Composition acts left:
(p * q)(x) = p(q(x)).

Subset-orbit counting uses the Cauchy-Frobenius (Burnside) lemma with one
generating-function term per cycle type.  The cycle types are counted by a
depth-first walk of the transversal chain that is reduced by conjugation at
every node: a node at level i with prefix p stands for the coset p G_i (G_j
generated by the strong generators of levels >= j), and any chain subgroup
G_j, j > i, that fixes every p(b_l), l < i, conjugates that coset onto
itself and permutes its children, so one child per orbit is walked,
weighted by the orbit size (the base and strong generating set argument of
Seress, Permutation Group Algorithms, 2003, ch. 4-5).  On the 28-point
image of the E_8 root stabilizer, on the base that enumeration.e8_context
takes from the two-graph, it reaches 526 leaves for 1,451,520 elements.

subset_orbit_transversal, a lexicographic scan that closes each orbit under
a few seeded generators, is the reference the pipeline's orderly ladder
(enumeration) is tested against.
"""
from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb

from .root_lattices import LatticeSpec, reflect, roots, simple_roots

__all__ = [
    "PermGroup",
    "weyl_group_on_roots",
    "stabilizer_of_root",
    "induced_action_on_classes",
    "burnside_subset_counts",
    "subset_orbit_transversal",
]

_SCAN_CAP = 3_300_000  # most masks an orbit scan will walk, e.g. binomial(m, n)
_MAX_ORDER = 10_000_000  # largest group order burnside_subset_counts accepts
_BITMAP_BITS = 28  # widest mask an orbit scan keeps a visited bitmap for (32 MiB)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p * q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    out.sort()
    return tuple(out)


class _Level:
    __slots__ = ("point", "gens", "transversal", "inverses")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.transversal: dict[int, tuple[int, ...]] = {}
        self.inverses: dict[int, tuple[int, ...]] = {}


class PermGroup:
    """Permutation group with a deterministic Schreier-Sims chain.

    base_prefix, distinct points in 0..degree-1, leads the base.
    """

    def __init__(self, degree: int, generators, base_prefix=()):
        self.degree = degree
        gens = []
        seen = set()
        identity = tuple(range(degree))
        for g in generators:
            t = tuple(g)
            if len(t) != degree or sorted(t) != list(range(degree)):
                raise ValueError("generator is not a permutation of the degree")
            if t != identity and t not in seen:
                seen.add(t)
                gens.append(t)
        self._raw_gens = gens
        base_prefix = tuple(base_prefix)
        if len(set(base_prefix)) != len(base_prefix) or not all(
            0 <= p < degree for p in base_prefix
        ):
            raise ValueError("base_prefix points must be distinct and in 0..degree-1")
        self._levels: list[_Level] = [_Level(p) for p in base_prefix]
        self._build()

    # -- construction ---------------------------------------------------

    def _strong_gens_at(self, i: int) -> list[tuple[int, ...]]:
        return [g for lvl in self._levels[i:] for g in lvl.gens]

    def _recompute_transversal(self, i: int) -> None:
        lvl = self._levels[i]
        gens = self._strong_gens_at(i)
        identity = tuple(range(self.degree))
        lvl.transversal = {lvl.point: identity}
        lvl.inverses = {lvl.point: identity}
        queue = [lvl.point]
        while queue:
            x = queue.pop()
            ux = lvl.transversal[x]
            for s in gens:
                y = s[x]
                if y not in lvl.transversal:
                    u = _compose(s, ux)
                    lvl.transversal[y] = u
                    lvl.inverses[y] = _inverse(u)
                    queue.append(y)

    def _sift(self, g: tuple[int, ...], start: int) -> tuple[int, ...]:
        """Strip g through levels >= start; returns the residue."""
        for i in range(start, len(self._levels)):
            lvl = self._levels[i]
            x = g[lvl.point]
            if x == lvl.point:
                continue
            u_inv = lvl.inverses.get(x)
            if u_inv is None:
                return g
            g = _compose(u_inv, g)
        return g

    def _store(self, g: tuple[int, ...]) -> int:
        """Store a non-identity residue at its level, extending the base."""
        j = 0
        while j < len(self._levels) and g[self._levels[j].point] == self._levels[j].point:
            j += 1
        if j == len(self._levels):
            moved = next(x for x in range(self.degree) if g[x] != x)
            self._levels.append(_Level(moved))
        self._levels[j].gens.append(g)
        for i in range(j + 1):
            self._recompute_transversal(i)
        return j

    def _build(self) -> None:
        identity = tuple(range(self.degree))
        for i in range(len(self._levels)):
            self._recompute_transversal(i)
        for g in self._raw_gens:
            residue = self._sift(g, 0)
            if residue != identity:
                self._store(residue)
        i = len(self._levels) - 1
        while i >= 0:
            stored_at = self._verify_level(i)
            i = stored_at if stored_at is not None else i - 1

    def _verify_level(self, i: int) -> int | None:
        """Check all Schreier generators of level i strip to identity.

        On failure the residue is stored (at a strictly deeper level) and
        that level index is returned so verification resumes there.
        """
        self._recompute_transversal(i)
        lvl = self._levels[i]
        identity = tuple(range(self.degree))
        gens = self._strong_gens_at(i)
        for x, ux in list(lvl.transversal.items()):
            for s in gens:
                g = _compose(s, ux)
                schreier = _compose(lvl.inverses[g[lvl.point]], g)
                if schreier == identity:
                    continue
                residue = self._sift(schreier, i + 1)
                if residue != identity:
                    return self._store(residue)
        return None

    # -- queries --------------------------------------------------------

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._raw_gens)

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self._levels)

    def order(self) -> int:
        n = 1
        for lvl in self._levels:
            n *= len(lvl.transversal)
        return n

    def cycle_type_counts(self) -> Counter:
        """Multiset of cycle types over all group elements.

        A node of the walk at level i holds a prefix p = u_0 ... u_{i-1} of
        transversal elements and stands for the coset p G_i, where G_j is
        generated by the strong generators of levels >= j.  Let K = G_j,
        j >= i + 1, be the largest chain subgroup that fixes every p(b_l),
        l < i.  Conjugation by K maps p G_i onto itself, keeps cycle types,
        and sends the child p u_z G_{i+1} (the elements taking b_i to p(z))
        to the child taking b_i to k(p(z)).  So one child per K-orbit on the
        points p(z) is walked, weighted by the orbit size; the member taken
        is the one fixed by the largest chain subgroup, so that the
        reduction keeps working below it.  K depends on j alone, so each
        chain subgroup's orbits are found once.  Where K is trivial every
        orbit is one point and the subtree is walked in full.
        """
        levels = self._levels
        depth = len(levels)
        # fixed_from[x]: the least j such that G_j fixes x
        fixed_from = [0] * self.degree
        for j, lvl in enumerate(levels):
            for g in lvl.gens:
                for x, y in enumerate(g):
                    if x != y:
                        fixed_from[x] = j + 1
        # orbit_of[j][x], j >= 1: the member of x's G_j-orbit that walk takes,
        # and the orbit size (walk never reads j = 0)
        orbit_of: list = [None]
        for j in range(1, depth + 1):
            gens = self._strong_gens_at(j)
            of: list = [None] * self.degree
            for x in range(self.degree):
                if of[x] is not None:
                    continue
                orbit = {x}
                queue = [x]
                while queue:
                    y = queue.pop()
                    for s in gens:
                        z = s[y]
                        if z not in orbit:
                            orbit.add(z)
                            queue.append(z)
                best = min(orbit, key=lambda y: (fixed_from[y], y))
                for y in orbit:
                    of[y] = (best, len(orbit))
            orbit_of.append(of)
        counts: Counter = Counter()

        def walk(i: int, p: tuple[int, ...], weight: int, fixing: int) -> None:
            # fixing: the least j such that G_j fixes every p(b_l), l < i
            if i == depth:
                counts[_cycle_type(p)] += weight
                return
            of = orbit_of[max(fixing, i + 1)]
            for z, u in levels[i].transversal.items():
                y = p[z]
                best, size = of[y]
                if y == best:
                    walk(i + 1, _compose(p, u), weight * size, max(fixing, fixed_from[y]))

        walk(0, tuple(range(self.degree)), 1, 0)
        return counts

    @classmethod
    def _from_chain(cls, degree, levels) -> "PermGroup":
        g = cls.__new__(cls)
        g.degree = degree
        g._levels = levels
        g._raw_gens = [gen for lvl in levels for gen in lvl.gens]
        return g


@lru_cache(maxsize=None)
def weyl_group_on_roots(spec: LatticeSpec, base_prefix: tuple[int, ...] = ()) -> PermGroup:
    """W(L) as permutations of the ordered root list, generated by the simple
    reflections s_v, v in simple_roots(roots(spec))."""
    rts = roots(spec)
    index = {v.coords2: i for i, v in enumerate(rts)}
    gens = [tuple(index[reflect(v, x).coords2] for x in rts) for v in simple_roots(rts)]
    return PermGroup(len(rts), gens, base_prefix=base_prefix)


def stabilizer_of_root(W: PermGroup, r_index: int) -> PermGroup:
    """Point stabilizer W_r: the chain below the first base point, which must
    be r (build W with base_prefix=(r_index,))."""
    if W.base[:1] != (r_index,):
        raise ValueError("the base of W must start at r_index")
    return PermGroup._from_chain(W.degree, W._levels[1:])


def induced_action_on_classes(Wr: PermGroup, rts, classes) -> PermGroup:
    """The degree-|classes| action of the stabilizer on the pair-classes.

    Wr permutes the root list rts.  A generator g sends class index i (with
    member u) to the index of the class containing g(u); the stabilizer
    preserves N_r so this is total.
    """
    point_of = {v.coords2: i for i, v in enumerate(rts)}
    class_of_point: dict[int, int] = {}
    for ci, cl in enumerate(classes):
        for member in cl.members():
            class_of_point[point_of[member.coords2]] = ci
    member_points = [point_of[cl.u.coords2] for cl in classes]
    gens = []
    for g in Wr.generators:
        img = []
        for pt in member_points:
            target = g[pt]
            if target not in class_of_point:
                raise RuntimeError(
                    "stabilizer generator does not preserve the pair-class set"
                )
            img.append(class_of_point[target])
        gens.append(img)
    return PermGroup(len(classes), gens)


def burnside_subset_counts(G: PermGroup) -> tuple[int, ...]:
    """Orbit counts c(n) of n-subsets for n = 0..degree, by the
    Cauchy-Frobenius lemma.

    c(n) = (1/|G|) sum_g [x^n] prod_{cycles of g with length l} (1 + x^l),
    summed once per cycle type with the multiplicities of cycle_type_counts.
    """
    order = G.order()
    if order > _MAX_ORDER:
        raise ValueError(
            f"group order {order} exceeds the Burnside order cap {_MAX_ORDER}"
        )
    m = G.degree
    totals = [0] * (m + 1)
    ctypes = G.cycle_type_counts()
    if sum(ctypes.values()) != order:
        raise RuntimeError(
            f"cycle-type counts sum to {sum(ctypes.values())}, not the group order {order}"
        )
    for ctype, mult in ctypes.items():
        poly = [1]
        for length in ctype:
            new = poly + [0] * length
            for k, c in enumerate(poly):
                new[k + length] += c
            poly = new
        for k, c in enumerate(poly):
            totals[k] += mult * c
    counts = []
    for k in range(m + 1):
        q, rem = divmod(totals[k], order)
        if rem:
            raise RuntimeError(f"Burnside sum for n = {k} is not divisible by the group order")
        counts.append(q)
    return tuple(counts)


def _reduced_generators(G: PermGroup) -> list[tuple[int, ...]]:
    """A few elements that generate G, drawn with a fixed seed.

    Each draw composes one random transversal element per chain level, a
    uniform element of G; it is kept only when it enlarges the generated
    order, and drawing stops once that order is |G|.
    """
    full = G.order()
    rng = random.Random(0)
    levels = [[lvl.transversal[x] for x in sorted(lvl.transversal)] for lvl in G._levels]
    selected: list[tuple[int, ...]] = []
    current = 1
    while current < full:
        g = tuple(range(G.degree))
        for transversal in levels:
            g = _compose(g, rng.choice(transversal))
        order = PermGroup(G.degree, selected + [g]).order()
        if order > current:
            selected.append(g)
            current = order
    return selected


def _chunk_tables(images, m: int) -> tuple[int, list[int], list[int]]:
    """Tables that apply the linear map bit k -> images[k] (over GF(2)) to an
    m-bit mask: the image is low[mask & (1 << split) - 1] ^ high[mask >> split]."""
    split = m // 2
    low = [0] * (1 << split)
    for val in range(1, 1 << split):
        lsb = val & (-val)
        low[val] = low[val ^ lsb] ^ images[lsb.bit_length() - 1]
    high = [0] * (1 << (m - split))
    for val in range(1, 1 << (m - split)):
        lsb = val & (-val)
        high[val] = high[val ^ lsb] ^ images[split + lsb.bit_length() - 1]
    return split, low, high


def _check_bitmap(bits: int) -> None:
    if bits > _BITMAP_BITS:
        raise ValueError(
            f"a visited bitmap of 2^{bits} bits exceeds the cap of 2^{_BITMAP_BITS}"
        )


def _orbit_minima(candidates, bits: int, maps, total: int) -> list[int]:
    """The first candidate met in each orbit on a set of bits-bit masks.

    The group is generated by invertible GF(2)-linear maps on the masks,
    each given by the images of the single bits (a bit permutation g by
    1 << g[k]).  candidates run through the whole set in scan order; each
    candidate not yet visited opens an orbit, which is closed by depth-first
    search over a visited bitmap.  The scan stops once total masks, the size
    of the set, are visited: every orbit is then closed.  ValueError, before
    any table or bitmap is built, when the bitmap would exceed
    2^_BITMAP_BITS bits or the set _SCAN_CAP masks.
    """
    _check_bitmap(bits)
    if total > _SCAN_CAP:
        raise ValueError(f"a visited bitmap of {total} masks exceeds the scan cap of {_SCAN_CAP}")
    tables = [_chunk_tables(images, bits) for images in maps]
    visited = bytearray((1 << bits) + 7 >> 3)
    out: list[int] = []
    seen = 0
    for start in candidates:
        if visited[start >> 3] >> (start & 7) & 1:
            continue
        out.append(start)
        visited[start >> 3] |= 1 << (start & 7)
        seen += 1
        stack = [start]
        while stack:
            cur = stack.pop()
            for split, low, high in tables:
                nxt = low[cur & (1 << split) - 1] ^ high[cur >> split]
                if not visited[nxt >> 3] >> (nxt & 7) & 1:
                    visited[nxt >> 3] |= 1 << (nxt & 7)
                    seen += 1
                    stack.append(nxt)
        if seen == total:
            break
    return out


def subset_orbit_transversal(G: PermGroup, n: int) -> list[tuple[int, ...]]:
    """Lexicographically least representative of every orbit of n-subsets.

    Scans the n-subsets in lexicographic order and closes each new orbit
    under the seeded generators of _reduced_generators, so the first subset
    met in an orbit is its least member; stops once every subset is visited.
    ValueError past the scan cap (use the complementary size) or bitmap cap.
    """
    m = G.degree
    if not 0 <= n <= m:
        raise ValueError("subset size out of range")
    if comb(m, n) > _SCAN_CAP:
        raise ValueError(
            f"binomial({m}, {n}) = {comb(m, n)} exceeds the scan cap; "
            f"enumerate size {m - n} instead (orbits correspond under complement)"
        )
    if n == 0:
        return [()]
    _check_bitmap(m)
    candidates = map(sum, combinations([1 << v for v in range(m)], n))
    maps = [[1 << x for x in g] for g in _reduced_generators(G)]
    minima = _orbit_minima(candidates, m, maps, comb(m, n))
    return [tuple(v for v in range(m) if mask >> v & 1) for mask in minima]
