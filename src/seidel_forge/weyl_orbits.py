"""Weyl groups as permutation groups on their root sets, and orbit counting.

PermGroup carries a deterministic base/strong-generating-set chain
(Schreier-Sims): levels hold a base point, the strong generators whose first
moved base point is that level, and the orbit transversal of the base point
under the generators stored at this level and deeper.  Composition acts left:
(p * q)(x) = p(q(x)).

Subset-orbit counting uses the Cauchy-Frobenius (Burnside) lemma with one
generating-function term per cycle type, counted by depth-first traversal of
the transversal chain below one coset per orbit of the first base point's
stabilizer on the first basic orbit.  subset_orbit_transversal, a
lexicographic scan that closes each orbit under a few seeded generators, is
the reference the pipeline's orderly ladder (enumeration) is tested against.
"""
from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb

from .root_lattices import LatticeSpec, reflect, roots

__all__ = [
    "PermGroup",
    "weyl_group_on_roots",
    "stabilizer_of_root",
    "induced_action_on_classes",
    "burnside_subset_counts",
    "subset_orbit_transversal",
]

_SCAN_CAP = 3_300_000  # largest binomial(m, n) the transversal scan will walk
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
    seen = 0
    out = []
    for i in range(len(p)):
        if seen >> i & 1:
            continue
        length = 0
        j = i
        while not seen >> j & 1:
            seen |= 1 << j
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

    base_prefix, distinct points in 0..degree-1, leads the base.  labels,
    when present, name the points (e.g. the root vectors a Weyl group
    permutes).
    """

    def __init__(self, degree: int, generators, base_prefix=(), labels=None):
        self.degree = degree
        self.labels = tuple(labels) if labels is not None else None
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

    def _sift(self, g: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        """Strip g through levels >= start; returns (residue, stop_level)."""
        for i in range(start, len(self._levels)):
            lvl = self._levels[i]
            x = g[lvl.point]
            if x == lvl.point:
                continue
            u_inv = lvl.inverses.get(x)
            if u_inv is None:
                return g, i
            g = _compose(u_inv, g)
        return g, len(self._levels)

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
            residue, _ = self._sift(g, 0)
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
                residue, _ = self._sift(schreier, i + 1)
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

        Let H be the stabilizer of the first base point b.  Conjugation by
        h in H maps the coset {g : g(b) = x} onto {g : g(b) = h(x)} and keeps
        cycle types, so one coset per H-orbit on the first basic orbit is
        walked (DFS over the deeper transversals), weighted by the orbit size.
        """
        if not self._levels:
            return Counter({_cycle_type(tuple(range(self.degree))): 1})
        counts: Counter = Counter()
        first = self._levels[0].transversal
        levels = [
            [lvl.transversal[x] for x in sorted(lvl.transversal)] for lvl in self._levels[1:]
        ]

        def walk(i: int, p: tuple[int, ...], weight: int) -> None:
            if i == len(levels):
                counts[_cycle_type(p)] += weight
                return
            for u in levels[i]:
                walk(i + 1, _compose(p, u), weight)

        h_gens = self._strong_gens_at(1)
        seen: set[int] = set()
        for x in sorted(first):
            if x in seen:
                continue
            orbit = {x}
            queue = [x]
            while queue:
                y = queue.pop()
                for s in h_gens:
                    z = s[y]
                    if z not in orbit:
                        orbit.add(z)
                        queue.append(z)
            seen |= orbit
            walk(0, first[x], len(orbit))
        return counts

    @classmethod
    def _from_chain(cls, degree, levels, labels) -> "PermGroup":
        g = cls.__new__(cls)
        g.degree = degree
        g.labels = labels
        g._levels = levels
        g._raw_gens = [gen for lvl in levels for gen in lvl.gens]
        return g


@lru_cache(maxsize=None)
def weyl_group_on_roots(spec: LatticeSpec, base_prefix: tuple[int, ...] = ()) -> PermGroup:
    """W(L) as permutations of the ordered root list, generated by all
    reflections s_v over the roots v."""
    rts = roots(spec)
    index = {v.coords2: i for i, v in enumerate(rts)}
    gens = []
    done = set()
    for v in rts:
        if (-v).coords2 in done:  # s_v = s_{-v}
            continue
        done.add(v.coords2)
        gens.append(tuple(index[reflect(v, x).coords2] for x in rts))
    return PermGroup(len(rts), gens, base_prefix=base_prefix, labels=rts)


def stabilizer_of_root(W: PermGroup, r_index: int) -> PermGroup:
    """Point stabilizer W_r, by base change when the base does not lead with r."""
    if not 0 <= r_index < W.degree:
        raise ValueError("r_index out of range")
    if not (W.base and W.base[0] == r_index):
        W = PermGroup(
            W.degree,
            W.generators,
            base_prefix=(r_index,),
            labels=W.labels,
        )
    return PermGroup._from_chain(W.degree, W._levels[1:], W.labels)


def induced_action_on_classes(Wr: PermGroup, classes) -> PermGroup:
    """The degree-|classes| action of the stabilizer on the pair-classes.

    A generator g sends class index i (with member u) to the index of the
    class containing g(u); the stabilizer preserves N_r so this is total.
    """
    if Wr.labels is None:
        raise ValueError("stabilizer must carry root labels")
    point_of = {v.coords2: i for i, v in enumerate(Wr.labels)}
    class_of_point: dict[int, int] = {}
    for ci, cl in enumerate(classes):
        for member in cl.members():
            class_of_point[point_of[member.coords2]] = ci
    member_points = [point_of[cl.u.coords2] for cl in classes]
    gens = []
    seen = set()
    for g in Wr.generators:
        img = []
        for pt in member_points:
            target = g[pt]
            if target not in class_of_point:
                raise RuntimeError(
                    "stabilizer generator does not preserve the pair-class set"
                )
            img.append(class_of_point[target])
        t = tuple(img)
        if t not in seen:
            seen.add(t)
            gens.append(t)
    return PermGroup(len(classes), gens)


def burnside_subset_counts(G: PermGroup) -> tuple[int, ...]:
    """Orbit counts c(n) of n-subsets for n = 0..degree, by the
    Cauchy-Frobenius lemma.

    c(n) = (1/|G|) sum_g [x^n] prod_{cycles of g with length l} (1 + x^l);
    elements are enumerated once, aggregated by cycle type.
    """
    order = G.order()
    if order > _MAX_ORDER:
        raise ValueError(
            f"group order {order} exceeds the element-enumeration cap {_MAX_ORDER}"
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


def _chunk_tables(gen, m: int) -> tuple[int, list[int], list[int]]:
    """Tables that apply the bit permutation k -> gen[k] to an m-bit mask:
    the image is low[mask & (1 << split) - 1] | high[mask >> split]."""
    split = m // 2
    low_bits = [1 << gen[k] for k in range(split)]
    high_bits = [1 << gen[k + split] for k in range(m - split)]
    low = [0] * (1 << split)
    for val in range(1, 1 << split):
        lsb = val & (-val)
        low[val] = low[val ^ lsb] | low_bits[lsb.bit_length() - 1]
    high = [0] * (1 << (m - split))
    for val in range(1, 1 << (m - split)):
        lsb = val & (-val)
        high[val] = high[val ^ lsb] | high_bits[lsb.bit_length() - 1]
    return split, low, high


def _check_bitmap(bits: int) -> None:
    if bits > _BITMAP_BITS:
        raise ValueError(
            f"a visited bitmap of 2^{bits} bits exceeds the cap of 2^{_BITMAP_BITS}"
        )


def _orbit_minima(candidates, bits: int, perms, masks, total: int) -> list[int]:
    """The first candidate met in each orbit on a set of bits-bit masks.

    The group is generated by the bit permutations perms and the XOR masks.
    candidates run through the whole set in scan order; each candidate not
    yet visited opens an orbit, which is closed by depth-first search over a
    visited bitmap.  The scan stops once total masks, the size of the set,
    are visited: every orbit is then closed.  ValueError, before any table
    or bitmap is built, when the bitmap would exceed 2^_BITMAP_BITS bits.
    """
    _check_bitmap(bits)
    tables = [_chunk_tables(p, bits) for p in perms]
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
                nxt = low[cur & (1 << split) - 1] | high[cur >> split]
                if not visited[nxt >> 3] >> (nxt & 7) & 1:
                    visited[nxt >> 3] |= 1 << (nxt & 7)
                    seen += 1
                    stack.append(nxt)
            for mask in masks:
                nxt = cur ^ mask
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
    minima = _orbit_minima(candidates, m, _reduced_generators(G), [], comb(m, n))
    return [tuple(v for v in range(m) if mask >> v & 1) for mask in minima]
