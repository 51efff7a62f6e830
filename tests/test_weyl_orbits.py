"""Permutation groups, Weyl actions, Burnside counts, and orbit transversals."""
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from seidel_forge import weyl_orbits
from seidel_forge.enumeration import e8_context
from seidel_forge.root_lattices import (
    LatticeSpec,
    pair_classes,
    roots,
    standard_switching_root,
)
from seidel_forge.weyl_orbits import (
    PermGroup,
    _chunk_tables,
    _compose,
    _cycle_type,
    _inverse,
    _reduced_generators,
    burnside_subset_counts,
    induced_action_on_classes,
    stabilizer_of_root,
    subset_orbit_transversal,
    weyl_group_on_roots,
)

E8 = LatticeSpec("E", 8)


def full_walk_cycle_type_counts(G: PermGroup) -> Counter:
    """Brute-force oracle: the cycle type of every element of G, one by one,
    by depth-first traversal of the whole transversal chain."""
    counts: Counter = Counter()
    levels = [[lvl.transversal[x] for x in sorted(lvl.transversal)] for lvl in G._levels]

    def walk(i: int, p: tuple[int, ...]) -> None:
        if i == len(levels):
            counts[_cycle_type(p)] += 1
            return
        for u in levels[i]:
            walk(i + 1, _compose(p, u))

    walk(0, tuple(range(G.degree)))
    return counts


def random_word(G: PermGroup, rng: random.Random, max_len: int = 20) -> tuple[int, ...]:
    """A group element as a product of up to max_len random generators of G."""
    p = tuple(range(G.degree))
    gens = G.generators
    for _ in range(rng.randrange(max_len + 1) if gens else 0):
        p = _compose(rng.choice(gens), p)
    return p


def greedy_reduced_generators(G: PermGroup) -> list[tuple[int, ...]]:
    """Reference: a generating subset of G's generators (greedy order growth)."""
    full = G.order()
    selected: list[tuple[int, ...]] = []
    current = 1
    for g in G.generators:
        if current == full:
            break
        trial = PermGroup(G.degree, selected + [g])
        if trial.order() > current:
            selected.append(g)
            current = trial.order()
    return selected


def reference_transversal(G: PermGroup, n: int) -> list[tuple[int, ...]]:
    """Reference: scan every n-subset in lexicographic order and close each
    new orbit under the greedy generators; no early stop."""
    m = G.degree
    if n == 0:
        return [()]
    tables = [_chunk_tables([1 << x for x in g], m) for g in greedy_reduced_generators(G)]
    visited = bytearray((1 << m) + 7 >> 3)
    out: list[tuple[int, ...]] = []
    for combo in combinations(range(m), n):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if visited[mask >> 3] >> (mask & 7) & 1:
            continue
        out.append(combo)
        visited[mask >> 3] |= 1 << (mask & 7)
        stack = [mask]
        while stack:
            cur = stack.pop()
            for split, low, high in tables:
                nxt = low[cur & (1 << split) - 1] | high[cur >> split]
                if not visited[nxt >> 3] >> (nxt & 7) & 1:
                    visited[nxt >> 3] |= 1 << (nxt & 7)
                    stack.append(nxt)
    return out


def is_transitive(G: PermGroup) -> bool:
    return SymGroup([SymPerm(list(g)) for g in G.generators]).is_transitive()


class TestPermutation:
    """Tuple permutations: images[x] is the image of x."""

    def test_compose_is_self_after_other(self):
        p = (1, 2, 0)
        q = (0, 2, 1)
        r = _compose(p, q)
        for x in range(3):
            assert r[x] == p[q[x]]

    def test_inverse_and_identity(self):
        p = (2, 0, 3, 1)
        assert _compose(p, _inverse(p)) == tuple(range(4))
        assert _compose(_inverse(p), p) == tuple(range(4))

    def test_cycle_type(self):
        assert _cycle_type((1, 0, 2, 4, 3)) == (1, 2, 2)
        assert _cycle_type((0, 1, 2)) == (1, 1, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 32).flatmap(lambda n: st.permutations(range(n))))
    def test_cycle_type_matches_sympy(self, images):
        # an oracle that shares no code with the walk or its full-walk check
        structure = SymPerm(list(images)).cycle_structure
        expected = tuple(l for l in sorted(structure) for _ in range(structure[l]))
        assert _cycle_type(tuple(images)) == expected


@st.composite
def perm_groups(draw):
    degree = draw(st.integers(1, 7))
    k = draw(st.integers(0, 3))
    gens = []
    for _ in range(k):
        images = list(range(degree))
        draw(st.randoms(use_true_random=False)).shuffle(images)
        gens.append(tuple(images))
    return degree, gens


class TestPermGroup:
    def test_rejects_bad_generators(self):
        with pytest.raises(ValueError):
            PermGroup(3, [(0, 0, 1)])
        with pytest.raises(ValueError):
            PermGroup(3, [(0, 1)])

    def test_small_orders(self):
        assert PermGroup(4, []).order() == 1
        assert PermGroup(3, [(1, 0, 2), (1, 2, 0)]).order() == 6
        assert PermGroup(4, [(1, 2, 3, 0)]).order() == 4
        klein = PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
        assert klein.order() == 4

    @settings(max_examples=100, deadline=None)
    @given(perm_groups())
    def test_order_matches_sympy(self, dg):
        degree, gens = dg
        G = PermGroup(degree, gens)
        if gens:
            ref = SymGroup([SymPerm(list(g)) for g in gens]).order()
        else:
            ref = 1
        assert G.order() == ref

    @settings(max_examples=60, deadline=None)
    @given(perm_groups(), st.randoms(use_true_random=False))
    def test_contains_products_of_generators(self, dg, rng):
        # the chain is complete: every product of generators sifts to identity
        degree, gens = dg
        G = PermGroup(degree, gens)
        residue = G._sift(random_word(G, rng, 4), 0)
        assert residue == tuple(range(degree))

    def test_contains(self):
        # sifting leaves a non-identity residue exactly for non-members
        G = PermGroup(3, [(1, 2, 0)])
        for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            assert G._sift(p, 0) == (0, 1, 2)
        assert G._sift((1, 0, 2), 0) != (0, 1, 2)

    def test_base_change_preserves_group(self):
        gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
        G = PermGroup(5, gens)
        for prefix in [(), (3,), (4, 0), (2, 1, 0)]:
            H = PermGroup(5, gens, base_prefix=prefix)
            assert H.order() == G.order() == 120
            assert H.base[: len(prefix)] == prefix

    @pytest.mark.parametrize("prefix", [(-1,), (7,), (2, 2)])
    def test_bad_base_prefix(self, prefix):
        # checked before any transversal is built, where a negative point
        # would wrap around and grow the transversal without end
        with pytest.raises(ValueError, match="base_prefix"):
            PermGroup(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], base_prefix=prefix)

    def test_cycle_type_counts(self):
        # S_3: identity, three transpositions, two 3-cycles
        G = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
        counts = G.cycle_type_counts()
        assert counts == {(1, 1, 1): 1, (1, 2): 3, (3,): 2}

    @pytest.mark.parametrize(
        "G",
        [
            weyl_group_on_roots(LatticeSpec("A", 3)),
            weyl_group_on_roots(LatticeSpec("D", 4)),
            weyl_group_on_roots(LatticeSpec("A", 5)),
            weyl_group_on_roots(LatticeSpec("D", 5)),
            weyl_group_on_roots(LatticeSpec("A", 6)),
            weyl_group_on_roots(LatticeSpec("E", 6)),
            # S_5 on 0..4 with the fixed point 5 as first base point
            PermGroup(6, [(1, 2, 3, 4, 0, 5), (1, 0, 2, 3, 4, 5)], base_prefix=(5,)),
            # intransitive S_3 x C_4 on 0..2 and 3..6: the stabilizer of 0 has
            # orbits {0} and {1, 2} on the first basic orbit
            PermGroup(7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 0, 3, 4, 5, 6), (0, 1, 2, 4, 5, 6, 3)]),
            # C_4 x C_3 with base (3, 0): the stabilizer of 3 fixes 3..6, so
            # each of the four cosets is its own orbit
            PermGroup(7, [(0, 1, 2, 4, 5, 6, 3), (1, 2, 0, 3, 4, 5, 6)], base_prefix=(3, 0)),
            PermGroup(3, []),
        ],
        ids=[
            "W(A3)",
            "W(D4)",
            "W(A5)",
            "W(D5)",
            "W(A6)",
            "W(E6)",
            "fixed-first-point",
            "intransitive",
            "prefix-C4",
            "trivial",
        ],
    )
    def test_cycle_type_counts_match_full_walk(self, G):
        counts = G.cycle_type_counts()
        assert counts == full_walk_cycle_type_counts(G)
        assert sum(counts.values()) == G.order()

    @settings(max_examples=100, deadline=None)
    @given(perm_groups(), st.integers(0, 6), st.permutations(range(7)), st.integers(2, 3))
    def test_cycle_type_counts_match_full_walk_random(self, dg, first, order, length):
        # base prefixes of 1 and of 2-3 points give chains whose leading
        # levels may hold no strong generators or fix their base point
        degree, gens = dg
        prefix = tuple(x for x in order if x < degree)[:length]
        for G in (
            PermGroup(degree, gens),
            PermGroup(degree, gens, base_prefix=(first % degree,)),
            PermGroup(degree, gens, base_prefix=prefix),
        ):
            counts = G.cycle_type_counts()
            assert counts == full_walk_cycle_type_counts(G)
            assert sum(counts.values()) == G.order()

    def test_walk_on_e8_image_stays_reduced(self, monkeypatch):
        # on the base taken from the two-graph the reduced walk reaches 526
        # leaves of the 1,451,520 elements; a fall-back to a wider walk, or to
        # the first-moved-point base, would reach more
        image = e8_context().image
        assert [len(lvl.transversal) for lvl in image._levels] == [28, 27, 16, 5, 4, 3, 2]
        calls = []

        def counted(p):
            calls.append(p)
            return _cycle_type(p)

        monkeypatch.setattr(weyl_orbits, "_cycle_type", counted)
        counts = image.cycle_type_counts()
        assert sum(counts.values()) == 1451520
        assert len(calls) <= 526

    def test_e8_image_counts_do_not_depend_on_the_base(self):
        # the first-moved-point base walks 2,456 leaves, not 526, to the same
        # cycle types and subset orbit counts
        image = e8_context().image
        first_moved = PermGroup(28, image.generators)
        assert [len(lvl.transversal) for lvl in first_moved._levels] == [28, 27, 16, 10, 6, 2]
        assert first_moved.cycle_type_counts() == image.cycle_type_counts()
        assert burnside_subset_counts(first_moved) == burnside_subset_counts(image)


class TestWeylGroups:
    @pytest.mark.parametrize(
        "spec,order",
        [
            pytest.param(spec, order, id=spec.name)
            for spec, order in [
                (LatticeSpec("A", 1), 2),
                (LatticeSpec("A", 2), 6),
                (LatticeSpec("A", 3), 24),
                (LatticeSpec("D", 4), 192),
                (LatticeSpec("A", 7), 40320),
                (LatticeSpec("E", 8), 696729600),
                (LatticeSpec("D", 5), 1920),
                (LatticeSpec("E", 6), 51840),
                (LatticeSpec("E", 7), 2903040),
            ]
        ],
    )
    def test_orders(self, spec, order):
        # |W| = (n+1)! for A_n, 2^{n-1} n! for D_n, 51840, 2903040 and
        # 696729600 for E_6/7/8; generated by the rank many simple reflections
        W = weyl_group_on_roots(spec)
        assert W.order() == order
        assert len(W.generators) == spec.rank

    def test_labels_are_roots(self):
        spec = LatticeSpec("A", 2)
        assert weyl_group_on_roots(spec).labels == roots(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            LatticeSpec("A", 3),
            LatticeSpec("D", 4),
            LatticeSpec("E", 6),
            LatticeSpec("E", 7),
            LatticeSpec("E", 8),
        ],
    )
    def test_orbit_stabilizer(self, spec):
        W = weyl_group_on_roots(spec, (0,))
        assert is_transitive(W)
        stab = stabilizer_of_root(W, 0)
        assert stab.order() * len(roots(spec)) == W.order()

    def test_stabilizer_fixes_its_root(self):
        r_index = roots(E8).index(standard_switching_root(E8))
        W = weyl_group_on_roots(E8, (r_index,))
        stab = stabilizer_of_root(W, r_index)
        assert stab.order() == 2903040
        for g in stab.generators:
            assert g[r_index] == r_index
        with pytest.raises(ValueError):
            stabilizer_of_root(W, 240)

    def test_stabilizer_needs_a_base_led_by_its_root(self):
        # the stabilizer is the chain below r; no other base is rebuilt
        W = weyl_group_on_roots(LatticeSpec("A", 3), (1,))
        with pytest.raises(ValueError, match="base"):
            stabilizer_of_root(W, 0)

    def test_induced_action_on_classes(self):
        r = standard_switching_root(E8)
        r_index = roots(E8).index(r)
        W = weyl_group_on_roots(E8, base_prefix=(r_index,))
        stab = stabilizer_of_root(W, r_index)
        classes = pair_classes(E8, r)
        image = induced_action_on_classes(stab, classes)
        assert image.degree == 28
        assert is_transitive(image)
        assert image.order() == 1451520
        # the kernel is {1, -1 on the fibre}: index 2
        assert stab.order() == 2 * image.order()

    def test_induced_action_requires_labels(self):
        classes = pair_classes(E8, standard_switching_root(E8))
        with pytest.raises(ValueError):
            induced_action_on_classes(PermGroup(240, []), classes)


class TestBurnside:
    def test_trivial_group(self):
        assert burnside_subset_counts(PermGroup(3, [])) == (1, 3, 3, 1)

    def test_symmetric_group(self):
        G = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
        assert burnside_subset_counts(G) == (1, 1, 1, 1)

    def test_cyclic_group(self):
        G = PermGroup(4, [(1, 2, 3, 0)])
        assert burnside_subset_counts(G) == (1, 1, 2, 1, 1)

    def test_e8_image_cycle_types(self):
        def ctype(lengths: dict[int, int]) -> tuple[int, ...]:
            return tuple(l for l in sorted(lengths) for _ in range(lengths[l]))

        expected = {
            ctype({1: 28}): 1,
            ctype({1: 16, 2: 6}): 63,
            ctype({1: 10, 3: 6}): 672,
            ctype({1: 8, 2: 10}): 945,
            ctype({1: 6, 2: 1, 4: 5}): 7560,
            ctype({1: 4, 2: 12}): 4095,
            ctype({1: 4, 2: 3, 3: 4, 6: 1}): 10080,
            ctype({1: 4, 2: 3, 6: 3}): 10080,
            ctype({1: 4, 4: 6}): 3780,
            ctype({1: 3, 5: 5}): 48384,
            ctype({1: 2, 2: 4, 3: 2, 6: 2}): 30240,
            ctype({1: 2, 2: 3, 4: 5}): 52920,
            ctype({1: 2, 2: 1, 8: 3}): 90720,
            ctype({1: 2, 4: 2, 6: 1, 12: 1}): 60480,
            ctype({1: 1, 2: 1, 5: 3, 10: 1}): 145152,
            ctype({1: 1, 3: 9}): 15680,
            ctype({1: 1, 3: 5, 6: 2}): 40320,
            ctype({1: 1, 3: 1, 6: 4}): 181440,
            ctype({1: 1, 3: 1, 12: 2}): 120960,
            ctype({1: 1, 9: 3}): 161280,
            ctype({2: 2, 4: 6}): 11340,
            ctype({2: 1, 3: 2, 4: 2, 12: 1}): 60480,
            ctype({3: 1, 5: 2, 15: 1}): 96768,
            ctype({4: 1, 8: 3}): 90720,
            ctype({7: 4}): 207360,
        }
        counts = e8_context().image.cycle_type_counts()
        assert counts == expected
        assert len(counts) == 25
        assert sum(counts.values()) == 1451520

    def test_cycle_type_sum_must_equal_order(self, monkeypatch):
        G = PermGroup(3, [])
        monkeypatch.setattr(G, "cycle_type_counts", lambda: Counter({(1, 1, 1): 2}))
        with pytest.raises(RuntimeError, match="group order"):
            burnside_subset_counts(G)

    def test_burnside_sum_must_be_divisible(self, monkeypatch):
        G = PermGroup(3, [(1, 0, 2)])
        bogus = Counter({(1, 1, 1): 1, (3,): 1})
        monkeypatch.setattr(G, "cycle_type_counts", lambda: bogus)
        with pytest.raises(RuntimeError, match="divisible"):
            burnside_subset_counts(G)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            burnside_subset_counts(weyl_group_on_roots(E8))

    @settings(max_examples=40, deadline=None)
    @given(perm_groups())
    def test_matches_direct_orbit_count(self, dg):
        degree, gens = dg
        G = PermGroup(degree, gens)
        table = burnside_subset_counts(G)
        for n in range(degree + 1):
            assert table[n] == len(subset_orbit_transversal(G, n))


class TestSubsetOrbitTransversal:
    def test_trivial_group_lists_all_subsets(self):
        G = PermGroup(4, [])
        assert subset_orbit_transversal(G, 2) == list(combinations(range(4), 2))

    def test_size_zero(self):
        assert subset_orbit_transversal(PermGroup(5, []), 0) == [()]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subset_orbit_transversal(PermGroup(4, []), 5)

    def test_scan_cap_mentions_complement(self):
        cyc28 = PermGroup(28, [tuple((i + 1) % 28 for i in range(28))])
        with pytest.raises(ValueError) as err:
            subset_orbit_transversal(cyc28, 9)
        assert "complement" in str(err.value)

    def test_representatives_are_orbit_minima(self):
        G = weyl_group_on_roots(LatticeSpec("A", 3))
        reps = subset_orbit_transversal(G, 3)
        rng = random.Random(99)
        checks = 0
        while checks < 1000:
            for rep in reps:
                g = random_word(G, rng)
                image = tuple(sorted(g[x] for x in rep))
                assert rep <= image
                checks += 1

    def test_counts_match_burnside_for_weyl_a3(self):
        G = weyl_group_on_roots(LatticeSpec("A", 3))
        table = burnside_subset_counts(G)
        for n in range(G.degree + 1):
            assert len(subset_orbit_transversal(G, n)) == table[n]

    def test_bitmap_cap_checked_before_any_table(self, monkeypatch):
        # binomial(40, 2) passes the scan cap, but the visited bitmap would
        # need 2^40 bits: refused before generators or tables are built
        def fail(*args):
            raise AssertionError("built before the bitmap check")

        monkeypatch.setattr(weyl_orbits, "_reduced_generators", fail)
        monkeypatch.setattr(weyl_orbits, "_chunk_tables", fail)
        cyc40 = PermGroup(40, [tuple((i + 1) % 40 for i in range(40))])
        with pytest.raises(ValueError, match="bitmap"):
            subset_orbit_transversal(cyc40, 2)


class TestAgainstReference:
    """The seeded generators and the early stop against the greedy-generator
    full scan kept here as reference_transversal."""

    @settings(max_examples=100, deadline=None)
    @given(perm_groups())
    def test_random_groups_every_n(self, dg):
        degree, gens = dg
        G = PermGroup(degree, gens)
        for n in range(degree + 1):
            assert subset_orbit_transversal(G, n) == reference_transversal(G, n)

    def test_weyl_a3_every_n(self):
        G = weyl_group_on_roots(LatticeSpec("A", 3))
        for n in range(G.degree + 1):
            assert subset_orbit_transversal(G, n) == reference_transversal(G, n)

    @pytest.mark.parametrize("n", list(range(7)) + list(range(22, 29)))
    def test_e8_image(self, n, e8_scan):
        assert e8_scan(n) == reference_transversal(e8_context().image, n)


class TestOrderlyLemma:
    """The lemma behind the enumeration ladder: removing the largest point
    from an orbit's least n-subset leaves the least member of its orbit."""

    @settings(max_examples=100, deadline=None)
    @given(perm_groups())
    def test_representative_minus_max_is_a_representative(self, dg):
        degree, gens = dg
        G = PermGroup(degree, gens)
        reps = [set(reference_transversal(G, n)) for n in range(degree + 1)]
        for n in range(degree):
            for T in reps[n + 1]:
                assert T[:-1] in reps[n]


class TestReducedGenerators:
    @staticmethod
    def assert_generates(G: PermGroup) -> list[tuple[int, ...]]:
        selected = _reduced_generators(G)
        identity = tuple(range(G.degree))
        for g in selected:
            assert G._sift(g, 0) == identity
        assert PermGroup(G.degree, selected).order() == G.order()
        return selected

    @settings(max_examples=100, deadline=None)
    @given(perm_groups())
    def test_random_groups(self, dg):
        degree, gens = dg
        self.assert_generates(PermGroup(degree, gens))

    def test_trivial_group(self):
        assert _reduced_generators(PermGroup(5, [])) == []

    def test_elementary_abelian_needs_three(self):
        G = PermGroup(6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)])
        assert G.order() == 8
        assert len(self.assert_generates(G)) == 3

    def test_e8_image(self):
        self.assert_generates(e8_context().image)
