"""Root systems, lattice membership, Gram graphs, and orthogonal complements."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from seidel_forge.root_lattices import (
    GramError,
    LatticeSpec,
    PairClass,
    RootVector,
    classify_root_lattice,
    generates,
    gram_determinant,
    gram_to_graph,
    hnf,
    in_lattice,
    inner,
    n_r,
    orth_complement_in_E8,
    pair_classes,
    rank_and_discriminant,
    reflect,
    roots,
    simple_roots,
    standard_switching_root,
)
from seidel_forge.seidel_core import Graph, switch

E8 = LatticeSpec("E", 8)


def _unit(i, dim=8):
    return RootVector.unit(i, dim)


class TestLatticeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec("A", 0)
        with pytest.raises(ValueError):
            LatticeSpec("D", 3)
        with pytest.raises(ValueError):
            LatticeSpec("E", 9)
        with pytest.raises(ValueError):
            LatticeSpec("B", 2)

    def test_metadata(self):
        assert LatticeSpec("A", 7).ambient_dim == 8
        assert LatticeSpec("D", 5).ambient_dim == 5
        assert E8.ambient_dim == 8
        assert LatticeSpec("A", 7).discriminant == 8
        assert LatticeSpec("D", 9).discriminant == 4
        assert [LatticeSpec("E", k).discriminant for k in (6, 7, 8)] == [3, 2, 1]
        assert E8.name == "E8"


class TestRoots:
    @pytest.mark.parametrize(
        "spec,count",
        [
            (LatticeSpec("A", 1), 2),
            (LatticeSpec("A", 2), 6),
            (LatticeSpec("A", 7), 56),
            (LatticeSpec("D", 4), 24),
            (LatticeSpec("D", 8), 112),
            (LatticeSpec("E", 6), 72),
            (LatticeSpec("E", 7), 126),
            (LatticeSpec("E", 8), 240),
        ],
    )
    def test_counts(self, spec, count):
        # |roots| = n(n+1) for A_n, 2n(n-1) for D_n, and 72/126/240 for E_6/7/8
        assert len(roots(spec)) == count

    def test_all_norm_two_and_in_lattice(self):
        for spec in (LatticeSpec("A", 3), LatticeSpec("D", 5), E8):
            for v in roots(spec):
                assert inner(v, v) == 2
                assert in_lattice(v, spec)

    def test_sorted_deterministically(self):
        rs = roots(E8)
        assert [v.coords2 for v in rs] == sorted(v.coords2 for v in rs)

    def test_reflection_closure_samples(self):
        rs = roots(E8)
        root_set = set(rs)
        rng = random.Random(7)
        for _ in range(300):
            r, x = rng.choice(rs), rng.choice(rs)
            assert reflect(r, x) in root_set

    def test_reflect_requires_root(self):
        with pytest.raises(ValueError):
            reflect(_unit(0) + _unit(0), _unit(1))

    @pytest.mark.parametrize(
        "spec",
        [LatticeSpec(f, n) for f, n in
         [("A", 1), ("A", 3), ("A", 7), ("D", 4), ("D", 5), ("D", 8), ("E", 6), ("E", 7), ("E", 8)]],
        ids=lambda spec: spec.name,
    )
    def test_simple_roots_form_a_cartan_matrix(self, spec):
        # rank many roots with a Cartan Gram matrix whose determinant is the
        # discriminant: a base of the root system that spans the lattice
        base = simple_roots(roots(spec))
        assert len(base) == spec.rank
        gram = [[inner(u, v) for v in base] for u in base]
        for i, row in enumerate(gram):
            assert row[i] == 2
            assert all(x in (0, -1) for j, x in enumerate(row) if j != i)
        assert gram_determinant(base) == spec.discriminant


class TestInnerProduct:
    def test_values(self):
        assert inner(_unit(0), _unit(0)) == 1
        assert inner(_unit(0) - _unit(1), _unit(1) - _unit(2)) == -1

    def test_rejects_non_integral(self):
        # (j/2, e_0) = 1/2
        with pytest.raises(ValueError):
            inner(RootVector((1,) * 8), _unit(0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(_unit(0, 3), _unit(0, 4))

    def test_unit_index_range(self):
        assert _unit(2, 3) == RootVector((0, 0, 2))
        for i in (5, 3, -1):
            with pytest.raises(ValueError, match=r"0\.\.2"):
                _unit(i, 3)


class TestInLattice:
    def test_a_family(self):
        A2 = LatticeSpec("A", 2)
        assert in_lattice(_unit(0, 3) - _unit(1, 3), A2)
        assert not in_lattice(_unit(0, 3), A2)  # coordinate sum nonzero

    def test_d_family(self):
        D4 = LatticeSpec("D", 4)
        assert in_lattice(_unit(0, 4) + _unit(1, 4), D4)
        assert not in_lattice(_unit(0, 4), D4)  # odd coordinate sum

    def test_e8_spinor_classes(self):
        j_half = RootVector((1,) * 8)
        assert in_lattice(j_half, E8)
        # flipping one sign moves to the rejected spinor class
        assert not in_lattice(RootVector((-1,) + (1,) * 7), E8)
        # mixed parity is never in the lattice
        assert not in_lattice(RootVector((1, 2) + (0,) * 6), E8)


class TestSwitchingRootAndClasses:
    def test_standard_roots(self):
        assert standard_switching_root(LatticeSpec("A", 3)).coords2 == (0, 0, 2, -2)
        assert standard_switching_root(LatticeSpec("D", 4)).coords2 == (0, 0, 2, 2)
        r = standard_switching_root(E8)
        assert r == _unit(6) + _unit(7)
        assert r in roots(E8)
        with pytest.raises(ValueError):
            standard_switching_root(LatticeSpec("E", 7))

    def test_n_r_size(self):
        r = standard_switching_root(E8)
        nbrs = n_r(E8, r)
        assert len(nbrs) == 56
        assert all(inner(u, r) == 1 for u in nbrs)
        with pytest.raises(ValueError):
            n_r(E8, _unit(0) + _unit(0))

    def test_pair_classes(self):
        r = standard_switching_root(E8)
        classes = pair_classes(E8, r)
        assert len(classes) == 28
        seen = set()
        for c in classes:
            u, v = c.members()
            assert u + v == r
            assert inner(u, r) == 1 and inner(v, r) == 1
            seen.update((u.coords2, v.coords2))
        # the 28 classes partition all 56 neighbours into pairs
        assert seen == {u.coords2 for u in n_r(E8, r)}

    def test_pair_class_validation(self):
        r = standard_switching_root(E8)
        with pytest.raises(ValueError):
            PairClass(r, r)  # (r, r) = 2


class TestGramToGraph:
    def test_triangle(self):
        # pairwise inner products 1: the A_3 fan around e_3
        vecs = [_unit(i, 4) + _unit(3, 4) for i in range(3)]
        assert gram_to_graph(vecs) == Graph.complete(3)

    def test_rejects_bad_inner_product(self):
        u = _unit(0) - _unit(1)
        with pytest.raises(GramError) as err:
            gram_to_graph([u, -u])
        assert (err.value.i, err.value.j, err.value.value) == (0, 1, -2)

    def test_rejects_bad_norm(self):
        with pytest.raises(GramError) as err:
            gram_to_graph([_unit(0).scaled(2)])
        assert (err.value.i, err.value.j) == (0, 0)
        assert err.value.value == 4

    def test_succeeds_on_random_class_rep_subsets(self):
        r = standard_switching_root(E8)
        reps = [c.u for c in pair_classes(E8, r)]
        rng = random.Random(12345)
        for _ in range(1000):
            k = rng.randint(0, 10)
            sub = rng.sample(reps, k)
            G = gram_to_graph(sub)
            assert isinstance(G, Graph) and G.n == k


@st.composite
def int_matrices(draw):
    cols = draw(st.integers(2, 5))
    nrows = draw(st.integers(1, 4))
    return [
        [draw(st.integers(-5, 5)) for _ in range(cols)] for _ in range(nrows)
    ]


class TestHnf:
    def test_canonical_shape(self):
        H = hnf([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        for i, row in enumerate(H):
            lead = next(c for c, x in enumerate(row) if x)
            assert row[lead] > 0
            for j in range(i):
                assert 0 <= H[j][lead] < row[lead]

    def test_zero_input(self):
        assert hnf([]) == ()
        assert hnf([[0, 0], [0, 0]]) == ()

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(), st.randoms(use_true_random=False))
    def test_invariant_under_unimodular_row_ops(self, rows, rng):
        base = hnf(rows)
        mixed = [row[:] for row in rows]
        for _ in range(6):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            op = rng.randrange(3)
            if op == 0:
                mixed[i], mixed[j] = mixed[j], mixed[i]
            elif op == 1:
                mixed[i] = [-x for x in mixed[i]]
            elif i != j:
                q = rng.randint(-3, 3)
                mixed[i] = [x + q * y for x, y in zip(mixed[i], mixed[j])]
        assert hnf(mixed) == base

    def test_idempotent(self):
        rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        H = hnf(rows)
        assert hnf([list(r) for r in H]) == H


class TestGenerates:
    def test_positive(self):
        d8 = [
            _unit(i) - _unit(i + 1) for i in range(7)
        ] + [_unit(6) + _unit(7)]
        assert generates(d8, LatticeSpec("D", 8))
        a3 = [_unit(i, 4) - _unit(i + 1, 4) for i in range(3)]
        assert generates(a3, LatticeSpec("A", 3))

    def test_dropping_a_generator_fails(self):
        a3 = [_unit(i, 4) - _unit(i + 1, 4) for i in range(3)]
        assert not generates(a3[:-1], LatticeSpec("A", 3))

    # full-rank sublattices of index 2: only the discriminant, k^2 disc(L)
    # at index k, tells them from the lattice
    def test_integer_roots_of_e8_fail(self):
        d8 = [v for v in roots(E8) if all(x % 2 == 0 for x in v.coords2)]
        assert len(d8) == 112
        assert rank_and_discriminant(d8) == (8, 4)  # they span D_8
        assert not generates(d8, E8)

    def test_doubled_simple_root_fails(self):
        a3 = [_unit(i, 4) - _unit(i + 1, 4) for i in range(3)]
        doubled = [a3[0].scaled(2)] + a3[1:]
        assert rank_and_discriminant(doubled) == (3, 16)
        assert not generates(doubled, LatticeSpec("A", 3))

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            generates([_unit(0, 4)], LatticeSpec("A", 3))

    def test_roots_generate_e8(self):
        assert generates(roots(E8), E8)


class TestGramDeterminant:
    def test_values(self):
        a2 = [_unit(0, 3) - _unit(1, 3), _unit(1, 3) - _unit(2, 3)]
        assert gram_determinant(a2) == 3
        assert gram_determinant([]) == 1
        assert gram_determinant(simple_roots(roots(E8))) == 1
        # a dependent family: e_1 - e_3 = (e_1 - e_2) + (e_2 - e_3)
        assert gram_determinant(a2 + [_unit(0, 3) - _unit(2, 3)]) == 0


class TestClassify:
    @pytest.mark.parametrize(
        "rank,disc,name",
        [
            (1, 2, "A1"),
            (2, 3, "A2"),
            (3, 4, "A3"),
            (4, 5, "A4"),
            (4, 4, "D4"),
            (8, 4, "D8"),
            (6, 3, "E6"),
            (7, 2, "E7"),
            (8, 1, "E8"),
        ],
    )
    def test_table(self, rank, disc, name):
        assert classify_root_lattice(rank, disc) == name

    def test_unknown_pair(self):
        with pytest.raises(ValueError):
            classify_root_lattice(5, 7)


class TestOrthComplement:
    def test_standard_a7_leaves_roots(self):
        a7 = [_unit(i) - _unit(i + 1) for i in range(7)]
        basis = orth_complement_in_E8(a7)
        assert len(basis) == 1
        assert inner(basis[0], basis[0]) == 2

    def test_twisted_a7_leaves_no_roots(self):
        # same abstract lattice, different embedding: complement has min norm 8
        a7p = [-(_unit(0)) - _unit(1)] + [_unit(i) - _unit(i + 1) for i in range(1, 7)]
        basis = orth_complement_in_E8(a7p)
        assert len(basis) == 1
        assert inner(basis[0], basis[0]) == 8

    def test_single_root_gives_e7(self):
        basis = orth_complement_in_E8([standard_switching_root(E8)])
        assert len(basis) == 8 - 1
        assert gram_determinant(basis) == 2

    def test_full_lattice_gives_trivial_complement(self):
        assert orth_complement_in_E8(simple_roots(roots(E8))) == []

    def test_rejects_outside_vectors(self):
        with pytest.raises(ValueError):
            orth_complement_in_E8([_unit(0)])


class TestFlipAction:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_partner_substitution_switches_graph(self, rng):
        # replacing u_i by r - u_i for i in F flips exactly the edges across F
        r = standard_switching_root(E8)
        classes = pair_classes(E8, r)
        k = rng.randint(1, 8)
        chosen = rng.sample(classes, k)
        F = {i for i in range(k) if rng.random() < 0.5}
        us = [c.u for c in chosen]
        flipped = [(r - u if i in F else u) for i, u in enumerate(us)]
        G = gram_to_graph(us)
        assert gram_to_graph(flipped) == switch(G, F)
        # the span together with r is unchanged by the substitution
        span = lambda vs: hnf([list(v.coords2) for v in vs + [r]])
        assert span(us) == span(flipped)
