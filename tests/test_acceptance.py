"""End-to-end acceptance checks, one test per published result.

Every assertion is exact (integer or boolean); there are no numeric
tolerances anywhere in the pipeline.
"""
import pytest

from seidel_forge.canon import canonical_form_bits
from seidel_forge.enumeration import (
    brute_force_counts,
    construct_Kn_class,
    dst_witness,
    e8_context,
    kn_witness,
    omega_table,
    s_table,
    verify_cao,
    verify_fiber_n6,
)
from seidel_forge.exact_linalg import IntMatrix, max_eig_le, rank
from seidel_forge.root_lattices import LatticeSpec, classify_root_lattice, n_r, roots
from seidel_forge.seidel_core import Graph, canonical_key, seidel_of_graph
from seidel_forge.weyl_orbits import stabilizer_of_root, weyl_group_on_roots

# Reference values transcribed from the published classification tables.
OMEGA_REFERENCE = (
    1, 1, 1, 2, 3, 5, 9, 16, 23, 37, 54, 70, 90, 101, 103,
    101, 90, 70, 54, 37, 23, 16, 10, 5, 3, 2, 1, 1, 1, 0,
)
S_REFERENCE = (1, 1, 1, 2, 3, 5, 9, 16, 25, 40, 58, 75, 96, 108)
SE_REFERENCE = (0, 0, 0, 0, 1, 1, 4, 9, 23, 38, 56, 73, 94, 106)


def _rank_3i_minus_s(G):
    return rank(IntMatrix.identity(G.n).scale(3).sub(seidel_of_graph(G)))


def test_criterion_1_omega_table():
    """criterion 1: omega(n) matches the published table exactly for n = 0..29."""
    table = omega_table()
    got = tuple(table.omega_at(n) for n in range(30))
    assert got == OMEGA_REFERENCE
    assert table.omega_at(14) == 103
    assert table.omega_at(6) == 9
    assert table.omega_at(22) == 10


def test_criterion_2_s_table():
    """criterion 2: s(n) and s_e(n) match the published table exactly for n = 0..13."""
    table = s_table(13)
    assert table.s == S_REFERENCE
    assert table.s_e == SE_REFERENCE
    assert table.s[13] == 108
    assert table.s_e[13] == 106


def test_criterion_3_brute_force_oracle():
    """criterion 3: exhaustive counts for n = 0..7 give s = (1,1,1,2,3,5,9,16), s_e = (0,0,0,0,1,1,4,9)."""
    got = [brute_force_counts(n) for n in range(8)]
    assert tuple(row[0] for row in got) == (1, 1, 1, 2, 3, 5, 9, 16)
    assert tuple(row[1] for row in got) == (0, 0, 0, 0, 1, 1, 4, 9)


def test_criterion_4_omega_symmetry():
    """criterion 4: c(n) = c(28-n); omega symmetric off {6, 22}; omega(6) + 1 = omega(22)."""
    table = omega_table()
    c, om = table.raw_orbit_counts, table.omega
    for n in range(29):
        assert c[n] == c[28 - n]
        if n not in (6, 22):
            assert om[n] == om[28 - n]
    assert om[6] + 1 == om[22]


def test_criterion_5_sn_identities():
    """criterion 5: s = s_e + 2 for 8 <= n <= 28; s - omega = n - 6 (n <= 12), floor(n/2) + 1 (n >= 13)."""
    table = s_table(28)
    om = omega_table().omega
    for n in range(8, 29):
        assert table.s[n] == table.s_e[n] + 2
        expected = n - 6 if n <= 12 else n // 2 + 1
        assert table.s[n] - om[n] == expected


def test_criterion_6_n6_fiber():
    """criterion 6: the 10 orbit reps at n = 6 give 9 keys; the doubled class is [S(K_6)] with A_7 witnesses of complement min norms {2, 8}."""
    report = verify_fiber_n6()
    assert report["ok"], report["failures"]
    assert report["rep_count"] == 10
    assert report["distinct_keys"] == 9
    assert report["duplicated_key"] == canonical_key(Graph.complete(6)).hex
    assert report["lattice_ranks"] == [7, 7]
    assert report["lattice_discriminants"] == [8, 8]
    assert classify_root_lattice(7, 8) == "A7"
    assert report["complement_min_norms"] == [2, 8]


def test_criterion_7_structural_constants():
    """criterion 7: root counts through |roots(E_8)| = 240; |W(E_8)| = 696729600; stabilizer 2903040; image 1451520; 56 roots in 28 pair-classes."""
    assert len(roots(LatticeSpec("A", 1))) == 2
    assert len(roots(LatticeSpec("A", 2))) == 6
    assert len(roots(LatticeSpec("A", 3))) == 12
    assert len(roots(LatticeSpec("D", 4))) == 24
    assert len(roots(LatticeSpec("E", 6))) == 72
    assert len(roots(LatticeSpec("E", 7))) == 126
    assert len(roots(LatticeSpec("E", 8))) == 240
    ctx = e8_context()
    r_index = roots(ctx.spec).index(ctx.r)
    weyl = weyl_group_on_roots(ctx.spec, (r_index,))
    assert weyl.order() == 696729600
    assert stabilizer_of_root(weyl, r_index).order() == 2903040
    assert ctx.image.order() == 1451520
    assert len(n_r(ctx.spec, ctx.r)) == 56
    assert len(ctx.classes) == 28


def test_criterion_8_cone_equivalence_suite():
    """criterion 8: 500 random graphs on <= 8 vertices pass the eigenvalue-bound / cone-PSD equivalence and rank identity with zero failures."""
    report = verify_cao(samples=500, seed=0)
    assert report["samples"] == 500
    assert report["failures"] == []
    assert report["ok"]


def test_criterion_9_family_constructions():
    """criterion 9: K_n keys for n <= 10; every feasible (n, m), m <= 12, gives D_(m-2),(n-m+2) with rank m - 1 and eigenvalue 3 exactly when n >= m (at n = m - 1 the bound is strict)."""
    for n in range(11):
        assert construct_Kn_class(n) == canonical_key(Graph.complete(n))
        if n:
            assert kn_witness(n).graph == Graph.complete(n)
    pairs = 0
    for m in range(4, 13):
        for n in range(m - 1, 2 * (m - 2) + 1):
            pairs += 1
            w = dst_witness(n, m)
            target = Graph.complete_minus_matching(m - 2, n - m + 2)
            assert canonical_form_bits(w.graph.adj) == canonical_form_bits(target.adj)
            assert max_eig_le(seidel_of_graph(w.graph), 3)
            rk = _rank_3i_minus_s(w.graph)
            assert rk == m - 1
            # 3 is an eigenvalue of S iff 3I - S is singular, i.e. rank < n;
            # with rank always m - 1 this happens exactly when n >= m
            assert (rk < n) == (n >= m)
    assert pairs == sum(m - 2 for m in range(4, 13))


@pytest.mark.xfail(
    strict=True,
    reason="at n = m - 1 the matrix 3I - S(D_{m-2,1}) has full rank n, "
    "so 3 is not an eigenvalue and lambda_max < 3",
)
def test_boundary_families_do_not_reach_eigenvalue_3():
    # the blanket form of the family claim: eigenvalue exactly 3 for every
    # feasible pair -- refuted by the boundary witness (n, m) = (3, 4)
    w = dst_witness(3, 4)
    assert _rank_3i_minus_s(w.graph) < w.graph.n
