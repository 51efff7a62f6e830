"""Exact integer linear algebra, cross-checked against sympy and hand values."""
import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from conftest import a_plus_2i, three_i_minus_s
from seidel_forge.exact_linalg import (
    IntMatrix,
    _pivots,
    is_psd,
    max_eig_le,
    rank,
)
from seidel_forge.seidel_core import Graph, cone, seidel_of_graph


def _sympy_of(M: IntMatrix) -> sympy.Matrix:
    return sympy.Matrix(M.rows)


@st.composite
def square_matrices(draw, min_n=1, max_n=5, lo=-6, hi=6):
    n = draw(st.integers(min_n, max_n))
    rows = draw(
        st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return IntMatrix.from_rows(rows)


@st.composite
def symmetric_matrices(draw, min_n=1, max_n=5, lo=-5, hi=5):
    n = draw(st.integers(min_n, max_n))
    vals = draw(
        st.lists(st.integers(lo, hi), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
    )
    it = iter(vals)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return IntMatrix.from_rows(rows)


@st.composite
def gram_matrices(draw, max_n=6, perturb=False):
    """B^T B for an integer B (PSD), optionally with each entry of the upper
    triangle moved by -1, 0 or +1 symmetrically."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    B = draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=k, max_size=k)
    )
    rows = [[sum(B[r][i] * B[r][j] for r in range(k)) for j in range(n)] for i in range(n)]
    if perturb:
        for i in range(n):
            for j in range(i, n):
                rows[i][j] += draw(st.integers(-1, 1))
                rows[j][i] = rows[i][j]
    return IntMatrix.from_rows(rows)


def fraction_ldl_is_psd(M: IntMatrix) -> bool:
    """Oracle: the same symmetric-pivoting LDL^T over Fractions."""
    n = len(M.rows)
    A = [[Fraction(x) for x in row] for row in M.rows]
    for k in range(n):
        p = max(range(k, n), key=lambda i: A[i][i])
        if A[p][p] < 0:
            return False
        if A[p][p] == 0:
            return all(A[i][j] == 0 for i in range(k, n) for j in range(k, n))
        if p != k:
            A[k], A[p] = A[p], A[k]
            for row in A:
                row[k], row[p] = row[p], row[k]
        d = A[k][k]
        for i in range(k + 1, n):
            f = A[i][k] / d
            for j in range(k + 1, n):
                A[i][j] -= f * A[k][j]
    return True


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return Graph.from_triangle_bits(n, bits)


class TestIntMatrix:
    def test_constructors_and_arithmetic(self):
        M = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert M.rows == ((1, 2), (3, 4))
        assert IntMatrix.identity(2).rows == ((1, 0), (0, 1))
        assert M.sub(M).rows == ((0, 0), (0, 0))
        assert M.scale(3).rows == ((3, 6), (9, 12))

    def test_refuses_non_integer_entries(self):
        # non-integers are refused, not truncated
        for rows in ([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], [[0.9]], [[2.0]]):
            with pytest.raises(TypeError):
                IntMatrix.from_rows(rows)
        with pytest.raises(TypeError):
            IntMatrix(((1, 2), (3, 4))).scale(0.5)
        M = IntMatrix.from_rows([[True, False], [0, 3]])
        assert M.rows == ((1, 0), (0, 3))
        assert all(type(x) is int for row in M.rows for x in row)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_empty_matrix(self):
        M = IntMatrix.from_rows([])
        assert M.rows == ()
        assert rank(M) == 0
        assert is_psd(M)


class TestRank:
    def test_reference_values(self):
        # independently derived by fraction-free Gaussian elimination
        assert rank(three_i_minus_s(Graph.complete(6))) == 6
        assert rank(three_i_minus_s(Graph.complete_minus_matching(7, 5))) == 8
        assert rank(IntMatrix.from_rows([[0] * 4] * 4)) == 0
        assert rank(IntMatrix.identity(7)) == 7

    def test_rank_one(self):
        M = IntMatrix.from_rows([[2, 4], [3, 6]])
        assert rank(M) == 1

    @settings(max_examples=140, deadline=None)
    @given(st.one_of(square_matrices(), symmetric_matrices()))
    def test_matches_sympy(self, M):
        assert rank(M) == _sympy_of(M).rank()


class TestPivots:
    def test_pivot_rules(self):
        # a zero trailing block stops the elimination at once
        zero = IntMatrix.from_rows([[0] * 3] * 3)
        assert rank(zero) == 0
        assert is_psd(zero)
        # no positive diagonal entry, so the pivot is off the diagonal
        assert rank(IntMatrix.from_rows([[0, 1], [0, 0]])) == 1
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert rank(swap) == 2
        assert not is_psd(swap)

    @settings(max_examples=140, deadline=None)
    @given(st.one_of(square_matrices(), symmetric_matrices()))
    def test_last_pivot_is_the_determinant(self, M):
        # the divisions are exact under complete pivoting: at full rank the
        # last pivot is the determinant of M up to the sign of the swaps
        det = _sympy_of(M).det()
        assume(det != 0)
        pivots, _ = _pivots(M.rows)
        assert len(pivots) == len(M.rows)
        assert abs(pivots[-1]) == abs(det)


class TestIntPolynomial:
    """rank against the integer characteristic polynomial, taken from sympy."""

    @settings(max_examples=60, deadline=None)
    @given(symmetric_matrices(max_n=5))
    def test_rank_nullity_via_char_poly(self, M):
        # for symmetric M the multiplicity of eigenvalue 0 is the nullity
        coeffs = _sympy_of(M).charpoly().all_coeffs()  # leading first
        zero_multiplicity = 0
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
            zero_multiplicity += 1
        assert rank(M) + zero_multiplicity == len(M.rows)


class TestPsd:
    def test_reference_values(self):
        assert is_psd(a_plus_2i(cone(Graph.cycle(5))))  # independently derived (principal minors)
        J_minus_I = seidel_of_graph(Graph.empty(5))
        assert not is_psd(J_minus_I)
        assert is_psd(IntMatrix.from_rows([[1] * 5] * 5))

    def test_zero_pivot_handling(self):
        # PSD with a zero diagonal entry forces the whole row to vanish
        assert is_psd(IntMatrix.from_rows([[0, 0], [0, 1]]))
        assert not is_psd(IntMatrix.from_rows([[0, 1], [1, 0]]))

    @settings(max_examples=60, deadline=None)
    @given(symmetric_matrices(max_n=4, lo=-4, hi=4))
    def test_matches_principal_minors(self, M):
        # symmetric M is PSD iff every principal minor is nonnegative
        S = _sympy_of(M)
        expect = all(
            S[list(idx), list(idx)].det() >= 0
            for k in range(1, len(M.rows) + 1)
            for idx in itertools.combinations(range(len(M.rows)), k)
        )
        assert is_psd(M) == expect

    @settings(max_examples=40, deadline=None)
    @given(square_matrices(max_n=3, lo=-3, hi=3))
    def test_gram_matrices_are_psd(self, B):
        Bs = _sympy_of(B)
        G = IntMatrix.from_rows((Bs.T * Bs).tolist())
        assert is_psd(G)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            symmetric_matrices(max_n=7),
            gram_matrices(),
            gram_matrices(perturb=True),
        )
    )
    def test_matches_fraction_ldl(self, M):
        assert is_psd(M) == fraction_ldl_is_psd(M)


class TestMaxEigLe:
    @settings(max_examples=60, deadline=None)
    @given(symmetric_matrices(max_n=4), st.integers(-6, 6))
    def test_is_psd_bridge(self, M, b):
        shifted = IntMatrix.identity(len(M.rows)).scale(b).sub(M)
        assert max_eig_le(M, b) == is_psd(shifted)

    @settings(max_examples=50, deadline=None)
    @given(symmetric_matrices(max_n=4, lo=-3, hi=3), st.integers(-5, 5))
    def test_matches_real_roots(self, M, b):
        roots = sympy.real_roots(_sympy_of(M).charpoly())
        assert max_eig_le(M, b) == (max(roots) <= b)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_matrices(max_n=5), st.integers(-4, 4))
    def test_monotone_in_bound(self, M, b):
        if max_eig_le(M, b):
            assert max_eig_le(M, b + 1)

    @settings(max_examples=25, deadline=None)
    @given(symmetric_matrices(max_n=5))
    def test_gershgorin_bound_holds(self, M):
        b = max(sum(map(abs, row)) for row in M.rows)
        assert max_eig_le(M, b)


class TestConeEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=8))
    def test_bound_iff_cone_psd_with_rank_identity(self, G):
        S = seidel_of_graph(G)
        cone_gram = a_plus_2i(cone(G))
        bound = max_eig_le(S, 3)
        assert bound == is_psd(cone_gram)
        if bound:
            assert rank(three_i_minus_s(G)) + 1 == rank(cone_gram)
