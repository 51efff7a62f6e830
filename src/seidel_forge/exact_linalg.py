"""Exact integer linear algebra.

Everything here is exact: ranks, and the Gram determinants of
`root_lattices`, from one fraction-free Bareiss elimination, and positive
semidefiniteness by fraction-free LDL^T with symmetric pivoting.  No
floating point and no fractions anywhere; Python's arbitrary-precision
integers absorb the pivot growth (Bareiss pivots exceed 64 bits around
order 15).
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "IntMatrix",
    "rank",
    "max_eig_le",
    "is_psd",
]


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix with arbitrary-precision integer entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def add(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix.from_rows(
            [a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)
        )

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix.from_rows(
            [a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)
        )

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix.from_rows([c * x for x in row] for row in self.rows)


def _bareiss_pivots(rows) -> list[int]:
    """Pivots of fraction-free Bareiss elimination of a square integer matrix.

    There is one pivot per unit of rank.  At full rank the last pivot is the
    determinant up to the sign of the row swaps.
    """
    A = [list(row) for row in rows]
    n = len(A)
    pivots: list[int] = []
    prev = 1
    for col in range(n):
        r = len(pivots)
        pivot_row = next((i for i in range(r, n) if A[i][col] != 0), None)
        if pivot_row is None:
            continue
        A[r], A[pivot_row] = A[pivot_row], A[r]
        for i in range(r + 1, n):
            for j in range(col + 1, n):
                A[i][j] = (A[r][col] * A[i][j] - A[i][col] * A[r][j]) // prev
            A[i][col] = 0
        prev = A[r][col]
        pivots.append(prev)
    return pivots


def rank(M: IntMatrix) -> int:
    """Rank over the rationals: the number of Bareiss pivots."""
    return len(_bareiss_pivots(M.rows))


def is_psd(M: IntMatrix) -> bool:
    """Positive semidefiniteness by fraction-free LDL^T with symmetric pivoting.

    Each step pivots on the largest remaining diagonal entry d and updates
    the trailing block as A[i][j] = (d A[i][j] - A[i][k] A[k][j]) // prev,
    prev the previous pivot.  Every entry is then the rational LDL^T entry
    scaled by a positive leading principal minor (Sylvester's identity makes
    the division exact), so pivot choices, signs and zeros are the rational
    ones.  A negative pivot refutes PSD.  When every remaining diagonal entry
    is zero, PSD forces the whole remaining block to vanish (2|a_ij| <=
    a_ii + a_jj), so any leftover off-diagonal entry refutes it too.
    """
    n = M.n
    A = [list(row) for row in M.rows]
    prev = 1
    for k in range(n):
        p = max(range(k, n), key=lambda i: A[i][i])
        if A[p][p] < 0:
            return False
        if A[p][p] == 0:
            return all(
                A[i][j] == 0 for i in range(k, n) for j in range(k, n)
            )
        if p != k:
            A[k], A[p] = A[p], A[k]
            for row in A:
                row[k], row[p] = row[p], row[k]
        Ak = A[k]
        d = Ak[k]
        for i in range(k + 1, n):
            Ai = A[i]
            f = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (d * Ai[j] - f * Ak[j]) // prev
        prev = d
    return True


def max_eig_le(M: IntMatrix, bound: int) -> bool:
    """True iff every eigenvalue of symmetric M is <= bound (exactly)."""
    return is_psd(IntMatrix(tuple(
        tuple(bound * (i == j) - x for j, x in enumerate(row)) for i, row in enumerate(M.rows))))
