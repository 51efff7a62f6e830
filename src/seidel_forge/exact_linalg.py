"""Exact integer linear algebra.

One kernel, `_pivots`, serves `rank`, `is_psd`, `max_eig_le` and the Gram
determinants of `root_lattices`: fraction-free (Bareiss) elimination with
complete pivoting.  Step k pivots on d and updates the trailing block as
A[i][j] = (d A[i][j] - A[i][k] A[k][j]) // prev, prev the previous pivot.

- Exactness.  A swap at step k only reorders rows and columns not yet
  eliminated, so the run is Bareiss elimination of one fixed permutation
  P M Q.  By Sylvester's identity each trailing entry is a bordered leading
  minor of P M Q, so every division is exact.  The k-th pivot is the k-th
  leading minor: one pivot per unit of rank, and the last is +-det M at
  full rank.
- PSD.  While some remaining diagonal entry is positive, the largest is the
  pivot.  The trailing block is then the Schur complement of a positive
  definite leading block scaled by its determinant, so its signs are the
  rational ones.  Symmetric M is PSD iff that block is zero once no
  diagonal entry is positive: PSD forces 2|a_ij| <= a_ii + a_jj.

No floating point and no fractions; Python's arbitrary-precision integers
absorb the pivot growth (pivots exceed 64 bits around order 15).
"""
from __future__ import annotations

from operator import index
from typing import NamedTuple

__all__ = [
    "IntMatrix",
    "rank",
    "max_eig_le",
    "is_psd",
]


class IntMatrix(NamedTuple("IntMatrix", [("rows", tuple[tuple[int, ...], ...])])):
    """Square matrix with arbitrary-precision integer entries."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        return super().__new__(cls, rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        """Rows of integers; a Fraction or float entry raises TypeError."""
        return IntMatrix(tuple(tuple(map(index, row)) for row in rows))

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


def _pivots(rows) -> tuple[list[int], bool]:
    """Fraction-free elimination with complete pivoting: (pivots, PSD verdict).

    The largest remaining diagonal entry is the pivot while it is positive;
    after that any nonzero entry of the trailing block is, and a symmetric
    matrix is not PSD.  Elimination stops when the trailing block is zero.
    """
    A = [list(row) for row in rows]
    n = len(A)
    pivots: list[int] = []
    psd = True
    prev = 1
    for k in range(n):
        p = q = max(range(k, n), key=lambda i: A[i][i])
        if A[p][p] <= 0:
            at = next(((i, j) for i in range(k, n) for j in range(k, n) if A[i][j]), None)
            if at is None:
                break
            p, q = at
            psd = False
        A[k], A[p] = A[p], A[k]
        if q != k:
            for row in A:
                row[k], row[q] = row[q], row[k]
        Ak = A[k]
        d = Ak[k]
        for i in range(k + 1, n):
            Ai = A[i]
            f = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (d * Ai[j] - f * Ak[j]) // prev
        prev = d
        pivots.append(d)
    return pivots, psd


def rank(M: IntMatrix) -> int:
    """Rank over the rationals: the number of pivots."""
    return len(_pivots(M.rows)[0])


def is_psd(M: IntMatrix) -> bool:
    """True iff symmetric M is positive semidefinite (exactly)."""
    return _pivots(M.rows)[1]


def max_eig_le(M: IntMatrix, bound: int) -> bool:
    """True iff every eigenvalue of symmetric M is <= bound (exactly)."""
    return is_psd(IntMatrix(tuple(
        tuple(bound * (i == j) - x for j, x in enumerate(row)) for i, row in enumerate(M.rows))))
