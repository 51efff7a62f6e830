"""Exact root systems A_n, D_n, E_6/E_7/E_8 and lattice operations.

Vectors carry doubled coordinates (coords2 = 2x the real coordinates) so the
half-integer vectors of E_8 stay in plain integers; inner products divide the
doubled dot product by 4 and assert integrality.  Ambient dimensions: n+1 for
A_n, n for D_n, 8 for E_6/E_7/E_8 (the E lattices are slices of E_8).

The lattice operations are exact: Hermite normal forms, Gram determinants
through the Bareiss elimination shared with `exact_linalg`, and Z-bases of
orthogonal complements in E_8.  A lattice is named by its rank and
discriminant.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import mul
from typing import NamedTuple

from .exact_linalg import _pivots

__all__ = [
    "RootVector",
    "LatticeSpec",
    "PairClass",
    "GramError",
    "roots",
    "simple_roots",
    "inner",
    "reflect",
    "n_r",
    "pair_classes",
    "gram_to_graph",
    "generates",
    "orth_complement_in_E8",
    "hnf",
    "rank_and_discriminant",
    "in_lattice",
    "gram_determinant",
    "classify_root_lattice",
    "standard_switching_root",
]


class RootVector(NamedTuple):
    """Lattice vector stored as doubled integer coordinates."""

    coords2: tuple[int, ...]

    @staticmethod
    def unit(i: int, dim: int) -> "RootVector":
        if not 0 <= i < dim:
            raise ValueError(f"unit index must be in 0..{dim - 1}")
        return RootVector(tuple(2 * int(k == i) for k in range(dim)))

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector(tuple(a + b for a, b in zip(self.coords2, other.coords2)))

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(tuple(a - b for a, b in zip(self.coords2, other.coords2)))

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-a for a in self.coords2))

    def scaled(self, c: int) -> "RootVector":
        return RootVector(tuple(c * a for a in self.coords2))


def inner(u: RootVector, v: RootVector) -> int:
    """Exact inner product; rejects pairs whose product is not integral."""
    if len(u.coords2) != len(v.coords2):
        raise ValueError("dimension mismatch")
    d = sum(map(mul, u.coords2, v.coords2))
    if d % 4:
        raise ValueError(f"non-integral inner product {d}/4")
    return d // 4


def reflect(r: RootVector, x: RootVector) -> RootVector:
    """Reflection s_r(x) = x - (x, r) r for a root r (norm 2)."""
    if inner(r, r) != 2:
        raise ValueError("reflection axis must be a root")
    c = inner(x, r)
    return RootVector(tuple(a - c * b for a, b in zip(x.coords2, r.coords2)))


class LatticeSpec(NamedTuple("LatticeSpec", [("family", str), ("rank", int)])):
    """One of the root lattices A_n (n>=1), D_n (n>=4), E_6/E_7/E_8."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> "LatticeSpec":
        if family == "A":
            if rank < 1:
                raise ValueError("A_n requires n >= 1")
        elif family == "D":
            if rank < 4:
                raise ValueError("D_n requires n >= 4")
        elif family == "E":
            if rank not in (6, 7, 8):
                raise ValueError("E_n requires n in {6, 7, 8}")
        else:
            raise ValueError("family must be one of 'A', 'D', 'E'")
        return super().__new__(cls, family, rank)

    @property
    def ambient_dim(self) -> int:
        return {"A": self.rank + 1, "D": self.rank, "E": 8}[self.family]

    @property
    def discriminant(self) -> int:
        if self.family == "A":
            return self.rank + 1
        if self.family == "D":
            return 4
        return {6: 3, 7: 2, 8: 1}[self.rank]

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"


def in_lattice(v: RootVector, spec: LatticeSpec) -> bool:
    c = v.coords2
    if len(c) != spec.ambient_dim:
        return False
    if spec.family == "A":
        return all(x % 2 == 0 for x in c) and sum(c) == 0
    if spec.family == "D":
        return all(x % 2 == 0 for x in c) and (sum(c) // 2) % 2 == 0
    # E_8 = D_8 together with j/2 + D_8
    if all(x % 2 == 0 for x in c):
        ok = (sum(c) // 2) % 2 == 0
    elif all(x % 2 == 1 for x in c):
        ok = ((sum(c) - 8) // 2) % 2 == 0
    else:
        return False
    if not ok:
        return False
    if spec.rank <= 7 and inner(v, _E7_WALL) != 0:
        return False
    if spec.rank == 6 and inner(v, _E6_WALL) != 0:
        return False
    return True


_E7_WALL = RootVector((2, -2, 0, 0, 0, 0, 0, 0))  # e_1 - e_2
_E6_WALL = RootVector((0, 2, -2, 0, 0, 0, 0, 0))  # e_2 - e_3


@lru_cache(maxsize=None)
def roots(spec: LatticeSpec) -> tuple[RootVector, ...]:
    """All norm-2 vectors of the lattice, ordered lexicographically on coords2."""
    out: list[tuple[int, ...]] = []
    if spec.family == "A":
        d = spec.rank + 1
        for i in range(d):
            for j in range(d):
                if i != j:
                    v = [0] * d
                    v[i], v[j] = 2, -2
                    out.append(tuple(v))
    elif spec.family == "D":
        d = spec.rank
        for i in range(d):
            for j in range(i + 1, d):
                for si, sj in product((2, -2), repeat=2):
                    v = [0] * d
                    v[i], v[j] = si, sj
                    out.append(tuple(v))
    else:
        for i in range(8):
            for j in range(i + 1, 8):
                for si, sj in product((2, -2), repeat=2):
                    v = [0] * 8
                    v[i], v[j] = si, sj
                    out.append(tuple(v))
        for signs in product((1, -1), repeat=8):
            if signs.count(1) % 2 == 0:
                out.append(signs)
        if spec.rank <= 7:
            out = [v for v in out if v[0] == v[1]]
        if spec.rank == 6:
            out = [v for v in out if v[1] == v[2]]
    return tuple(RootVector(v) for v in sorted(out))


def simple_roots(system) -> tuple[RootVector, ...]:
    """The simple roots of the root system given as its list of roots, in list
    order.  Weights 16^(d-1)..16^0 on coords2 give a functional nonzero on the
    roots and one-to-one on their differences: it picks the positive roots; v
    is simple iff no positive u has v - u positive."""
    weights = [16 ** k for k in reversed(range(len(system[0].coords2)))]
    positive = {x: v for v in system if (x := sum(map(mul, weights, v.coords2))) > 0}
    return tuple(v for x, v in positive.items() if not any(x - y in positive for y in positive))


def standard_switching_root(spec: LatticeSpec) -> RootVector:
    """The fixed switching root: e_m - e_{m+1} for A_m, e_{m-1} + e_m for D_m,
    e_7 + e_8 for E_8 (immaterial up to the Weyl action, fixed for stability)."""
    d = spec.ambient_dim
    if spec.family == "A":
        return RootVector.unit(d - 2, d) - RootVector.unit(d - 1, d)
    if spec.family == "D":
        return RootVector.unit(d - 2, d) + RootVector.unit(d - 1, d)
    if spec.rank != 8:
        raise ValueError("standard switching root is fixed only for E_8 in the E family")
    return RootVector.unit(6, 8) + RootVector.unit(7, 8)


def n_r(spec: LatticeSpec, r: RootVector) -> tuple[RootVector, ...]:
    """Roots u of the lattice with (u, r) = 1, in the deterministic root order."""
    all_roots = roots(spec)
    if r not in all_roots:
        raise ValueError("r is not a root of the lattice")
    return tuple(u for u in all_roots if inner(u, r) == 1)


class PairClass(NamedTuple("PairClass", [("u", RootVector), ("r", RootVector)])):
    """The unordered pair {u, r - u} for u in N_r(L), keyed by its lex-least member."""

    __slots__ = ()

    def __new__(cls, u: RootVector, r: RootVector) -> "PairClass":
        if inner(u, r) != 1:
            raise ValueError("class member must satisfy (u, r) = 1")
        return super().__new__(cls, u, r)

    @property
    def partner(self) -> RootVector:
        return self.r - self.u

    def members(self) -> tuple[RootVector, RootVector]:
        return (self.u, self.partner)


def pair_classes(spec: LatticeSpec, r: RootVector) -> tuple[PairClass, ...]:
    """The pair-classes [u]_r = {u, r-u}, one per unordered pair, ordered by
    their lexicographically least representative."""
    reps = []
    for u in n_r(spec, r):
        v = r - u
        rep = u if u.coords2 <= v.coords2 else v
        reps.append(rep.coords2)
    reps = sorted(set(reps))
    return tuple(PairClass(RootVector(c), r) for c in reps)


class GramError(ValueError):
    """Gram matrix outside the {0,1} off-diagonal / 2 diagonal pattern."""

    def __init__(self, i: int, j: int, value: int):
        self.i, self.j, self.value = i, j, value
        what = "norm" if i == j else "inner product"
        super().__init__(f"{what} {value} at pair ({i}, {j}) not admissible")


def gram_to_graph(vectors):
    """Graph with i ~ j iff inner(v_i, v_j) = 1; Gram must be A(G) + 2I."""
    from .seidel_core import Graph

    vecs = list(vectors)
    n = len(vecs)
    edges = []
    for i in range(n):
        if inner(vecs[i], vecs[i]) != 2:
            raise GramError(i, i, inner(vecs[i], vecs[i]))
        for j in range(i + 1, n):
            g = inner(vecs[i], vecs[j])
            if g == 1:
                edges.append((i, j))
            elif g != 0:
                raise GramError(i, j, g)
    return Graph.from_edges(n, edges)


def hnf(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form of the integer row lattice.

    Returns the canonical echelon basis (nonzero rows only): positive pivots,
    entries above each pivot reduced to 0 <= x < pivot.  Two generating sets
    span the same lattice iff their HNFs are equal.
    """
    A = [list(map(int, row)) for row in rows if any(row)]
    if not A:
        return ()
    cols = len(A[0])
    r = 0
    for c in range(cols):
        # gcd-eliminate column c below row r
        while True:
            nonzero = [i for i in range(r, len(A)) if A[i][c] != 0]
            if not nonzero:
                break
            piv = min(nonzero, key=lambda i: abs(A[i][c]))
            A[r], A[piv] = A[piv], A[r]
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
            done = True
            for i in range(r + 1, len(A)):
                q = A[i][c] // A[r][c]
                if q:
                    A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                if A[i][c]:
                    done = False
            if done:
                break
        if r < len(A) and A[r][c] != 0:
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    A[i] = [x - q * y for x, y in zip(A[i], A[r])]
            r += 1
            if r == len(A):
                break
    return tuple(tuple(row) for row in A[:r] if any(row))


def generates(vectors, spec: LatticeSpec) -> bool:
    """True iff the integer span of the vectors is the whole lattice: they
    lie in it, and their span has its rank and discriminant."""
    vecs = list(vectors)
    for v in vecs:
        if not in_lattice(v, spec):
            raise ValueError(f"vector {v.coords2} is not in {spec.name}")
    return rank_and_discriminant(vecs) == (spec.rank, spec.discriminant)


def gram_determinant(vectors) -> int:
    """Determinant of the Gram matrix of the vectors, 0 if they are dependent.

    At full rank the determinant is the absolute value of the last pivot.
    """
    vecs = list(vectors)
    pivots, _ = _pivots([[inner(u, v) for v in vecs] for u in vecs])
    if len(pivots) < len(vecs):
        return 0
    return abs(pivots[-1]) if pivots else 1


def rank_and_discriminant(vectors) -> tuple[int, int]:
    """Rank and discriminant of the integer span of the vectors: a Hermite
    basis of the span, then its Gram determinant.  A full-rank sublattice of
    index k in L has discriminant k^2 disc(L) (Conway-Sloane, SPLAG, ch. 1),
    so a sublattice of L with L's rank and discriminant is L."""
    basis = [RootVector(row) for row in hnf([list(v.coords2) for v in vectors])]
    return len(basis), gram_determinant(basis)


def classify_root_lattice(rank: int, disc: int) -> str:
    """Name of the irreducible root lattice with the given rank and discriminant.

    (rank, disc) separates the ADE lattices except rank 3, where D_3 = A_3.
    """
    for family in "ADE":
        try:
            spec = LatticeSpec(family, rank)
        except ValueError:
            continue
        if spec.discriminant == disc:
            return spec.name
    raise ValueError(f"no irreducible root lattice has rank {rank}, discriminant {disc}")


def orth_complement_in_E8(generators) -> list[RootVector]:
    """A Z-basis of {v in E_8 : (v, g) = 0 for all generators}; [] for {0}."""
    e8 = LatticeSpec("E", 8)
    gens = list(generators)
    for g in gens:
        if not in_lattice(g, e8):
            raise ValueError(f"vector {g.coords2} is not in E8")
    B = simple_roots(roots(e8))  # a Z-basis of E_8
    # constraint matrix: row i gives the pairings of basis vector i with gens
    M = [[inner(b, g) for g in gens] for b in B]
    k = len(gens)
    # Integer kernel via HNF of (M | I): rows with zero prefix give the kernel
    stacked = [M[i] + [int(i == j) for j in range(8)] for i in range(8)]
    H = hnf(stacked)
    kernel_coeffs = [row[k:] for row in H if all(x == 0 for x in row[:k])]
    basis = []
    for coeffs in kernel_coeffs:
        v = RootVector((0,) * 8)
        for c, b in zip(coeffs, B):
            v = v + b.scaled(c)
        basis.append(v)
    return basis
