"""Enumeration pipelines for switching classes with largest Seidel eigenvalue 3.

Ties everything together: the map phi from subsets of the 28 pair-classes of
E_8 to switching classes on n vertices, the one-class A- and D-family
constructions, the omega / s / s_e count tables, the two-element fiber at
n = 6, and independent brute-force and random-graph cross-checks.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .exact_linalg import IntMatrix, is_psd, max_eig_le, rank
from .root_lattices import (
    LatticeSpec,
    PairClass,
    RootVector,
    classify_root_lattice,
    generates,
    gram_determinant,
    gram_to_graph,
    hnf,
    orth_complement_in_E8,
    pair_classes,
    roots,
    standard_switching_root,
)
from .seidel_core import (
    Graph,
    SwitchingClassKey,
    adjacency_matrix,
    canonical_key,
    cone,
    graph_from_packed,
    seidel_of_graph,
    switching_class_representatives,
)
from .weyl_orbits import (
    PermGroup,
    burnside_subset_counts,
    induced_action_on_classes,
    stabilizer_of_root,
    subset_orbit_transversal,
    weyl_group_on_roots,
)

__all__ = [
    "SCHEMA_VERSION",
    "E8Context",
    "e8_context",
    "class_transversal",
    "phi",
    "phi_graph",
    "OmegaTable",
    "omega_table",
    "FamilyWitness",
    "kn_witness",
    "construct_Kn_class",
    "dst_witness",
    "construct_Dst_class",
    "STable",
    "s_table",
    "brute_force_counts",
    "verify_fiber_n6",
    "verify_cao",
    "omega_table_json",
    "s_table_json",
    "reps_records",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class E8Context:
    """The E_8 pipeline fixture: roots, switching root, classes, groups."""

    spec: LatticeSpec
    r: RootVector
    r_index: int
    classes: tuple[PairClass, ...]
    weyl: PermGroup
    stabilizer: PermGroup
    image: PermGroup


@lru_cache(maxsize=1)
def e8_context() -> E8Context:
    spec = LatticeSpec("E", 8)
    r = standard_switching_root(spec)
    r_index = roots(spec).index(r)
    classes = pair_classes(spec, r)
    weyl = weyl_group_on_roots(spec, (r_index,))
    stab = stabilizer_of_root(weyl, r_index)
    image = induced_action_on_classes(stab, classes)
    return E8Context(spec, r, r_index, classes, weyl, stab, image)


@lru_cache(maxsize=None)
def class_transversal(n: int) -> tuple[tuple[int, ...], ...]:
    """Cached orbit transversal of n-subsets of the 28 pair-classes."""
    return tuple(subset_orbit_transversal(e8_context().image, n))


def _class_vectors(subset) -> list[RootVector]:
    ctx = e8_context()
    idxs = sorted(subset)
    if len(set(idxs)) != len(idxs):
        raise ValueError("class indices must be distinct")
    if idxs and not (0 <= idxs[0] and idxs[-1] < len(ctx.classes)):
        raise ValueError("class index out of range 0..27")
    return [ctx.classes[i].u for i in idxs]


def phi_graph(subset) -> Graph:
    """The graph on the subset's representatives; Gram matrix is A(G) + 2I."""
    return gram_to_graph(_class_vectors(subset))


def phi(subset) -> SwitchingClassKey:
    """Switching class of an n-subset of pair-classes (well-defined on orbits)."""
    return canonical_key(phi_graph(subset))


@dataclass(frozen=True)
class OmegaTable:
    """omega(n) = switching classes on n vertices with lambda_max <= 3 and
    rank(3I - S) <= 7; raw_orbit_counts are the subset-orbit counts c(n)."""

    omega: tuple[int, ...]
    raw_orbit_counts: tuple[int, ...]

    def omega_at(self, n: int) -> int:
        """omega(n), with 0 beyond the 28-point range."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return self.omega[n] if n < len(self.omega) else 0


@lru_cache(maxsize=1)
def omega_table() -> OmegaTable:
    """c(n) by Burnside on the 28-point image group; omega differs only at
    n = 6, where exactly two subset orbits share one switching class."""
    c = burnside_subset_counts(e8_context().image)
    omega = list(c)
    omega[6] -= 1
    return OmegaTable(tuple(omega), tuple(c))


@dataclass(frozen=True)
class FamilyWitness:
    """Root-lattice witness of a one-class family: the vectors, the switching
    root, the graph of the Gram matrix, and its switching-class key."""

    spec: LatticeSpec
    r: RootVector
    vectors: tuple[RootVector, ...]
    graph: Graph
    key: SwitchingClassKey


def kn_witness(n: int) -> FamilyWitness:
    """Witness for [S(K_n)] inside A_{n+1}: vectors e_i - e_{n+2} (i = 1..n)
    with switching root r = e_{n+1} - e_{n+2} (1-indexed coordinates)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    spec = LatticeSpec("A", n + 1)
    dim = n + 2
    last = RootVector.unit(n + 1, dim)
    vectors = tuple(RootVector.unit(i, dim) - last for i in range(n))
    r = RootVector.unit(n, dim) - last
    if not generates(list(vectors) + [r], spec):
        raise RuntimeError(f"witness vectors fail to generate {spec.name}")
    graph = gram_to_graph(vectors)
    return FamilyWitness(spec, r, vectors, graph, canonical_key(graph))


def construct_Kn_class(n: int) -> SwitchingClassKey:
    """The unique class over A_{n+1}: the switching class of K_n."""
    return kn_witness(n).key


def dst_witness(n: int, m: int) -> FamilyWitness:
    """Witness for [S(D_{m-2,n-m+2})] inside D_m: vectors e_m + e_i
    (i = 1..m-2) and e_m - e_i (i = 1..n-m+2), r = e_{m-1} + e_m."""
    if not (m >= 4 and 2 * (m - 2) >= n >= m - 1):
        raise ValueError(
            f"infeasible (n, m) = ({n}, {m}): need m >= 4 and 2(m-2) >= n >= m-1"
        )
    spec = LatticeSpec("D", m)
    em = RootVector.unit(m - 1, m)
    plus = [em + RootVector.unit(i, m) for i in range(m - 2)]
    minus = [em - RootVector.unit(i, m) for i in range(n - m + 2)]
    vectors = tuple(plus + minus)
    r = RootVector.unit(m - 2, m) + em
    if not generates(list(vectors) + [r], spec):
        raise RuntimeError(f"witness vectors fail to generate {spec.name}")
    graph = gram_to_graph(vectors)
    return FamilyWitness(spec, r, vectors, graph, canonical_key(graph))


def construct_Dst_class(n: int, m: int) -> SwitchingClassKey:
    """The unique class over D_m on n vertices: the switching class of
    D_{m-2,n-m+2} (complete graph minus a matching)."""
    return dst_witness(n, m).key


def _three_i_minus_s(G: Graph) -> IntMatrix:
    return IntMatrix.identity(G.n).scale(3).sub(seidel_of_graph(G))


def _distinct_key_ranks(n: int) -> dict[SwitchingClassKey, int]:
    """key -> rank(3I - S) over the distinct phi images of the n-transversal."""
    out: dict[SwitchingClassKey, int] = {}
    for subset in class_transversal(n):
        G = phi_graph(subset)
        key = canonical_key(G)
        if key not in out:
            out[key] = rank(_three_i_minus_s(G))
    return out


def _d_range(n: int) -> range:
    """Ranks m of the D-lattices contributing a class on n vertices."""
    return range(max(9, -(-n // 2) + 2), n + 2)


@dataclass(frozen=True)
class STable:
    """s(n) = all switching classes with lambda_max <= 3; s_e(n) = those with
    eigenvalue exactly 3; provenance describes each row's composition."""

    s: tuple[int, ...]
    s_e: tuple[int, ...]
    provenance: tuple[str, ...]


def s_table(n_max: int = 28) -> STable:
    """Tables s(0..n_max) and s_e(0..n_max).

    For n <= 7 every class has rank(3I - S) <= 7, so s(n) = omega(n); the
    eigenvalue-3 subcount comes from the orbit representatives.  For n >= 8
    the classes of rank <= 7 (omega(n) of them) are joined by the K_n class
    from A_{n+1} and one class per D_m in the feasible range; all of those
    extras except K_n itself have eigenvalue exactly 3.
    """
    if not 0 <= n_max <= 28:
        raise ValueError("n_max must be in 0..28")
    table = omega_table()
    s, s_e, prov = [], [], []
    for n in range(n_max + 1):
        w = table.omega[n]
        if n <= 8:
            ranks = _distinct_key_ranks(n)
            eig3 = sum(1 for rk in ranks.values() if rk < n)
            if n <= 7:
                s.append(w)
                s_e.append(eig3)
                prov.append(
                    f"omega({n}) = {w} classes of rank <= 7 (no others exist); "
                    f"{eig3} of the {len(ranks)} distinct classes have eigenvalue 3"
                )
                continue
            dm = _d_range(n)
            s.append(w + 1 + len(dm))
            s_e.append(eig3)
            prov.append(
                f"omega({n}) = {w} rank<=7 classes ({eig3} with eigenvalue 3) "
                f"+ K_{n} from A_{n + 1} + D_m for m in {dm.start}..{dm.stop - 1}; "
                f"the extras have rank {n}, hence no eigenvalue 3"
            )
        else:
            dm_s = _d_range(n)
            dm_e = range(dm_s.start, n + 1)
            s.append(w + 1 + len(dm_s))
            s_e.append(w + len(dm_e))
            prov.append(
                f"omega({n}) = {w} rank<=7 classes (all with eigenvalue 3) "
                f"+ K_{n} from A_{n + 1} + D_m for m in {dm_s.start}..{dm_s.stop - 1}; "
                f"eigenvalue-3 classes cap the D-range at m <= {n}"
            )
    return STable(tuple(s), tuple(s_e), tuple(prov))


def brute_force_counts(n: int) -> tuple[int, int, int]:
    """(s, s_e, omega) on n vertices by exhausting all 2^C(n,2) graphs.

    Independent of the lattice pipeline: switching classes come from closing
    the graph set under single-vertex switchings and relabelings, and the
    spectral conditions are exact integer linear algebra.
    """
    if not 0 <= n <= 7:
        raise ValueError("brute force supports n <= 7 only")
    s = s_e = omega = 0
    for packed in switching_class_representatives(n):
        G = graph_from_packed(n, packed)
        S = seidel_of_graph(G)
        if not max_eig_le(S, 3):
            continue
        s += 1
        rk = rank(_three_i_minus_s(G))
        if rk < n:
            s_e += 1
        if rk <= 7:
            omega += 1
    return s, s_e, omega


def verify_fiber_n6() -> dict:
    """Check the one collision of phi at n = 6 and its two A_7 witnesses.

    The 10 orbit representatives must map to 9 distinct classes; the doubled
    class is [S(K_6)], its two witness lattices <u_1..u_6, r> are both rank-7
    discriminant-8 (hence A_7-isometric), and their orthogonal complements in
    E_8 have minimal norms 2 and 8 in some order.
    """
    ctx = e8_context()
    failures: list[str] = []
    reps = class_transversal(6)
    if len(reps) != 10:
        failures.append(f"expected 10 orbit representatives at n = 6, got {len(reps)}")
    by_key: dict[SwitchingClassKey, list[tuple[int, ...]]] = {}
    for subset in reps:
        by_key.setdefault(phi(subset), []).append(subset)
    if len(by_key) != 9:
        failures.append(f"expected 9 distinct keys, got {len(by_key)}")
    doubled = {k: v for k, v in by_key.items() if len(v) > 1}
    k6_key = canonical_key(Graph.complete(6))
    if list(doubled) != [k6_key]:
        failures.append(
            f"doubled keys {[k.hex for k in doubled]} != [key(K_6)] {k6_key.hex}"
        )
    fiber = doubled.get(k6_key, [])
    ranks, discs, min_norms = [], [], []
    for subset in fiber:
        vectors = _class_vectors(subset) + [ctx.r]
        basis = [RootVector(row) for row in hnf([list(v.coords2) for v in vectors])]
        ranks.append(len(basis))
        discs.append(gram_determinant(basis))
        _, norm = orth_complement_in_E8(vectors)
        min_norms.append(norm)
    norm_values = sorted(x for x in min_norms if x is not None)
    if ranks != [7, 7]:
        failures.append(f"fiber lattice ranks {ranks} != [7, 7]")
    if discs != [8, 8]:
        failures.append(f"fiber lattice discriminants {discs} != [8, 8]")
    if len(min_norms) != 2 or norm_values != [2, 8]:
        failures.append(f"complement min norms {min_norms} != [2, 8]")
    return {
        "ok": not failures,
        "rep_count": len(reps),
        "distinct_keys": len(by_key),
        "duplicated_key": k6_key.hex if fiber else None,
        "fiber_subsets": [list(sub) for sub in fiber],
        "lattice_ranks": ranks,
        "lattice_discriminants": discs,
        "complement_min_norms": norm_values,
        "failures": failures,
    }


def verify_cao(n_max: int = 8, samples: int = 500, seed: int = 0) -> dict:
    """Random-graph check of the eigenvalue bound against the cone criterion.

    For each sample: lambda_max(S(G)) <= 3 must hold exactly when
    A(cone(G)) + 2I is positive semidefinite, and in that case
    rank(3I - S(G)) + 1 = rank(A(cone(G)) + 2I).
    """
    if not 0 <= n_max <= 10:
        raise ValueError("n_max must be in 0..10")
    rng = random.Random(seed)
    failures: list[dict] = []
    bounded = 0
    for _ in range(samples):
        n = rng.randint(0, n_max)
        G = Graph.from_triangle_bits(n, rng.getrandbits(n * (n - 1) // 2))
        cone_gram = adjacency_matrix(cone(G)).add(IntMatrix.identity(G.n + 1).scale(2))
        eig_ok = max_eig_le(seidel_of_graph(G), 3)
        cone_ok = is_psd(cone_gram)
        record = {"n": n, "triangle_bits": G.triangle_bits()}
        if eig_ok != cone_ok:
            failures.append({**record, "detail": f"bound {eig_ok} vs cone {cone_ok}"})
            continue
        if eig_ok:
            bounded += 1
            lhs = rank(_three_i_minus_s(G)) + 1
            rhs = rank(cone_gram)
            if lhs != rhs:
                failures.append({**record, "detail": f"ranks {lhs} != {rhs}"})
    return {
        "ok": not failures,
        "samples": samples,
        "n_max": n_max,
        "seed": seed,
        "bounded_cases": bounded,
        "failures": failures,
    }


# -- export builders ------------------------------------------------------


def omega_table_json(table: OmegaTable) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "omega": list(table.omega),
        "raw_orbit_counts": list(table.raw_orbit_counts),
    }


def s_table_json(table: STable) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "s": list(table.s),
        "s_e": list(table.s_e),
        "provenance": list(table.provenance),
    }


def reps_records(n: int) -> list[dict]:
    """One record per orbit representative: subset, class key, rank, and the
    root-lattice type generated by the witness vectors with r."""
    ctx = e8_context()
    out = []
    for subset in class_transversal(n):
        G = phi_graph(subset)
        vectors = _class_vectors(subset) + [ctx.r]
        basis = [RootVector(row) for row in hnf([list(v.coords2) for v in vectors])]
        family = classify_root_lattice(len(basis), gram_determinant(basis))
        out.append(
            {
                "n": n,
                "subset": list(subset),
                "key_hex": canonical_key(G).hex,
                "rank": rank(_three_i_minus_s(G)),
                "lattice_family": family,
            }
        )
    return out
