"""Enumeration pipelines for switching classes with largest Seidel eigenvalue 3.

Ties everything together: the graph of roots whose Gram matrix is A + 2I,
the orderly ladder of orbit representatives of subsets of the 28
pair-classes of E_8, the map phi from those subsets to switching classes on
n vertices (it restricts the graph of the 28 classes to the subset), one
witness record for an E_8 subset and for each one-class A- or D-family, the
omega / s / s_e count tables, the two-element fiber at n = 6, and
independent brute-force and random-graph cross-checks.
"""
from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

from .canon import _switch_rows
from .exact_linalg import _pivots
from .root_lattices import (
    GramError,
    LatticeSpec,
    PairClass,
    RootVector,
    classify_root_lattice,
    generates,
    inner,
    orth_complement_in_E8,
    pair_classes,
    rank_and_discriminant,
    reflect,
    roots,
    simple_roots,
    standard_switching_root,
)
from .seidel_core import (
    Graph,
    SwitchingClassKey,
    _check_vertex_count,
    _relabel_rows,
    canonical_key,
    cone,
    switching_class_representatives,
)
from .weyl_orbits import PermGroup, burnside_subset_counts

__all__ = [
    "SCHEMA_VERSION",
    "gram_to_graph",
    "E8Context",
    "e8_context",
    "class_transversal",
    "phi",
    "phi_graph",
    "OmegaTable",
    "omega_table",
    "Witness",
    "e8_witness",
    "kn_witness",
    "dst_witness",
    "STable",
    "s_table",
    "brute_force_counts",
    "verify_fiber_n6",
    "verify_cao",
    "reps_records",
]

SCHEMA_VERSION = 1


def gram_to_graph(vectors) -> Graph:
    """Graph with i ~ j iff inner(v_i, v_j) = 1; Gram must be A(G) + 2I."""
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


class E8Context(NamedTuple):
    """The E_8 pipeline fixture: the switching root r, the 28 pair-classes,
    image, the group that the stabilizer of r in W(E_8) induces on them, and
    graph, the class graph: A + 2I is the representatives' Gram matrix."""

    spec: LatticeSpec
    r: RootVector
    classes: tuple[PairClass, ...]
    image: PermGroup
    graph: Graph


@lru_cache(maxsize=1)
def e8_context() -> E8Context:
    """Build the context; image is generated by the 7 simple reflections of
    the roots v with (v, r) = 0, an E_7.  They generate the group its 63
    reflections do, the stabilizer of r (Humphreys, Reflection Groups and
    Coxeter Groups, Thm 1.5; Steinberg, Thm 1.12).  Each fixes r, so it maps
    the class of u to the class of s_v(u).  root_lattices.simple_roots picks
    the simple roots.

    The base of image's chain comes from the two-graph of graph, whose odd
    triples the group keeps: 0, 1, the least b2 with {0, 1, b2} odd, then
    the first four of the five c with {0, 1, c} odd and {0, b2, c},
    {1, b2, c} even.  The triple's pointwise stabilizer is S_5, with orbits
    10 + 5 + 5 + 5 on the other classes, and those c are one orbit of 5, so
    the basic orbits are 28, 27, 16, 5, 4, 3, 2.  cycle_type_counts then
    walks 526 leaves; the first-moved-point base continues with S_5 on the
    orbit of 10 (basic orbits 28, 27, 16, 10, 6, 2) and walks 2,456."""
    spec = LatticeSpec("E", 8)
    r = standard_switching_root(spec)
    classes = pair_classes(spec, r)
    class_of = {m.coords2: i for i, c in enumerate(classes) for m in c.members()}
    gens = [
        tuple(class_of[reflect(v, c.u).coords2] for c in classes)
        for v in simple_roots([v for v in roots(spec) if inner(v, r) == 0])
    ]
    graph = gram_to_graph([c.u for c in classes])
    adj, m = graph.adj, len(classes)
    odd01 = _odd_row(adj, 0, 1)
    b2 = next(c for c in range(m) if odd01 >> c & 1)
    five = odd01 & ~_odd_row(adj, 0, b2) & ~_odd_row(adj, 1, b2)
    base = (0, 1, b2, *[c for c in range(b2 + 1, m) if five >> c & 1][:4])
    image = PermGroup(m, gens, base_prefix=base)
    return E8Context(spec, r, classes, image, graph)


def _odd_row(adj, a: int, b: int) -> int:
    """The bitmask of the w with {a, b, w} odd in adj; bits a and b cancel,
    as adj has no loops."""
    return adj[a] ^ adj[b] ^ -(adj[a] >> b & 1) & ((1 << len(adj)) - 1)


def _orderly_ladder(gens, adj, counts) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Least member of each orbit of n-subsets, n = 0..m, of the group gens
    generates on the vertices of the graph adj; counts[n] is the orbit count.

    p(a, b) counts the w in T - {a, b} with {a, b, w} odd in adj, and R[v]
    = sum_{a in T} p(v, a) the ordered pairs (a, w) in T with {v, a, w} odd.
    The key of T, the sorted R[a] * 2^W + s_a over a in T, with s_a = sum_b
    p(a, b) R[b], and the sorted R over all vertices, sees only odd triples,
    so every generator keeping triple parity keeps it.  g keeps it iff adj
    and adj relabelled by g are switching equivalent, that is, iff their XOR
    is a complete bipartite cut (checked first).  Level n's candidates
    S + x, x > max S, hold every orbit's least member, as S lex-least makes
    S - {max S} lex-least.  Exactly counts[n] keys means one orbit per key
    and its least candidate; else RuntimeError at that n.

    Each member carries p in W-bit fields: column P[v] holds p(a, v) in
    field a, and Rv holds R[v] in field v.  SP[x][v] holds bit a of
    odd[x][v] in field a, so T = S + x has columns P[v] + SP[x][v] and
    Rv + 2 * P[x], and its s_a are the fields of the sum over b in T of R[b]
    times T's column b: O(m + |T|) integer operations per candidate.  No
    field carries: every field of that sum, for a in T or not, is at most
    ((m - 1)(m - 2))^2 < 2^W.
    """
    m = len(adj)
    for g in gens:
        moved = _relabel_rows(adj, g)
        # switch by the side of the cut without vertex 0
        if _switch_rows(adj, adj[0] ^ moved[0]) != moved:
            raise RuntimeError("a generator maps an odd triple to an even one")

    W = max(1, ((m - 1) * (m - 2)) ** 2).bit_length()
    field = (1 << W) - 1
    shifts = [W * v for v in range(m)]
    odd = [[_odd_row(adj, x, v) for v in range(m)] for x in range(m)]
    SP = [[sum(1 << shifts[a] for a in range(m) if o >> a & 1) for o in row] for row in odd]

    levels = [((),)]
    members = [([0] * m, 0)]  # (P, Rv) of each member of the last level
    for n in range(1, m + 1):
        least: dict[tuple[int, ...], tuple] = {}
        for S, (P, Rv) in zip(levels[-1], members):  # candidates in lexicographic order
            for x in range(S[-1] + 1 if S else 0, m):
                T, Rv_T, SPx = S + (x,), Rv + 2 * P[x], SP[x]
                R = [Rv_T >> s & field for s in shifts]
                s = sum(R[b] * (P[b] + SPx[b]) for b in T)
                key = tuple(sorted(R[a] << W | s >> shifts[a] & field for a in T)) + tuple(sorted(R))
                least.setdefault(key, (T, P, x, Rv_T))
        if len(least) != counts[n]:
            raise RuntimeError(f"n = {n}: {len(least)} key classes != {counts[n]} orbits")
        levels.append(tuple(T for T, _, _, _ in least.values()))
        members = [([p + sp for p, sp in zip(P, SP[x])], Rv_T) for _, P, x, Rv_T in least.values()]
    return tuple(levels)


@lru_cache(maxsize=1)
def _class_ladder() -> tuple[tuple[tuple[int, ...], ...], ...]:
    gens, counts = e8_context().image.generators, omega_table().raw_orbit_counts
    return _orderly_ladder(gens, e8_context().graph.adj, counts)


def class_transversal(n: int) -> tuple[tuple[int, ...], ...]:
    """Lex-least member of every orbit of n-subsets of the 28 pair-classes,
    in lexicographic order (one cached ladder serves every n)."""
    if not 0 <= n <= 28:
        raise ValueError("subset size must be in 0..28")
    return _class_ladder()[n]


def _class_indices(subset) -> list[int]:
    idxs = sorted(subset)
    if len(set(idxs)) != len(idxs):
        raise ValueError("class indices must be distinct")
    if idxs and not (0 <= idxs[0] and idxs[-1] < 28):
        raise ValueError("class index out of range 0..27")
    return idxs


def phi_graph(subset) -> Graph:
    """The class graph restricted to the subset, vertex k being its k-th
    least class: the graph on its representatives, Gram matrix A(G) + 2I."""
    idxs = _class_indices(subset)
    adj = e8_context().graph.adj
    return Graph(len(idxs), tuple(sum(1 << k for k, j in enumerate(idxs) if adj[i] >> j & 1) for i in idxs))


def phi(subset) -> SwitchingClassKey:
    """Switching class of an n-subset of pair-classes (well-defined on orbits)."""
    return canonical_key(phi_graph(subset))


class OmegaTable(NamedTuple):
    """omega(n) = switching classes on n vertices with lambda_max <= 3 and
    rank(3I - S) <= 7; raw_orbit_counts are the subset-orbit counts c(n)."""

    omega: tuple[int, ...]
    raw_orbit_counts: tuple[int, ...]


@lru_cache(maxsize=1)
def omega_table() -> OmegaTable:
    """c(n) by Burnside on the 28-point image group; omega differs only at
    n = 6, where exactly two subset orbits share one switching class."""
    c = burnside_subset_counts(e8_context().image)
    omega = list(c)
    omega[6] -= 1
    return OmegaTable(tuple(omega), tuple(c))


class Witness(NamedTuple):
    """Roots u_1..u_n with (u_i, r) = 1 for the switching root r; graph has
    Gram matrix A + 2I on them, and lattice is the (rank, discriminant) of
    <u_1..u_n, r>.  rank - 1 = rank(3I - S(graph)): x_i = 2u_i - r is
    orthogonal to r, and the x_i have Gram matrix 2(3I - S), as (x_i, x_j)
    = 4(u_i, u_j) - 2."""

    r: RootVector
    vectors: tuple[RootVector, ...]
    graph: Graph
    lattice: tuple[int, int]


def e8_witness(subset) -> Witness:
    """Witness of an n-subset of the pair-classes: r, the representatives of
    its classes in phi_graph's vertex order, and phi_graph(subset)."""
    ctx, graph = e8_context(), phi_graph(subset)
    vectors = tuple(ctx.classes[i].u for i in _class_indices(subset))
    return Witness(ctx.r, vectors, graph, rank_and_discriminant([*vectors, ctx.r]))


def _witness(spec: LatticeSpec, vectors: tuple[RootVector, ...]) -> Witness:
    """Witness of vectors that, with the standard switching root, generate spec."""
    r = standard_switching_root(spec)
    if not generates([*vectors, r], spec):
        raise RuntimeError(f"witness vectors fail to generate {spec.name}")
    return Witness(r, vectors, gram_to_graph(vectors), (spec.rank, spec.discriminant))


def kn_witness(n: int) -> Witness:
    """Witness for [S(K_n)] inside A_{n+1}: vectors e_i - e_{n+2} (i = 1..n)
    with switching root r = e_{n+1} - e_{n+2} (1-indexed coordinates)."""
    _check_vertex_count(n)
    spec = LatticeSpec("A", n + 1)
    dim = n + 2
    last = RootVector.unit(n + 1, dim)
    vectors = tuple(RootVector.unit(i, dim) - last for i in range(n))
    return _witness(spec, vectors)


def dst_witness(n: int, m: int) -> Witness:
    """Witness for [S(D_{m-2,n-m+2})] inside D_m: vectors e_m + e_i
    (i = 1..m-2) and e_m - e_i (i = 1..n-m+2), r = e_{m-1} + e_m."""
    _check_vertex_count(n)
    if not (m >= 4 and 2 * (m - 2) >= n >= m - 1):
        raise ValueError(
            f"infeasible (n, m) = ({n}, {m}): need m >= 4 and 2(m-2) >= n >= m-1"
        )
    spec = LatticeSpec("D", m)
    em = RootVector.unit(m - 1, m)
    plus = [em + RootVector.unit(i, m) for i in range(m - 2)]
    minus = [em - RootVector.unit(i, m) for i in range(n - m + 2)]
    vectors = tuple(plus + minus)
    return _witness(spec, vectors)


def _rank_and_bound(G: Graph) -> tuple[int, bool]:
    """(rank(3I - S(G)), lambda_max(S(G)) <= 3) by one elimination of 3I - S:
    3 on the diagonal, 1 on edges and -1 on non-edges."""
    pivots, psd = _pivots([3 if i == j else 2 * (a >> j & 1) - 1 for j in range(G.n)] for i, a in enumerate(G.adj))
    return len(pivots), psd


def _d_range(n: int) -> range:
    """Ranks m of the D-lattices contributing a class on n vertices."""
    return range(max(9, -(-n // 2) + 2), n + 2)


class STable(NamedTuple):
    """s(n) = all switching classes with lambda_max <= 3; s_e(n) = those with
    eigenvalue exactly 3; provenance describes each row's composition."""

    s: tuple[int, ...]
    s_e: tuple[int, ...]
    provenance: tuple[str, ...]


def s_table(n_max: int = 28) -> STable:
    """Tables s(0..n_max) and s_e(0..n_max).

    For n <= 7 every class has rank(3I - S) <= 7, so s(n) = omega(n); the
    eigenvalue-3 subcount comes from the ranks of reps_records(n).
    For n >= 8 the omega(n) classes of rank <= 7 < n, all with eigenvalue 3,
    are joined by K_n from A_{n+1} (rank n) and one class per D_m in the
    feasible range (rank m - 1), which has eigenvalue 3 exactly when m <= n.
    """
    if not 0 <= n_max <= 28:
        raise ValueError("n_max must be in 0..28")
    table = omega_table()
    s, s_e, prov = [], [], []
    for n in range(n_max + 1):
        w = table.omega[n]
        if n <= 7:
            ranks = {r["key_hex"]: r["rank"] for r in reps_records(n)}
            eig3 = sum(1 for rk in ranks.values() if rk < n)
            s.append(w)
            s_e.append(eig3)
            prov.append(
                f"omega({n}) = {w} classes of rank <= 7 (no others exist); "
                f"{eig3} of the {len(ranks)} distinct classes have eigenvalue 3"
            )
            continue
        dm = _d_range(n)
        s.append(w + 1 + len(dm))
        s_e.append(w + len(range(dm.start, n + 1)))
        if n == 8:
            which, why = w, f"the extras have rank {n}, hence no eigenvalue 3"
        else:
            which, why = "all", f"eigenvalue-3 classes cap the D-range at m <= {n}"
        prov.append(
            f"omega({n}) = {w} rank<=7 classes ({which} with eigenvalue 3) "
            f"+ K_{n} from A_{n + 1} + D_m for m in {dm.start}..{dm.stop - 1}; {why}"
        )
    return STable(tuple(s), tuple(s_e), tuple(prov))


def brute_force_counts(n: int) -> tuple[int, int, int]:
    """(s, s_e, omega) on n vertices by exhausting the switching classes.

    Independent of the lattice pipeline: switching_class_representatives
    closes the graphs that isolate vertex 0 under re-rooting, and the
    spectral conditions are exact integer linear algebra.
    """
    if not 0 <= n <= 7:
        raise ValueError("brute force supports n <= 7 only")
    s = s_e = omega = 0
    for packed in switching_class_representatives(n):
        rk, bounded = _rank_and_bound(Graph.from_triangle_bits(n, packed))
        if not bounded:
            continue
        s += 1
        if rk < n:
            s_e += 1
        if rk <= 7:
            omega += 1
    return s, s_e, omega


def verify_fiber_n6() -> list[str]:
    """Problems with the one collision of phi at n = 6 and its A_7 witnesses.

    Exactly two orbit representatives map to [S(K_6)].  Each one's witness
    lattice <u_1..u_6, r> is rank 7, discriminant 8 (hence A_7-isometric),
    and its orthogonal complement in E_8 has rank 1, so its minimal norm is
    the norm of its single basis vector: 2 and 8 in some order.
    """
    k6_key = canonical_key(Graph.complete(6))
    fiber = [subset for subset in class_transversal(6) if phi(subset) == k6_key]
    problems = []
    if len(fiber) != 2:
        problems.append(f"{len(fiber)} representatives map to [S(K_6)], not 2")
    min_norms = []
    for subset in fiber:
        w = e8_witness(subset)
        if w.lattice != (7, 8):
            problems.append(f"lattice of {list(subset)} is {w.lattice} != (7, 8)")
        complement = orth_complement_in_E8([*w.vectors, w.r])
        if len(complement) == 1:
            min_norms.append(inner(complement[0], complement[0]))
        else:
            problems.append(f"complement of {list(subset)} has rank {len(complement)} != 1")
    if sorted(min_norms) != [2, 8]:
        problems.append(f"complement min norms {sorted(min_norms)} != [2, 8]")
    return problems


def verify_cao(samples: int = 500, seed: int = 0) -> tuple[list[str], int]:
    """Random-graph check of the eigenvalue bound against the cone criterion.

    For each sample, a graph G on at most 8 vertices: lambda_max(S(G)) <= 3
    must hold exactly when A(cone(G)) + 2I is positive semidefinite, and in
    that case rank(3I - S(G)) + 1 = rank(A(cone(G)) + 2I).  Returns one
    failure line per mismatch and the number of samples with
    lambda_max <= 3.
    """
    rng = random.Random(seed)
    failures: list[str] = []
    bounded = 0
    for _ in range(samples):
        n = rng.randint(0, 8)
        G = Graph.from_triangle_bits(n, rng.getrandbits(n * (n - 1) // 2))
        # one elimination per matrix gives both its PSD verdict and its rank:
        # A(cone(G)) + 2I has 2 on the diagonal and the adjacency bit elsewhere
        rk, eig_ok = _rank_and_bound(G)
        C = cone(G)
        cone_pivots, cone_ok = _pivots([2 if i == j else a >> j & 1 for j in range(C.n)] for i, a in enumerate(C.adj))
        detail = None
        if eig_ok != cone_ok:
            detail = f"bound {eig_ok} vs cone {cone_ok}"
        elif eig_ok:
            bounded += 1
            if rk + 1 != len(cone_pivots):
                detail = f"ranks {rk + 1} != {len(cone_pivots)}"
        if detail:
            failures.append(f"n = {n}, triangle bits {G.triangle_bits()}: {detail}")
    return failures, bounded


# -- export builders ------------------------------------------------------


def reps_records(n: int) -> list[dict]:
    """One record per orbit representative: subset, class key, rank of
    3I - S and the root-lattice type, all read off its e8_witness."""
    out = []
    for subset in class_transversal(n):
        w = e8_witness(subset)
        rk, disc = w.lattice
        out.append(
            {
                "n": n,
                "subset": list(subset),
                "key_hex": canonical_key(w.graph).hex,
                "rank": rk - 1,
                "lattice_family": classify_root_lattice(rk, disc),
            }
        )
    return out
