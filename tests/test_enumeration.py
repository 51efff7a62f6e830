"""The class-subset-to-switching-class map and the counting pipeline."""
import hashlib
import random
from itertools import combinations

import pytest

from seidel_forge import enumeration
from seidel_forge.canon import canonical_form_bits
from seidel_forge.enumeration import (
    SCHEMA_VERSION,
    OmegaTable,
    _orderly_ladder,
    brute_force_counts,
    class_transversal,
    construct_Dst_class,
    construct_Kn_class,
    dst_witness,
    e8_context,
    kn_witness,
    omega_table,
    phi,
    phi_graph,
    reps_records,
    s_table,
    verify_cao,
    verify_fiber_n6,
)
from seidel_forge.exact_linalg import IntMatrix, max_eig_le, rank
from seidel_forge.root_lattices import (
    RootVector,
    gram_determinant,
    gram_to_graph,
    inner,
    reflect,
    roots,
)
from seidel_forge.seidel_core import Graph, canonical_key, seidel_of_graph, switch
from seidel_forge.weyl_orbits import _compose


def _rank_3i_minus_s(G):
    return rank(IntMatrix.identity(G.n).scale(3).sub(seidel_of_graph(G)))


def _random_word(gens, rng):
    """A product of up to 20 random generators."""
    g = tuple(range(28))
    for _ in range(rng.randrange(21)):
        g = _compose(rng.choice(gens), g)
    return g


class TestE8Context:
    def test_image_from_reflections_fixing_r(self):
        # the image on the classes of each reflection s_v, (v, r) = 0, keyed to
        # its lexicographically positive root v (s_v = s_{-v})
        ctx = e8_context()
        assert ctx._fields == ("spec", "r", "classes", "image", "graph")
        identity = tuple(range(28))
        class_of = {m.coords2: i for i, c in enumerate(ctx.classes) for m in c.members()}
        root_of = {
            tuple(class_of[reflect(v, c.u).coords2] for c in ctx.classes): v
            for v in roots(ctx.spec)
            if inner(v, ctx.r) == 0 and v.coords2 > (-v).coords2
        }
        assert len(root_of) == 63  # distinct reflections act differently
        gens = ctx.image.generators
        assert len(gens) == 7
        assert all(g != identity and _compose(g, g) == identity for g in gens)
        # a simple system of E_7: a Cartan matrix with Gram determinant 2
        simple = [root_of[g] for g in gens]
        for i, u in enumerate(simple):
            for j, v in enumerate(simple):
                assert inner(u, v) == 2 if i == j else inner(u, v) in (0, -1)
        assert gram_determinant(simple) == 2
        assert ctx.image.order() == 1451520
        # the 7 generate every reflection fixing r
        assert all(ctx.image._sift(g, 0) == identity for g in root_of)


class TestPhi:
    def test_empty_subset(self):
        assert phi(()) == canonical_key(Graph.empty(0))

    def test_full_subset(self):
        key = phi(tuple(range(28)))
        assert key.n == 28
        assert phi(list(range(28))) == key

    def test_input_validation(self):
        with pytest.raises(ValueError):
            phi((0, 0))
        with pytest.raises(ValueError):
            phi((28,))
        with pytest.raises(ValueError):
            phi((-1,))

    def test_class_choice_invariance(self):
        # replacing any representative u_i by its partner r - u_i lands in the
        # same switching class: the graph changes only by a switching.  The
        # sizes cover the class graph's restriction to the empty set, the
        # middle and the full set.
        ctx = e8_context()
        rng = random.Random(31)
        for n, trials in ((0, 1), (1, 5), (2, 10), (6, 50), (14, 10), (27, 5), (28, 5)):
            for _ in range(trials):
                subset = tuple(sorted(rng.sample(range(28), n)))
                flip = {i for i in range(n) if rng.random() < 0.5}
                vectors = [
                    (ctx.classes[c].partner if i in flip else ctx.classes[c].u)
                    for i, c in enumerate(subset)
                ]
                H = gram_to_graph(vectors)
                assert H == switch(phi_graph(subset), flip)
                assert canonical_key(H) == phi(subset)

    def test_key_bytes_golden_digest(self):
        # every phi key on the transversals, as reps prints them; a change of
        # key bytes is deliberate only with a new SCHEMA_VERSION and digest
        lines = [phi(subset).hex for n in range(29) for subset in class_transversal(n)]
        assert (len(lines), len(set(lines))) == (931, 930)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "c2373d540afad6cb9654b4ba22f89a495106fcab9e565d39bca35da91c17db83"
        assert SCHEMA_VERSION == 1

    def test_orbit_invariance(self):
        # phi is constant on orbits of the induced 28-point action
        image = e8_context().image
        gens = image.generators
        rng = random.Random(17)
        reps = class_transversal(6)
        checks = 0
        while checks < 1000:
            for subset in reps:
                g = _random_word(gens, rng)
                moved = tuple(sorted(g[x] for x in subset))
                assert phi(moved) == phi(subset)
                checks += 1


class TestTransversalProperties:
    @pytest.mark.parametrize("n", range(29))
    def test_representatives_satisfy_bound_and_rank(self, n):
        for subset in class_transversal(n):
            G = phi_graph(subset)
            assert max_eig_le(seidel_of_graph(G), 3)
            assert _rank_3i_minus_s(G) <= 7

    @pytest.mark.parametrize("n", range(29))
    def test_phi_injectivity_up_to_known_fiber(self, n):
        # distinct keys = orbit count, except the single doubled class at n = 6
        reps = class_transversal(n)
        keys = {phi(subset) for subset in reps}
        expected = omega_table().raw_orbit_counts[n] - (1 if n == 6 else 0)
        assert len(keys) == expected

    def test_counts_match_burnside(self, e8_scan):
        # the ladder's one key must give exactly c(n) groups at every n; the
        # scan, which never reads c(n), gives the same lists wherever it is
        # feasible
        c = omega_table().raw_orbit_counts
        assert [len(class_transversal(n)) for n in range(29)] == list(c)
        for n in list(range(9)) + list(range(20, 29)):
            assert list(class_transversal(n)) == e8_scan(n)

    @pytest.mark.parametrize("n", range(9, 20))
    def test_representatives_are_orbit_minima(self, n):
        # the sizes the scan cannot reach: no random image is lex-smaller
        gens = e8_context().image.generators
        rng = random.Random(n)
        reps = class_transversal(n)
        for _ in range(-(-1000 // len(reps))):
            for rep in reps:
                g = _random_word(gens, rng)
                assert tuple(sorted(g[x] for x in rep)) >= rep

    @pytest.mark.parametrize("n", [-1, 29])
    def test_size_out_of_range(self, n):
        with pytest.raises(ValueError):
            class_transversal(n)


def _least_orbit_members(gens, m):
    """Lex-least member of every orbit of subsets of range(m), by closing
    each subset's orbit under gens: one tuple per subset size."""
    done = set()
    levels = [[] for _ in range(m + 1)]
    for mask in range(1 << m):
        if mask in done:
            continue
        orbit, stack = {mask}, [mask]
        while stack:
            cur = stack.pop()
            for g in gens:
                image = sum(1 << g[v] for v in range(m) if cur >> v & 1)
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
        done |= orbit
        least = min(tuple(v for v in range(m) if o >> v & 1) for o in orbit)
        levels[len(least)].append(least)
    return tuple(tuple(sorted(level)) for level in levels)


class TestOrderlyLadder:
    @staticmethod
    def inputs():
        return (
            e8_context().image.generators,
            phi_graph(range(28)).adj,
            omega_table().raw_orbit_counts,
        )

    @pytest.mark.parametrize("n,delta", [(6, -1), (6, 1), (10, -1), (10, 1), (14, -1), (14, 1)])
    def test_orbit_count_off_by_one(self, n, delta):
        gens, adj, counts = self.inputs()
        bad = list(counts)
        bad[n] += delta
        with pytest.raises(RuntimeError, match=f"n = {n}:"):
            _orderly_ladder(gens, adj, bad)

    def test_levels_of_the_key_counted_from_scratch(self):
        # the ladder carries p as packed columns from S to S + x; counting
        # every p(a, b) and p(y, a) in each candidate instead gives the same
        # levels
        gens, adj, counts = self.inputs()
        m = len(adj)
        edges = [[adj[a] >> b & 1 for b in range(m)] for a in range(m)]
        odd = [
            [sum(1 << w for w in range(m) if w not in (a, b) and (e[b] + e[w] + edges[b][w]) % 2) for b in range(m)]
            for a, e in enumerate(edges)
        ]

        def key(T):
            mask = sum(1 << v for v in T)
            p = [[(odd[a][b] & mask).bit_count() for b in T] for a in T]
            r = [sum(row) for row in p]
            rs = sorted((ra, sum(q * rb for q, rb in zip(row, r))) for ra, row in zip(r, p))
            c = sorted(sum((odd[y][a] & mask).bit_count() for a in T) for y in range(m) if not mask >> y & 1)
            return tuple(rs), tuple(c)

        levels = [((),)]
        for _ in range(m):
            least = {}
            for S in levels[-1]:
                for x in range(S[-1] + 1 if S else 0, m):
                    least.setdefault(key(S + (x,)), S + (x,))
            levels.append(tuple(least.values()))
        assert _orderly_ladder(gens, adj, counts) == tuple(levels)

    def test_generator_breaking_triple_parity(self):
        # the transposition (0 1) is no automorphism of the two-graph, so the
        # ladder's key would not be an orbit invariant of the group it joins
        gens, adj, counts = self.inputs()
        swap = (1, 0) + tuple(range(2, 28))
        with pytest.raises(RuntimeError, match="odd triple"):
            _orderly_ladder(gens + (swap,), adj, counts)

    def test_fields_hold_the_largest_key(self):
        # at T = all 32 vertices of K_32, p(a, b) = 30, R[a] = 930 and
        # s_a = 864,900 = ((m - 1)(m - 2))^2, the top of a 20-bit field;
        # S_32 has one orbit on the n-subsets for every n
        m = 32
        full = (1 << m) - 1
        adj = [full ^ 1 << v for v in range(m)]
        gens = [(1, 0) + tuple(range(2, m)), tuple(range(1, m)) + (0,)]
        expected = tuple((tuple(range(n)),) for n in range(m + 1))
        assert _orderly_ladder(gens, adj, [1] * (m + 1)) == expected

    def test_paley_two_graph_against_brute_force(self):
        # the regular two-graph on 14 points: Paley(13) and an isolated
        # vertex 13 standing for infinity, under PSL(2, 13), generated by
        # x -> x + 1 and x -> -1/x; the ladder certifies every level
        q = 13
        squares = {x * x % q for x in range(1, q)}
        adj = [sum(1 << b for b in range(q) if (a - b) % q in squares) for a in range(q)] + [0]
        gens = [
            tuple((x + 1) % q for x in range(q)) + (q,),
            tuple(-pow(x, q - 2, q) % q if x else q for x in range(q)) + (0,),
        ]
        levels = _least_orbit_members(gens, q + 1)
        assert [len(level) for level in levels] == [1, 1, 1, 2, 4, 5, 7, 10, 7, 5, 4, 2, 1, 1, 1]
        assert _orderly_ladder(gens, adj, [len(level) for level in levels]) == levels

    def test_cycle_key_falls_short_of_its_dihedral_orbits(self):
        # the two-graph of C_9 has automorphism group D_9, whose 4 orbits on
        # pairs are the distances 1..4; pairs at distance 3 and 4 both lie in
        # 4 odd triples, so the key's 3 classes are refused at n = 2
        m = 9
        adj = [1 << (v + 1) % m | 1 << (v - 1) % m for v in range(m)]
        gens = [tuple((v + 1) % m for v in range(m)), tuple(-v % m for v in range(m))]
        counts = [len(level) for level in _least_orbit_members(gens, m)]
        with pytest.raises(RuntimeError, match="n = 2: 3 key classes != 4 orbits"):
            _orderly_ladder(gens, adj, counts)

    def test_generator_check_against_brute_force(self):
        # a generator is refused exactly when it flips some triple's parity;
        # one that keeps every parity passes the check, so wrong counts stop
        # the ladder at a level
        rng = random.Random(7)
        refused = kept = 0
        for _ in range(300):
            m = rng.randint(3, 7)
            adj = [0] * m
            for a, b in combinations(range(m), 2):
                if rng.random() < 0.5:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
            g = rng.sample(range(m), m)

            def parity(a, b, w):
                return (adj[a] >> b ^ adj[a] >> w ^ adj[b] >> w) & 1

            flips = any(parity(*t) != parity(*map(g.__getitem__, t)) for t in combinations(range(m), 3))
            with pytest.raises(RuntimeError, match="odd triple" if flips else "n = "):
                _orderly_ladder([g], adj, [0] * (m + 1))
            refused += flips
            kept += not flips
        assert refused > 50 and kept > 50


class TestOmegaTable:
    def test_shape(self):
        table = omega_table()
        assert len(table.omega) == 29
        assert table.raw_orbit_counts[6] == table.omega[6] + 1
        for n in range(29):
            if n != 6:
                assert table.raw_orbit_counts[n] == table.omega[n]

    def test_omega_at_bounds(self):
        table = omega_table()
        assert table.omega_at(29) == 0
        assert table.omega_at(100) == 0
        assert table.omega_at(0) == 1
        with pytest.raises(ValueError):
            table.omega_at(-1)

    def test_symmetry(self):
        # subset orbits are complement-symmetric; omega inherits this except
        # where the n = 6 fiber collision breaks it against n = 22
        c = omega_table().raw_orbit_counts
        for n in range(29):
            assert c[n] == c[28 - n]


class TestThreeIMinusS:
    def test_built_from_adjacency(self):
        # one pass over G.adj gives the same matrix as 3I - S(G)
        rng = random.Random(3)
        for n in range(9):
            G = Graph.from_triangle_bits(n, rng.getrandbits(n * (n - 1) // 2))
            expected = IntMatrix.identity(n).scale(3).sub(seidel_of_graph(G))
            assert enumeration._three_i_minus_s(G) == expected


class TestFamilyWitnesses:
    def test_kn_small(self):
        w = kn_witness(3)
        assert w.graph == Graph.complete(3)
        assert w.spec.name == "A4"
        assert construct_Kn_class(3) == canonical_key(Graph.complete(3))

    def test_kn_zero(self):
        assert construct_Kn_class(0) == canonical_key(Graph.empty(0))
        with pytest.raises(ValueError):
            kn_witness(-1)

    def test_kn_rank_equals_n(self):
        # 3I - S(K_n) = 2I + J is positive definite: never an eigenvalue 3
        for n in range(1, 11):
            w = kn_witness(n)
            assert max_eig_le(seidel_of_graph(w.graph), 3)
            assert _rank_3i_minus_s(w.graph) == n

    def test_dst_graph_shape(self):
        w = dst_witness(7, 8)
        ref = Graph.complete_minus_matching(6, 1)
        assert canonical_form_bits(w.graph.adj) == canonical_form_bits(ref.adj)
        assert w.spec.name == "D8"

    def test_dst_interior_has_eigenvalue_3(self):
        w = dst_witness(12, 9)
        assert max_eig_le(seidel_of_graph(w.graph), 3)
        assert _rank_3i_minus_s(w.graph) == 8  # m - 1 < n: eigenvalue 3

    def test_dst_boundary_rank_full(self):
        # at n = m - 1 the rank equals n, so the bound is strict
        w = dst_witness(3, 4)
        assert canonical_form_bits(w.graph.adj) == canonical_form_bits(Graph.path(3).adj)
        assert _rank_3i_minus_s(w.graph) == 3

    @pytest.mark.parametrize("n,m", [(3, 5), (7, 4), (5, 3)])
    def test_dst_infeasible(self, n, m):
        with pytest.raises(ValueError):
            dst_witness(n, m)

    def test_dst_key_matches_complete_minus_matching(self):
        assert construct_Dst_class(8, 6) == canonical_key(
            Graph.complete_minus_matching(4, 4)
        )

    def test_witnesses_run_no_key_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(enumeration, "canonical_key", calls.append)
        kn_witness(5)
        dst_witness(8, 6)
        assert calls == []

    def test_witnesses_check_the_vertex_count_first(self, monkeypatch):
        # the lattice of A_{n+1} or D_m is never built for n > 32
        def refuse(*args):
            raise AssertionError("generates ran")

        monkeypatch.setattr(enumeration, "generates", refuse)
        for build in (lambda: kn_witness(33), lambda: dst_witness(34, 19),
                      lambda: construct_Kn_class(100)):
            with pytest.raises(ValueError, match=r"^vertex count must be in 0\.\.32$"):
                build()


class TestSTable:
    def test_small_prefix(self):
        t = s_table(4)
        assert t.s == (1, 1, 1, 2, 3)
        assert t.s_e == (0, 0, 0, 0, 1)
        assert len(t.provenance) == 5
        assert all(t.provenance)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            s_table(29)
        with pytest.raises(ValueError):
            s_table(-1)

    def test_matches_brute_force(self):
        t = s_table(7)
        for n in range(8):
            s, s_e, omega = brute_force_counts(n)
            assert (t.s[n], t.s_e[n]) == (s, s_e)
            assert omega_table().omega[n] == omega


class TestBruteForce:
    def test_frozen_small_values(self):
        # classes with lambda_max <= 3 on 0..5 vertices, exhausted directly
        expected = [
            (1, 0, 1),
            (1, 0, 1),
            (1, 0, 1),
            (2, 0, 2),
            (3, 1, 3),
            (5, 1, 5),
        ]
        assert [brute_force_counts(n) for n in range(6)] == expected

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_counts(8)


class TestVerifiers:
    def test_fiber_n6(self):
        report = verify_fiber_n6()
        assert report["ok"], report["failures"]
        assert report["rep_count"] == 10
        assert report["distinct_keys"] == 9
        assert report["duplicated_key"] == canonical_key(Graph.complete(6)).hex
        assert len(report["fiber_subsets"]) == 2
        assert report["lattice_ranks"] == [7, 7]
        assert report["lattice_discriminants"] == [8, 8]
        assert report["complement_min_norms"] == [2, 8]

    def test_fiber_complement_of_other_rank_fails(self, monkeypatch):
        # the min norm is read off a single generator; rank 2 must fail cleanly
        plane = [RootVector((2, 2, 0, 0, 0, 0, 0, 0)), RootVector((2, -2, 0, 0, 0, 0, 0, 0))]
        monkeypatch.setattr(enumeration, "orth_complement_in_E8", lambda generators: plane)
        report = verify_fiber_n6()
        assert not report["ok"]
        assert report["complement_min_norms"] == []
        assert sum("has rank 2 != 1" in f for f in report["failures"]) == 2

    def test_cao_sampler(self):
        report = verify_cao(samples=120, seed=3)
        assert report["ok"], report["failures"]
        assert report["bounded_cases"] > 0
        assert report["samples"] == 120


class TestExports:
    def test_reps_records_n1(self):
        records = reps_records(1)
        assert records == [
            {
                "n": 1,
                "subset": [0],
                "key_hex": "01",
                "rank": 1,
                "lattice_family": "A2",
            }
        ]

    def test_reps_records_families_at_n7(self):
        families = {r["lattice_family"] for r in reps_records(7)}
        # every witness lattice is an irreducible root lattice of rank <= 8
        valid = {f"A{k}" for k in range(1, 9)} | {f"D{k}" for k in range(4, 9)}
        valid |= {"E6", "E7", "E8"}
        assert families <= valid
