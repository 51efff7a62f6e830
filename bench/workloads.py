"""Workload definitions, input generation and output checks.

Every workload is run in fresh child processes (see child.py).  The inputs
come from the seed alone, and the checks compare the program's output with
reference values carried here, not with tables imported from the package.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable

# omega(0..28), transcribed from the published classification table.
OMEGA = (
    1, 1, 1, 2, 3, 5, 9, 16, 23, 37, 54, 70, 90, 101, 103,
    101, 90, 70, 54, 37, 23, 16, 10, 5, 3, 2, 1, 1, 1,
)
# c(n) = omega(n) + [n = 6]: the subset-orbit counts on the 28 pair-classes.
ORBITS = tuple(w + (n == 6) for n, w in enumerate(OMEGA))

VERIFY_CHECKS = (
    "thm:Cao", "lem:A", "lem:S(A)", "lem:S(D)",
    "thm:sym", "cor:sym", "cor:Sn", "oracle",
)
REPS_HIGH = tuple(range(20, 29))
KEY_FAMILIES = ("lattice", "K", "D")


# -- keys inputs -----------------------------------------------------------


def e8_pair_class_graph() -> list[int]:
    """Adjacency bitmasks of the 28 pair-classes of E_8 roots at a root r.

    Built here from first principles, independently of the package: the
    roots u with (u, r) = 1 fall into 28 pairs {u, r - u}.  Representatives
    of distinct classes have inner product 0 or 1, and vertices i, j are
    adjacent when it is 1, so the Gram matrix is A + 2I.  Another choice of
    representatives switches the graph, which leaves its class unchanged.
    Coordinates are doubled so that every root is an integer vector.
    """
    roots = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            roots.append(tuple(v))
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(signs)

    def inner(u, v):  # the true inner product is a quarter of this
        return sum(a * b for a, b in zip(u, v))

    r = (2, 2, 0, 0, 0, 0, 0, 0)
    reps = sorted({
        min(u, tuple(a - b for a, b in zip(r, u)))
        for u in roots
        if inner(u, r) == 4
    })
    assert len(reps) == 28
    adj = [0] * 28
    for i, j in combinations(range(28), 2):
        if inner(reps[i], reps[j]) == 4:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def induced(adj: list[int], vertices) -> list[int]:
    """Adjacency of the subgraph induced on vertices, relabelled 0..k-1."""
    vertices = list(vertices)
    out = []
    for v in vertices:
        row = 0
        for k, w in enumerate(vertices):
            row |= (adj[v] >> w & 1) << k
        out.append(row)
    return out


def complete(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full ^ (1 << v) for v in range(n)]


def complete_minus_matching(s: int, t: int) -> list[int]:
    """K_{s+t} minus the matching {2k, 2k+1 : k < t}, t <= s."""
    adj = complete(s + t)
    for k in range(t):
        adj[2 * k] ^= 1 << (2 * k + 1)
        adj[2 * k + 1] ^= 1 << (2 * k)
    return adj


def switched_relabelled(adj: list[int], rng: random.Random) -> list[int]:
    """A random switching followed by a random relabelling of the graph."""
    n = len(adj)
    full = (1 << n) - 1
    mask = rng.getrandbits(n) if n else 0
    switched = [
        (row ^ ((full ^ mask) if mask >> v & 1 else mask)) & ~(1 << v)
        for v, row in enumerate(adj)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for v, row in enumerate(switched):
        new = 0
        for w in range(n):
            if row >> w & 1:
                new |= 1 << perm[w]
        out[perm[v]] = new
    return out


def key_cases(seed: int, sizes) -> list[dict]:
    """One case per family and size: a graph, its twin and the expected rank.

    The rank of 3I - S is at most 7 for a lattice graph, n for K_n and
    s + 1 for K_{s+t} minus a matching of size t (here t = n // 4).
    """
    rng = random.Random(seed)
    pair_classes = e8_pair_class_graph()
    cases = []
    for family in KEY_FAMILIES:
        for n in sizes:
            if family == "lattice":
                adj = induced(pair_classes, sorted(rng.sample(range(28), n)))
                rank = ("le", 7)
            elif family == "K":
                adj = complete(n)
                rank = ("eq", n)
            else:
                t = n // 4
                adj = complete_minus_matching(n - t, t)
                rank = ("eq", n - t + 1)
            cases.append({
                "family": family,
                "n": n,
                "graph": adj,
                "twin": switched_relabelled(adj, rng),
                "rank": rank,
            })
    return cases


# -- output checks ---------------------------------------------------------
#
# Each check returns (attempted, failed).  A child that raised, exited
# non-zero or gave no output fails every check it owed.


def _table_row(lines: list[str], label: str) -> list[int] | None:
    for line in lines:
        head, sep, cells = line.partition("|")
        if sep and head.strip() == label:
            try:
                return [int(x) for x in cells.split()]
            except ValueError:
                return None
    return None


def check_omega(stdout: str, job: dict) -> tuple[int, int]:
    """omega(0..28) and c(n) = omega(n) + [n = 6], one check per value."""
    lines = stdout.splitlines()
    owed = 2 * len(OMEGA)
    omega, c = _table_row(lines, "omega"), _table_row(lines, "c")
    if omega is None or c is None:
        return owed, owed
    failed = sum(
        1
        for got, want in ((omega, OMEGA), (c, ORBITS))
        for n in range(len(want))
        if n >= len(got) or got[n] != want[n]
    )
    return owed, failed


def check_verify(stdout: str, job: dict) -> tuple[int, int]:
    """Exactly one ledger line per check, each of them [PASS]."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    owed = 1 + len(VERIFY_CHECKS)
    failed = 0 if len(lines) == len(VERIFY_CHECKS) else 1
    for name in VERIFY_CHECKS:
        if not any(line.split()[:2] == ["[PASS]", name] for line in lines):
            failed += 1
    return owed, failed


def check_reps(stdout: str, job: dict) -> tuple[int, int]:
    """Record count c(n) for each n, and rank(3I - S) <= 7 for every record."""
    sizes = job["sizes"]
    records = {n: [] for n in sizes}
    for line in stdout.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if isinstance(rec, dict) and "rank" in rec and rec.get("n") in records:
            records[rec["n"]].append(rec)
    owed = len(sizes) + sum(ORBITS[n] for n in sizes)
    failed = 0
    for n in sizes:
        got = records[n]
        failed += len(got) != ORBITS[n]
        ranks_ok = sum(1 for rec in got[: ORBITS[n]] if rec["rank"] <= 7)
        failed += ORBITS[n] - ranks_ok
    return owed, failed


def _rank_ok(rank: int, expected) -> bool:
    how, value = expected
    return rank <= value if how == "le" else rank == value


def check_keys(stdout: str, job: dict) -> tuple[int, int]:
    """Per case: twin key equals the original's, lambda_max <= 3 and the
    family's rank, both for the graph and for its twin."""
    cases = job["cases"]
    owed = 5 * len(cases)
    lines = stdout.splitlines()
    if len(lines) != 2 * len(cases):
        return owed, owed
    failed = 0
    for k, case in enumerate(cases):
        pair = [line.split() for line in lines[2 * k: 2 * k + 2]]
        if any(len(fields) != 3 for fields in pair):
            failed += 5
            continue
        (key_a, rank_a, eig_a), (key_b, rank_b, eig_b) = pair
        failed += key_a != key_b
        failed += (eig_a != "True") + (eig_b != "True")
        failed += sum(
            1
            for rank in (rank_a, rank_b)
            if not (rank.isdigit() and _rank_ok(int(rank), case["rank"]))
        )
    return owed, failed


# -- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_job: Callable[[int], dict]
    check: Callable[[str, dict], tuple[int, int]]


def _cli_job(argv: list[str]) -> Callable[[int], dict]:
    return lambda seed: {"kind": "cli", "argvs": [argv]}


def _reps_job(seed: int) -> dict:
    argvs = [["reps", "--n", str(n), "--no-meta"] for n in REPS_HIGH]
    return {"kind": "cli", "argvs": argvs, "sizes": list(REPS_HIGH)}


def _keys_job(sizes) -> Callable[[int], dict]:
    return lambda seed: {"kind": "keys", "cases": key_cases(seed, sizes)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "omega",
            "omega-table --check-paper --no-meta: the Burnside walk is ~90% of it "
            "and no transversal or canonical_key work runs",
            _cli_job(["omega-table", "--check-paper", "--no-meta"]),
            check_omega,
        ),
        Workload(
            "reps-high",
            "reps --n k --no-meta for k = 20..28 in one child: the large-subset "
            "transversal scan plus root-lattice classification of every orbit",
            _reps_job,
            check_reps,
        ),
        Workload(
            "keys",
            "seeded graphs of three families at n = 8..24 and switched, relabelled "
            "twins, keyed by canonical_key: canon and seidel_core with no group work",
            _keys_job((8, 12, 16, 20, 24)),
            check_keys,
        ),
        Workload(
            "verify",
            "verify --n-max 7: the full 8-check ledger with the deepest brute-force "
            "oracle; one child takes about 50 s",
            _cli_job(["verify", "--n-max", "7"]),
            check_verify,
        ),
        Workload(
            "keys-28",
            "the three key families at n = 28, where the canonizer's cost jumps "
            "and depends on labelling; compare at one seed only",
            _keys_job((28,)),
            check_keys,
        ),
    )
}
