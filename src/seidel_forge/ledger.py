"""The verify ledger: one check per statement of the paper, in ledger order.

Each check takes the parsed verify options and returns (problems,
pass_text): the ledger prints PASS with the text when there are no
problems, and FAIL with the problems otherwise.
"""
from __future__ import annotations

from argparse import Namespace

from .canon import canonical_form_bits
from .enumeration import (
    Witness, _rank_and_bound, brute_force_counts, class_transversal, dst_witness, e8_context,
    kn_witness, omega_table, phi, s_table, verify_cao, verify_fiber_n6,
)
from .root_lattices import n_r, roots
from .seidel_core import Graph, canonical_key
from .weyl_orbits import (
    PermGroup, induced_action_on_classes, stabilizer_of_root, weyl_group_on_roots,
)

__all__ = ["CHECKS", "CHECK_NAMES"]


def _cor_sn_residual_errors(table) -> list[str]:
    """The arithmetic identities relating s, s_e and omega for n >= 8."""
    errors = []
    omega = omega_table().omega
    top = len(table.s) - 1
    for n in range(8, top + 1):
        if table.s[n] != table.s_e[n] + 2:
            errors.append(f"s({n}) != s_e({n}) + 2")
        expected = n - 6 if n <= 12 else n // 2 + 1
        if table.s[n] - omega[n] != expected:
            errors.append(f"s({n}) - omega({n}) != {expected}")
    return errors


def _check_thm_cao(cfg: Namespace) -> tuple[list[str], str]:
    failures, bounded = verify_cao(cfg.samples, cfg.seed)
    problems = [f"{len(failures)} failures"] if failures else []
    return problems, (
        f"{cfg.samples} random graphs on <= 8 vertices, "
        f"{bounded} with lambda_max <= 3; 0 failures"
    )


def _check_lem_a(cfg: Namespace) -> tuple[list[str], str]:
    ctx = e8_context()
    problems = []
    # building the context checked the representatives' Gram matrix
    n_r_count = len(n_r(ctx.spec, ctx.r))
    if len(ctx.classes) != 28:
        problems.append(f"{len(ctx.classes)} pair-classes != 28")
    if n_r_count != 56:
        problems.append(f"{n_r_count} roots with (u, r) = 1 != 56")
    problems.extend(verify_fiber_n6())
    # Second method for the image group: project the stabilizer of r in the
    # W(E_8) chain on 240 roots.  Equal orders of ctx.image, the projection
    # and their join mean that the two groups are equal.
    rts = roots(ctx.spec)
    r_index = rts.index(ctx.r)
    weyl = weyl_group_on_roots(ctx.spec, (r_index,))
    if weyl.order() != 696_729_600:
        problems.append(f"|W(E_8)| = {weyl.order()} != 696729600")
    stab = stabilizer_of_root(weyl, r_index)
    if stab.order() != 2_903_040:
        problems.append(f"|W(E_8)_r| = {stab.order()} != 2903040")
    projected = induced_action_on_classes(stab, rts, ctx.classes)
    order = ctx.image.order()
    if projected.order() != order:
        problems.append(f"projected stabilizer order {projected.order()} != image order {order}")
    join = PermGroup(28, ctx.image.generators + projected.generators).order()
    if join != order:
        problems.append(f"image and projected stabilizer generate order {join} != {order}")
    return problems, (
        "28 pair-classes from 56 roots; representative inner products in {0, 1}; "
        "A_7-complement min norms {2, 8}"
    )


def _family_problems(w: Witness, target: Graph, eig3: bool, label: str, mismatch: str) -> list[str]:
    """A family witness's graph must be target up to isomorphism (else only
    the mismatch is reported), its rank(3I - S) its lattice rank less one,
    lambda_max <= 3, and 3 an eigenvalue exactly when eig3."""
    if canonical_form_bits(w.graph.adj) != canonical_form_bits(target.adj):
        return [mismatch]
    rk, psd = _rank_and_bound(w.graph)
    problems = []
    if rk != w.lattice[0] - 1:
        problems.append(f"{label}: rank {rk} != {w.lattice[0] - 1}")
    if not psd:
        problems.append(f"{label}: lambda_max > 3")
    if (rk < w.graph.n) != eig3:
        problems.append(f"{label}: eigenvalue-3 boundary wrong")
    return problems


def _check_lem_sa(cfg: Namespace) -> tuple[list[str], str]:
    # 3I - S(K_n) = 2I + J is positive definite: rank n, never eigenvalue 3
    problems = [p for n in range(11) for p in _family_problems(
        kn_witness(n), Graph.complete(n), False, f"n = {n}", f"K_n mismatch at n = {n}")]
    return problems, "A_{n+1} witness reproduces [S(K_n)] for n = 0..10"


def _check_lem_sd(cfg: Namespace) -> tuple[list[str], str]:
    pairs = [(n, m) for m in range(4, 13) for n in range(m - 1, 2 * (m - 2) + 1)]
    problems = [p for n, m in pairs for p in _family_problems(
        dst_witness(n, m), Graph.complete_minus_matching(m - 2, n - m + 2), n >= m,
        f"({n}, {m})", f"({n}, {m}): graph is not D_{m - 2},{n - m + 2}")]
    return problems, (
        f"{len(pairs)} feasible (n, m) with m <= 12: graph D_(m-2),(n-m+2), "
        "rank m - 1, eigenvalue 3 exactly when n >= m"
    )


def _check_thm_sym(cfg: Namespace) -> tuple[list[str], str]:
    problems = []
    omega = omega_table().omega
    k6_key = canonical_key(Graph.complete(6))
    for n in range(29):
        keys = [phi(subset) for subset in class_transversal(n)]
        distinct = len(set(keys))
        if distinct != omega[n]:
            problems.append(f"n = {n}: {distinct} distinct keys != omega = {omega[n]}")
        if n == 6:
            doubled = sorted({k.hex for k in keys if keys.count(k) > 1})
            if doubled != [k6_key.hex]:
                problems.append(f"n = 6: doubled keys {doubled} != [key(K_6)] {k6_key.hex}")
    return problems, (
        "phi keys on the orbit transversal number omega(n) for n = 0..28; "
        "the n = 6 fiber is exactly {two orbits} over [S(K_6)]"
    )


def _check_cor_sym(cfg: Namespace) -> tuple[list[str], str]:
    table = omega_table()
    c, om = table.raw_orbit_counts, table.omega
    problems = []
    if any(c[n] != c[28 - n] for n in range(29)):
        problems.append("c(n) != c(28 - n)")
    if any(om[n] != om[28 - n] for n in range(29) if n not in (6, 22)):
        problems.append("omega(n) != omega(28 - n) off {6, 22}")
    if om[6] + 1 != om[22]:
        problems.append(f"omega(6) + 1 = {om[6] + 1} != omega(22) = {om[22]}")
    return problems, "c(n) = c(28 - n); omega symmetric except omega(6) + 1 = omega(22)"


def _check_cor_sn(cfg: Namespace) -> tuple[list[str], str]:
    errors = _cor_sn_residual_errors(s_table(28))
    return errors, "s = s_e + 2 and the s - omega residuals hold for n = 8..28"


def _check_oracle(cfg: Namespace) -> tuple[list[str], str]:
    table = s_table(cfg.n_max)
    om = omega_table().omega
    problems = []
    for n in range(cfg.n_max + 1):
        got = brute_force_counts(n)
        want = (table.s[n], table.s_e[n], om[n])
        if got != want:
            problems.append(f"n = {n}: brute force {got} != pipeline {want}")
    return problems, f"brute force agrees with the pipeline for n = 0..{cfg.n_max}"


CHECKS = (
    ("thm:Cao", _check_thm_cao),
    ("lem:A", _check_lem_a),
    ("lem:S(A)", _check_lem_sa),
    ("lem:S(D)", _check_lem_sd),
    ("thm:sym", _check_thm_sym),
    ("cor:sym", _check_cor_sym),
    ("cor:Sn", _check_cor_sn),
    ("oracle", _check_oracle),
)

CHECK_NAMES = tuple(name for name, _ in CHECKS)
