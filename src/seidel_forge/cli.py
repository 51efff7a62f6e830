"""Command-line front end: count tables, verification ledger, and exports.

Exit codes: 0 success, 1 verification or IO failure, 2 usage error.
The parser declares, range-checks, defaults and dispatches every option, so
a usage error (an unknown option, or --n, --n-max or --samples out of range)
exits 2 with argparse's usage line before any computation starts.  An output
path that cannot be written exits 1, also before any computation.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from .enumeration import SCHEMA_VERSION, omega_table, reps_records, s_table
from .ledger import CHECK_NAMES, CHECKS, _cor_sn_residual_errors

__all__ = ["main", "cli", "TABLE2_S", "TABLE2_SE", "TABLE3_OMEGA"]

# Reference values transcribed from the published classification tables.
# These are ground truth for --check-paper and are never computed here.
TABLE2_S = (1, 1, 1, 2, 3, 5, 9, 16, 25, 40, 58, 75, 96, 108)
TABLE2_SE = (0, 0, 0, 0, 1, 1, 4, 9, 23, 38, 56, 73, 94, 106)
TABLE3_OMEGA = (
    1, 1, 1, 2, 3, 5, 9, 16, 23, 37, 54, 70, 90, 101, 103,
    101, 90, 70, 54, 37, 23, 16, 10, 5, 3, 2, 1, 1, 1, 0,
)


def _output_error(path: str | None) -> str | None:
    """Why the output path cannot be written, or None if it can (or is stdout)."""
    if path is None:
        return None
    if not path:
        return "output path is empty"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"output directory does not exist: {parent}"
    if os.path.isdir(path):
        return f"output path is a directory: {path}"
    if os.path.exists(path):
        if not os.access(path, os.W_OK):
            return f"output path is not writable: {path}"
    elif not os.access(parent, os.W_OK):
        return f"output directory is not writable: {parent}"
    return None


def _render(cfg: argparse.Namespace, kind: str, payload: dict, records: list[dict],
            rows: list[tuple[str, list]], footer: str = "", **header) -> int:
    """Write a command's output, in the chosen format, to stdout or the output
    file: payload as json; a header line and one line per record as jsonl;
    rows as an aligned table with n along the columns, then footer, as
    text-table.  A failed write raises OSError, which main reports."""
    stamp = None
    if not cfg.no_meta:  # imported here, so --no-meta runs never load datetime
        from datetime import datetime, timezone
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if cfg.fmt != "text-table":  # likewise, text-table runs never load json
        import json
    if cfg.fmt == "json":
        if stamp:
            payload = {**payload, "meta": {"generated_at": stamp}}
        text = json.dumps(payload, indent=2) + "\n"
    elif cfg.fmt == "jsonl":
        head = {"schema_version": SCHEMA_VERSION, "kind": kind, **header, "count": len(records)}
        if stamp:
            head["generated_at"] = stamp
        text = "\n".join(json.dumps(x) for x in [head, *records]) + "\n"
    else:
        label_w = max(len(label) for label, _ in rows)
        widths = [max(len(str(v)) for v in column) for column in zip(*(vals for _, vals in rows))]
        lines = [] if stamp is None else [f"# generated-at: {stamp}"]
        for label, values in rows:
            cells = " ".join(str(v).rjust(w) for v, w in zip(values, widths))
            lines.append(f"{label.ljust(label_w)} | {cells}")
        text = "\n".join(lines) + "\n" + footer
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# -- omega-table ----------------------------------------------------------


def cmd_omega_table(cfg: argparse.Namespace) -> int:
    table = omega_table()
    if cfg.check_paper:
        got = (*table.omega, 0)  # omega(29) = 0: there are 28 pair-classes
        if got != TABLE3_OMEGA:
            bad = [n for n, (a, b) in enumerate(zip(got, TABLE3_OMEGA)) if a != b]
            print(f"omega mismatch against the reference table at n = {bad}", file=sys.stderr)
            return 1
        print("check-paper: omega(0..29) matches the reference table", file=sys.stderr)
    records = [
        {"n": n, "omega": table.omega[n], "orbit_count": table.raw_orbit_counts[n]}
        for n in range(29)
    ]
    rows = [
        ("n", list(range(29))),
        ("omega", list(table.omega)),
        ("c", list(table.raw_orbit_counts)),
    ]
    payload = {"schema_version": SCHEMA_VERSION, **table._asdict()}
    return _render(cfg, "omega-table", payload, records, rows)


# -- s-table --------------------------------------------------------------


def cmd_s_table(cfg: argparse.Namespace) -> int:
    n_max = cfg.n_max
    table = s_table(n_max)
    if cfg.check_paper:
        upto = min(n_max, 13)
        if (
            table.s[: upto + 1] != TABLE2_S[: upto + 1]
            or table.s_e[: upto + 1] != TABLE2_SE[: upto + 1]
        ):
            print("s/s_e mismatch against the reference table", file=sys.stderr)
            return 1
        print(f"check-paper: s, s_e match the reference table for n = 0..{upto}", file=sys.stderr)
    residuals = _cor_sn_residual_errors(table)
    if residuals:
        print("residual identities failed: " + "; ".join(residuals), file=sys.stderr)
        return 1
    records = [
        {
            "n": n,
            "s": table.s[n],
            "s_e": table.s_e[n],
            "provenance": table.provenance[n],
        }
        for n in range(n_max + 1)
    ]
    rows = [
        ("n", list(range(n_max + 1))),
        ("s", list(table.s)),
        ("s_e", list(table.s_e)),
    ]
    footer = (
        f"residuals for n = 8..{n_max}: s - s_e = 2 and "
        "s - omega = n - 6 (n <= 12), floor(n/2) + 1 (n >= 13): OK\n"
        if n_max >= 8 else ""
    )
    payload = {"schema_version": SCHEMA_VERSION, **table._asdict()}
    return _render(cfg, "s-table", payload, records, rows, footer)


# -- verify ---------------------------------------------------------------


def cmd_verify(cfg: argparse.Namespace) -> int:
    selected = [(n, f) for n, f in CHECKS if cfg.only in (None, n)]
    all_ok = True
    width = max(len(n) for n, _ in selected)
    for name, fn in selected:
        problems, pass_text = fn(cfg)
        all_ok = all_ok and not problems
        detail = "; ".join(problems) if problems else pass_text
        print(f"[{'FAIL' if problems else 'PASS'}] {name.ljust(width)}  {detail}")
    return 0 if all_ok else 1


# -- reps -----------------------------------------------------------------


def cmd_reps(cfg: argparse.Namespace) -> int:
    n = cfg.n
    records = reps_records(n)
    rows = [
        ("index", list(range(len(records)))),
        ("rank", [r["rank"] for r in records]),
        ("lattice", [r["lattice_family"] for r in records]),
    ]
    payload = {"schema_version": SCHEMA_VERSION, "n": n, "records": records}
    return _render(cfg, "reps", payload, records, rows, n=n)


# -- entry points ---------------------------------------------------------


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an int in lo..hi, or at least lo when hi is None."""

    def checked(text: str) -> int:
        value = int(text)
        if value < lo or hi is not None and value > hi:
            raise argparse.ArgumentTypeError(
                f"must be >= {lo}" if hi is None else f"must be in {lo}..{hi}"
            )
        return value

    checked.__name__ = "int"  # argparse's "invalid int value" names the type
    return checked


class _CommandParser(argparse.ArgumentParser):
    """Reports an argument the subcommand does not take under the
    subcommand's usage line, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return ns, extras


def _output_options(fmt: str) -> argparse.ArgumentParser:
    """--no-meta, --format and -o, built per command: parents share actions."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--no-meta",
        action="store_true",
        help="omit the generated-at timestamp from the output",
    )
    p.add_argument("--format", dest="fmt", choices=["json", "jsonl", "text-table"], default=fmt)
    p.add_argument("-o", "--output", dest="output_path", help="write to this file instead of stdout")
    return p


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parsing leaves it unchanged."""
    check_paper = argparse.ArgumentParser(add_help=False)
    check_paper.add_argument("--check-paper", action="store_true", help="compare with the reference table; exit 1 on mismatch")

    parser = argparse.ArgumentParser(
        prog="seidel-forge",
        description="Switching classes of graphs whose Seidel matrix has "
        "largest eigenvalue at most 3: count tables, verification, exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser(
        "omega-table",
        parents=[check_paper, _output_options("text-table")],
        help="omega(0..28) and the raw subset-orbit counts c(0..28)",
    )
    p.set_defaults(run=cmd_omega_table)

    p = sub.add_parser(
        "s-table",
        parents=[check_paper, _output_options("text-table")],
        help="s(n) and s_e(n) for n = 0..n_max",
    )
    p.add_argument("--n-max", dest="n_max", type=_int_in(0, 28), default=13, help="top row index, 0..28 (default 13)")
    p.set_defaults(run=cmd_s_table)

    p = sub.add_parser(
        "verify",
        help="run the named consistency checks and print a pass/fail ledger",
    )
    p.add_argument("--only", choices=CHECK_NAMES, default=None, help="run a single named check")
    p.add_argument("--n-max", dest="n_max", type=_int_in(0, 7), default=5, help="brute-force depth for the oracle check, 0..7 (default 5)")
    p.add_argument("--samples", type=_int_in(0), default=500, help="random graphs for the thm:Cao check, >= 0")
    p.add_argument("--seed", type=int, default=0, help="random seed for the thm:Cao check")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser(
        "reps",
        parents=[_output_options("jsonl")],
        help="orbit representatives at size n with keys, ranks, lattice types",
    )
    p.add_argument("--n", type=_int_in(0, 28), required=True, help="subset size, 0..28")
    p.set_defaults(run=cmd_reps)

    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    err = _output_error(getattr(ns, "output_path", None))
    if err:
        print(err, file=sys.stderr)
        return 1
    try:
        return ns.run(ns)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
