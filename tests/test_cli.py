"""Command-line interface: exit codes, formats, determinism, ledger output."""
import hashlib
import json
import os
import subprocess
import sys

import pytest

from seidel_forge import cli, enumeration, ledger, root_lattices, weyl_orbits
from seidel_forge.cli import TABLE2_S, TABLE2_SE, TABLE3_OMEGA, main
from seidel_forge.enumeration import e8_context
from seidel_forge.weyl_orbits import PermGroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_reps_without_n(self, capsys):
        # --n is required, so argparse rejects the call before cmd_reps runs
        code, out, err = run(capsys, "reps", "--no-meta")
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--n" in err

    def test_bad_verify_only(self, capsys):
        code, _, _ = run(capsys, "verify", "--only", "bogus")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n-max", "9"],
            ["verify", "--only", "oracle", "--n-max", "-1"],
        ],
    )
    def test_verify_n_max_out_of_range(self, capsys, argv):
        # rejected before any check runs: no ledger line is printed
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "0..7" in err

    def test_verify_negative_samples(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "thm:Cao", "--samples", "-5")
        assert code == 2
        assert out == ""
        assert "--samples" in err

    def test_verify_takes_no_output_options(self, capsys):
        # verify prints a ledger, so --no-meta is not one of its options
        code, out, err = run(capsys, "verify", "--only", "cor:sym", "--no-meta")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: seidel-forge verify ")
        assert "unrecognized arguments: --no-meta" in err


class TestOmegaTable:
    def test_check_paper_passes(self, capsys):
        code, out, err = run(capsys, "omega-table", "--check-paper", "--no-meta")
        assert code == 0
        assert "matches the reference table" in err
        assert out.splitlines()[0].startswith("n ")

    def test_json_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "omega.json"
        code, out, _ = run(
            capsys, "omega-table", "--format", "json", "-o", str(target)
        )
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["omega"]) == 29
        assert tuple(payload["omega"]) == TABLE3_OMEGA[:29]
        assert "generated_at" in payload["meta"]

    def test_no_meta_strips_timestamp(self, capsys):
        code, out, _ = run(capsys, "omega-table", "--format", "json", "--no-meta")
        assert code == 0
        assert "meta" not in json.loads(out)
        code, out, _ = run(capsys, "omega-table", "--no-meta")
        assert code == 0
        assert "generated-at" not in out

    def test_default_text_has_timestamp_comment(self, capsys):
        code, out, _ = run(capsys, "omega-table")
        assert code == 0
        assert out.startswith("# generated-at: ")

    def test_jsonl_header(self, capsys):
        code, out, _ = run(capsys, "omega-table", "--format", "jsonl", "--no-meta")
        assert code == 0
        lines = out.splitlines()
        head = json.loads(lines[0])
        assert head == {"schema_version": 1, "kind": "omega-table", "count": 29}
        assert len(lines) == 30
        assert json.loads(lines[1]) == {"n": 0, "omega": 1, "orbit_count": 1}

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "omega-table", "--format", "json", "--no-meta")
        _, second, _ = run(capsys, "omega-table", "--format", "json", "--no-meta")
        assert first == second


class TestSTable:
    def test_check_paper_passes(self, capsys):
        code, _, err = run(capsys, "s-table", "--check-paper", "--no-meta")
        assert code == 0
        assert "n = 0..13" in err

    def test_values_in_text_table(self, capsys):
        code, out, _ = run(capsys, "s-table", "--no-meta", "--n-max", "13")
        assert code == 0
        lines = out.splitlines()
        s_row = next(l for l in lines if l.startswith("s "))
        se_row = next(l for l in lines if l.startswith("s_e"))
        assert [int(x) for x in s_row.split("|")[1].split()] == list(TABLE2_S)
        assert [int(x) for x in se_row.split("|")[1].split()] == list(TABLE2_SE)
        assert lines[-1].startswith("residuals for n = 8..13")

    def test_n_max_zero(self, capsys):
        code, out, _ = run(capsys, "s-table", "--no-meta", "--n-max", "0")
        assert code == 0
        assert "residuals" not in out
        s_row = next(l for l in out.splitlines() if l.startswith("s "))
        assert s_row.split("|")[1].split() == ["1"]

    def test_n_max_out_of_range(self, capsys):
        code, _, err = run(capsys, "s-table", "--n-max", "29")
        assert code == 2
        assert "0..28" in err

    def test_jsonl_provenance(self, capsys):
        code, out, _ = run(
            capsys, "s-table", "--format", "jsonl", "--n-max", "9", "--no-meta"
        )
        assert code == 0
        lines = out.splitlines()
        head = json.loads(lines[0])
        assert head["kind"] == "s-table" and head["count"] == 10
        records = [json.loads(l) for l in lines[1:]]
        assert [r["s"] for r in records] == list(TABLE2_S[:10])
        assert all(r["provenance"] for r in records)


class TestVerify:
    def test_single_fast_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "cor:sym")
        assert code == 0
        assert out.startswith("[PASS] cor:sym")

    def test_oracle_with_depth(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "oracle", "--n-max", "3")
        assert code == 0
        assert "n = 0..3" in out

    def test_oracle_default_depth(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "oracle")
        assert code == 0
        assert "n = 0..5" in out

    def test_oracle_depth_out_of_range(self, capsys):
        # a usage error, not a ledger FAIL
        code, out, err = run(capsys, "verify", "--only", "oracle", "--n-max", "8")
        assert code == 2
        assert out == ""
        assert "0..7" in err

    def test_cao_with_small_sample(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--only", "thm:Cao", "--samples", "60", "--seed", "5"
        )
        assert code == 0
        assert "60 random graphs" in out

    def test_lem_a_pass_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "lem:A")
        assert code == 0
        assert out == (
            "[PASS] lem:A  28 pair-classes from 56 roots; representative inner "
            "products in {0, 1}; A_7-complement min norms {2, 8}\n"
        )

    def test_thm_sym_pass_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "thm:sym")
        assert code == 0
        assert out == (
            "[PASS] thm:sym  phi keys on the orbit transversal number omega(n) for "
            "n = 0..28; the n = 6 fiber is exactly {two orbits} over [S(K_6)]\n"
        )

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_lem_a_fails_on_a_proper_subgroup(self, capsys, monkeypatch, k):
        # the W(E_8) route catches an image built from too few reflections:
        # any 6 of the 7 simple reflections generate a proper parabolic subgroup
        ctx = e8_context()
        small = ctx._replace(image=PermGroup(28, ctx.image.generators[:k]))
        monkeypatch.setattr(ledger, "e8_context", lambda: small)
        code, out, _ = run(capsys, "verify", "--only", "lem:A")
        assert code == 1
        assert out.startswith("[FAIL] lem:A")
        assert "generate order 1451520" in out

    def test_lem_a_counts_the_roots_it_is_given(self, capsys, monkeypatch):
        # 28 classes of 2 members each would be 56 whatever n_r returned
        monkeypatch.setattr(ledger, "n_r", lambda spec, r: root_lattices.n_r(spec, r)[1:])
        code, out, _ = run(capsys, "verify", "--only", "lem:A")
        assert code == 1
        assert out.startswith("[FAIL] lem:A")
        assert "55 roots with (u, r) = 1 != 56" in out

    def test_lem_a_fails_on_a_proper_weyl_subgroup(self, capsys, monkeypatch):
        # W(E_8) built without its last simple reflection is the parabolic
        # W(D_7); the group is cached, so clear it before and after the run
        monkeypatch.setattr(
            weyl_orbits, "simple_roots", lambda system: root_lattices.simple_roots(system)[:-1]
        )
        weyl_orbits.weyl_group_on_roots.cache_clear()
        try:
            code, out, _ = run(capsys, "verify", "--only", "lem:A")
        finally:
            weyl_orbits.weyl_group_on_roots.cache_clear()
        assert code == 1
        assert out == (
            "[FAIL] lem:A  |W(E_8)| = 322560 != 696729600; |W(E_8)_r| = 3840 != 2903040; "
            "projected stabilizer order 3840 != image order 1451520\n"
        )

    # one planted fault per check: (check, ledger name, fake, FAIL detail)
    PLANTED = [
        ("thm:Cao", "verify_cao", lambda samples, seed: {
            **enumeration.verify_cao(samples, seed), "failures": [{"detail": "planted"}]},
         "1 failures"),
        ("lem:S(A)", "construct_Kn_class",
         lambda n: enumeration.construct_Kn_class(4 if n == 5 else n), "K_n mismatch at n = 5"),
        ("lem:S(D)", "dst_witness",
         lambda n, m: enumeration.dst_witness(7 if (n, m) == (8, 6) else n, m),
         "(8, 6): graph is not D_4,4"),
        ("thm:sym", "verify_fiber_n6",
         lambda: {**enumeration.verify_fiber_n6(), "failures": ["planted fiber failure"]},
         "planted fiber failure"),
        ("cor:sym", "omega_table", lambda: enumeration.omega_table()._replace(
            omega=tuple(9 if n == 22 else w for n, w in enumerate(enumeration.omega_table().omega))),
         "omega(6) + 1 = 10 != omega(22) = 9"),
        ("cor:Sn", "s_table", lambda n_max: enumeration.s_table(n_max)._replace(
            s_e=tuple(v + (n == 10) for n, v in enumerate(enumeration.s_table(n_max).s_e))),
         "s(10) != s_e(10) + 2"),
        ("oracle", "brute_force_counts",
         lambda n: (0, 0, 0) if n == 3 else enumeration.brute_force_counts(n),
         "n = 3: brute force (0, 0, 0) != pipeline (2, 0, 2)"),
    ]

    @pytest.mark.parametrize("name, attr, fake, detail", PLANTED, ids=[p[0] for p in PLANTED])
    def test_planted_fault_fails_its_check(self, capsys, monkeypatch, name, attr, fake, detail):
        monkeypatch.setattr(ledger, attr, fake)
        code, out, _ = run(capsys, "verify", "--only", name)
        assert code == 1
        assert out == f"[FAIL] {name}  {detail}\n"

    def test_one_run_computes_the_n6_fiber_once(self, capsys, monkeypatch):
        # lem:A reads its min norms and thm:sym its failures from one report
        calls = []

        def counted():
            calls.append(None)
            return enumeration.verify_fiber_n6()

        monkeypatch.setattr(ledger, "verify_fiber_n6", counted)
        code, out, _ = run(capsys, "verify", "--samples", "20", "--n-max", "2")
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()] == list(ledger.CHECK_NAMES)
        assert len(calls) == 1


class TestReps:
    def test_midrange_n14(self, capsys):
        # the peak of omega: 103 orbits, each of rank <= 7
        code, out, _ = run(capsys, "reps", "--n", "14", "--no-meta")
        assert code == 0
        lines = out.splitlines()
        assert json.loads(lines[0])["count"] == 103
        records = [json.loads(l) for l in lines[1:]]
        assert len(records) == 103
        assert all(r["rank"] <= 7 for r in records)

    def test_out_of_range(self, capsys):
        code, _, _ = run(capsys, "reps", "--n", "29")
        assert code == 2

    def test_jsonl_at_n6(self, capsys):
        code, out, _ = run(capsys, "reps", "--n", "6", "--no-meta")
        assert code == 0
        lines = out.splitlines()
        head = json.loads(lines[0])
        assert head == {"schema_version": 1, "kind": "reps", "n": 6, "count": 10}
        records = [json.loads(l) for l in lines[1:]]
        assert len(records) == 10
        assert len({r["key_hex"] for r in records}) == 9
        assert all(r["rank"] <= 7 for r in records)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "reps", "--n", "4", "--format", "json", "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4
        assert len(payload["records"]) == 3

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "reps", "--n", "1", "--format", "text-table", "--no-meta")
        assert code == 0
        assert "lattice" in out and "A2" in out

    def test_usage_error_between_two_runs(self, capsys):
        # the parser is built once per process; a call that exits 2 in it
        # leaves the next call's output unchanged
        first = run(capsys, "reps", "--n", "3", "--no-meta")
        assert run(capsys, "reps", "--n", "bogus")[0] == 2
        assert run(capsys, "reps", "--n", "3", "--no-meta") == first
        assert first[0] == 0 and first[1]


class TestGoldenBytes:
    # sha256 of the --no-meta stdout; the tables, the ranks and the lattice
    # families of these outputs stay byte-identical across refactors
    GOLDEN = {
        "omega-table json":
            "742e8765478cf4b80488548016c884dc857691357d36041abac9eb0b50cb549c",
        "omega-table jsonl":
            "2cbb5ad28f070cc18c933dc03e020e0cf7688a171d98f29a7a7ed9c4bc2e16a7",
        "omega-table text-table":
            "c16b5c35247c9fec775465eb24905090fcdac142fc3f3875e21103426c22e1a7",
        "s-table --n-max 28 json":
            "8217405a940c292a138db8956ff7bccba99eff448b1f2f22df54eca05a54e54c",
        "s-table --n-max 28 jsonl":
            "8e104f8f3ccd6bbc7441899e8c8155dbf1b16da8cf11e8b6ee803d484a0215e3",
        "s-table --n-max 28 text-table":
            "15eb398336cda822f698b380d10230d334930506bb27609a32df423e8723ef98",
        "reps --n 0..28 jsonl":
            "49bee949759c4c8823c0a574778ff48f0c8a99e945368e556f09df54f7c4a307",
    }

    def test_no_meta_outputs_golden_digests(self, capsys):
        def digest(*argvs):
            h = hashlib.sha256()
            for argv in argvs:
                code, out, err = run(capsys, *argv, "--no-meta")
                assert (code, err) == (0, "")
                h.update(out.encode())
            return h.hexdigest()

        got = {
            f"{cmd} {fmt}": digest([*cmd.split(), "--format", fmt])
            for cmd in ("omega-table", "s-table --n-max 28")
            for fmt in ("json", "jsonl", "text-table")
        }
        got["reps --n 0..28 jsonl"] = digest(*(["reps", "--n", str(k)] for k in range(29)))
        assert got == self.GOLDEN


class TestOutputPathHandling:
    def test_missing_parent_directory(self, capsys):
        code, _, err = run(
            capsys, "omega-table", "-o", "/nonexistent-dir-xyz/out.json"
        )
        assert code == 1
        assert "does not exist" in err

    @pytest.mark.parametrize("argv", [["s-table", "--n-max", "99"], ["reps", "--n", "99"]])
    def test_range_error_comes_before_the_path_error(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--output", "/nonexistent/x")
        assert code == 2
        assert "0..28" in err

    def test_empty_path_is_refused_before_any_computation(self, capsys, monkeypatch):
        def fail():
            raise AssertionError("computed before the path check")

        monkeypatch.setattr(cli, "omega_table", fail)
        code, out, err = run(capsys, "omega-table", "-o", "")
        assert code == 1
        assert out == ""
        assert "empty" in err

    def test_failed_write_exits_1(self, capsys, monkeypatch, tmp_path):
        # a write that fails after the up-front check is reported, not raised
        monkeypatch.setattr(cli, "_output_error", lambda path: None)
        code, _, err = run(capsys, "reps", "--n", "1", "-o", str(tmp_path / "missing" / "x"))
        assert code == 1
        assert "io error" in err

    def test_path_is_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "omega-table", "-o", str(tmp_path))
        assert code == 1
        assert "directory" in err

    def test_reps_to_file(self, capsys, tmp_path):
        target = tmp_path / "reps.jsonl"
        code, _, _ = run(capsys, "reps", "--n", "3", "--no-meta", "-o", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert json.loads(lines[0])["count"] == len(lines) - 1


def _run_python(*args):
    """A fresh interpreter with the package's source on its path."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60, check=False,
    )


@pytest.mark.parametrize("module", ["seidel_forge", "seidel_forge.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = _run_python("-m", module, "reps", "--n", "29")
    assert proc.returncode == 2
    assert "0..28" in proc.stderr


def test_package_import_skips_the_cli_and_the_ledger():
    proc = _run_python("-c", (
        "import sys, seidel_forge\n"
        "print(sorted({'seidel_forge.cli', 'seidel_forge.ledger'} & set(sys.modules)))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cold_start_skips_slow_imports():
    # dataclasses pulls in inspect, ast and dis; datetime serves timestamps
    # only, and json the json and jsonl formats only
    proc = _run_python("-c", (
        "import sys\n"
        "from seidel_forge import cli\n"
        "assert cli.main(['omega-table', '--no-meta']) == 0\n"
        "print(sorted({'dataclasses', 'inspect', 'datetime', 'json'} & set(sys.modules)), file=sys.stderr)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n ")
    assert proc.stderr == "[]\n"
