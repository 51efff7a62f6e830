"""Tests of the benchmark's own helpers: python3 -m pytest bench -q"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spans import covered_length, layer_metrics, self_times
from stats import quartiles, spread, verdict
from workloads import (
    OMEGA,
    ORBITS,
    VERIFY_CHECKS,
    check_keys,
    check_omega,
    check_reps,
    check_verify,
    e8_pair_class_graph,
    key_cases,
)

HERE = Path(__file__).resolve().parent


def span(name, start, end, parent=-1, tag=None, counters=None):
    return [name, tag, start, end, parent, counters]


# -- spans -----------------------------------------------------------------


def test_self_time_nested_and_siblings():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 5.0, 7.0, parent=0),
        span("d", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
    assert covered_length([], 0, 10) == 0.0


def test_layer_metrics_counts_recursion_once_and_forms_per_key():
    spans = [
        span("seidel_core.canonical_key", 0.0, 4.0),
        span("canon.canonical_form_bits", 0.5, 1.5, parent=0),
        span("canon.canonical_form_bits", 2.0, 3.0, parent=0),
        span("seidel_core.canonical_key", 5.0, 6.0),
        span("canon.canonical_form_bits", 5.2, 5.8, parent=3),
        span("r", 7.0, 9.0, tag="n3", counters={"r.items": 2}),
        span("r", 7.5, 8.5, parent=5, tag="n2", counters={"r.items": 1}),
    ]
    m = layer_metrics(spans)
    assert m["seidel_core.canonical_key.calls"] == 2
    assert m["seidel_core.canonical_key.s"] == pytest.approx(5.0)
    assert m["seidel_core.canonical_key.self_s"] == pytest.approx(2.4)
    assert m["canon.forms_per_key"] == pytest.approx(1.5)
    assert m["r.s"] == pytest.approx(2.0)  # the inner call is not counted again
    assert m["r.n3.s"] == pytest.approx(2.0)
    assert "r.n2.s" not in m
    assert m["r.self_s"] == pytest.approx(2.0)
    assert m["r.items"] == 3


# -- statistics ------------------------------------------------------------


def test_median_and_quartiles():
    assert quartiles(range(1, 11)) == pytest.approx((2.75, 5.5, 8.25))
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([3.0, 1.0, 2.0])[1] == 2.0
    assert spread([10.0] * 5) == 0.0
    with pytest.raises(ValueError):
        quartiles([])


PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


def test_verdict_improved():
    change = [p * 0.8 for p in PARENT]
    v = verdict(PARENT, change, bound=0.1)
    assert v["verdict"] == "improved"
    assert v["won"] == 1.0 and v["pairs"] == 10


def test_verdict_within_bound():
    change = PARENT[1:] + PARENT[:1]
    assert verdict(PARENT, change, bound=0.1)["verdict"] == "within bound"


def test_verdict_worse():
    change = [p * 1.3 for p in PARENT]
    assert verdict(PARENT, change, bound=0.1)["verdict"] == "worse"
    # higher-is-better metrics flip the direction
    assert verdict(PARENT, change, bound=0.1, lower_is_better=False)["verdict"] == "improved"


def test_verdict_unresolved_when_parent_spread_exceeds_bound():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change = [11.0, 9.0, 12.0, 8.0, 10.5, 11.5, 8.5, 10.0, 9.5, 10.5]
    assert verdict(parent, change, bound=0.1)["verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert verdict(parent, [c / 2 for c in change], bound=0.1)["verdict"] == "improved"


# -- output checks ---------------------------------------------------------


def omega_table(omega=OMEGA, c=ORBITS) -> str:
    rows = [("n", range(29)), ("omega", omega), ("c", c)]
    return "".join(f"{label:<5} | {' '.join(map(str, vals))}\n" for label, vals in rows)


def test_check_omega_counts_a_wrong_value_as_failure():
    assert check_omega(omega_table(), {}) == (58, 0)
    wrong = list(OMEGA)
    wrong[14] += 1
    assert check_omega(omega_table(omega=wrong), {}) == (58, 1)
    assert check_omega("", {}) == (58, 58)


def test_check_verify():
    ledger = "".join(f"[PASS] {name}  detail\n" for name in VERIFY_CHECKS)
    assert check_verify(ledger, {}) == (9, 0)
    assert check_verify(ledger.replace("[PASS] oracle", "[FAIL] oracle"), {}) == (9, 1)
    assert check_verify("", {}) == (9, 9)


def test_check_reps():
    job = {"sizes": [25, 26]}  # c(25) = 2, c(26) = 1
    lines = [json.dumps({"kind": "reps", "n": 25, "count": 2})]
    lines += [json.dumps({"n": 25, "rank": 7}), json.dumps({"n": 25, "rank": 7})]
    lines += [json.dumps({"n": 26, "rank": 7})]
    good = "\n".join(lines) + "\n"
    assert check_reps(good, job) == (5, 0)
    assert check_reps(good.replace('"rank": 7}\n{"n": 26', '"rank": 8}\n{"n": 26'), job) == (5, 1)
    assert check_reps("\n".join(lines[:-1]), job) == (5, 2)


def test_check_keys_counts_a_wrong_twin_key():
    cases = [{"family": "K", "n": 4, "rank": ("eq", 4)}]
    assert check_keys("ab 4 True\nab 4 True\n", {"cases": cases}) == (5, 0)
    assert check_keys("ab 4 True\nac 4 True\n", {"cases": cases}) == (5, 1)
    assert check_keys("ab 4 True\nab 3 False\n", {"cases": cases}) == (5, 2)
    assert check_keys("", {"cases": cases}) == (5, 5)


# -- inputs ----------------------------------------------------------------


def test_pair_class_graph_and_key_cases_are_seeded():
    adj = e8_pair_class_graph()
    assert len(adj) == 28
    assert all(adj[i] >> j & 1 == adj[j] >> i & 1 for i in range(28) for j in range(28))
    assert key_cases(5, (8, 12)) == key_cases(5, (8, 12))
    assert key_cases(5, (8, 12)) != key_cases(6, (8, 12))


def run_child(job: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_child_keeps_stdout_and_records_spans():
    job = {"kind": "keys", "cases": key_cases(3, (8,))}
    plain = run_child(job)
    traced = run_child({**job, "trace": True})
    assert plain["stdout"] == traced["stdout"]
    assert check_keys(plain["stdout"], job) == (15, 0)
    m = layer_metrics(traced["spans"])
    assert m["seidel_core.canonical_key.calls"] == 6
    assert m["canon.canonical_form_bits.calls"] >= 6
    assert m["canon.forms_per_key"] >= 1
    assert m["exact_linalg.rank.calls"] == 6


def test_run_exits_non_zero_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "spans.py", "workloads.py"):
        (tmp_path / "bench" / name).write_bytes((HERE / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "omega", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
