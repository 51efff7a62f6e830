"""Run benchmark workloads against the package in this checkout.

    python3 bench/run.py --workload omega --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --out runs.jsonl

A run is a closed loop with one client.  It spawns two set-up probes, then
one workload child after another, then two more probes, ending by
``--seconds`` unless a single child takes longer; at least one child always
runs.  Each child is a fresh interpreter (child.py) using ``src/`` of this
checkout.  End-to-end
metrics are medians over the run's children (``setup_s`` over the probes),
and every child's output is checked.  With ``--trace 1`` the probes and
children wrap the package's public functions (spans.py) and the run reports
per-layer metrics instead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--out`` appends a record
of the run, with its samples and provenance, to a JSON-lines file for
report.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 4
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "seidel_forge").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def spawn(job: dict) -> dict:
    """Run one child to completion; wall time is from spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(job), capture_output=True, text=True,
            env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "wall_s": time.perf_counter() - t0,
                "error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    wall = time.perf_counter() - t0
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"ok": False, "wall_s": wall, "error": tail[0]}
    result["ok"] = not any(result["codes"])
    result["wall_s"] = wall
    return result


def median_metrics(dicts: list[dict]) -> dict:
    """Per-metric median over the dicts; a metric a dict lacks counts as 0."""
    names = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in names}


def run_probes(count: int, trace: bool) -> list[dict]:
    probes = []
    for _ in range(count):
        probe = spawn({"kind": "setup", "trace": trace})
        if not probe["ok"]:
            raise RuntimeError(f"set-up probe failed: {probe['error']}")
        probes.append(probe)
    return probes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    job = {**workload.make_job(seed), "trace": trace}
    start = time.perf_counter()
    probes = run_probes(PROBES // 2, trace)
    after = (PROBES - PROBES // 2) * max(p["wall_s"] for p in probes)
    children = []
    longest = 0.0
    while not children or time.perf_counter() + longest + after <= start + seconds:
        child = spawn(job)
        longest = max(longest, child["wall_s"])
        attempted, failed = workload.check(child.get("stdout", "") if child["ok"] else "", job)
        if not child["ok"]:
            failed = attempted
            print(f"{name}: child failed: {child['error']}", file=sys.stderr)
        child["attempted"], child["failed"] = attempted, failed
        children.append(child)
    probes += run_probes(PROBES - PROBES // 2, trace)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    samples = {
        "wall_s": [c["wall_s"] for c in children],
        "setup_s": [p["setup_s"] for p in probes],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children if "peak_rss_mb" in c],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "samples": samples,
        "stdout_sha256": sorted({
            hashlib.sha256(c["stdout"].encode()).hexdigest()
            for c in children if c["ok"]
        }),
    }
    if trace:
        layers = median_metrics([child_layers(c) for c in children if c["ok"]])
        layers.update(median_metrics([layer_metrics(p["spans"]) for p in probes]))
        record["layers"] = layers
    return record


def child_layers(child: dict) -> dict:
    spans = child.get("spans", [])
    layers = layer_metrics(spans)
    # The traced-minus-untraced wall time is at the mercy of the host's speed;
    # spans times the wrapper's cost per call bounds what tracing added.
    layers["trace.spans"] = len(spans)
    layers["trace.overhead_est_s"] = len(spans) * child.get("trace_call_s", 0.0)
    by_case: dict[str, list[float]] = {}
    for family, n, ms in child.get("key_ms", []):
        by_case.setdefault(f"seidel_core.canonical_key.{family}.n{n}.ms", []).append(ms)
    layers.update({k: statistics.median(v) for k, v in by_case.items()})
    return layers


def print_record(rec: dict) -> None:
    n_children = len(rec["samples"]["wall_s"])
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  "
          f"children {n_children}  set-up probes {len(rec['samples']['setup_s'])}")
    for name, value in rec["metrics"].items():
        count = len(rec["samples"][name])
        print(f"  {name:<12} {value:12.4f} {unit_of(name):<5} (median of {count})")
    print(f"  {'failed_frac':<12} {rec['failed_frac']:12.4f} {'ratio':<5} "
          f"({rec['failed']} of {rec['attempted']} checks)")
    for name, value in sorted(rec.get("layers", {}).items()):
        print(f"  {name:<58} {value:16.6f} {unit_of(name)}")


def result_line(records: list[dict], wanted: list[dict], prefix: bool) -> str:
    metrics = {}
    for rec in records:
        values = rec["layers"] if rec["trace"] else rec["metrics"]
        for m in wanted:
            key = f"{rec['workload']}.{m['name']}" if prefix else m["name"]
            metrics[key] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON record per workload run here")
    args = parser.parse_args(argv)
    if not (SRC / "seidel_forge" / "__init__.py").is_file():
        print(f"no package to measure: {SRC / 'seidel_forge'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    records = []
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        rec["provenance"] = prov
        print_record(rec)
        records.append(rec)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(result_line(records, wanted, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
