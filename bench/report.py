"""Summarise one result set, or compare two, from run.py's ``--out`` files.

    python3 bench/report.py summary RUNS.jsonl
    python3 bench/report.py compare PARENT.jsonl CHANGE.jsonl

``summary`` prints, per workload, each end-to-end metric's median and
quartiles over the untraced runs; for traced runs, the per-layer table, the
tracing overhead against the untraced run of the same workload and seed just
before it, and whether the program's stdout matched the untraced runs at the
same seed.

``compare`` pairs the untraced runs of the two sets by workload and seed, in
file order, and prints one row per workload and end-to-end metric: each
side's median and quartiles, the share of pairs the change won and a
verdict (stats.verdict).  Key costs depend on labelling, so runs are
compared at the same seed only.
"""
from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from spans import unit_of
from stats import quartiles, spread, verdict

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def end_to_end() -> list[dict]:
    """The benchmark's end-to-end metrics, plus failed_frac with bound 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"] + [
        {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0}
    ]


def value(rec: dict, metric: str) -> float:
    return rec["failed_frac"] if metric == "failed_frac" else rec["metrics"][metric]


def by_workload(records, trace: bool) -> dict[str, list[dict]]:
    out = defaultdict(list)
    for rec in records:
        if rec["trace"] == trace:
            out[rec["workload"]].append(rec)
    return out


def summary(records: list[dict]) -> None:
    prov = records[0]["provenance"]
    print(f"nproc {prov['nproc']}  python {prov['python']}  commit {prov['commit']}  "
          f"src lines {prov['src_lines']}")
    metrics = end_to_end()
    plain = by_workload(records, trace=False)
    for name, recs in plain.items():
        seeds = sorted({r["seed"] for r in recs})
        print(f"\n{name}: {len(recs)} untraced runs, seeds {seeds}")
        for m in metrics:
            values = [value(r, m["name"]) for r in recs]
            q1, med, q3 = quartiles(values)
            print(f"  {m['name']:<12} median {med:10.4f} {m['unit']:<5} "
                  f"q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread(values):7.2%}  "
                  f"(bound {m['bound']:.0%})")
    # The host's speed drifts over minutes, so each traced run is compared
    # with the untraced run of its workload and seed just before it.
    previous: dict[tuple, dict] = {}
    before: dict[int, dict] = {}
    for i, rec in enumerate(records):
        key = (rec["workload"], rec["seed"])
        if rec["trace"] and key in previous:
            before[i] = previous[key]
        elif not rec["trace"]:
            previous[key] = rec
    for name in by_workload(records, trace=True):
        traced = [(i, r) for i, r in enumerate(records) if r["trace"] and r["workload"] == name]
        print(f"\n{name}: {len(traced)} traced runs")
        for i, rec in traced:
            wall = rec["metrics"]["wall_s"]
            if i in before:
                base = before[i]["metrics"]["wall_s"]
                print(f"  seed {rec['seed']}: tracing overhead {wall - base:+.4f} s "
                      f"({(wall - base) / base:+.2%} of the untraced run before it, {base:.4f} s)")
            layers = rec["layers"]
            if "trace.spans" in layers:
                print(f"  seed {rec['seed']}: {layers['trace.spans']:.0f} spans, whose wrappers "
                      f"cost {layers['trace.overhead_est_s']:.4f} s")
            same_seed = [r for r in plain.get(name, []) if r["seed"] == rec["seed"]]
            if not same_seed:
                state = "no untraced run at this seed"
            elif all(r["stdout_sha256"] == rec["stdout_sha256"] for r in same_seed):
                state = "identical to the untraced runs"
            else:
                state = "DIFFERS from the untraced runs"
            print(f"  seed {rec['seed']}: program stdout {state}")
        recs = [r for _, r in traced]
        layers = defaultdict(list)
        for rec in recs:
            for key, v in rec["layers"].items():
                layers[key].append(v)
        for key in sorted(layers):
            print(f"  {key:<58} {statistics.median(layers[key]):16.6f} {unit_of(key)}")


def compare(parent: list[dict], change: list[dict]) -> None:
    def paired(records):
        out = defaultdict(list)
        for rec in records:
            if not rec["trace"]:
                out[(rec["workload"], rec["seed"])].append(rec)
        return out

    p_runs, c_runs = paired(parent), paired(change)
    workloads = sorted({w for w, _ in p_runs} & {w for w, _ in c_runs})
    print(f"{'workload':<10} {'metric':<12} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'pairs':>5} {'won':>5}  verdict")
    for name in workloads:
        pairs = [
            pc
            for key in sorted(set(p_runs) & set(c_runs))
            if key[0] == name
            for pc in zip(p_runs[key], c_runs[key])
        ]
        if not pairs:
            continue
        for m in end_to_end():
            p = [value(a, m["name"]) for a, _ in pairs]
            c = [value(b, m["name"]) for _, b in pairs]
            v = verdict(p, c, m["bound"], lower_is_better=m["better"] == "lower")
            cells = [
                "{:10.4f} [{:.4f}, {:.4f}]".format(side[1], side[0], side[2])
                for side in (v["parent"], v["change"])
            ]
            print(f"{name:<10} {m['name']:<12} {cells[0]:>30} {cells[1]:>30} "
                  f"{v['pairs']:>5} {v['won']:>5.0%}  {v['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summary", help="summarise one result set")
    p.add_argument("runs")
    p = sub.add_parser("compare", help="compare a change's runs with its parent's")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "summary":
        summary(load(args.runs))
    else:
        compare(load(args.parent), load(args.change))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
