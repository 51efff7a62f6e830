"""One workload unit in a fresh interpreter.

Reads a job as JSON on stdin, runs it through the package's public entry
points and prints one JSON result on stdout.  The program's own stdout is
captured in memory and returned in the result.  Jobs:

- ``setup``: ``import seidel_forge`` plus ``enumeration.e8_context()``, timed;
- ``cli``: ``seidel_forge.cli.main(argv)`` for each argv, in order;
- ``keys``: canonical_key, rank(3I - S) and max_eig_le(S, 3) for each graph
  and its twin, one output line per graph.

With ``"trace": true`` the public functions are wrapped first (spans.py);
the spans are returned too, with the wrapper's measured cost per call.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def run_keys(cases, out) -> list[list]:
    from seidel_forge.exact_linalg import IntMatrix, max_eig_le, rank
    from seidel_forge.seidel_core import Graph, canonical_key, seidel_of_graph

    timings = []
    for case in cases:
        for adj in (case["graph"], case["twin"]):
            G = Graph(len(adj), tuple(adj))
            t0 = time.perf_counter()
            key = canonical_key(G)
            ms = (time.perf_counter() - t0) * 1e3
            S = seidel_of_graph(G)
            rk = rank(IntMatrix.identity(G.n).scale(3).sub(S))
            out.write(f"{key.hex} {rk} {max_eig_le(S, 3)}\n")
            timings.append([case["family"], G.n, ms])
    return timings


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import seidel_forge  # set-up includes the package import

    if job["kind"] == "cli":
        import seidel_forge.cli  # noqa: F401  (the package does not import it)
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result: dict = {"codes": []}
    out = io.StringIO()
    if job["kind"] == "setup":
        seidel_forge.enumeration.e8_context()
        result["setup_s"] = time.perf_counter() - t0
    elif job["kind"] == "cli":
        with contextlib.redirect_stdout(out):
            for argv in job["argvs"]:
                result["codes"].append(seidel_forge.cli.main(argv))
    elif job["kind"] == "keys":
        result["key_ms"] = run_keys(job["cases"], out)
    else:
        raise ValueError(f"unknown job kind {job['kind']!r}")
    result["stdout"] = out.getvalue()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.spans
        result["trace_call_s"] = tracer.cost_per_call()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
