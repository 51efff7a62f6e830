"""Spans around the package's public functions, recorded from outside.

A Tracer wraps each target function at the module boundary and patches every
name under which the package looks it up (``canonical_key`` is imported by
name into ``enumeration`` and ``cli``, for instance).  Each call records a
span ``[name, tag, start, end, parent, counters]`` in memory; the child
process returns the spans when it ends.  layer_metrics turns them into
per-layer times, self times and counts.
"""
from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

NAME, TAG, START, END, PARENT, COUNTERS = range(6)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _tag_n(*args, **kwargs) -> str:
    """Tag a call by its subset or graph size argument n."""
    n = kwargs.get("n", args[-1] if args else None)
    return f"n{n}"


# (module, function or Class.method, options).  ``tag`` names a per-argument
# sub-span, ``count`` maps the result to named counters and ``rss`` records
# the growth of the peak resident set across the call.
TARGETS = (
    ("enumeration", "e8_context", {}),
    ("root_lattices", "roots", {}),
    ("weyl_orbits", "weyl_group_on_roots", {}),
    ("weyl_orbits", "stabilizer_of_root", {}),
    (
        "weyl_orbits",
        "induced_action_on_classes",
        {"count": lambda g: {"weyl_orbits.image.order": g.order()}},
    ),
    ("weyl_orbits", "burnside_subset_counts", {}),
    (
        "weyl_orbits",
        "PermGroup.cycle_type_counts",
        {"count": lambda c: {"weyl_orbits.burnside.elements": sum(c.values())}},
    ),
    (
        "weyl_orbits",
        "subset_orbit_transversal",
        {
            "tag": _tag_n,
            "count": lambda r: {"weyl_orbits.subset_orbit_transversal.orbits": len(r)},
            "rss": "weyl_orbits.subset_orbit_transversal.rss_growth_mb",
        },
    ),
    ("seidel_core", "canonical_key", {}),
    ("canon", "canonical_form_bits", {}),
    ("seidel_core", "switching_class_representatives", {}),
    ("exact_linalg", "rank", {}),
    ("exact_linalg", "max_eig_le", {}),
    ("exact_linalg", "is_psd", {}),
    ("root_lattices", "hnf", {}),
    ("root_lattices", "gram_determinant", {}),
    ("root_lattices", "orth_complement_in_E8", {}),
    ("enumeration", "omega_table", {}),
    ("enumeration", "s_table", {}),
    ("enumeration", "phi", {}),
    ("enumeration", "reps_records", {"tag": _tag_n}),
    ("enumeration", "brute_force_counts", {"tag": _tag_n}),
    ("enumeration", "verify_cao", {}),
    ("enumeration", "verify_fiber_n6", {}),
    ("cli", "main", {}),
)


class Tracer:
    """Records one span per call into the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, tag=None, count=None, rss=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, tag(*args, **kwargs) if tag else None, 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_mb() if rss else 0.0
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            counters = count(result) if count else {}
            if rss:
                counters[rss] = _maxrss_mb() - rss0
            span[COUNTERS] = counters or None
            return result

        return traced

    @staticmethod
    def cost_per_call(n: int = 20000) -> float:
        """Seconds a wrapped call takes beyond a bare one, averaged over n calls."""
        def noop():
            return None

        wrapped = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / n)

    def install(self) -> None:
        """Wrap every target in a loaded module and patch each module-level
        name bound to it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "seidel_forge" or key.startswith("seidel_forge.")
        ]
        for module, attr, options in TARGETS:
            mod = sys.modules.get(f"seidel_forge.{module}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                wrapped = self.wrap(f"{module}.{method}", cls.__dict__[method], **options)
                setattr(cls, method, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(f"{module}.{attr}", original, **options)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)


# -- analysis --------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append((sp[START], sp[END]))
    return [
        (sp[END] - sp[START]) - covered_length(children[i], sp[START], sp[END])
        for i, sp in enumerate(spans)
    ]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer calls, inclusive and self seconds, tagged seconds, counters.

    ``<name>.s`` counts only the outermost span of a name, so recursion is
    not counted twice.  ``canon.forms_per_key`` is the number of
    canonical_form_bits calls made inside canonical_key per key.
    """
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)

    def inside_same(i: int) -> bool:
        name, p = spans[i][NAME], spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    forms_in_keys = 0
    for i, sp in enumerate(spans):
        name, dur = sp[NAME], sp[END] - sp[START]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[i]
        if not inside_same(i):
            out[f"{name}.s"] += dur
            if sp[TAG]:
                out[f"{name}.{sp[TAG]}.s"] += dur
        for key, value in (sp[COUNTERS] or {}).items():
            out[key] += value
        if (name == "canon.canonical_form_bits" and sp[PARENT] >= 0
                and spans[sp[PARENT]][NAME] == "seidel_core.canonical_key"):
            forms_in_keys += 1
    keys = out.get("seidel_core.canonical_key.calls", 0)
    if keys:
        out["canon.forms_per_key"] = forms_in_keys / keys
    cycle_s = out.get("weyl_orbits.cycle_type_counts.s", 0.0)
    if cycle_s > 0:
        out["weyl_orbits.burnside.elements_per_s"] = (
            out["weyl_orbits.burnside.elements"] / cycle_s
        )
    return dict(out)


def unit_of(metric: str) -> str:
    if metric.endswith(".ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("per_key"):
        return "ratio"
    if metric.endswith((".s", "_s")):
        return "s"
    return "count"
