"""Medians, quartiles and the paired comparison rule for two result sets."""
from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(parent, change, bound: float, lower_is_better: bool = True) -> dict:
    """Compare paired runs of one metric on one workload.

    Pairs are (parent[i], change[i]).  Improved: the change wins at least
    nine tenths of the pairs (ties count for neither) and the medians differ,
    in its favour, by more than the parent's quartile distance.  Worse: the
    change's median is worse by more than bound times the parent's median,
    and the parent's spread is within the bound or every change run is worse
    than every parent run.  Unresolved: the parent's spread exceeds the bound
    and not every change run is better than every parent run.  Otherwise the
    change is within bound.
    """
    pairs = list(zip(parent, change))
    if not pairs:
        raise ValueError("no paired runs")
    sign = 1 if lower_is_better else -1
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (pm - cm)
    if lower_is_better:
        all_better, all_worse = max(change) < min(parent), min(change) > max(parent)
    else:
        all_better, all_worse = min(change) > max(parent), max(change) < min(parent)
    wide = spread(parent) > bound
    if wins >= 0.9 * len(pairs) and gain > p3 - p1:
        result = "improved"
    elif -gain > bound * abs(pm) and (not wide or all_worse):
        result = "worse"
    elif wide and not all_better:
        result = "unresolved"
    else:
        result = "within bound"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "pairs": len(pairs),
        "won": wins / len(pairs),
        "verdict": result,
    }
