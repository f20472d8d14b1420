"""Order statistics and the verdict rule shared by run.py and compare.py."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``), range, count
    and spread (inter-quartile distance as a share of the median)."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative = better), for a metric whose good direction is ``better``."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    """``better`` / ``worse`` / ``unchanged`` / ``unresolved`` for B against A.

    A side whose own spread exceeds the bound cannot resolve a change of
    the size the bound guards against, so the row is ``unresolved``
    rather than ``unchanged``. Otherwise B is ``worse`` when its median
    is worse than A's by more than the bound, and ``better`` when it is
    better by more than the bound *and* by more than A's inter-quartile
    distance.
    """
    if a["spread"] > bound or b["spread"] > bound:
        return "unresolved"
    delta = worsening(a["median"], b["median"], better)
    if delta > bound:
        return "worse"
    if -delta > bound and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        return "better"
    return "unchanged"
