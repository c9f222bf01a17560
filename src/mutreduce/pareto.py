"""Pareto dominance on (time, score) points, time minimized and score maximized.

The one place the package decides what "non-dominated" means. Items are
objects with ``time`` and ``score`` attributes or plain (time, score)
pairs. sort_fronts ranks every point, as NSGA-II selection needs;
nondominated keeps only the first front, deduplicated, with a 2-D sweep.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, TypeVar

import numpy as np

T = TypeVar("T")


def dominates(a, b) -> bool:
    """True if a is no worse on both objectives and better on at least one
    (time minimized, score maximized). Equal points never dominate."""
    return (a.time <= b.time and a.score >= b.score) and (
        a.time < b.time or a.score > b.score)


def sort_fronts(times: np.ndarray, scores: np.ndarray) -> list[np.ndarray]:
    """Index arrays of every front: rank 0 is non-dominated, rank k+1 is
    non-dominated once ranks <= k are removed. O(n^2) memory."""
    n = times.size
    if n == 0:
        return []
    t_le = times[:, None] <= times[None, :]
    s_ge = scores[:, None] >= scores[None, :]
    strict = (times[:, None] < times[None, :]) | (scores[:, None] > scores[None, :])
    dom = t_le & s_ge & strict  # dom[i, j]: i dominates j
    dominated_by = dom.sum(axis=0)
    fronts: list[np.ndarray] = []
    remaining = np.ones(n, dtype=bool)
    while remaining.any():
        current = remaining & (dominated_by == 0)
        members = np.flatnonzero(current)
        fronts.append(members)
        remaining[members] = False
        dominated_by = dominated_by - dom[members].sum(axis=0)
    return fronts


def point(item) -> tuple[float, float]:
    """An item's (time, score): its attributes, or the item itself as a pair."""
    if hasattr(item, "time"):
        return float(item.time), float(item.score)
    return float(item[0]), float(item[1])


def nondominated(items: Iterable[T], key: Callable[[T], Any]) -> list[T]:
    """The non-dominated items, one per distinct point, in ascending time.

    Among items at the same point the one with the smallest key is kept
    (the first given, if keys tie too). Sorting by (time, -score, key)
    puts every dominating or duplicate point before the points it beats,
    so an item survives exactly when its score beats all before it.
    """
    def order(item):
        time, score = point(item)
        return time, -score, key(item)

    front: list[T] = []
    best = -math.inf
    for item in sorted(items, key=order):
        score = point(item)[1]
        if score > best:
            front.append(item)
            best = score
    return front
