"""Pareto dominance on (time, score) points, time minimized and score maximized.

The one place the package decides what "non-dominated" means. Items are
objects with ``time`` and ``score`` attributes or plain (time, score)
pairs; points_array turns them, once, into the (n, 2) float64 array the
array functions take. sort_fronts ranks every point, as NSGA-II selection
needs. The first front, deduplicated, comes from one 2-D sweep,
_beats_all_before: nondominated sweeps items sorted with a tie-breaking
key, nondominated_points sweeps a point array sorted by lexsort.
"""

from __future__ import annotations

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


def points_array(items) -> np.ndarray:
    """The items' (time, score) points as an (n, 2) float64 array. An
    array of pairs passes through without a copy when it is float64."""
    if isinstance(items, np.ndarray):
        return items.astype(np.float64, copy=False).reshape(-1, 2)
    items = list(items)
    points = np.empty((len(items), 2))
    try:  # a column at a time, when every item has the attributes
        points[:, 0] = [item.time for item in items]
        points[:, 1] = [item.score for item in items]
    except AttributeError:
        points[:] = [point(item) for item in items]
    return points


def _beats_all_before(scores: np.ndarray) -> np.ndarray:
    """The sweep: which scores, in the given order, beat every score
    before them. Sorted by (time, -score), a point beating all before it
    is exactly a point nothing dominates, and only the first of equal
    points survives. A NaN score beats nothing and bars nothing."""
    best_before = np.fmax.accumulate(np.concatenate(([-np.inf], scores[:-1])))
    return scores > best_before


def nondominated(items: Iterable[T], key: Callable[[T], Any]) -> list[T]:
    """The non-dominated items, one per distinct point, in ascending time.

    Among items at the same point the one with the smallest key is kept
    (the first given, if keys tie too): sorting by (time, -score, key)
    puts every dominating or duplicate point before the points it beats.
    """
    def order(item):
        time, score = point(item)
        return time, -score, key(item)

    ordered = sorted(items, key=order)
    keep = _beats_all_before(points_array(ordered)[:, 1])
    return [item for item, kept in zip(ordered, keep.tolist()) if kept]


def nondominated_points(points: np.ndarray) -> np.ndarray:
    """The non-dominated rows of an (n, 2) array of (time, score) points,
    one per distinct point (the earliest given), in ascending time."""
    order = np.lexsort((-points[:, 1], points[:, 0]))
    ordered = points.take(order, axis=0)
    return ordered[_beats_all_before(ordered[:, 1])]
