"""Pareto dominance on (time, score) points, time minimized and score maximized.

The one place the package decides what "non-dominated" means, by one
rule: sorted by (time, -score), a point is dominated exactly by an
earlier, different point whose score is at least its own. So the sweep
_beats_all_before, which keeps each score that beats every score before
it, keeps exactly the points nothing dominates, the first of equal
points only. nondominated and nondominated_points sweep once;
sort_fronts ranks for NSGA-II by sweeping the points left once per
front. Items are objects with ``time`` and ``score`` attributes or
plain (time, score) pairs; points_array turns them, once, into the
(n, 2) float64 array the array functions take.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, TypeVar

import numpy as np

T = TypeVar("T")


def sort_fronts(times: np.ndarray, scores: np.ndarray) -> list[np.ndarray]:
    """Index arrays of every front, each ascending: rank 0 is non-dominated,
    rank k+1 is non-dominated once ranks <= k are removed. Each pass takes
    the sweep's leaders among the points left, with their equal copies.
    ValueError on a NaN time, which has no place in the order, or on a
    NaN or -inf score, which never leads."""
    if np.isnan(times).any() or not (scores > -np.inf).all():
        raise ValueError("sort_fronts: a time is NaN, or a score is NaN or -inf")
    order = np.lexsort((-scores, times))
    ordered = np.column_stack((times, scores))[order]  # equal points adjacent
    group = np.cumsum(np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1))))
    led = np.zeros(order.size + 1, dtype=bool)  # led[g]: group g's first point led
    left, fronts = np.arange(order.size), []
    while left.size:
        groups = group[left]
        led[groups[_beats_all_before(ordered[left, 1])]] = True
        fronts.append(np.sort(order[left[led[groups]]]))
        left = left[~led[groups]]
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
    """The sweep: which scores, in the given order, beat every score before
    them. A NaN score beats nothing and bars nothing."""
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
