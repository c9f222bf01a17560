"""The pair-deduplicating crowding distance, kept as a test oracle.

``search._assign_fronts`` once crowded each front as if its two objectives
could order it differently: ``_crowding`` took the front's distinct
(time, score) pairs with ``np.unique(axis=0)`` and sorted them once per
objective, and the copy rule found repeated pairs again by counting pair
ids. That code is kept here, unchanged but for its names, so the one-order
crowding can be checked against it: ``oracle_assign_fronts`` sets the same
rank and the same crowding bits on every individual.
"""

from __future__ import annotations

import numpy as np

from mutreduce.pareto import sort_fronts


def oracle_crowding(times: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(crowding distance, pair id) per point. The distance is
    permutation-invariant: identical objective pairs share one id and one
    distance, boundary pairs per objective get infinity."""
    pairs = np.stack([times, scores], axis=1)
    unique, inverse = np.unique(pairs, axis=0, return_inverse=True)
    k = unique.shape[0]
    dist = np.zeros(k)
    if k <= 2:
        dist[:] = np.inf
    else:
        for column in (0, 1):
            other = 1 - column
            order = np.lexsort((unique[:, other], unique[:, column]))
            ordered = unique[order, column]
            span = ordered[-1] - ordered[0]
            dist[order[0]] = dist[order[-1]] = np.inf
            if span > 0:
                gaps = (ordered[2:] - ordered[:-2]) / span
                dist[order[1:-1]] += gaps
    inverse = inverse.ravel()
    return dist[inverse], inverse


def oracle_assign_fronts(individuals) -> list[np.ndarray]:
    """Set rank and crowding on every individual; returns the fronts.

    Crowding starts from the shared per-unique-pair distances, but only
    one canonical copy of each duplicated objective pair keeps its
    distance; the other copies get 0.
    """
    times = np.array([ind.time for ind in individuals])
    scores = np.array([ind.score for ind in individuals])
    fronts = sort_fronts(times, scores)
    for rank, front in enumerate(fronts):
        crowd, pair_ids = oracle_crowding(times[front], scores[front])
        keeps_distance = np.bincount(pair_ids)[pair_ids] == 1
        duplicated: dict[int, list[int]] = {}
        for position in np.flatnonzero(~keeps_distance).tolist():
            duplicated.setdefault(pair_ids[position], []).append(position)
        for positions in duplicated.values():
            # Only a duplicated pair needs the (serialized) tie-break key.
            keeps_distance[min(positions, key=lambda p: (
                individuals[front[p]].chromosome.serialize(),
                individuals[front[p]].eval_seed))] = True
        for position, member in enumerate(front.tolist()):
            individuals[member].rank = rank
            individuals[member].crowding = (
                float(crowd[position]) if keeps_distance[position] else 0.0)
    return fronts
