"""Test oracle: the exact permutation p-value of the Kruskal-Wallis statistic.

The statistics tests check the chi-squared approximation of
``mutreduce.analysis.kruskal_wallis`` against it on small samples.
"""

import itertools
from typing import Sequence

from mutreduce.analysis import kruskal_wallis


def kruskal_wallis_permutation(groups: Sequence[Sequence[float]]) -> float:
    """Exact permutation p-value for the Kruskal-Wallis statistic.

    Enumerates every assignment of the pooled observations to groups of
    the given sizes, so it is only feasible for small samples (pooled size
    capped at 12). Intended as a test oracle for the chi-squared
    approximation on small samples.
    """
    sizes = [len(g) for g in groups]
    total = sum(sizes)
    if total > 12:
        raise ValueError("permutation test capped at 12 pooled observations")
    observed, _ = kruskal_wallis(groups)
    pooled = [x for g in groups for x in g]
    indices = range(total)
    at_least = 0
    count = 0
    for assignment in _group_assignments(tuple(indices), sizes):
        sample = [[pooled[i] for i in block] for block in assignment]
        h, _ = kruskal_wallis(sample)
        count += 1
        if h >= observed - 1e-9:
            at_least += 1
    return at_least / count


def _group_assignments(indices: tuple[int, ...], sizes: Sequence[int]):
    if len(sizes) == 1:
        yield (indices,)
        return
    first_size = sizes[0]
    rest_sizes = sizes[1:]
    for chosen in itertools.combinations(indices, first_size):
        chosen_set = set(chosen)
        remaining = tuple(i for i in indices if i not in chosen_set)
        for rest in _group_assignments(remaining, rest_sizes):
            yield (chosen,) + rest
