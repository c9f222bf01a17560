"""The index step between loading a cache and evaluating strategies on it.

A ``MutationCache`` is stored in index order and carries the views the
strategy VM and the kill kernel read (see ``mutreduce.cache``), so there
is nothing left to build: ``build_index`` returns its argument. The
search, objectives, baselines and strategy entry points still call it
where they first take a cache.
"""

from __future__ import annotations

from .cache import MutationCache


def build_index(cache: MutationCache) -> MutationCache:
    """The cache itself: a loaded cache is already in index order."""
    return cache
