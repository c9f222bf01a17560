"""Version drift between two releases of a subject, for tests: a clone of
a cache with some mutants' killer sets redrawn."""

import dataclasses

import numpy as np

from mutreduce.cache import MutationCache, _csr


def reroll_killers(cache: MutationCache, fraction: float, seed: int) -> MutationCache:
    """Clone a cache with the killer sets of a fraction of mutants redrawn.

    Models drift between two versions of a subject: round(fraction * |M|)
    mutants (chosen uniformly) get a fresh killer set drawn over the same
    tests with the same expected size distribution used by synth_cache.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    n = len(cache.mutant_ids)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), n)))
    n_reroll = int(fraction * n + 0.5)
    chosen = sorted(set(rng.choice(n, size=n_reroll, replace=False).tolist())) if n_reroll else []
    n_tests = len(cache.test_ids)
    rows = np.split(cache.killer_tests, cache.killer_indptr[1:-1])
    for i in chosen:
        size = 1 + min(int(rng.geometric(0.45)) - 1, n_tests - 1)
        rows[i] = np.sort(rng.choice(n_tests, size=size, replace=False)).astype(np.int32)
    return dataclasses.replace(
        cache,
        killer_indptr=_csr(np.fromiter(map(len, rows), dtype=np.int64, count=n)),
        killer_tests=np.concatenate(rows))
