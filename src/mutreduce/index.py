"""Numeric array view of a cache, shared by the strategy VM and objectives.

Index conventions (load-bearing, do not reorder):

* operators are indexed in ascending id order,
* mutants are indexed in ascending id order, so iterating mutant indices
  ascending is the same as the id-ordered processing every tie-break
  rule in the package is defined on,
* tests are indexed in ascending priority_rank order, so a mutant's
  lowest-index killer is its first killer under the test priority.

Killer lists per mutant (CSR: killer_indptr / killer_tests) are sorted by
test index. Two per-mutant views derived from them serve the kill kernel:
first_killer (each mutant's lowest-index killer, n_tests for a mutant no
test kills) and killable_starts (the CSR offset of each killable mutant's
row). The index and the kernel's temporaries grow with the mutants and the
kill nonzeros: memory is O(mutants + nnz), never O(tests x mutants).

The index is built once per cache and cached on the (immutable) cache
object, so it lives exactly as long as the cache does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cache import MutationCache


@dataclass(frozen=True, eq=False)
class CacheIndex:
    cache: MutationCache
    op_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    mutant_ids: tuple[str, ...]
    op_generation_cost: np.ndarray
    mutant_exec_cost: np.ndarray
    mutant_operator: np.ndarray
    killer_indptr: np.ndarray
    killer_tests: np.ndarray
    first_killer: np.ndarray
    killable_starts: np.ndarray
    op_indptr: np.ndarray
    op_index: dict[str, int] = field(repr=False)
    test_index: dict[str, int] = field(repr=False)
    mutant_index: dict[str, int] = field(repr=False)

    @property
    def n_operators(self) -> int:
        return len(self.op_ids)

    @property
    def n_tests(self) -> int:
        return len(self.test_ids)

    @property
    def n_mutants(self) -> int:
        return len(self.mutant_ids)

    @property
    def total_cost(self) -> float:
        return self.cache.total_cost

    @property
    def killable_count(self) -> int:
        return self.cache.killable_count

    def mutants_of_operators(self, ops: np.ndarray) -> np.ndarray:
        """Sorted mutant indices generated by the given operator indices."""
        chosen = np.zeros(self.n_operators, dtype=bool)
        chosen[ops] = True
        return chosen.take(self.mutant_operator).nonzero()[0].astype(np.int32)


def build_index(cache: MutationCache) -> CacheIndex:
    """Build (or reuse) the numeric view of a cache.

    The first build is stored on the cache itself: the cache is immutable,
    so the stored index can never be stale, and it is freed with the cache.
    """
    if isinstance(cache, CacheIndex):
        return cache
    if cache._index is not None:
        return cache._index

    ops = sorted(cache.operators, key=lambda o: o.id)
    tests = sorted(cache.tests, key=lambda t: t.priority_rank)
    mutants = sorted(cache.mutants, key=lambda m: m.id)

    op_ids = tuple(o.id for o in ops)
    test_ids = tuple(t.id for t in tests)
    mutant_ids = tuple(m.id for m in mutants)
    op_index = {o: i for i, o in enumerate(op_ids)}
    test_index = {t: i for i, t in enumerate(test_ids)}
    mutant_index = {m: i for i, m in enumerate(mutant_ids)}

    n_m = len(mutants)
    killer_counts = np.fromiter((len(m.killers) for m in mutants),
                                dtype=np.int64, count=n_m)
    killer_indptr = np.zeros(n_m + 1, dtype=np.int64)
    np.cumsum(killer_counts, out=killer_indptr[1:])
    unsorted_tests = np.fromiter(
        (test_index[k] for m in mutants for k in m.killers),
        dtype=np.int32, count=int(killer_indptr[-1]))
    rows = np.repeat(np.arange(n_m), killer_counts)
    killer_tests = unsorted_tests[np.lexsort((unsorted_tests, rows))]

    killable = killer_counts > 0
    killable_starts = killer_indptr[:-1][killable]
    first_killer = np.full(n_m, len(tests), dtype=np.int32)
    first_killer[killable] = killer_tests[killable_starts]

    # Each mutant's operator, and the mutant count per operator as offsets.
    mutant_operator = np.fromiter(
        (op_index[m.operator_id] for m in mutants), dtype=np.int32, count=n_m)
    op_indptr = np.zeros(len(ops) + 1, dtype=np.int64)
    np.cumsum(np.bincount(mutant_operator, minlength=len(ops)), out=op_indptr[1:])

    index = CacheIndex(
        cache=cache,
        op_ids=op_ids,
        test_ids=test_ids,
        mutant_ids=mutant_ids,
        op_generation_cost=np.array([o.generation_cost for o in ops], dtype=np.float64),
        mutant_exec_cost=np.array([m.exec_cost for m in mutants], dtype=np.float64),
        mutant_operator=mutant_operator,
        killer_indptr=killer_indptr,
        killer_tests=killer_tests,
        first_killer=first_killer,
        killable_starts=killable_starts,
        op_indptr=op_indptr,
        op_index=op_index,
        test_index=test_index,
        mutant_index=mutant_index,
    )
    object.__setattr__(cache, "_index", index)
    return index
