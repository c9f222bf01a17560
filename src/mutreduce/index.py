"""Numeric array view of a cache, shared by the strategy VM and objectives.

Index conventions (load-bearing, do not reorder):

* operators are indexed in ascending id order,
* mutants are indexed in ascending id order, so iterating mutant indices
  ascending is the same as the id-ordered processing every tie-break
  rule in the package is defined on,
* tests are indexed in ascending priority_rank order, so a mutant's
  lowest-index killer is its first killer under the test priority.

The index is a reordering view of the cache's file-order columns: three
argsorts (operator ids, test ranks, mutant ids), gathers of the cost and
operator columns, and one gather of the killer CSR (killer_indptr /
killer_tests) into mutant-id order, each row sorted by test index. Two
per-mutant views derived from the CSR serve the kill kernel: first_killer
(each mutant's lowest-index killer, n_tests for a mutant no test kills)
and killable_starts (the CSR offset of each killable mutant's row). The
index and the kernel's temporaries grow with the mutants and the kill
nonzeros: memory is O(mutants + nnz), never O(tests x mutants).

The index is built once per cache and cached on the (immutable) cache
object, so it lives exactly as long as the cache does. It keeps no
reference back to the cache, so dropping the last reference to the cache
frees both at once, without waiting for a cyclic collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cache import MutationCache, _csr


@dataclass(frozen=True, eq=False)
class CacheIndex:
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
    total_cost: float
    killable_count: int

    @property
    def n_operators(self) -> int:
        return len(self.op_ids)

    @property
    def n_tests(self) -> int:
        return len(self.test_ids)

    @property
    def n_mutants(self) -> int:
        return len(self.mutant_ids)

    @cached_property
    def mutant_index(self) -> dict[str, int]:
        """Mutant id to index; built on first use, as only id-based callers need it."""
        return dict(zip(self.mutant_ids, range(self.n_mutants)))

    def mutants_of_operators(self, ops: np.ndarray) -> np.ndarray:
        """Sorted mutant indices generated by the given operator indices."""
        chosen = np.zeros(self.n_operators, dtype=bool)
        chosen[ops] = True
        return chosen.take(self.mutant_operator).nonzero()[0].astype(np.int32)


def _argsort_ids(ids: tuple[str, ...]) -> np.ndarray:
    """Positions of ids in ascending (code point) order."""
    return np.fromiter(sorted(range(len(ids)), key=ids.__getitem__),
                       dtype=np.int64, count=len(ids))


def _inverse(order: np.ndarray) -> np.ndarray:
    """new_position[old_position] for a permutation given as old positions."""
    position = np.empty(order.size, dtype=np.int32)
    position[order] = np.arange(order.size, dtype=np.int32)
    return position


def build_index(cache: MutationCache) -> CacheIndex:
    """Build (or reuse) the numeric view of a cache.

    The first build is stored on the cache itself: the cache is immutable,
    so the stored index can never be stale, and it is freed with the cache.
    """
    if isinstance(cache, CacheIndex):
        return cache
    if cache._index is not None:
        return cache._index

    op_order = _argsort_ids(cache.operator_ids)
    test_order = np.argsort(cache.priority_rank, kind="stable")
    mutant_order = _argsort_ids(cache.mutant_ids)
    n_ops, n_tests, n_m = op_order.size, test_order.size, mutant_order.size

    # Killer rows in mutant-id order, each sorted by test index.
    counts = np.diff(cache.killer_indptr)[mutant_order]
    killer_indptr = _csr(counts)
    shift = np.repeat(cache.killer_indptr[:-1][mutant_order] - killer_indptr[:-1], counts)
    tests = _inverse(test_order)[cache.killer_tests[np.arange(shift.size) + shift]]
    rows = np.repeat(np.arange(n_m), counts)
    killer_tests = tests[np.lexsort((tests, rows))]

    killable = counts > 0
    killable_starts = killer_indptr[:-1][killable]
    first_killer = np.full(n_m, n_tests, dtype=np.int32)
    first_killer[killable] = killer_tests[killable_starts]

    # Each mutant's operator, and the mutant count per operator as offsets.
    mutant_operator = _inverse(op_order)[cache.mutant_operator[mutant_order]]
    op_indptr = _csr(np.bincount(mutant_operator, minlength=n_ops))

    index = CacheIndex(
        op_ids=tuple(map(cache.operator_ids.__getitem__, op_order.tolist())),
        test_ids=tuple(map(cache.test_ids.__getitem__, test_order.tolist())),
        mutant_ids=tuple(map(cache.mutant_ids.__getitem__, mutant_order.tolist())),
        op_generation_cost=cache.generation_cost[op_order],
        mutant_exec_cost=cache.exec_cost[mutant_order],
        mutant_operator=mutant_operator,
        killer_indptr=killer_indptr,
        killer_tests=killer_tests,
        first_killer=first_killer,
        killable_starts=killable_starts,
        op_indptr=op_indptr,
        total_cost=cache.total_cost,
        killable_count=cache.killable_count,
    )
    object.__setattr__(cache, "_index", index)
    return index
