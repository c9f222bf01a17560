import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np

from mutreduce import _kernels
from mutreduce.cache import MutationCache, synth_cache
from mutreduce.index import build_index


def brute_force(index, mprime):
    """Set-based reference: first killer per kept mutant, then recount."""
    selected = set()
    for m in mprime:
        killers = index.killer_tests[
            index.killer_indptr[m]:index.killer_indptr[m + 1]]
        if killers.size:
            selected.add(int(killers[0]))
    killed = 0
    for m in range(index.n_mutants):
        killers = index.killer_tests[
            index.killer_indptr[m]:index.killer_indptr[m + 1]]
        if any(int(t) in selected for t in killers):
            killed += 1
    return sorted(selected), killed


def random_subsets(index, count, seed):
    rng = np.random.default_rng(seed)
    subsets = [np.empty(0, dtype=np.int32),
               np.arange(index.n_mutants, dtype=np.int32)]
    while len(subsets) < count:
        size = int(rng.integers(1, index.n_mutants + 1))
        subset = np.sort(rng.choice(index.n_mutants, size=size, replace=False))
        subsets.append(subset.astype(np.int32))
    return subsets


def without_killers(cache):
    """The same cache with every mutant unkillable (synth_cache needs kill_density > 0)."""
    return MutationCache(operators=cache.operators, tests=cache.tests,
                         mutants=tuple(replace(m, killers=()) for m in cache.mutants))


def test_dispatcher_matches_brute_force():
    caches = [
        synth_cache(5, 150, 40, seed=13, kill_density=0.7, redundancy=0.4),
        # Low density leaves many unkillable mutants, in runs and at both ends.
        synth_cache(4, 120, 30, seed=7, kill_density=0.2),
        without_killers(synth_cache(3, 50, 10, seed=3)),
    ]
    assert caches[1].killable_count < len(caches[1].mutants)
    assert caches[2].killable_count == 0
    for cache in caches:
        index = build_index(cache)
        for subset in random_subsets(index, 40, seed=5):
            selected, killed = _kernels.select_and_count(index, subset)
            expected_tests, expected_killed = brute_force(index, subset)
            assert selected.tolist() == expected_tests
            assert killed == expected_killed


def test_empty_selection():
    index = build_index(synth_cache(2, 10, 5, seed=1))
    selected, killed = _kernels.select_and_count(
        index, np.empty(0, dtype=np.int32))
    assert selected.size == 0
    assert killed == 0


def test_kernel_memory_grows_with_kills_not_tests_times_mutants():
    index = build_index(synth_cache(10, 20_000, 2_000, seed=17))
    everything = np.arange(index.n_mutants, dtype=np.int32)
    tracemalloc.start()
    try:
        selected, killed = _kernels.select_and_count(index, everything)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert killed == index.killable_count
    assert selected.size > 0
    # A dense tests x mutants bool matrix alone would be 40 MB.
    assert peak < index.n_tests * index.n_mutants // 20


def test_index_is_freed_with_its_cache():
    cache = synth_cache(3, 40, 8, seed=2)
    index = build_index(cache)
    assert build_index(cache) is index
    cache_ref = weakref.ref(cache)
    del cache, index
    gc.collect()
    assert cache_ref() is None


def per_mutant_index(cache):
    """The index arrays built one mutant at a time, straight from the contract."""
    op_ids = sorted(op.id for op in cache.operators)
    test_ids = [t.id for t in sorted(cache.tests, key=lambda t: t.priority_rank)]
    mutants = sorted(cache.mutants, key=lambda m: m.id)
    test_index = {t: i for i, t in enumerate(test_ids)}
    arrays = {"killer_indptr": [0], "killer_tests": [], "first_killer": [],
              "killable_starts": [], "op_indptr": [0],
              "mutant_operator": [op_ids.index(m.operator_id) for m in mutants]}
    for m in mutants:
        row = sorted(test_index[k] for k in m.killers)
        if row:
            arrays["killable_starts"].append(len(arrays["killer_tests"]))
        arrays["first_killer"].append(row[0] if row else len(test_ids))
        arrays["killer_tests"].extend(row)
        arrays["killer_indptr"].append(len(arrays["killer_tests"]))
    for op in op_ids:
        count = sum(1 for m in mutants if m.operator_id == op)
        arrays["op_indptr"].append(arrays["op_indptr"][-1] + count)
    return arrays


def test_index_matches_per_mutant_build():
    base = synth_cache(6, 300, 40, seed=29, kill_density=0.3, redundancy=0.5)
    n_tests = len(base.tests)
    # Reversed priorities (killer lists now run against them) and records
    # out of id order, so every sort in build_index has work to do.
    scrambled = MutationCache(
        operators=base.operators[::-1],
        tests=tuple(replace(t, priority_rank=n_tests - 1 - t.priority_rank)
                    for t in base.tests),
        mutants=base.mutants[::-1])
    for cache in (base, scrambled, without_killers(synth_cache(3, 50, 10, seed=3))):
        index = build_index(cache)
        for name, expected in per_mutant_index(cache).items():
            assert getattr(index, name).tolist() == expected, name
        assert index.killer_tests.dtype == index.mutant_operator.dtype == np.int32
        assert index.killer_indptr.dtype == index.op_indptr.dtype == np.int64
