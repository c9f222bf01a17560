import gc
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from itertools import accumulate, combinations

import numpy as np

from cache_oracle import class_multiset
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
    return sorted(selected), brute_force_kills(index, selected)


def brute_force_kills(index, tests):
    """Mutants of the whole cache with at least one killer among ``tests``."""
    tests = set(tests)
    killed = 0
    for m in range(index.n_mutants):
        killers = index.killer_tests[
            index.killer_indptr[m]:index.killer_indptr[m + 1]]
        if any(int(t) in tests for t in killers):
            killed += 1
    return killed


def random_subsets(index, count, seed):
    rng = np.random.default_rng(seed)
    subsets = [np.empty(0, dtype=np.int32),
               np.arange(index.n_mutants, dtype=np.int32)]
    while len(subsets) < count:
        size = int(rng.integers(1, index.n_mutants + 1))
        subset = np.sort(rng.choice(index.n_mutants, size=size, replace=False))
        subsets.append(subset.astype(np.int32))
    return subsets


def select_one(index, mprime):
    """The kernel on a batch of one row: (selected tests, kills)."""
    mask, kills = _kernels.select_and_count(index, mprime, [0, mprime.size])
    assert mask.shape == (1, index.n_tests + 1) and len(kills) == 1
    return mask[0, :-1].nonzero()[0], kills[0]


def without_killers(cache):
    """The same cache with every mutant unkillable (synth_cache needs kill_density > 0)."""
    return MutationCache.from_records(
        operators=cache.operators, tests=cache.tests,
        mutants=tuple(replace(m, killers=()) for m in cache.mutants))


def with_killer_rows(cache, rows):
    """The same cache with mutant i killed by rows[i % len(rows)] (test positions)."""
    ids = [t.id for t in cache.tests]
    return MutationCache.from_records(
        operators=cache.operators, tests=cache.tests,
        mutants=tuple(replace(m, killers=tuple(ids[t] for t in rows[i % len(rows)]))
                      for i, m in enumerate(cache.mutants)))


def test_dispatcher_matches_brute_force():
    base = synth_cache(4, 90, 12, seed=11)
    # Every killable mutant shares one killer list; a third are unkillable.
    one_class = with_killer_rows(base, [(), (3, 7, 9), (3, 7, 9)])
    # No two mutants share a killer list: rows are the bit sets of 1..90.
    distinct = with_killer_rows(base, [tuple(t for t in range(12) if (i + 1) >> t & 1)
                                       for i in range(90)])
    caches = [
        synth_cache(5, 150, 40, seed=13, kill_density=0.7, redundancy=0.4),
        # Low density leaves many unkillable mutants, in runs and at both ends.
        synth_cache(4, 120, 30, seed=7, kill_density=0.2),
        without_killers(synth_cache(3, 50, 10, seed=3)),
        # Each operator's killable mutants collapse onto one killer list.
        synth_cache(5, 150, 40, seed=13, kill_density=0.7, redundancy=1.0),
        one_class,
        distinct,
    ]
    assert caches[1].killable_count < len(caches[1].mutants)
    assert caches[2].killable_count == 0
    assert caches[2].kill_classes.starts.size == 0
    assert caches[3].kill_classes.starts.size <= caches[3].n_operators
    assert class_multiset(one_class.kill_classes) == Counter({(3, 7, 9): 60})
    assert one_class.killable_count == 60
    assert distinct.kill_classes.multiplicity.tolist() == [1] * 90
    for cache in caches:
        index = build_index(cache)
        for subset in random_subsets(index, 40, seed=5):
            selected, killed = select_one(index, subset)
            expected_tests, expected_killed = brute_force(index, subset)
            assert selected.tolist() == expected_tests
            assert killed == expected_killed


def cache_of_rows(rows, n_tests):
    """A one-operator cache, built straight from its columns, in which
    mutant i is killed by the tests of rows[i] (ascending positions)."""
    n = len(rows)
    return MutationCache(
        operator_ids=("op0",), generation_cost=np.ones(1),
        test_ids=tuple(f"t{t:04d}" for t in range(n_tests)),
        priority_rank=np.arange(n_tests, dtype=np.int64),
        mutant_ids=tuple(f"m{i:05d}" for i in range(n)),
        mutant_operator=np.zeros(n, dtype=np.int32), exec_cost=np.ones(n),
        killer_indptr=np.cumsum([0, *map(len, rows)], dtype=np.int64),
        killer_tests=np.array([t for row in rows for t in row], dtype=np.int32))


def pair_cache(n_tests=136):
    """Each pair of tests kills one mutant, and every 25th mutant is
    unkillable: every class holds two tests, and a test set leaves a
    class alive only when it misses both."""
    pairs = list(combinations(range(n_tests), 2))
    rows = [()] + [row for i, pair in enumerate(pairs)
                   for row in ([pair, ()] if i % 24 == 23 else [pair])]
    return cache_of_rows(rows, n_tests)


def count_paths(index, selected):
    """The count of every path, each forced, for the test positions ``selected``."""
    mask = np.zeros((1, index.n_tests + 1), dtype=bool)
    mask[0, selected] = True
    return {"class-major": _kernels.count_class_major(index, mask)[0],
            "unselected side": _kernels.count_unselected_side(index, mask)[0]}


def test_every_count_path_matches_brute_force():
    caches = [pair_cache(), synth_cache(6, 15_000, 1_000, seed=19, kill_density=0.9,
                                        redundancy=0.0)]
    rng = np.random.default_rng(23)
    for cache in caches:
        assert cache.kill_classes.tests.size > _kernels.CLASS_MAJOR_MAX_NNZ
        assert 0 < cache.killable_count < cache.n_mutants
        n = cache.n_tests
        test_sets = [np.arange(n),                               # U empty
                     np.arange(n - 1), np.arange(1, n),          # U of one test
                     np.arange(1), np.array([n - 1]),            # S of one test
                     np.arange(n // 2)]
        test_sets += [np.sort(rng.choice(n, size=size, replace=False))
                      for size in rng.integers(1, n, size=8).tolist()]
        for tests in test_sets:
            expected = brute_force_kills(cache, tests.tolist())
            assert count_paths(cache, tests) == dict.fromkeys(
                ("class-major", "unselected side"), expected)
        for subset in random_subsets(cache, 8, seed=31):
            selected, killed = select_one(cache, subset)
            expected_tests, expected_killed = brute_force(cache, subset)
            assert selected.tolist() == expected_tests
            assert killed == expected_killed
            assert set(count_paths(cache, selected).values()) == {killed}


def test_count_helpers_count_each_row_of_a_batch():
    cache = pair_cache()
    assert cache.kill_classes.tests.size > _kernels.CLASS_MAJOR_MAX_NNZ
    n = cache.n_tests
    rng = np.random.default_rng(41)
    test_sets = [np.empty(0, dtype=np.int64), np.array([n // 2]), np.arange(n)]
    test_sets += [np.sort(rng.choice(n, size=size, replace=False)) for size in (1, 7, 68, n - 1)]
    mask = np.zeros((len(test_sets), n + 1), dtype=bool)
    for row, tests in zip(mask, test_sets):
        row[tests] = True
    expected = [brute_force_kills(cache, tests.tolist()) for tests in test_sets]
    assert expected[0] == 0 and expected[2] == cache.killable_count
    assert _kernels.count_class_major(cache, mask) == expected
    assert _kernels.count_unselected_side(cache, mask) == expected


def test_batch_kernel_matches_brute_force_per_row():
    small = synth_cache(5, 150, 40, seed=13, kill_density=0.7, redundancy=0.4)
    for cache in (pair_cache(), small):
        pools = random_subsets(cache, 6, seed=43)  # the empty pool and every mutant first
        pools.insert(1, np.flatnonzero(cache.first_killer == 3).astype(np.int32))  # one test
        bounds = list(accumulate(map(len, pools), initial=0))
        mask, kills = _kernels.select_and_count(cache, np.concatenate(pools), bounds)
        assert mask.shape == (len(pools), cache.n_tests + 1)
        assert mask[1, :-1].nonzero()[0].tolist() == [3]
        for row, pool, killed in zip(mask, pools, kills):
            expected_tests, expected_killed = brute_force(cache, pool)
            assert row[:-1].nonzero()[0].tolist() == expected_tests
            assert killed == expected_killed
    assert small.kill_classes.tests.size < _kernels.CLASS_MAJOR_MAX_NNZ


def forbid(monkeypatch, *names):
    def refuse(*args):
        raise AssertionError("wrong count path")
    for name in names:
        monkeypatch.setattr(_kernels, name, refuse)


def test_dispatcher_counts_the_unselected_side_past_the_bound(monkeypatch):
    cache = pair_cache()
    # The first killer of pair (a, b) is a, so keeping the mutants whose
    # first killer is below h selects exactly the tests 0..h-1.
    with monkeypatch.context() as patch:
        forbid(patch, "count_class_major")
        for h in (1, 68, cache.n_tests - 1):
            kept = np.flatnonzero(cache.first_killer < h).astype(np.int32)
            selected, killed = select_one(cache, kept)
            assert (selected.tolist(), killed) == brute_force(cache, kept)
        everything = np.arange(cache.n_mutants, dtype=np.int32)
        assert select_one(cache, everything)[1] == cache.killable_count


def test_dispatcher_folds_class_major_below_the_nonzero_bound(monkeypatch):
    cache = pair_cache(40)
    nonzeros = cache.kill_classes.tests.size
    subset = np.arange(0, cache.n_mutants, 7, dtype=np.int32)
    expected = brute_force(cache, subset)
    with monkeypatch.context() as patch:
        forbid(patch, "count_unselected_side")
        patch.setattr(_kernels, "CLASS_MAJOR_MAX_NNZ", nonzeros + 1)
        selected, killed = select_one(cache, subset)
        assert (selected.tolist(), killed) == expected
    with monkeypatch.context() as patch:
        forbid(patch, "count_class_major")
        patch.setattr(_kernels, "CLASS_MAJOR_MAX_NNZ", nonzeros)
        selected, killed = select_one(cache, subset)
        assert (selected.tolist(), killed) == expected
    readme = synth_cache(8, 600, 120, seed=101, kill_density=0.9)
    assert readme.kill_classes.tests.size < _kernels.CLASS_MAJOR_MAX_NNZ


def test_test_major_view_transposes_the_classes():
    for cache in (pair_cache(12), synth_cache(5, 400, 30, seed=3, kill_density=0.5),
                  without_killers(synth_cache(3, 50, 10, seed=3))):
        classes, view = cache.kill_classes, cache.test_classes
        rows = np.split(classes.tests, classes.starts[1:]) if classes.starts.size else []
        members = [set() for _ in range(cache.n_tests)]
        for c, row in enumerate(rows):
            for t in row.tolist():
                members[t].add(c)
        assert view.indptr.size == cache.n_tests + 1
        assert view.width.tolist() == [row.size for row in rows]
        assert np.diff(view.indptr).tolist() == [len(m) for m in members]
        for t in range(cache.n_tests):
            assert view.classes[view.indptr[t]:view.indptr[t + 1]].tolist() == sorted(members[t])
        assert view.classes.dtype == np.int32
        assert view.indptr.dtype == view.width.dtype == np.int64


def test_empty_selection():
    index = build_index(synth_cache(2, 10, 5, seed=1))
    selected, killed = select_one(index, np.empty(0, dtype=np.int32))
    assert selected.size == 0
    assert killed == 0


def traced_peak(call):
    """call()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_kernel_memory_grows_with_kills_not_tests_times_mutants():
    index = build_index(synth_cache(10, 20_000, 2_000, seed=17))
    everything = np.arange(index.n_mutants, dtype=np.int32)
    # A dense tests x mutants bool matrix alone would be 40 MB.
    bound = index.n_tests * index.n_mutants // 20
    classes, peak = traced_peak(lambda: index.kill_classes)
    assert classes.multiplicity.sum() == index.killable_count
    assert peak < bound
    view, peak = traced_peak(lambda: index.test_classes)
    assert view.classes.size == classes.tests.size
    assert peak < bound
    (spans, owners), peak = traced_peak(lambda: (index.operator_mutants, index.owner_codes))
    assert spans.size == owners.size == index.n_mutants
    assert peak < bound
    (selected, killed), peak = traced_peak(
        lambda: select_one(index, everything))
    assert killed == index.killable_count
    assert selected.size > 0
    assert peak < bound


def test_index_is_freed_with_its_cache():
    """build_index returns the cache itself, and the cache's derived views,
    every lazily built one included, form no reference cycle, so dropping
    the cache frees it without waiting for a collection."""
    cache = synth_cache(3, 40, 8, seed=2)
    index = build_index(cache)
    assert build_index(cache) is index
    select_one(index, np.arange(index.n_mutants, dtype=np.int32))
    lazy = ("mutant_index", "kill_classes", "test_classes", "operator_mutants",
            "owner_codes")
    for name in lazy:
        getattr(index, name)
    assert set(lazy) <= set(vars(cache))
    cache_ref = weakref.ref(cache)
    index_ref = weakref.ref(index)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del cache, index
        assert cache_ref() is None
        assert index_ref() is None
    finally:
        if was_enabled:
            gc.enable()


def per_mutant_index(cache):
    """The index arrays built one mutant at a time, straight from the contract."""
    op_ids = sorted(op.id for op in cache.operators)
    test_ids = [t.id for t in sorted(cache.tests, key=lambda t: t.priority_rank)]
    mutants = sorted(cache.mutants, key=lambda m: m.id)
    test_index = {t: i for i, t in enumerate(test_ids)}
    arrays = {"killer_indptr": [0], "killer_tests": [], "first_killer": [],
              "kill_classes": Counter(), "op_indptr": [0],
              "mutant_operator": [op_ids.index(m.operator_id) for m in mutants]}
    for m in mutants:
        row = sorted(test_index[k] for k in m.killers)
        if row:
            arrays["kill_classes"][tuple(row)] += 1
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
    # out of id order, so every sort in the loader's reorder has work to do.
    scrambled = MutationCache.from_records(
        operators=base.operators[::-1],
        tests=tuple(replace(t, priority_rank=n_tests - 1 - t.priority_rank)
                    for t in base.tests),
        mutants=base.mutants[::-1])
    for cache in (base, scrambled, without_killers(synth_cache(3, 50, 10, seed=3))):
        index = build_index(cache)
        for name, expected in per_mutant_index(cache).items():
            actual = getattr(index, name)
            if isinstance(expected, Counter):
                actual = class_multiset(actual)
            else:
                actual = actual.tolist()
            assert actual == expected, name
        assert index.killer_tests.dtype == index.mutant_operator.dtype == np.int32
        assert index.killer_indptr.dtype == index.op_indptr.dtype == np.int64
