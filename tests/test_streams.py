"""Derived seeds and row generators are numpy's, computed in one pass."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutreduce.streams import derive_seeds, row_generators

EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


def spawned(seeds, n):
    return [g for s in seeds for g in np.random.default_rng(s).spawn(n)]


def seed_sequence_seed(entropy):
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


# Seeds of one, two and three uint32 words; generations and slots either
# side of 2**32.
WIDE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**70]
WIDE_INDICES = [0, 5, 2**32 - 1, 2**32]
search_entropies = st.lists(
    st.tuples(st.integers(0, 2**80) | st.sampled_from(WIDE_SEEDS), st.just(0),
              st.integers(0, 2**40) | st.sampled_from(WIDE_INDICES),
              st.integers(0, 2**40) | st.sampled_from(WIDE_INDICES)),
    min_size=1, max_size=6)
sweep_entropies = st.lists(
    st.tuples(st.integers(0, 2**80) | st.sampled_from(WIDE_SEEDS), st.just(3),
              st.integers(0, 100)),
    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(entropies=search_entropies | sweep_entropies)
@example(entropies=[(seed, 0, g, slot) for seed in WIDE_SEEDS
                    for g in WIDE_INDICES for slot in WIDE_INDICES])
@example(entropies=[(seed, 3, p) for seed in WIDE_SEEDS for p in (10, 90)])
@example(entropies=[(4294967295, 3, 10), (4294967296, 3, 10)])
@example(entropies=[(1, 0, 2, 3), (2**70, 3, 10), (7,)])
@example(entropies=[(2**300, 0, 1, 2), (2**200, 3, 4), (5, 0, 1, 2)])
def test_derive_seeds_equal_seed_sequence(entropies):
    assert derive_seeds(entropies) == [seed_sequence_seed(e) for e in entropies]


def test_derive_seeds_of_no_entropy():
    assert derive_seeds([]) == []


def test_derive_seeds_reject_negative_entropy():
    with pytest.raises(ValueError, match=">= 0"):
        derive_seeds([(1, 0, 0, 0), (-1, 0, 0, 0)])


@settings(max_examples=150, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
       n=st.integers(1, 8))
@example(seeds=EDGE_SEEDS, n=1)
@example(seeds=EDGE_SEEDS, n=5)
@example(seeds=EDGE_SEEDS, n=8)
@example(seeds=[7, 7], n=3)
def test_row_generators_equal_numpy_spawn(seeds, n):
    rows = row_generators(seeds, n)
    children = spawned(seeds, n)
    assert len(rows) == len(children) == len(seeds) * n
    for row, child in zip(rows, children):
        assert row.bit_generator.state == child.bit_generator.state
        assert (row.choice(1000, 10, replace=False).tolist()
                == child.choice(1000, 10, replace=False).tolist())


def test_row_generators_of_derived_seeds_equal_numpy_spawn():
    seeds = derive_seeds([(s, 0, g, slot) for s in (0, 1, 2**40)
                          for g in (0, 3) for slot in (0, 99)])
    for row, child in zip(row_generators(seeds, 5), spawned(seeds, 5)):
        assert row.bit_generator.state == child.bit_generator.state


def test_row_generators_of_no_seeds():
    assert row_generators([], 5) == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_row_generators_reject_seeds_outside_uint64(seed):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        row_generators([1, seed], 2)


def test_a_row_generator_cannot_spawn():
    with pytest.raises(TypeError):
        row_generators([3], 1)[0].spawn(1)
