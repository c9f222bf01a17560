"""Row generators are numpy's spawned children, built in one pass."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutreduce.streams import derive_seed, row_generators

EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


def spawned(seeds, n):
    return [g for s in seeds for g in np.random.default_rng(s).spawn(n)]


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
    seeds = [derive_seed((s, 0, g, slot)) for s in (0, 1, 2**40)
             for g in (0, 3) for slot in (0, 99)]
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
