"""Scaling guards. On the report path, doubling the points must about
double the traced allocation peak, never quadruple it as an n x n matrix
would, and reading a front file must take memory in proportion to the
file. Loading a cache, a baseline sweep and an evolution run must take
memory with the kills, not with tests x mutants, and loading a saved
file must hold one chunk of its records at a time, and importing a kill
matrix its columns, not its rows. Peaks are allocation counts, so they
do not vary with host load."""

import json
import sys
from functools import partial

import numpy as np
import pytest

from mutreduce.analysis import compare_experiment
from mutreduce.baselines import baseline_front
from mutreduce.cache import dumps_cache, loads_cache, read_kill_matrix_csv, synth_cache
from mutreduce.grammar import default_grammar
from mutreduce.pareto import nondominated_points, sort_fronts
from mutreduce.runio import FRONT_COLUMNS, read_front_points
from mutreduce.search import SearchConfig, run_evolution
from matrix_oracle import kill_matrix_text
from test_kernels import traced_peak

# Linear growth doubles the peak; a quadratic term at these sizes would
# nearly quadruple it.
MAX_GROWTH = 2.6


def random_points(n, seed):
    return np.random.default_rng(seed).random((n, 2))


def growth(measure, n):
    """The traced peak of measure(2n) over that of measure(n)."""
    measure(n)  # the first call's one-time allocations stay out of both peaks
    return traced_peak(lambda: measure(2 * n))[1] / traced_peak(lambda: measure(n))[1]


@pytest.mark.parametrize("name,measure", [
    ("sort_fronts", lambda n: sort_fronts(*random_points(n, 1).T.copy())),
    ("nondominated_points", lambda n: nondominated_points(random_points(n, 2))),
])
def test_pareto_peak_grows_linearly_with_the_points(name, measure):
    assert growth(measure, 4000) < MAX_GROWTH, name


def test_compare_experiment_peak_grows_linearly_with_the_runs():
    """Doubling the runs of every method doubles the pooled points; each
    front keeps its size, as repeated runs of one method do."""
    def measure(runs):
        rng = np.random.default_rng(3)
        return compare_experiment({method: [rng.random((60, 2)) for _ in range(runs)]
                                   for method in ("a", "b")})

    assert growth(measure, 40) < MAX_GROWTH


def test_reading_long_chromosomes_takes_memory_in_proportion_to_the_file(tmp_path):
    """Checking 100,000 genes holds a few copies of their text, not state
    for every gene."""
    path = tmp_path / "front_1.csv"
    path.write_text(",".join(FRONT_COLUMNS) + "\n" + "".join(
        f'{row},"{",".join(str(gene * row % 256) for gene in range(500))}",text,0.5,0.5\n'
        for row in range(200)))
    read_front_points(path)
    points, peak = traced_peak(lambda: read_front_points(path))
    assert points.shape == (200, 2)
    assert peak < 6 * path.stat().st_size


# Peaks measured at 2,000 mutants and 500 tests grew by 1.01-1.05 times
# when the tests doubled, and by 1.84-1.97 times when the mutants did. A
# dense tests x mutants bool matrix would add 1 MB at that size, more than
# the whole peak of any of these layers.
NEARLY_FLAT = 1.25
AT_MOST_DOUBLE = 2.1
GRAMMAR = default_grammar()


def cache_text(n_mutants, n_tests):
    """A cache file's text in which four of five mutants are killed by two
    tests each, so the kill count does not change with the tests."""
    return json.dumps({
        "operators": [{"id": f"op{i}", "generation_cost": 1.0} for i in range(4)],
        "tests": [{"id": f"t{i:05d}", "priority_rank": i} for i in range(n_tests)],
        "mutants": [{"id": f"m{i:06d}", "operator_id": f"op{i % 4}", "exec_cost": 1.0 + i % 7,
                     "killers": [f"t{i * 7 % n_tests:05d}", f"t{(i * 7 + 13) % n_tests:05d}"]
                     if i % 5 else []}
                    for i in range(n_mutants)]})


# Each prepares, from a cache file's text, the call to trace; the cache it
# runs on is loaded before tracing starts.
LAYERS = {
    "loads_cache": lambda text: partial(loads_cache, text),
    "baseline_front": lambda text: partial(baseline_front, "RMS", loads_cache(text), [1, 2], 2),
    "run_evolution": lambda text: partial(
        run_evolution, SearchConfig(seed=1, population_size=4, max_evaluations=8, repetitions=2),
        GRAMMAR, loads_cache(text)),
}


def layer_peak(prepare, n_mutants, n_tests):
    text = cache_text(n_mutants, n_tests)
    prepare(text)()  # the first call's one-time allocations stay out of the peak
    return traced_peak(prepare(text))[1]


@pytest.mark.parametrize("name", LAYERS)
def test_cache_and_search_peaks_follow_the_kills(name):
    prepare = LAYERS[name]
    assert (loads_cache(cache_text(2000, 500)).killer_tests.size
            == loads_cache(cache_text(2000, 1000)).killer_tests.size)
    peak = layer_peak(prepare, 2000, 500)
    assert layer_peak(prepare, 2000, 1000) < NEARLY_FLAT * peak, "tests doubled"
    assert layer_peak(prepare, 4000, 500) < AT_MOST_DOUBLE * peak, "mutants doubled"


def held_bytes(cache):
    """The bytes a loaded cache holds: its id strings and its columns."""
    ids = (cache.operator_ids, cache.test_ids, cache.mutant_ids)
    arrays = (cache.generation_cost, cache.priority_rank, cache.mutant_operator,
              cache.exec_cost, cache.killer_indptr, cache.killer_tests,
              cache.first_killer, cache.op_indptr)
    return (sum(sys.getsizeof(column) + sum(map(sys.getsizeof, column)) for column in ids)
            + sum(array.nbytes for array in arrays))


def test_a_saved_file_loads_a_chunk_of_records_at_a_time():
    """A file in dumps_cache's layout is parsed a chunk of mutant records
    at a time, so a load holds one chunk's objects, not the whole
    document's. At 20,000 mutants the traced peak measured 1.6 times the
    cache it returns; the whole document took 6.4 times."""
    text = dumps_cache(synth_cache(30, 20_000, 1_000, seed=5))
    loads_cache(text)  # the first call's one-time allocations stay out of the peak
    cache, peak = traced_peak(lambda: loads_cache(text))
    assert cache.n_mutants == 20_000
    assert peak < 2 * held_bytes(cache)


def test_a_kill_matrix_imports_into_columns(tmp_path):
    """The import appends each row to file-order columns and keeps no row
    or record objects. At 20,000 mutants the traced peak measured 2.7
    times the cache it returns; holding every row, then every record, as
    a dict took 9.3 times."""
    path = tmp_path / "matrix.csv"
    path.write_text(kill_matrix_text(synth_cache(30, 20_000, 1_000, seed=5)), encoding="utf-8")
    read_kill_matrix_csv(path)  # the first call's one-time allocations stay out of the peak
    cache, peak = traced_peak(lambda: read_kill_matrix_csv(path))
    assert cache.n_mutants == 20_000
    assert peak < 4 * held_bytes(cache)
