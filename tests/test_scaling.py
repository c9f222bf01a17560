"""Scaling guards for the report path: doubling the points must about
double the traced allocation peak, never quadruple it as an n x n matrix
would, and reading a front file must take memory in proportion to the
file. Peaks are allocation counts, so they do not vary with host load."""

import numpy as np
import pytest

from mutreduce.analysis import compare_experiment
from mutreduce.pareto import nondominated_points, sort_fronts
from mutreduce.runio import FRONT_COLUMNS, read_front_points
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
