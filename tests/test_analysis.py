import math
from collections import namedtuple

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from analysis_oracle import (oracle_a12, oracle_compare_experiment, oracle_hypervolume,
                             oracle_igd, oracle_normalize, oracle_normalizer,
                             oracle_reference_front)
from kw_permutation import kruskal_wallis_permutation
from mutreduce.analysis import (A12_THRESHOLDS, Normalizer, _average_ranks,
                                _chi2_sf, a12, compare_experiment,
                                hypervolume, igd,
                                kruskal_wallis, reference_front)
from mutreduce.objectives import ObjectivePair
from mutreduce.pareto import nondominated


def peel_reference(fronts):
    """Brute-force non-dominated subset of the pooled (time, score) points."""
    pool = sorted({tuple(p) for front in fronts for p in front})
    keep = []
    for cand in pool:
        beaten = any(o[0] <= cand[0] and o[1] >= cand[1]
                     and (o[0] < cand[0] or o[1] > cand[1]) for o in pool)
        if not beaten:
            keep.append(cand)
    return keep


# ===== reference front =====

def test_reference_front_example():
    fronts = [[(0.2, 0.3), (0.5, 0.6)], [(0.4, 0.7)]]
    assert reference_front(fronts) == [(0.2, 0.3), (0.4, 0.7)]


def test_reference_front_collapses_duplicates():
    assert reference_front([[(0.1, 0.5), (0.1, 0.5)]]) == [(0.1, 0.5)]


def test_reference_front_accepts_objects():
    fronts = [[ObjectivePair(0.2, 0.3)], [(0.4, 0.7), (0.5, 0.6)]]
    assert reference_front(fronts) == [(0.2, 0.3), (0.4, 0.7)]


def test_reference_front_matches_brute_force_peel():
    rng = np.random.default_rng(11)
    for _ in range(5):
        fronts = [[(round(rng.random(), 2), round(rng.random(), 2))
                   for _ in range(rng.integers(1, 8))]
                  for _ in range(4)]
        assert reference_front(fronts) == peel_reference(fronts)
    # The sweep under it, on a 6 x 6 grid (equal times and equal scores
    # throughout) with every other point repeated, keyed by shuffled labels.
    Item = namedtuple("Item", "time score label")
    for _ in range(200):
        n = int(rng.integers(1, 40))
        points = [(int(rng.integers(0, 6)) / 5, int(rng.integers(0, 6)) / 5)
                  for _ in range(n)]
        points += points[::2]
        labels = rng.permutation(len(points)).tolist()
        items = [Item(t, s, label) for (t, s), label in zip(points, labels)]
        front = nondominated(items, key=lambda item: item.label)
        assert [(m.time, m.score) for m in front] == peel_reference([points])
        for member in front:
            assert member.label == min(
                item.label for item in items
                if (item.time, item.score) == (member.time, member.score))
        assert reference_front([points]) == peel_reference([points])


# ===== normalization =====

def test_normalizer_maps_to_unit_square():
    norm = Normalizer.from_points([(2.0, 0.1), (4.0, 0.9)])
    assert norm([(2.0, 0.1), (4.0, 0.9), (3.0, 0.5)]) == [
        (0.0, 1.0), (1.0, 0.0), (0.5, 0.5)]


def test_normalizer_degenerate_axis_maps_to_zero():
    norm = Normalizer.from_points([(3.0, 0.2), (3.0, 0.8)])
    assert norm([(3.0, 0.2), (3.0, 0.8)]) == [(0.0, 1.0), (0.0, 0.0)]
    flat = Normalizer.from_points([(1.0, 0.5), (2.0, 0.5)])
    assert flat([(1.5, 0.5)]) == [(0.5, 0.0)]


def test_normalizer_rejects_empty():
    with pytest.raises(ValueError):
        Normalizer.from_points([])


@pytest.mark.parametrize("points", [[(0.0, 1.7976931348623157e308), (0.0, -1e308)],
                                    [(-1e308, 0.5), (1e308, 0.5)]])
def test_normalizer_rejects_a_range_past_the_float_range(points):
    with pytest.raises(ValueError, match="span past the float range"):
        Normalizer.from_points(points)


# ===== hypervolume =====

def test_hypervolume_corners():
    assert hypervolume([(0.0, 0.0)]) == 1.0
    assert hypervolume([(1.0, 1.0)]) == 0.0
    assert hypervolume([]) == 0.0


def test_hypervolume_two_point_front():
    # (1-0.2)*(1-0.6) + (1-0.5)*(0.6-0.3) = 0.32 + 0.15
    assert hypervolume([(0.2, 0.6), (0.5, 0.3)]) == pytest.approx(0.47, abs=1e-15)
    assert hypervolume([(0.5, 0.3), (0.2, 0.6)]) == pytest.approx(0.47, abs=1e-15)


def test_hypervolume_ignores_dominated_points():
    assert hypervolume([(0.2, 0.6), (0.3, 0.7)]) == hypervolume([(0.2, 0.6)])


def test_hypervolume_clips_out_of_box_points():
    assert hypervolume([(-0.5, 0.5)]) == pytest.approx(0.5)
    assert hypervolume([(1.5, 0.5)]) == 0.0


def test_hypervolume_custom_reference():
    assert hypervolume([(0.0, 0.0)], reference=(2.0, 2.0)) == 4.0
    assert hypervolume([(1.0, 1.0)], reference=(2.0, 2.0)) == 1.0


def test_hypervolume_against_monte_carlo():
    rng = np.random.default_rng(42)
    samples = rng.random((200_000, 2))
    fronts = [
        [(0.2, 0.6), (0.5, 0.3)],
        [(0.1, 0.8), (0.3, 0.5), (0.6, 0.2), (0.9, 0.05)],
        [(0.45, 0.45)],
    ]
    for front in fronts:
        dominated = np.zeros(len(samples), dtype=bool)
        for x, y in front:
            dominated |= (samples[:, 0] >= x) & (samples[:, 1] >= y)
        assert abs(dominated.mean() - hypervolume(front)) < 0.005


# ===== inverted generational distance =====

def test_igd_zero_when_front_covers_reference():
    front = [(0.1, 0.2), (0.4, 0.05)]
    assert igd(front, front) == 0.0


def test_igd_single_pair():
    assert igd([(0.3, 0.4)], [(0.0, 0.0)]) == pytest.approx(0.5, abs=1e-15)


def test_igd_averages_over_reference_points():
    value = igd([(0.0, 0.0)], [(0.0, 0.0), (1.0, 1.0)])
    assert value == pytest.approx(math.sqrt(2) / 2)


def test_igd_matches_quadratic_scan():
    rng = np.random.default_rng(5)
    for _ in range(20):
        front = [(rng.random(), rng.random()) for _ in range(6)]
        reference = [(rng.random(), rng.random()) for _ in range(10)]
        expected = np.mean([min(math.hypot(rx - fx, ry - fy)
                                for fx, fy in front)
                            for rx, ry in reference])
        assert igd(front, reference) == pytest.approx(expected, abs=1e-12)


def test_igd_rejects_empty_inputs():
    with pytest.raises(ValueError):
        igd([], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        igd([(0.0, 0.0)], [])


# ===== Kruskal-Wallis =====

@pytest.mark.parametrize("groups,expected_h", [
    (([1, 2], [3, 4]), 12 / 5),
    (([1, 3], [2, 4]), 3 / 5),
    (([1, 2, 2], [2, 3, 4]), 245 / 93),  # tie-corrected
    (([1], [2], [3]), 2.0),
    (([5, 6, 7, 8], [1, 2, 3, 4]), 16 / 3),
    (([1, 2, 3], [4, 5, 6]), 27 / 7),
])
def test_kruskal_wallis_hand_ranked(groups, expected_h):
    h, _ = kruskal_wallis(groups)
    assert h == pytest.approx(expected_h, abs=1e-12)


def test_kruskal_wallis_p_is_chi_squared_tail():
    # df = 2 has the closed form sf(h) = exp(-h / 2)
    h, p = kruskal_wallis(([1], [2], [3]))
    assert h == pytest.approx(2.0)
    assert p == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_kruskal_wallis_identical_observations():
    assert kruskal_wallis(([3, 3], [3, 3, 3])) == (0.0, 1.0)


def test_kruskal_wallis_propagates_nan():
    # As scipy.stats.kruskal does by default: a NaN has no rank.
    h, p = kruskal_wallis(([math.nan, 1.0], [2.0, 3.0]))
    assert math.isnan(h) and math.isnan(p)


def test_kruskal_wallis_matches_scipy():
    rng = np.random.default_rng(8)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        groups = [list(rng.integers(0, 12, size=rng.integers(3, 9)))
                  for _ in range(k)]
        if len({x for g in groups for x in g}) == 1:
            continue
        h, p = kruskal_wallis(groups)
        expected = scipy.stats.kruskal(*groups)
        assert h == pytest.approx(expected.statistic, abs=1e-10)
        assert p == pytest.approx(expected.pvalue, abs=1e-10)


def test_average_ranks_match_scipy_rankdata():
    rng = np.random.default_rng(11)
    for _ in range(200):
        size = int(rng.integers(1, 80))
        values = rng.integers(0, int(rng.integers(1, 12)), size=size) / 4.0
        ranks, counts = _average_ranks(values)
        np.testing.assert_array_equal(ranks, scipy.stats.rankdata(values))
        np.testing.assert_array_equal(counts, np.unique(values, return_counts=True)[1])


@pytest.mark.parametrize("df", range(1, 13))
def test_chi2_sf_matches_scipy(df):
    xs = np.concatenate(([0.0, 1e-300, 1e-12, 1e-6], np.linspace(0.0, 400.0, 4001)))
    expected = scipy.stats.chi2.sf(xs, df)
    for x, want in zip(xs.tolist(), expected.tolist()):
        got = _chi2_sf(x, df)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert f"{got:.4g}" == f"{want:.4g}"
    assert _chi2_sf(-3.0, df) == 1.0


def test_kruskal_wallis_input_validation():
    with pytest.raises(ValueError):
        kruskal_wallis(([1, 2],))
    with pytest.raises(ValueError):
        kruskal_wallis(([1, 2], []))


def test_kruskal_wallis_detects_clear_shift():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 1.0, size=30)
    b = rng.normal(2.0, 1.0, size=30)
    _, p = kruskal_wallis((a.tolist(), b.tolist()))
    assert p < 0.05


def test_permutation_p_exact_small_case():
    # Of the 6 ways to split {1,2,3,4} into two pairs, only the two
    # extreme splits reach H = 12/5.
    assert kruskal_wallis_permutation(([1, 2], [3, 4])) == pytest.approx(1 / 3)


def test_permutation_rejects_large_pools():
    with pytest.raises(ValueError):
        kruskal_wallis_permutation(([1] * 7, [2] * 6))


# Fixed small samples on which the chi-squared approximation was checked
# against full permutation enumeration; spans 2 and 3 groups, pooled sizes
# 8 to 12, ties, floats, and H from 0 to 6.8.
PERMUTATION_BATTERY = (
    ([5, 6, 7, 8], [1, 2, 3, 4]),
    ([1, 2, 3, 4, 5], [6, 7, 8, 9, 10]),
    ([1, 4, 5, 8, 9, 12], [2, 3, 6, 7, 10, 11]),
    ([1, 2, 3, 7, 8, 9], [4, 5, 6, 10, 11, 12]),
    ([2, 4, 9], [1, 5, 8], [3, 6, 7]),
    ([1, 2, 3], [4, 5, 6], [7, 8, 9]),
    ([1, 5, 9, 10], [2, 3, 4, 8], [6, 7, 11, 12]),
    ([0.3, 1.1, 2.5, 4.0], [0.9, 1.7, 3.2, 5.1], [0.1, 2.2, 3.8, 4.4]),
)


@pytest.mark.parametrize("groups", PERMUTATION_BATTERY)
def test_chi_squared_tracks_permutation_on_small_samples(groups):
    _, p = kruskal_wallis(groups)
    assert abs(p - kruskal_wallis_permutation(groups)) <= 0.05


# ===== Vargha-Delaney A12 =====

def test_a12_identical_samples():
    result = a12([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.value == 0.5
    assert result.magnitude == "negligible"


def test_a12_complete_separation():
    assert a12([4, 5], [1, 2]).value == 1.0
    assert a12([4, 5], [1, 2]).magnitude == "large"
    assert a12([1, 2], [4, 5]).value == 0.0
    assert a12([1, 2], [4, 5]).magnitude == "large"


def test_a12_tie_example():
    # pairs: (1,2) (1,3) (2,2) (2,3) -> 0 wins, 1 tie out of 4
    result = a12([1, 2], [2, 3])
    assert result.value == 0.125
    assert result.magnitude == "large"


def test_a12_thresholds():
    assert A12_THRESHOLDS == ((0.71, "large"), (0.64, "medium"), (0.56, "small"))
    b = [10, 20, 30, 40, 50]
    assert a12([60, 70, 45, 1, 2], b).value == pytest.approx(14 / 25)
    assert a12([60, 70, 45, 1, 2], b).magnitude == "small"
    assert a12([60, 70, 45, 25, 1], b).value == pytest.approx(16 / 25)
    assert a12([60, 70, 45, 25, 1], b).magnitude == "medium"
    wide = [10 * i for i in range(1, 11)]
    a = [101, 102, 103, 104, 105, 106, 107, 15, 1, 2]
    assert a12(a, wide).value == pytest.approx(0.71)
    assert a12(a, wide).magnitude == "large"
    assert a12([25], [10, 20, 30, 40]).value == 0.5
    assert a12([25], [10, 20, 30, 40]).magnitude == "negligible"


def test_a12_matches_exhaustive_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = list(rng.integers(0, 6, size=rng.integers(1, 9)))
        b = list(rng.integers(0, 6, size=rng.integers(1, 9)))
        wins = sum(1 for x in a for y in b if x > y)
        ties = sum(1 for x in a for y in b if x == y)
        expected = (wins + 0.5 * ties) / (len(a) * len(b))
        result = a12(a, b)
        assert result.value == pytest.approx(expected, abs=1e-15)
        scaled = 0.5 + abs(expected - 0.5)
        label = "negligible"
        for threshold, name in A12_THRESHOLDS:
            if scaled >= threshold:
                label = name
                break
        assert result.magnitude == label


def test_a12_complement_identity():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a = list(rng.integers(0, 10, size=rng.integers(1, 7)))
        b = list(rng.integers(0, 10, size=rng.integers(1, 7)))
        total = a12(a, b).value + a12(b, a).value
        assert total == pytest.approx(1.0, abs=1e-12)


def test_a12_rejects_empty_samples():
    with pytest.raises(ValueError):
        a12([], [1.0])
    with pytest.raises(ValueError):
        a12([1.0], [])


# ===== experiment comparison =====

def jittered_runs(rng, base, n):
    runs = []
    for _ in range(n):
        runs.append([(t + rng.uniform(-0.02, 0.02), s + rng.uniform(-0.02, 0.02))
                     for t, s in base])
    return runs


def test_compare_experiment_self_comparison_is_null():
    rng = np.random.default_rng(31)
    runs = jittered_runs(rng, [(0.3, 0.5), (0.6, 0.8)], 6)
    report = compare_experiment({"one": runs, "two": [list(r) for r in runs]})
    for indicator in ("hypervolume", "igd"):
        h, p = report.kruskal[indicator]
        assert h == pytest.approx(0.0, abs=1e-9)
        assert p == pytest.approx(1.0)
        assert report.effect_sizes[indicator]["two"].value == 0.5
        assert report.effect_sizes[indicator]["two"].magnitude == "negligible"


def test_compare_experiment_detects_dominating_method():
    rng = np.random.default_rng(37)
    good = jittered_runs(rng, [(0.1, 0.9)], 8)
    bad = jittered_runs(rng, [(0.9, 0.1)], 8)
    report = compare_experiment({"good": good, "bad": bad})
    assert report.effect_sizes["hypervolume"]["bad"].value == 1.0
    assert report.effect_sizes["hypervolume"]["bad"].magnitude == "large"
    assert report.effect_sizes["igd"]["bad"].value == 0.0
    assert report.kruskal["hypervolume"][1] < 0.05
    assert (report.means["hypervolume"]["good"]
            > report.means["hypervolume"]["bad"])
    assert report.means["igd"]["good"] < report.means["igd"]["bad"]


def test_compare_experiment_recomputation_cross_check():
    rng = np.random.default_rng(41)
    runs = {}
    for method in ("alpha", "beta", "gamma"):
        runs[method] = [[(rng.uniform(1, 9), rng.uniform(0.1, 0.9))
                         for _ in range(int(rng.integers(1, 5)))]
                        for _ in range(5)]
    report = compare_experiment(runs)
    assert report.methods == ("alpha", "beta", "gamma")

    pooled = [p for fronts in runs.values() for front in fronts for p in front]
    norm = Normalizer.from_points(pooled)
    assert report.normalizer == norm
    assert report.reference == reference_front(
        front for fronts in runs.values() for front in fronts)
    ref_norm = norm(report.reference)

    for method, fronts in runs.items():
        hv_expected = [hypervolume(norm(front)) for front in fronts]
        igd_expected = [igd(norm(front), ref_norm) for front in fronts]
        assert report.values["hypervolume"][method] == hv_expected
        assert report.values["igd"][method] == igd_expected
        assert report.means["hypervolume"][method] == pytest.approx(
            np.mean(hv_expected))
        assert report.stdevs["igd"][method] == pytest.approx(
            np.std(igd_expected, ddof=1))

    for indicator in ("hypervolume", "igd"):
        samples = [report.values[indicator][m] for m in report.methods]
        assert report.kruskal[indicator] == kruskal_wallis(samples)
        for other in ("beta", "gamma"):
            assert report.effect_sizes[indicator][other] == a12(
                report.values[indicator]["alpha"],
                report.values[indicator][other])


def test_compare_experiment_accepts_objective_pairs():
    runs = {
        "a": [[ObjectivePair(0.2, 0.8)], [ObjectivePair(0.3, 0.7)]],
        "b": [[(0.5, 0.5)], [(0.6, 0.4)]],
    }
    report = compare_experiment(runs)
    assert set(report.values["hypervolume"]) == {"a", "b"}


def test_compare_experiment_input_validation():
    ok = [[(0.2, 0.8)], [(0.3, 0.7)]]
    with pytest.raises(ValueError, match="two methods"):
        compare_experiment({"only": ok})
    with pytest.raises(ValueError, match="mismatched"):
        compare_experiment({"a": ok, "b": ok[:1]})
    with pytest.raises(ValueError, match="empty front"):
        compare_experiment({"a": ok, "b": [[(0.1, 0.9)], []]})
    with pytest.raises(ValueError, match="at least one run"):
        compare_experiment({"a": [], "b": []})


# ===== the array indicators against the per-point oracle =====
# Coordinates come from a small grid, so that ties, duplicates and
# degenerate axes are common; it holds -0.0 beside 0.0 and values outside
# the unit box. Results must equal the oracle's bit for bit, so repr is
# compared as well as ==.

GRID = (-0.5, -0.0, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 3.0)


def grid_points(max_size=8, min_size=1):
    """Lists of (time, score) pairs over a random sub-grid of GRID."""
    def over(sub):
        coords = st.sampled_from(sub)
        return st.lists(st.tuples(coords, coords), min_size=min_size, max_size=max_size)
    return st.lists(st.sampled_from(GRID), min_size=1, max_size=4, unique=True).flatmap(over)


def as_objects(points):
    return [ObjectivePair(t, s) for t, s in points]


def assert_same_bits(got, want):
    assert got == want
    assert repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(st.lists(grid_points(min_size=0), max_size=5))
@example([[(0.0, 0.5), (-0.0, 0.5)]])
@example([[(-0.0, 0.5)], [(0.0, 0.5)]])
@example([[(0.5, 0.5)]])
@example([])
def test_reference_front_equals_the_oracle(fronts):
    want = oracle_reference_front(fronts)
    assert_same_bits(reference_front(fronts), want)
    assert_same_bits(reference_front([as_objects(f) for f in fronts]), want)
    assert_same_bits(reference_front([np.array(f, dtype=np.float64).reshape(-1, 2)
                                      for f in fronts]), want)


@settings(max_examples=200, deadline=None)
@given(grid_points(), grid_points(min_size=0))
@example([(0.0, 1.0), (-0.0, 1.0)], [(-0.0, -0.0)])
@example([(2.0, 0.5)], [(2.0, 0.5), (3.0, -0.5)])  # both axes degenerate
def test_normalizer_equals_the_oracle(pooled, points):
    want = oracle_normalizer(pooled)
    for given_points in (pooled, as_objects(pooled), np.array(pooled)):
        assert_same_bits(Normalizer.from_points(given_points), want)
    normalizer = Normalizer.from_points(pooled)
    expected = oracle_normalize(want, points)
    assert_same_bits(normalizer(points), expected)
    as_array = normalizer(np.array(points, dtype=np.float64).reshape(-1, 2))
    assert isinstance(as_array, np.ndarray) and as_array.shape == (len(points), 2)
    assert_same_bits(list(map(tuple, as_array.tolist())), expected)


@settings(max_examples=300, deadline=None)
@given(grid_points(max_size=12, min_size=0),
       st.sampled_from([(1.0, 1.0), (2.0, 2.0), (0.5, 1.5), (1.0, 0.0)]))
@example([(-0.0, 0.25), (0.0, -0.0), (0.25, 0.25)], (1.0, 1.0))
@example([(0.5, 0.5)], (1.0, 1.0))
def test_hypervolume_equals_the_oracle(points, reference):
    want = oracle_hypervolume(points, reference)
    assert_same_bits(hypervolume(points, reference), want)
    assert_same_bits(hypervolume(np.array(points, dtype=np.float64).reshape(-1, 2),
                                 reference), want)


@settings(max_examples=200, deadline=None)
@given(grid_points(max_size=12), grid_points(max_size=12))
@example([(0.5, 0.5)], [(0.5, 0.5)])
@example([(-0.0, 3.0), (1.5, -0.5)], [(0.0, 0.0)])
def test_igd_equals_the_oracle(front, reference):
    want = oracle_igd(front, reference)
    assert_same_bits(igd(front, reference), want)
    assert_same_bits(igd(np.array(front), np.array(reference)), want)


def grid_runs():
    """Two or three methods, one to four runs each, fronts of one to six
    points over one sub-grid."""
    def build(sub):
        coords = st.sampled_from(sub)
        front = st.lists(st.tuples(coords, coords), min_size=1, max_size=6)
        return st.integers(1, 4).flatmap(lambda n: st.lists(
            st.lists(front, min_size=n, max_size=n), min_size=2, max_size=3))
    return st.lists(st.sampled_from(GRID), min_size=1, max_size=4, unique=True).flatmap(build)


@settings(max_examples=150, deadline=None)
@given(grid_runs())
@example([[[(0.5, 0.5)]], [[(0.5, 0.5)]]])                     # one point, no range
@example([[[(-0.0, 0.0), (0.0, -0.0)]], [[(0.0, 0.0)]]])
@example([[[(0.0, 1.0), (1.0, 3.0)], [(3.0, 3.0)]], [[(-0.5, 0.0)], [(0.5, 0.5)]]])
def test_compare_experiment_equals_the_oracle(per_method):
    runs = {f"m{i}": fronts for i, fronts in enumerate(per_method)}
    want = oracle_compare_experiment(runs)
    assert_same_bits(compare_experiment(runs), want)
    objects = {m: [as_objects(f) for f in fronts] for m, fronts in runs.items()}
    assert_same_bits(compare_experiment(objects), want)
    report = compare_experiment({m: [np.array(f) for f in fronts]
                                 for m, fronts in runs.items()})
    assert_same_bits(report, want)
    assert all(type(p) is tuple and list(map(type, p)) == [float, float]
               for p in report.reference)
    assert all(type(v) is float for per_method_values in report.values.values()
               for values in per_method_values.values() for v in values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(GRID + (math.nan,)), min_size=1, max_size=9),
       st.lists(st.sampled_from(GRID + (math.nan,)), min_size=1, max_size=9))
def test_a12_equals_the_loop(sample_a, sample_b):
    assert_same_bits(a12(sample_a, sample_b), oracle_a12(sample_a, sample_b))


# Fronts of up to 60 floats of nine decimals: enough slabs and distances
# that a different order of additions would show in the last bits, and no
# range so small that normalizing overflows.
wide_coordinate = st.floats(-0.25, 1.25).map(lambda value: round(value, 9))
wide_points = st.lists(st.tuples(wide_coordinate, wide_coordinate), min_size=1, max_size=60)
# Nine to sixty mutually non-dominated points, so that each adds a slab.
staircases = st.lists(wide_coordinate, min_size=9, max_size=60).map(
    lambda xs: [(x, round(1.0 - x * abs(x), 9)) for x in xs])


@settings(max_examples=200, deadline=None)
@given(wide_points, wide_points, staircases)
def test_indicators_on_wide_fronts_equal_the_oracle(front, reference, staircase):
    assert_same_bits(hypervolume(np.array(front)), oracle_hypervolume(front))
    assert_same_bits(hypervolume(np.array(staircase)), oracle_hypervolume(staircase))
    assert_same_bits(igd(np.array(front), np.array(reference)), oracle_igd(front, reference))
    normalizer = Normalizer.from_points(np.array(reference))
    assert_same_bits(normalizer, oracle_normalizer(reference))
    assert_same_bits(normalizer(front), oracle_normalize(normalizer, front))
