"""Front quality indicators and the non-parametric comparison pipeline.

Fronts from different methods are compared the same way whatever produced
them: pool every solution of the experiment, take the non-dominated subset
as the reference front, normalize both coordinates into [0, 1] over the
pooled value ranges (score flipped so both axes are minimized), then
compute per-run hypervolume against reference point (1, 1) and inverted
generational distance against the reference front. Methods are compared
per indicator with a Kruskal-Wallis omnibus test and pairwise
Vargha-Delaney A12 effect sizes.

The indicators compute on (n, 2) float64 point arrays. Each takes such an
array or, as before, any iterable of pairs or of objects with ``time``
and ``score``; compare_experiment converts every front once and
normalizes the reference front once. The results are bit for bit those
of per-point Python loops: elementwise arithmetic is the same IEEE
operations, and hypervolume adds its terms one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pareto import nondominated_points, points_array

Point = tuple[float, float]


def reference_front(fronts: Iterable[Iterable]) -> list[Point]:
    """Non-dominated subset of the union of the given fronts.

    Points are (time, score) with time minimized and score maximized.
    Duplicates collapse to the earliest; the result is sorted by
    ascending time.
    """
    arrays = [points_array(front) for front in fronts]
    pool = np.concatenate(arrays) if arrays else np.empty((0, 2))
    return list(map(tuple, nondominated_points(pool).tolist()))


# ===== Normalization =====

@dataclass(frozen=True)
class Normalizer:
    """Maps (time, score) points into the minimization unit square.

    Bounds come from the pooled experiment solutions. Bounds whose
    difference is past the float range, or not finite, are a ValueError,
    since no point could be mapped. A degenerate axis (zero range) maps to
    the optimal coordinate 0 for every point.
    """

    time_min: float
    time_max: float
    score_min: float
    score_max: float

    @classmethod
    def from_points(cls, points) -> "Normalizer":
        pts = points_array(points)
        if not pts.size:
            raise ValueError("cannot normalize an empty point set")
        # argmin and argmax keep the first of equal values, 0.0 or -0.0 as
        # given; np.min and np.max do not promise which.
        times, scores = pts[:, 0], pts[:, 1]
        normalizer = cls(float(times[times.argmin()]), float(times[times.argmax()]),
                         float(scores[scores.argmin()]), float(scores[scores.argmax()]))
        if not (math.isfinite(normalizer.time_max - normalizer.time_min)
                and math.isfinite(normalizer.score_max - normalizer.score_min)):
            raise ValueError("the pooled times or scores span past the float range")
        return normalizer

    def __call__(self, points):
        """The normalized points: an (n, 2) array for an array, else a
        list of pairs."""
        pts = points_array(points)
        out = np.zeros(pts.shape)
        time_range = self.time_max - self.time_min
        score_range = self.score_max - self.score_min
        if time_range > 0:
            np.divide(pts[:, 0] - self.time_min, time_range, out=out[:, 0])
        if score_range > 0:
            np.subtract(1.0, (pts[:, 1] - self.score_min) / score_range, out=out[:, 1])
        if isinstance(points, np.ndarray):
            return out
        return list(map(tuple, out.tolist()))


# ===== Indicators (minimization space, unit square) =====

def hypervolume(points, reference: Point = (1.0, 1.0)) -> float:
    """Exact 2-D hypervolume of the region dominated by ``points`` within
    [0, reference]. Points are minimization pairs; ones outside the box
    are clipped onto it and contribute nothing at the reference itself.

    Sorted by (x, y), a point adds a slab where its y is below every y
    before it; the slabs are added one after another, in that order."""
    ref_x, ref_y = reference
    pts = points_array(points)
    if not pts.size:
        return 0.0
    x, y = np.minimum(np.maximum(pts, 0.0), reference).T
    order = np.lexsort((y, x))
    x, y = x.take(order), y.take(order)
    best_before = np.minimum.accumulate(np.concatenate(([ref_y], y[:-1])))
    slab = y < best_before
    terms = (ref_x - x[slab]) * (best_before[slab] - y[slab])
    volume = 0.0
    for term in terms.tolist():
        volume += term
    return volume


def igd(front, reference) -> float:
    """Inverted generational distance: mean Euclidean distance from each
    reference point to its nearest front point. Errors on empty inputs
    (an empty evaluated front has no meaningful distance)."""
    front_pts = points_array(front)
    ref_pts = points_array(reference)
    if ref_pts.size == 0:
        raise ValueError("reference front is empty")
    if front_pts.size == 0:
        raise ValueError("evaluated front is empty")
    # The square root, being monotone, is taken after the minimum.
    dx = ref_pts[:, :1] - front_pts[:, 0]
    dy = ref_pts[:, 1:] - front_pts[:, 1]
    dists = np.sqrt((dx * dx + dy * dy).min(axis=1))
    return float(dists.mean())


# ===== Non-parametric statistics =====

def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks with ties sharing the mean of their positions, and the
    size of every run of tied values (in ascending value order)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(starts, values.size))
    # Positions start+1 .. start+count average to start + (count + 1) / 2.
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks, counts


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of the chi-squared distribution, integer df >= 1.

    This is the regularized upper incomplete gamma Q(df/2, y), y = x/2,
    in closed form: exp(-y) * sum_{i < df/2} y^i / i! for even df, and
    erfc(sqrt(y)) plus the same series over half-integer powers for odd
    df. Every term is positive, so nothing cancels.
    """
    if x <= 0:
        return 1.0
    y = x / 2.0
    if df % 2:
        tail, term, offset = math.erfc(math.sqrt(y)), 2.0 * math.sqrt(y / math.pi), 1.5
    else:
        tail, term, offset = 0.0, 1.0, 1.0
    series = 0.0
    for i in range(df // 2):
        series += term
        term *= y / (i + offset)
    # exp(-y) applied in halves, so no factor underflows before the tail does.
    half = math.exp(-y / 2.0)
    return tail + half * series * half


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Kruskal-Wallis H (tie-corrected) and its chi-squared p-value.

    All observations identical is a defined boundary: H = 0, p = 1. Any
    NaN observation gives (nan, nan).
    """
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    sizes = [len(g) for g in groups]
    if any(s == 0 for s in sizes):
        raise ValueError("groups must be non-empty")
    pooled = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
    n = pooled.size
    if np.isnan(pooled).any():
        return math.nan, math.nan
    ranks, counts = _average_ranks(pooled)
    if counts.size == 1:
        return 0.0, 1.0
    h = 0.0
    start = 0
    for size in sizes:
        rank_sum = ranks[start:start + size].sum()
        h += rank_sum * rank_sum / size
        start += size
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    correction = 1.0 - tie_term / (n ** 3 - n)
    h /= correction
    return float(h), _chi2_sf(h, len(groups) - 1)


A12_THRESHOLDS = ((0.71, "large"), (0.64, "medium"), (0.56, "small"))


@dataclass(frozen=True)
class A12Result:
    value: float
    magnitude: str


def a12(sample_a: Sequence[float], sample_b: Sequence[float]) -> A12Result:
    """Vargha-Delaney effect size: P(a > b) + 0.5 * P(a = b).

    0.5 means no difference; the magnitude labels follow the customary
    0.56 / 0.64 / 0.71 thresholds on the distance from 0.5.
    """
    a = np.asarray(sample_a, dtype=np.float64)[:, None]
    b = np.asarray(sample_b, dtype=np.float64)
    if not a.size or not b.size:
        raise ValueError("samples must be non-empty")
    # Counted over every pair at once; a NaN is neither a win nor a tie.
    more = int(np.count_nonzero(a > b))
    ties = int(np.count_nonzero(a == b))
    value = (more + 0.5 * ties) / (a.size * b.size)
    scaled = 0.5 + abs(value - 0.5)
    magnitude = "negligible"
    for threshold, label in A12_THRESHOLDS:
        if scaled >= threshold:
            magnitude = label
            break
    return A12Result(value=value, magnitude=magnitude)


# ===== Experiment comparison =====

@dataclass(frozen=True)
class StatReport:
    """Per-indicator comparison of several methods over repeated runs.

    ``values`` maps indicator -> method -> one value per run. Means and
    sample standard deviations summarize them; ``kruskal`` holds (H, p)
    per indicator and ``effect_sizes`` the A12 of the first method versus
    each other method (values are the first method's indicator sample
    against the other's, so for hypervolume > 0.5 favours the first
    method and for IGD < 0.5 does).
    """

    methods: tuple[str, ...]
    values: dict[str, dict[str, list[float]]]
    means: dict[str, dict[str, float]]
    stdevs: dict[str, dict[str, float]]
    kruskal: dict[str, tuple[float, float]]
    effect_sizes: dict[str, dict[str, A12Result]]
    reference: list[Point]
    normalizer: Normalizer

INDICATORS = ("hypervolume", "igd")


def compare_experiment(runs: Mapping[str, Sequence[Iterable]]) -> StatReport:
    """Compare methods on one experiment (same cache, repeated runs).

    ``runs`` maps method name -> per-run fronts of (time, score) solutions
    (EvaluatedStrategy lists and (n, 2) arrays work). All methods need the
    same run count, and every front must be non-empty. Each front becomes
    one point array here; the reference front is found in the pooled
    array and normalized once.
    """
    methods = tuple(runs.keys())
    if len(methods) < 2:
        raise ValueError("need at least two methods to compare")
    run_counts = {m: len(runs[m]) for m in methods}
    if len(set(run_counts.values())) != 1:
        raise ValueError(f"mismatched run counts: {run_counts}")
    if next(iter(run_counts.values())) == 0:
        raise ValueError("need at least one run per method")

    per_method_points: dict[str, list[np.ndarray]] = {}
    for method in methods:
        fronts = []
        for i, front in enumerate(runs[method]):
            pts = points_array(front)
            if not pts.size:
                raise ValueError(f"method {method!r} run {i} has an empty front")
            fronts.append(pts)
        per_method_points[method] = fronts

    pooled = np.concatenate([front for fronts in per_method_points.values()
                             for front in fronts])
    normalizer = Normalizer.from_points(pooled)
    reference = reference_front([pooled])
    reference_norm = normalizer(np.array(reference))

    values: dict[str, dict[str, list[float]]] = {ind: {} for ind in INDICATORS}
    for method in methods:
        hv_list, igd_list = [], []
        for front in per_method_points[method]:
            norm = normalizer(front)
            hv_list.append(hypervolume(norm))
            igd_list.append(igd(norm, reference_norm))
        values["hypervolume"][method] = hv_list
        values["igd"][method] = igd_list

    means = {ind: {m: float(np.mean(vals)) for m, vals in per_ind.items()}
             for ind, per_ind in values.items()}
    stdevs = {ind: {m: (float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0)
                    for m, vals in per_ind.items()}
              for ind, per_ind in values.items()}
    kruskal = {ind: kruskal_wallis([per_ind[m] for m in methods])
               for ind, per_ind in values.items()}
    first = methods[0]
    effect_sizes = {
        ind: {other: a12(per_ind[first], per_ind[other]) for other in methods[1:]}
        for ind, per_ind in values.items()
    }
    return StatReport(
        methods=methods,
        values=values,
        means=means,
        stdevs=stdevs,
        kruskal=kruskal,
        effect_sizes=effect_sizes,
        reference=reference,
        normalizer=normalizer,
    )
