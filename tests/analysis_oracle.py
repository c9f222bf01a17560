"""The per-point indicator code, kept as a test oracle.

Before the report computed on one point array per front, every indicator
walked its points in Python: each front was turned into a list of float
pairs at every step, the reference front came from a sort of the pooled
pairs and a sweep over them, and the normalizer, hypervolume and A12
looped point by point. That code is kept here, unchanged but for its
names, so the array code can be checked against it bit for bit.
``oracle_compare_experiment`` builds the library's own ``StatReport`` and
``Normalizer`` from the oracle's numbers, so whole reports compare with
``==`` (and with ``repr``, which tells -0.0 from 0.0).
"""

from __future__ import annotations

import math

import numpy as np

from mutreduce.analysis import (INDICATORS, A12_THRESHOLDS, A12Result, Normalizer,
                                StatReport, kruskal_wallis)
from mutreduce.pareto import point


def as_points(front) -> list[tuple[float, float]]:
    return [point(element) for element in front]


def oracle_nondominated(items, key):
    def order(item):
        time, score = point(item)
        return time, -score, key(item)

    front = []
    best = -math.inf
    for item in sorted(items, key=order):
        score = point(item)[1]
        if score > best:
            front.append(item)
            best = score
    return front


def oracle_reference_front(fronts):
    pool = [p for front in fronts for p in as_points(front)]
    return oracle_nondominated(pool, key=lambda pair: pair)


def oracle_normalizer(points) -> Normalizer:
    pts = list(points)
    if not pts:
        raise ValueError("cannot normalize an empty point set")
    times = [p[0] for p in pts]
    scores = [p[1] for p in pts]
    return Normalizer(min(times), max(times), min(scores), max(scores))


def oracle_normalize(normalizer: Normalizer, points):
    out = []
    time_range = normalizer.time_max - normalizer.time_min
    score_range = normalizer.score_max - normalizer.score_min
    for time, score in points:
        t = (time - normalizer.time_min) / time_range if time_range > 0 else 0.0
        s = 1.0 - (score - normalizer.score_min) / score_range if score_range > 0 else 0.0
        out.append((t, s))
    return out


def oracle_hypervolume(points, reference=(1.0, 1.0)) -> float:
    ref_x, ref_y = reference
    pts = [(min(max(x, 0.0), ref_x), min(max(y, 0.0), ref_y))
           for x, y in as_points(points)]
    if not pts:
        return 0.0
    pts.sort()
    volume = 0.0
    best_y = ref_y
    for x, y in pts:
        if y < best_y:
            volume += (ref_x - x) * (best_y - y)
            best_y = y
    return volume


def oracle_igd(front, reference) -> float:
    front_pts = np.asarray(as_points(front), dtype=np.float64)
    ref_pts = np.asarray(as_points(reference), dtype=np.float64)
    if ref_pts.size == 0:
        raise ValueError("reference front is empty")
    if front_pts.size == 0:
        raise ValueError("evaluated front is empty")
    deltas = ref_pts[:, None, :] - front_pts[None, :, :]
    dists = np.sqrt((deltas ** 2).sum(axis=2)).min(axis=1)
    return float(dists.mean())


def oracle_a12(sample_a, sample_b) -> A12Result:
    if not sample_a or not sample_b:
        raise ValueError("samples must be non-empty")
    more = ties = 0
    for a in sample_a:
        for b in sample_b:
            if a > b:
                more += 1
            elif a == b:
                ties += 1
    value = (more + 0.5 * ties) / (len(sample_a) * len(sample_b))
    scaled = 0.5 + abs(value - 0.5)
    magnitude = "negligible"
    for threshold, label in A12_THRESHOLDS:
        if scaled >= threshold:
            magnitude = label
            break
    return A12Result(value=value, magnitude=magnitude)


def oracle_compare_experiment(runs) -> StatReport:
    methods = tuple(runs.keys())
    per_method_points = {method: [as_points(front) for front in runs[method]]
                         for method in methods}
    pooled = [p for fronts in per_method_points.values() for front in fronts for p in front]
    normalizer = oracle_normalizer(pooled)
    reference = oracle_reference_front(front for fronts in per_method_points.values()
                                       for front in fronts)
    reference_norm = oracle_normalize(normalizer, reference)

    values = {ind: {} for ind in INDICATORS}
    for method in methods:
        hv_list, igd_list = [], []
        for front in per_method_points[method]:
            norm = oracle_normalize(normalizer, front)
            hv_list.append(oracle_hypervolume(norm))
            igd_list.append(oracle_igd(norm, reference_norm))
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
        ind: {other: oracle_a12(per_ind[first], per_ind[other]) for other in methods[1:]}
        for ind, per_ind in values.items()
    }
    return StatReport(methods=methods, values=values, means=means, stdevs=stdevs,
                      kruskal=kruskal, effect_sizes=effect_sizes, reference=reference,
                      normalizer=normalizer)
