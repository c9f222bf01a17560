"""Release gate: the ten checks the package must pass before shipping.

Each test is one numbered criterion; run with ``pytest tests/test_acceptance.py -v``
to get one pass/fail line per criterion. The expensive pieces (thirty
search runs on three synthetic caches) are computed once in session
fixtures and shared by the tests that need them.

Tolerances are pinned in each test: exact equality where arithmetic is
exact, 1e-12 where float rounding differs between formulas, 0.005 for
Monte-Carlo agreement, and the stated statistical thresholds for the
scaled-down experiment replication.
"""

import math
import time

import numpy as np
import pytest

from drift import reroll_killers
from kw_permutation import kruskal_wallis_permutation
from mutreduce.analysis import (a12, compare_experiment, hypervolume, igd,
                                kruskal_wallis)
from mutreduce.baselines import BASELINES, baseline_front, baseline_strategy
from mutreduce.cache import (MutantRecord, MutationCache, OperatorRecord,
                             TestRecord, dumps_cache, global_score,
                             synth_cache)
from mutreduce.cli import main
from mutreduce.genome import (Chromosome, MAX_WRAPS, MappingStatus, crossover,
                              duplicate, map_chromosome, mutate, prune,
                              random_chromosome)
from mutreduce.grammar import parse_grammar
from mutreduce.objectives import evaluate, score_objective, time_objective
from mutreduce.pareto import sort_fronts
from mutreduce.runio import atomic_write_text, front_csv_text, reevaluated_front
from mutreduce.search import SearchConfig, run_evolution, run_random_search
from mutreduce.strategy import ReductionRun

# Synthetic caches for the scaled-down experiment replication. The seeds
# and shape parameters are fixed so the runs below are reproducible;
# each cache has 600 mutants and 120 tests with a different kill density,
# operator cost skew, and killer-set redundancy.
REPLICATION_CACHES = (
    dict(seed=101, kill_density=0.9, cost_skew=2.0, redundancy=0.3),
    dict(seed=202, kill_density=0.7, cost_skew=2.5, redundancy=0.5),
    dict(seed=303, kill_density=0.5, cost_skew=3.0, redundancy=0.4),
)
REPLICATION_RUNS = 30
# The search budget is scaled down from the full-size experiments
# (population 100, 10000 evaluations) to stay within the runtime cap.
REPLICATION_BUDGET = dict(population_size=40, max_evaluations=2000)


@pytest.fixture(scope="session")
def replication_caches():
    return [synth_cache(8, 600, 120, **params)
            for params in REPLICATION_CACHES]


@pytest.fixture(scope="session")
def replication_runs(replication_caches, grammar):
    """30 evolution and 30 random-search runs per cache, plus wall time."""
    started = time.monotonic()
    per_cache = []
    for cache in replication_caches:
        evolution, random_search = [], []
        for run in range(REPLICATION_RUNS):
            config = SearchConfig(seed=run + 1, **REPLICATION_BUDGET)
            evolution.append(run_evolution(config, grammar, cache).front)
            random_search.append(run_random_search(config, grammar, cache).front)
        per_cache.append((evolution, random_search))
    return per_cache, time.monotonic() - started


def peel(points):
    """Brute-force non-dominated sorting by repeated peeling."""
    remaining = set(range(len(points)))
    fronts = []
    while remaining:
        layer = [i for i in remaining
                 if not any(points[j][0] <= points[i][0]
                            and points[j][1] >= points[i][1]
                            and points[j] != points[i]
                            for j in remaining)]
        fronts.append(sorted(layer))
        remaining -= set(layer)
    return fronts


def test_criterion_01_relative_score_worked_example():
    """Full suite kills 8 of 10 mutants (score 0.8); the tests selected for
    mutants m0..m4 kill 5, so the relative score is 0.5 / 0.8 = 0.625,
    exactly."""
    tests = tuple(TestRecord(id=f"t{i}", priority_rank=i) for i in range(10))
    mutants = tuple(
        MutantRecord(id=f"m{i}", operator_id="op", exec_cost=1.0,
                     killers=(f"t{i}",) if i < 8 else ())
        for i in range(10))
    cache = MutationCache.from_records(
        operators=(OperatorRecord(id="op", generation_cost=5.0),),
        tests=tests, mutants=mutants)
    assert global_score(cache) == 0.8
    run = ReductionRun(operator_ids=("op",),
                       mutant_ids=tuple(f"m{i}" for i in range(5)),
                       strategy_cost=10.0)
    assert score_objective(run, cache) == 0.625  # tolerance 0


def test_criterion_02_mapping_mod_rule_wraps_and_bounds():
    """Option choice is gene mod option-count; a length-15 chromosome under
    wrap limit 10 affords exactly 165 choice reads; generated chromosomes
    always keep genes in [0, 179] and lengths in [15, 100]."""
    for gene, k, expected in [(5, 2, 1), (0, 2, 0), (4, 2, 0), (7, 3, 1),
                              (9, 4, 1), (10, 5, 0), (179, 10, 9)]:
        options = " | ".join(f'"o{i}"' for i in range(k))
        grammar = parse_grammar(f"<pick> ::= {options}")
        result = map_chromosome(Chromosome((gene,)), grammar)
        assert result.mapped
        assert result.tokens == (f"o{expected}",)

    def chain(m):
        return parse_grammar(
            "<s> ::= " + " ".join("<c>" for _ in range(m))
            + '\n<c> ::= "a" | "b"')

    assert MAX_WRAPS == 10
    fits = map_chromosome(Chromosome((1,) * 15), chain(165))
    assert fits.mapped and fits.wraps_used == 10
    over = map_chromosome(Chromosome((1,) * 15), chain(166))
    assert over.status is MappingStatus.FAILED and over.tokens is None

    rng = np.random.default_rng(2024)
    pipeline_grammar = parse_grammar('<s> ::= "a" <s> | "b"')
    pool = [random_chromosome(rng) for _ in range(10_000)]
    for c in pool:
        assert 15 <= len(c) <= 100
        assert all(0 <= g <= 179 for g in c.genes)
    for i in range(500):
        a, b = crossover(pool[2 * i], pool[2 * i + 1], rng)
        for child in (mutate(a, rng, 0.05),
                      prune(b, pipeline_grammar, rng),
                      duplicate(a, rng)):
            assert 15 <= len(child) <= 100
            assert all(0 <= g <= 179 for g in child.genes)


def test_criterion_03_indicator_oracles():
    """Hypervolume within 0.005 of a 10^6-sample Monte-Carlo dominated-area
    estimate on 50 random fronts; IGD within 1e-12 of a quadratic
    nearest-neighbor scan; all in under a minute."""
    started = time.monotonic()
    rng = np.random.default_rng(314)
    samples = rng.random((1_000_000, 2))
    for _ in range(50):
        front = [(rng.random(), rng.random())
                 for _ in range(int(rng.integers(1, 9)))]
        dominated = np.zeros(len(samples), dtype=bool)
        for x, y in front:
            dominated |= (samples[:, 0] >= x) & (samples[:, 1] >= y)
        assert abs(hypervolume(front) - dominated.mean()) < 0.005

        reference = [(rng.random(), rng.random())
                     for _ in range(int(rng.integers(1, 13)))]
        oracle = sum(min(math.hypot(rx - fx, ry - fy) for fx, fy in front)
                     for rx, ry in reference) / len(reference)
        assert igd(front, reference) == pytest.approx(oracle, abs=1e-12)
    assert time.monotonic() - started < 60.0


def test_criterion_04_sort_matches_brute_force_peeling():
    """pareto.sort_fronts equals exhaustive peeling on 200 random
    populations of size up to 64, duplicates included. Tolerance 0."""
    rng = np.random.default_rng(271)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        points = [(float(rng.integers(0, 12)) / 10.0,
                   float(rng.integers(0, 12)) / 10.0) for _ in range(n)]
        times, scores = np.array(points).T
        assert [front.tolist() for front in sort_fronts(times, scores)] == peel(points)


def test_criterion_05_statistics_oracles():
    """Kruskal-Wallis H equals hand-ranked fractions on six fixed samples;
    chi-squared p within 0.05 of full permutation enumeration on small
    samples; A12 equals exhaustive pair counting; complements sum to 1."""
    hand_ranked = [
        (([1, 2], [3, 4]), 12 / 5),
        (([1, 3], [2, 4]), 3 / 5),
        (([1, 2, 2], [2, 3, 4]), 245 / 93),
        (([1], [2], [3]), 2.0),
        (([5, 6, 7, 8], [1, 2, 3, 4]), 16 / 3),
        (([1, 2, 3], [4, 5, 6]), 27 / 7),
    ]
    for groups, expected in hand_ranked:
        assert kruskal_wallis(groups)[0] == pytest.approx(expected, abs=1e-12)

    small_samples = [
        ([5, 6, 7, 8], [1, 2, 3, 4]),
        ([1, 2, 3, 4, 5], [6, 7, 8, 9, 10]),
        ([1, 4, 5, 8, 9, 12], [2, 3, 6, 7, 10, 11]),
        ([1, 2, 3, 7, 8, 9], [4, 5, 6, 10, 11, 12]),
        ([2, 4, 9], [1, 5, 8], [3, 6, 7]),
        ([1, 2, 3], [4, 5, 6], [7, 8, 9]),
        ([1, 5, 9, 10], [2, 3, 4, 8], [6, 7, 11, 12]),
    ]
    for groups in small_samples:
        _, p = kruskal_wallis(groups)
        assert abs(p - kruskal_wallis_permutation(groups)) <= 0.05

    rng = np.random.default_rng(161)
    for _ in range(1000):
        a = list(rng.integers(0, 10, size=rng.integers(1, 8)))
        b = list(rng.integers(0, 10, size=rng.integers(1, 8)))
        wins = sum(1 for x in a for y in b if x > y)
        ties = sum(1 for x in a for y in b if x == y)
        forward = a12(a, b).value
        assert forward == pytest.approx(
            (wins + 0.5 * ties) / (len(a) * len(b)), abs=1e-15)
        assert forward + a12(b, a).value == pytest.approx(1.0, abs=1e-12)


def test_criterion_06_evolution_beats_random_search(replication_runs):
    """On three synthetic caches, 30 runs each on the same reduced budget:
    evolution's mean hypervolume strictly greater with Kruskal-Wallis
    p < 0.05 and A12 >= 0.71 on at least 2 of 3 caches, in under 30
    minutes."""
    per_cache, elapsed = replication_runs
    assert elapsed < 1800.0
    clear_wins = 0
    for evolution, random_search in per_cache:
        report = compare_experiment({"evolution": evolution,
                                     "random": random_search})
        mean_gap = (report.means["hypervolume"]["evolution"]
                    - report.means["hypervolume"]["random"])
        p_value = report.kruskal["hypervolume"][1]
        effect = report.effect_sizes["hypervolume"]["random"].value
        if mean_gap > 0.0 and p_value < 0.05 and effect >= 0.71:
            clear_wins += 1
    assert clear_wins >= 2


def test_criterion_07_baseline_comparison_report_shape(
        replication_caches, replication_runs, tmp_path):
    """Evolution fronts versus the three baseline sweeps: the report
    command produces the indicator tables; the sweeps hold exactly 9, 9,
    and 6 candidates whose fronts are their non-dominated, replayable
    subsets; SM objectives do not depend on the seed."""
    assert [len(BASELINES[k][2]) for k in ("RMS", "ROS", "SM")] == [9, 9, 6]
    per_cache, _ = replication_runs
    for cache_no, (cache, (evolution, _)) in enumerate(
            zip(replication_caches, per_cache)):
        base = tmp_path / f"cache{cache_no}"
        ge_dir = base / "evolution"
        ge_dir.mkdir(parents=True)
        for i, front in enumerate(evolution):
            atomic_write_text(ge_dir / f"front_{i + 1}.csv", front_csv_text(front))

        for kind in ("RMS", "ROS", "SM"):
            kind_dir = base / kind.lower()
            kind_dir.mkdir()
            for seed in range(1, REPLICATION_RUNS + 1):
                front = baseline_front(kind, cache, [seed])[0]
                row_text, _, parameters = BASELINES[kind]
                assert 1 <= len(front) <= len(parameters)
                points = [(m.time, m.score) for m in front]
                assert peel(points)[0] == list(range(len(points)))
                for member in front:
                    assert member.text in [row_text.format(p) for p in parameters]
                    replay = evaluate(
                        baseline_strategy(member.text), cache, 5,
                        rng=np.random.default_rng(member.eval_seed))
                    assert (replay.time, replay.score) == (member.time, member.score)
                atomic_write_text(kind_dir / f"front_{seed}.csv", front_csv_text(front))

        sm_fronts = [[(m.time, m.score, m.text)
                      for m in baseline_front("SM", cache, [seed])[0]]
                     for seed in (1, 2, 3)]
        assert sm_fronts[0] == sm_fronts[1] == sm_fronts[2]

        out_dir = base / "report"
        assert main(["report",
                     "--runs", f"evolution={ge_dir}",
                     "--runs", f"rms={base / 'rms'}",
                     "--runs", f"ros={base / 'ros'}",
                     "--runs", f"sm={base / 'sm'}",
                     "--out", str(out_dir)]) == 0
        for indicator in ("hypervolume", "igd"):
            header = (out_dir / f"{indicator}_table.csv").read_text().splitlines()[0]
            for column in ("evolution_mean", "rms_mean", "ros_mean", "sm_mean",
                           "p_value", "a12_evolution_vs_rms",
                           "a12_evolution_vs_ros", "a12_evolution_vs_sm"):
                assert column in header.split(",")
        values = (out_dir / "values.csv").read_text().splitlines()
        assert len(values) - 1 == 2 * 4 * REPLICATION_RUNS


def test_criterion_08_transfer_to_perturbed_cache(
        replication_caches, replication_runs):
    """Strategies trained on a cache replay exactly on it (same seeds) and
    stay within the unit square on a clone with 5% of killer sets
    re-rolled."""
    cache = replication_caches[0]
    per_cache, _ = replication_runs
    evolution, _ = per_cache[0]
    perturbed = reroll_killers(cache, 0.05, seed=4242)
    assert perturbed != cache
    for member in evolution[0]:
        assert reevaluated_front([member], cache) == [member]
        [replayed] = reevaluated_front([member], perturbed)
        assert 0.0 <= replayed.time <= 1.0
        assert 0.0 <= replayed.score <= 1.0


def test_criterion_09_manifest_rerun_is_byte_identical(tmp_path):
    """A train invocation rerun from its manifest writes byte-identical
    front files, whether replayed with --jobs 1 or --jobs 8."""
    cache_path = tmp_path / "cache.json"
    cache_path.write_text(dumps_cache(synth_cache(4, 80, 20, seed=55)))
    first = tmp_path / "first"
    assert main(["train", "--cache", str(cache_path), "--seed", "11",
                 "--runs", "2", "--population-size", "8",
                 "--max-evaluations", "40", "--repetitions", "2",
                 "--out", str(first)]) == 0
    outputs = sorted(p.name for p in first.glob("*.csv"))
    assert outputs == ["front_11.csv", "front_12.csv",
                       "runlog_11.csv", "runlog_12.csv"]
    for jobs in ("1", "8"):
        redo = tmp_path / f"jobs{jobs}"
        assert main(["train", "--manifest", str(first / "manifest.json"),
                     "--jobs", jobs, "--out", str(redo)]) == 0
        for name in outputs:
            assert (redo / name).read_bytes() == (first / name).read_bytes()


def test_criterion_10_objectives_monotone_under_inclusion(replication_caches):
    """For 1000 random nested mutant-set pairs per cache, the smaller set
    never costs more time nor scores higher. Tolerance 0."""
    for cache_no, cache in enumerate(replication_caches):
        rng = np.random.default_rng(9000 + cache_no)
        all_ops = tuple(op.id for op in cache.operators)
        ids = [m.id for m in cache.mutants]
        cost_of = {m.id: m.exec_cost for m in cache.mutants}
        generation = math.fsum(op.generation_cost for op in cache.operators)
        for _ in range(1000):
            big_n = int(rng.integers(1, len(ids) + 1))
            big = rng.choice(ids, size=big_n, replace=False).tolist()
            small = big[:int(rng.integers(0, big_n + 1))]
            runs = [ReductionRun(
                operator_ids=all_ops, mutant_ids=tuple(subset),
                strategy_cost=generation + math.fsum(cost_of[m] for m in subset))
                for subset in (small, big)]
            assert time_objective(runs[0], cache) <= time_objective(runs[1], cache)
            assert score_objective(runs[0], cache) <= score_objective(runs[1], cache)
