import hashlib
import math

import numpy as np
import pytest
from crowding_oracle import oracle_assign_fronts
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutreduce.cache import synth_cache
from mutreduce.genome import Chromosome, random_chromosome
from mutreduce.objectives import MAX_REPETITIONS, ObjectivePair, evaluate
from mutreduce.pareto import point, sort_fronts
from mutreduce.runio import front_csv_text, runlog_csv_text
from mutreduce.search import (MAX_CHROMOSOME_LENGTH, MAX_POPULATION_SIZE, SearchConfig,
                              _assign_fronts, run_evolution, run_random_search)
from mutreduce.strategy import parse_strategy, strategy_from_chromosome


@pytest.fixture(scope="module")
def search_cache():
    return synth_cache(4, 80, 20, seed=19, kill_density=0.7, redundancy=0.4)


def small_config(seed=1, **overrides):
    defaults = dict(seed=seed, population_size=20, max_evaluations=300,
                    repetitions=3)
    defaults.update(overrides)
    return SearchConfig(**defaults)


# ===== dominance =====

def dominates(a, b) -> bool:
    """True if a is no worse on both objectives and better on at least one
    (time minimized, score maximized). Equal points never dominate."""
    return (a.time <= b.time and a.score >= b.score) and (
        a.time < b.time or a.score > b.score)


def test_dominates_strictly_better_both():
    assert dominates(ObjectivePair(0.2, 0.9), ObjectivePair(0.3, 0.8))


def test_equal_points_do_not_dominate():
    assert not dominates(ObjectivePair(0.2, 0.9), ObjectivePair(0.2, 0.9))


def test_trade_off_points_are_mutually_nondominated():
    a, b = ObjectivePair(0.1, 0.5), ObjectivePair(0.2, 0.9)
    assert not dominates(a, b)
    assert not dominates(b, a)


def test_dominates_on_one_axis_with_tie():
    assert dominates(ObjectivePair(0.2, 0.9), ObjectivePair(0.2, 0.8))
    assert dominates(ObjectivePair(0.1, 0.9), ObjectivePair(0.2, 0.9))


# ===== non-dominated sorting =====

def objective_arrays(items):
    """(times, scores) of (time, score) pairs or objects with those attributes."""
    return np.array([point(item) for item in items], dtype=np.float64).reshape(-1, 2).T


def fast_nondominated_sort(items):
    return [front.tolist() for front in sort_fronts(*objective_arrays(items))]


def brute_force_peel(points):
    """Iteratively remove the non-dominated layer; O(n^3) reference."""
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        layer = [
            i for i in remaining
            if not any(
                dominates(ObjectivePair(*points[j]), ObjectivePair(*points[i]))
                for j in remaining if j != i)
        ]
        fronts.append(sorted(layer))
        remaining = [i for i in remaining if i not in layer]
    return fronts


def test_all_equal_points_form_one_front():
    points = [(0.5, 0.5)] * 6
    assert fast_nondominated_sort(points) == [list(range(6))]


def test_dominance_chain_gives_singleton_fronts():
    points = [(0.1, 0.9), (0.2, 0.8), (0.3, 0.7), (0.4, 0.6)]
    assert fast_nondominated_sort(points) == [[0], [1], [2], [3]]


def test_sort_matches_brute_force_peeling():
    rng = np.random.default_rng(2)
    grid = [-0.0, 0.0, 0.25, 0.5, 1.0]  # equal and signed-zero points are common
    for trial in range(60):
        n = int(rng.integers(1, 50))
        if trial < 20:
            points = [(float(t), float(s))
                      for t, s in zip(rng.random(n), rng.random(n))]
        else:
            points = [(grid[t], grid[s]) for t, s in rng.integers(0, 5, (n, 2))]
            points += points[:int(rng.integers(0, n + 1))]
        got = [sorted(front) for front in fast_nondominated_sort(points)]
        assert got == brute_force_peel(points)


def test_sort_rejects_a_nan_score():
    with pytest.raises(ValueError, match="NaN"):
        sort_fronts(np.array([0.1, 0.2]), np.array([0.5, np.nan]))


def test_sort_accepts_objective_pairs():
    pairs = [ObjectivePair(0.1, 0.2), ObjectivePair(0.05, 0.9)]
    assert fast_nondominated_sort(pairs) == [[1], [0]]


# ===== crowding =====

class Member:
    """The attributes _assign_fronts reads and sets on an individual."""

    __slots__ = ("time", "score", "chromosome", "eval_seed", "rank", "crowding")

    def __init__(self, time, score, gene=0, eval_seed=0):
        self.time, self.score = time, score
        self.chromosome = Chromosome((gene,) * 2)
        self.eval_seed = eval_seed
        self.rank, self.crowding = -1, -1.0


def crowding_distance(points, genes=None):
    """Crowding per point, after requiring that the points form one front."""
    members = [Member(t, s, gene) for (t, s), gene in zip(points, genes or [0] * len(points))]
    _assign_fronts(members)
    assert [m.rank for m in members] == [0] * len(points)
    return [m.crowding for m in members]


def test_two_member_front_is_all_infinite():
    assert crowding_distance([(0.0, 0.0), (1.0, 1.0)]) == [np.inf, np.inf]


def test_collinear_middle_point_distance():
    # Equally spaced on both axes: the middle point's normalized span is
    # a full gap per objective, 1.0 + 1.0.
    dist = crowding_distance([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
    assert dist[0] == np.inf
    assert dist[2] == np.inf
    assert dist[1] == 2.0


def test_crowding_is_permutation_invariant():
    points = [(0.0, 0.0), (0.2, 0.45), (0.5, 0.5), (0.9, 0.9), (1.0, 1.0)]
    base = crowding_distance(points)
    rng = np.random.default_rng(4)
    for _ in range(10):
        order = rng.permutation(len(points))
        shuffled = crowding_distance([points[i] for i in order])
        for position, original in enumerate(order):
            assert shuffled[position] == base[original]


def test_one_copy_of_a_repeated_point_keeps_the_distance():
    """The copy with the smallest chromosome text keeps the distance the
    point has, wherever it stands; the other copy gets 0."""
    points = [(0.0, 0.0), (0.5, 0.5), (0.5, 0.5), (1.0, 1.0)]
    assert crowding_distance(points, genes=[0, 2, 1, 0]) == [np.inf, 0.0, 2.0, np.inf]
    assert crowding_distance(points, genes=[0, 1, 2, 0]) == [np.inf, 2.0, 0.0, np.inf]


# A time or score: grid values (signed zeros among them), values in the
# unit square, or any float; sort_fronts refuses a NaN, and a -inf score.
UNIT_OBJECTIVES = st.sampled_from((-0.0, 0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0)
FRONT_TIMES = UNIT_OBJECTIVES | st.floats(allow_nan=False)
FRONT_SCORES = UNIT_OBJECTIVES | st.floats(allow_nan=False).filter(lambda s: s > -math.inf)


@st.composite
def populations(draw):
    """Members drawn from a few points, so that points repeat, with genes
    and eval seeds from small sets, so that tie-break keys repeat too."""
    points = draw(st.lists(st.tuples(FRONT_TIMES, FRONT_SCORES),
                           min_size=1, max_size=12))
    return [Member(*draw(st.sampled_from(points)), gene=draw(st.integers(0, 2)),
                   eval_seed=draw(st.integers(0, 2)))
            for _ in range(draw(st.integers(1, 40)))]


@settings(max_examples=300, deadline=None)
@given(populations())
@example([Member(0.0, 0.5), Member(-0.0, 0.5, gene=1), Member(0.5, 1.0), Member(-0.0, -0.0)])
@example([Member(-math.inf, 0.0), Member(0.5, 0.5), Member(math.inf, math.inf),
          Member(math.inf, math.inf, eval_seed=1)])
@example([Member(-1e308, 0.0), Member(0.0, 0.5), Member(1e308, 1.0)])
def test_crowding_equals_the_pair_deduplicating_oracle(members):
    """One sort by time per front gives the same ranks and crowding bits as
    the per-objective sorts of distinct pairs kept in crowding_oracle; and
    the distinct points of every front rise in time and score together."""
    copies = [Member(m.time, m.score, m.chromosome.genes[0], m.eval_seed) for m in members]
    # Spans past the float range overflow to inf and inf / inf is NaN, in
    # both; the warnings would hide the bits compared here.
    with np.errstate(over="ignore", invalid="ignore"):
        fronts = _assign_fronts(members)
        assert [f.tolist() for f in fronts] == [f.tolist() for f in oracle_assign_fronts(copies)]
    assert [m.rank for m in members] == [m.rank for m in copies]
    assert (np.array([m.crowding for m in members]).tobytes()
            == np.array([m.crowding for m in copies]).tobytes())
    for front in fronts:
        ordered = sorted({(members[i].time, members[i].score) for i in front.tolist()})
        assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(ordered, ordered[1:]))


# ===== configuration =====

def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(seed=1, population_size=7)  # odd
    with pytest.raises(ValueError):
        SearchConfig(seed=1, population_size=10, max_evaluations=5)
    with pytest.raises(ValueError):
        SearchConfig(seed=1, repetitions=0)
    with pytest.raises(ValueError):
        SearchConfig(seed=1, mutation_probability=1.5)
    with pytest.raises(ValueError):
        SearchConfig(seed=-1)
    # With -1 no chromosome maps and a search returns an empty front; 0
    # reads the genes once.
    assert SearchConfig(seed=1, max_wraps=0).max_wraps == 0
    with pytest.raises(ValueError, match=r"^max_wraps must be >= 0$"):
        SearchConfig(seed=1, population_size=10, max_evaluations=20, max_wraps=-1)


@pytest.mark.parametrize("field,value", [
    ("population_size", "4"), ("population_size", 4.0), ("seed", True),
    ("crossover_probability", "x"), ("mutation_probability", None),
])
def test_config_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: value})


@pytest.mark.parametrize("field", ["crossover_probability", "mutation_probability",
                                   "prune_probability", "duplicate_probability"])
@pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
def test_config_rejects_probabilities_outside_the_unit_interval(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be in \[0, 1\]$"):
        SearchConfig(seed=1, **{field: value})


@pytest.mark.parametrize("field,bound", [("repetitions", MAX_REPETITIONS),
                                         ("max_length", MAX_CHROMOSOME_LENGTH)])
def test_config_bounds_repetitions_and_chromosome_length(field, bound):
    """A config file or manifest value past the bound is an input error,
    not an array too large to allocate."""
    assert getattr(SearchConfig(seed=1, **{field: bound}), field) == bound
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        SearchConfig(seed=1, **{field: 10**12})


@pytest.mark.parametrize("size", [0, 3, MAX_POPULATION_SIZE + 1, MAX_POPULATION_SIZE + 2])
def test_config_bounds_the_population(size):
    """A population is even and at most MAX_POPULATION_SIZE: one message
    for each way out."""
    budget = 2 * MAX_POPULATION_SIZE
    assert SearchConfig(seed=1, population_size=MAX_POPULATION_SIZE,
                        max_evaluations=budget).population_size == MAX_POPULATION_SIZE
    with pytest.raises(ValueError, match=rf"^population_size must be even and in "
                                         rf"\[2, {MAX_POPULATION_SIZE}\]$"):
        SearchConfig(seed=1, population_size=size, max_evaluations=budget)


def test_config_accepts_integral_probabilities():
    assert SearchConfig(seed=1, crossover_probability=1).crossover_probability == 1


def test_default_parameters():
    config = SearchConfig(seed=0)
    assert config.population_size == 100
    assert config.max_evaluations == 10_000
    assert config.repetitions == 5
    assert config.crossover_probability == 1.0
    assert config.mutation_probability == 0.01
    assert config.prune_probability == 0.10
    assert config.duplicate_probability == 0.10
    assert (config.gene_low, config.gene_high) == (0, 179)
    assert (config.min_length, config.max_length) == (15, 100)
    assert config.max_wraps == 10


def test_config_dict_round_trip():
    config = small_config(seed=9, mutation_probability=0.02)
    assert SearchConfig.from_dict(config.as_dict()) == config
    with pytest.raises(ValueError, match="unknown config keys"):
        SearchConfig.from_dict({"seed": 1, "warp_factor": 9})


# ===== evolution driver =====

def test_evaluation_budget_is_spent_in_full_generations(search_cache, grammar):
    config = small_config(population_size=10, max_evaluations=95)
    result = run_evolution(config, grammar, search_cache)
    assert result.evaluations == 90  # 10 initial + 8 offspring generations
    config = small_config(population_size=10, max_evaluations=100)
    result = run_evolution(config, grammar, search_cache)
    assert result.evaluations == 100  # budget divisible: spent exactly


def test_run_is_deterministic(search_cache, grammar):
    a = run_evolution(small_config(seed=3), grammar, search_cache)
    b = run_evolution(small_config(seed=3), grammar, search_cache)
    assert a.front == b.front
    assert a.generations == b.generations
    c = run_evolution(small_config(seed=4), grammar, search_cache)
    assert a.front != c.front


def test_front_is_mutually_nondominated_and_deduplicated(search_cache, grammar):
    result = run_evolution(small_config(seed=5), grammar, search_cache)
    front = result.front
    assert front
    points = [(s.time, s.score) for s in front]
    assert len(set(points)) == len(points)
    for i, a in enumerate(front):
        for j, b in enumerate(front):
            if i != j:
                assert not dominates(ObjectivePair(a.time, a.score),
                                     ObjectivePair(b.time, b.score))
    assert points == sorted(points)


def test_front_members_replay_their_objectives(search_cache, grammar):
    config = small_config(seed=6)
    result = run_evolution(config, grammar, search_cache)
    for member in result.front:
        pair = evaluate(parse_strategy(member.text), search_cache, config.repetitions,
                        rng=np.random.default_rng(member.eval_seed))
        assert (pair.time, pair.score) == (member.time, member.score)


def test_final_front_not_worse_than_initial(search_cache, grammar):
    for seed in (1, 2, 3, 4, 5):
        result = run_evolution(small_config(seed=seed), grammar, search_cache)
        stats = result.generations
        assert stats[-1].front_hypervolume >= stats[0].front_hypervolume
        assert stats[0].generation == 0
        assert stats[-1].evaluations == result.evaluations


def test_generation_log_counts_up(search_cache, grammar):
    result = run_evolution(small_config(seed=7), grammar, search_cache)
    generations = [s.generation for s in result.generations]
    assert generations == list(range(len(generations)))
    evaluations = [s.evaluations for s in result.generations]
    assert evaluations == sorted(evaluations)
    for stat in result.generations:
        assert stat.front_size > 0
        assert 0.0 <= stat.front_hypervolume <= 1.0


# ===== random search driver =====

def test_random_search_deterministic(search_cache, grammar):
    a = run_random_search(small_config(seed=11), grammar, search_cache)
    b = run_random_search(small_config(seed=11), grammar, search_cache)
    assert a.front == b.front
    assert a.evaluations == 300


def test_random_search_front_nondominated(search_cache, grammar):
    result = run_random_search(small_config(seed=12), grammar, search_cache)
    for a in result.front:
        for b in result.front:
            if a is not b:
                assert not dominates(ObjectivePair(a.time, a.score),
                                     ObjectivePair(b.time, b.score))


def test_random_search_archive_is_optimal_over_its_samples(search_cache, grammar):
    """Regenerate the sample stream from the documented seed derivation
    (chromosomes from stream (seed, 1), evaluation seeds from
    (seed, 0, block, slot)) and peel the non-dominated set by brute force.
    This pins the derivation scheme: front rows must stay replayable from
    their recorded seeds alone."""
    config = small_config(seed=13, population_size=10, max_evaluations=100)
    result = run_random_search(config, grammar, search_cache)

    init_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    samples = []
    for block in range(10):
        for slot in range(10):
            chromosome = random_chromosome(init_rng, config.bounds(),
                                           config.limits())
            seed_seq = np.random.SeedSequence(
                entropy=(config.seed, 0, block, slot))
            eval_seed = int(seed_seq.generate_state(1, np.uint64)[0])
            strategy = strategy_from_chromosome(chromosome, grammar,
                                                config.max_wraps)
            if strategy is None:
                continue
            pair = evaluate(strategy, search_cache, config.repetitions,
                            rng=np.random.default_rng(eval_seed))
            samples.append((pair.time, pair.score))

    layer = brute_force_peel(samples)[0]
    expected = sorted({samples[i] for i in layer})
    assert [(s.time, s.score) for s in result.front] == expected


def test_search_results_carry_strategy_text(search_cache, grammar):
    config = small_config(seed=14)
    result = run_evolution(config, grammar, search_cache)
    from mutreduce.strategy import render
    for member in result.front:
        assert member.text
        assert render(parse_strategy(member.text)) == member.text
        assert render(strategy_from_chromosome(
            member.chromosome, grammar, config.max_wraps)) == member.text


# ===== byte identity =====

# SHA-256 of front_csv_text(result.front) + runlog_csv_text(result.generations)
# on the README cache at population 20 and 400 evaluations, recorded before
# the strategy VM moved to position masks. Any change to the sequence of
# random draws, to pool contents or to costs changes these bytes.
PINNED_TRAINING_DIGESTS = {
    ("ge", 1): "27f4568b591469bf5def34bd6fc7486b92e3135dd8f13b8fe859bc4e862efe70",
    ("ge", 2): "fe845a5e51505bafb568b8fa07a775f96a44dae664b2ac769ddcd554e6a356ac",
    ("random", 1): "d6acd07f5ca3b0e351d0738e55ac89dcd3d5dd9175641537c8d7a3a92a7767b4",
    ("random", 2): "21c3c60cbcad42a9d00159cb9463131e0fbc3c2ca9e2424b40f8e350d060144a",
}


@pytest.fixture(scope="module")
def readme_cache():
    return synth_cache(8, 600, 120, seed=101, kill_density=0.9)


@pytest.mark.parametrize("algorithm,seed", sorted(PINNED_TRAINING_DIGESTS))
def test_training_bytes_match_pinned_digest(readme_cache, grammar, algorithm, seed):
    driver = run_evolution if algorithm == "ge" else run_random_search
    config = SearchConfig(seed=seed, population_size=20, max_evaluations=400)
    result = driver(config, grammar, readme_cache)
    text = front_csv_text(result.front) + runlog_csv_text(result.generations)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED_TRAINING_DIGESTS[(algorithm, seed)]
