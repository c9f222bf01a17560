"""Multi-objective search over the strategy space.

run_evolution is a grammatical-evolution hyper-heuristic on top of a
standard elitist non-dominated sorting loop: binary tournaments on
(rank, crowding), single-point crossover, per-gene integer mutation,
then prune and duplicate applied to each child. Offspring only are
evaluated, so the evaluation counter advances by the population size per
generation (e.g. 100 initial + 99 generations of 100 = exactly 10,000).
run_random_search spends the same evaluation budget on uniformly random
chromosomes and keeps the non-dominated archive.

Determinism contract: a run is a pure function of (config, grammar,
cache). Every individual's evaluation stream is derived from
(config.seed, generation, slot), never from shared mutable state, so
evaluation order and parallelism cannot change any result. Chromosomes
that fail to map are penalized with objectives (time=1, score=0), skip
strategy execution entirely, and never appear in a returned front.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import genome
from .analysis import hypervolume
from .cache import MutationCache
from .genome import Chromosome, GeneBounds, LengthLimits
from .grammar import Grammar
from .index import build_index
from .objectives import MAX_REPETITIONS, evaluate_indexed
from .pareto import nondominated, sort_fronts
from .strategy import render, strategy_from_chromosome
from .streams import derive_seeds, row_generators

# The longest chromosome a config may ask for, a hundred times the default.
# A population of 100 at this length holds about 8 MB of genes; a length
# far past it cannot be drawn (numpy refuses 10**12 genes, a MemoryError).
MAX_CHROMOSOME_LENGTH = 10_000

# The largest population a config may ask for. A generation's rows are
# built at once, population x repetitions generators of about 850 bytes
# each, so at the default 5 repetitions this bound holds 20,000 x 5 x
# 850 B, about 85 MB: what a population of 100 holds at MAX_REPETITIONS.
MAX_POPULATION_SIZE = 20_000


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    population_size: int = 100
    max_evaluations: int = 10_000
    repetitions: int = 5
    crossover_probability: float = 1.0
    mutation_probability: float = 0.01
    prune_probability: float = 0.10
    duplicate_probability: float = 0.10
    gene_low: int = genome.GENE_LOW
    gene_high: int = genome.GENE_HIGH
    min_length: int = genome.MIN_LENGTH
    max_length: int = genome.MAX_LENGTH
    max_wraps: int = genome.MAX_WRAPS

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            probability = name.endswith("_probability")
            kind = numbers.Real if probability else numbers.Integral
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {'a number' if probability else 'an integer'}, "
                                 f"not {type(value).__name__}")
            if probability and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 2 <= self.population_size <= MAX_POPULATION_SIZE or self.population_size % 2:
            raise ValueError(f"population_size must be even and in [2, {MAX_POPULATION_SIZE}]")
        if self.max_evaluations < self.population_size:
            raise ValueError("max_evaluations must cover the initial population")
        if not 1 <= self.repetitions <= MAX_REPETITIONS:
            raise ValueError(f"repetitions must be in [1, {MAX_REPETITIONS}]")
        if self.min_length < 2:
            raise ValueError("min_length must be >= 2")
        if self.max_length > MAX_CHROMOSOME_LENGTH:
            raise ValueError(f"max_length must be <= {MAX_CHROMOSOME_LENGTH}")
        if self.gene_high > genome.MAX_GENE:
            raise ValueError(f"gene_high must be <= 2**63 - 1, not {self.gene_high}")
        # Constructors validate the remaining relations.
        self.bounds()
        self.limits()

    def bounds(self) -> GeneBounds:
        return GeneBounds(low=self.gene_low, high=self.gene_high)

    def limits(self) -> LengthLimits:
        return LengthLimits(min=self.min_length, max=self.max_length)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SearchConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class EvaluatedStrategy:
    """One front member: objectives plus everything needed to replay it."""

    time: float
    score: float
    eval_seed: int
    text: str
    chromosome: Chromosome | None = None


Front = list[EvaluatedStrategy]


@dataclass(frozen=True)
class GenerationStat:
    generation: int
    evaluations: int
    front_size: int
    front_hypervolume: float


@dataclass(frozen=True)
class SearchResult:
    front: Front
    generations: list[GenerationStat]
    evaluations: int


# ===== Ranking and crowding =====

def _crowding(times: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(crowding distance, pair id) per point. The distance is
    permutation-invariant: identical objective pairs share one id and one
    distance, boundary pairs per objective get infinity."""
    pairs = np.stack([times, scores], axis=1)
    unique, inverse = np.unique(pairs, axis=0, return_inverse=True)
    k = unique.shape[0]
    dist = np.zeros(k)
    if k <= 2:
        dist[:] = np.inf
    else:
        for column in (0, 1):
            other = 1 - column
            order = np.lexsort((unique[:, other], unique[:, column]))
            ordered = unique[order, column]
            span = ordered[-1] - ordered[0]
            dist[order[0]] = dist[order[-1]] = np.inf
            if span > 0:
                gaps = (ordered[2:] - ordered[:-2]) / span
                dist[order[1:-1]] += gaps
    inverse = inverse.ravel()
    return dist[inverse], inverse


# ===== Individuals =====

class _Individual:
    __slots__ = ("chromosome", "strategy", "eval_seed",
                 "time", "score", "failed", "rank", "crowding")

    def __init__(self, chromosome: Chromosome, grammar: Grammar,
                 max_wraps: int, eval_seed: int):
        self.chromosome = chromosome
        self.strategy = strategy_from_chromosome(chromosome, grammar, max_wraps)
        self.failed = self.strategy is None
        self.eval_seed = eval_seed
        self.time = 1.0
        self.score = 0.0
        self.rank = 0
        self.crowding = 0.0


def _evaluate_population(individuals: list[_Individual], cache: MutationCache,
                         repetitions: int) -> None:
    """Evaluate the individuals that mapped; one seeding pass builds every
    one's repetition rows."""
    live = [ind for ind in individuals if not ind.failed]
    # Failed individuals keep the penalty objectives set at construction.
    rows = row_generators([ind.eval_seed for ind in live], repetitions)
    for i, ind in enumerate(live):
        [pair] = evaluate_indexed(ind.strategy, cache, repetitions,
                                  rows[i * repetitions:(i + 1) * repetitions])
        ind.time = pair.time
        ind.score = pair.score


def _assign_fronts(individuals: list[_Individual]) -> list[np.ndarray]:
    """Set rank and crowding on every individual; returns the fronts.

    Crowding starts from the shared per-unique-pair distances, but only
    one canonical copy of each duplicated objective pair keeps its
    distance; the other copies get 0. Sharing the raw value would hand
    every clone of a boundary point infinite crowding, letting clone
    floods evict the interior of the front during truncation and
    stalling the search on degenerate strategies.
    """
    times = np.array([ind.time for ind in individuals])
    scores = np.array([ind.score for ind in individuals])
    fronts = sort_fronts(times, scores)
    for rank, front in enumerate(fronts):
        crowd, pair_ids = _crowding(times[front], scores[front])
        keeps_distance = np.bincount(pair_ids)[pair_ids] == 1
        duplicated: dict[int, list[int]] = {}
        for position in np.flatnonzero(~keeps_distance).tolist():
            duplicated.setdefault(pair_ids[position], []).append(position)
        for positions in duplicated.values():
            # Only a duplicated pair needs the (serialized) tie-break key.
            keeps_distance[min(positions, key=lambda p: (
                individuals[front[p]].chromosome.serialize(),
                individuals[front[p]].eval_seed))] = True
        for position, member in enumerate(front.tolist()):
            individuals[member].rank = rank
            individuals[member].crowding = (
                float(crowd[position]) if keeps_distance[position] else 0.0)
    return fronts


def _environmental_selection(combined: list[_Individual],
                             size: int) -> list[_Individual]:
    fronts = _assign_fronts(combined)
    selected: list[_Individual] = []
    for front in fronts:
        members = [combined[i] for i in front]
        if len(selected) + len(members) <= size:
            selected.extend(members)
            if len(selected) == size:
                break
        else:
            crowd = np.array([m.crowding for m in members])
            order = np.argsort(-crowd, kind="stable")
            selected.extend(members[i] for i in order[:size - len(selected)])
            break
    return selected


def _tournament(population: list[_Individual],
                rng: np.random.Generator) -> _Individual:
    a = population[int(rng.integers(len(population)))]
    b = population[int(rng.integers(len(population)))]
    if (a.rank, -a.crowding) < (b.rank, -b.crowding):
        return a
    if (b.rank, -b.crowding) < (a.rank, -a.crowding):
        return b
    return a if int(rng.integers(2)) == 0 else b


def _population_stat(generation: int, evaluations: int,
                     individuals: list[_Individual]) -> GenerationStat:
    rank0 = [ind for ind in individuals if ind.rank == 0]
    hv = hypervolume([(ind.time, 1.0 - ind.score) for ind in rank0])
    return GenerationStat(
        generation=generation,
        evaluations=evaluations,
        front_size=len(rank0),
        front_hypervolume=hv,
    )


def _chromosome_key(ind: _Individual) -> str:
    return ind.chromosome.serialize()


def _final_front(individuals: list[_Individual]) -> Front:
    members = [ind for ind in individuals if ind.rank == 0 and not ind.failed]
    return [EvaluatedStrategy(time=ind.time, score=ind.score, eval_seed=ind.eval_seed,
                              text=render(ind.strategy), chromosome=ind.chromosome)
            for ind in nondominated(members, key=_chromosome_key)]


# ===== Search drivers =====

def _evaluation_seeds(config: SearchConfig, generation: int) -> list[int]:
    """The evaluation seeds of a generation's (or block's) slots, derived
    from (seed, 0, generation, slot) in one pass."""
    return derive_seeds([(config.seed, 0, generation, slot)
                         for slot in range(config.population_size)])


def run_evolution(config: SearchConfig, grammar: Grammar,
                  cache: MutationCache) -> SearchResult:
    """Evolve reduction strategies; returns the final non-dominated front
    (deduplicated by objective pair) plus per-generation statistics."""
    cache = build_index(cache)
    bounds, limits = config.bounds(), config.limits()
    init_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    var_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))

    population = [
        _Individual(genome.random_chromosome(init_rng, bounds, limits),
                    grammar, config.max_wraps, eval_seed)
        for eval_seed in _evaluation_seeds(config, 0)
    ]
    _evaluate_population(population, cache, config.repetitions)
    evaluations = config.population_size
    _assign_fronts(population)
    stats = [_population_stat(0, evaluations, population)]

    generation = 0
    while evaluations + config.population_size <= config.max_evaluations:
        generation += 1
        eval_seeds = _evaluation_seeds(config, generation)
        offspring: list[_Individual] = []
        while len(offspring) < config.population_size:
            parent_a = _tournament(population, var_rng)
            parent_b = _tournament(population, var_rng)
            if var_rng.random() < config.crossover_probability:
                child_genes = genome.crossover(
                    parent_a.chromosome, parent_b.chromosome,
                    var_rng, bounds, limits)
            else:
                child_genes = (parent_a.chromosome, parent_b.chromosome)
            for chromosome in child_genes:
                chromosome = genome.mutate(
                    chromosome, var_rng, config.mutation_probability, bounds)
                if var_rng.random() < config.prune_probability:
                    chromosome = genome.prune(
                        chromosome, grammar, var_rng, bounds, limits,
                        config.max_wraps)
                if var_rng.random() < config.duplicate_probability:
                    chromosome = genome.duplicate(chromosome, var_rng, limits)
                offspring.append(_Individual(chromosome, grammar, config.max_wraps,
                                             eval_seeds[len(offspring)]))
                if len(offspring) == config.population_size:
                    break
        _evaluate_population(offspring, cache, config.repetitions)
        evaluations += config.population_size
        population = _environmental_selection(population + offspring,
                                              config.population_size)
        stats.append(_population_stat(generation, evaluations, population))

    return SearchResult(front=_final_front(population),
                        generations=stats, evaluations=evaluations)


def run_random_search(config: SearchConfig, grammar: Grammar,
                      cache: MutationCache) -> SearchResult:
    """Spend the same evaluation budget on uniformly random chromosomes.

    Uses the same seed derivation scheme as run_evolution (block b, slot
    s), so per-sample evaluations are reproducible row by row. Returns
    the non-dominated archive over every sample."""
    cache = build_index(cache)
    bounds, limits = config.bounds(), config.limits()
    init_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))

    archive: list[_Individual] = []
    stats: list[GenerationStat] = []
    evaluations = 0
    block = 0
    while evaluations + config.population_size <= config.max_evaluations:
        individuals = [
            _Individual(genome.random_chromosome(init_rng, bounds, limits),
                        grammar, config.max_wraps, eval_seed)
            for eval_seed in _evaluation_seeds(config, block)
        ]
        _evaluate_population(individuals, cache, config.repetitions)
        evaluations += config.population_size
        candidates = archive + [ind for ind in individuals if not ind.failed]
        archive = nondominated(candidates, key=_chromosome_key)
        stats.append(_population_stat(block, evaluations, archive))
        block += 1
    return SearchResult(front=_final_front(archive),
                        generations=stats, evaluations=evaluations)

