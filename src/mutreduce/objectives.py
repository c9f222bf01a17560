"""The two objectives a reduction strategy is judged on.

TIME is the cost of the reduced run relative to the full run: the
operators the strategy executed pay their generation cost, the mutants it
kept pay their execution cost, and the ratio is taken against the cost of
generating and executing everything. SCORE is the mutation score the
reduced mutant set lets the test suite reach, relative to the full run's
score.

The reduced run is replayed against the recorded data: each kept mutant
faces the tests in priority order, so the test that kills it is its
lowest-rank killer. The selected suite T' is the union of those killing
tests, and the reduced-run mutation score counts the mutants of the whole
cache that T' kills. This selector is monotone: growing the mutant set
can only grow T', so SCORE never decreases when mutants are added, and
TIME never decreases because costs are non-negative.

Both objectives live in [0, 1]: SCORE relative to a full suite that kills
every killable mutant, TIME relative to a run that pays for everything.
Stochastic strategies are evaluated as an average over n repetitions:
TIME as the ratio of summed costs, SCORE as the mean of per-repetition
scores (computed as one exact integer ratio). The repetitions are the
rows of one batch: one strategy VM pass and one kernel call serve them
all, each row drawing from its own child stream. A batch may hold
several runs of one strategy, n rows each (a baseline's runs over many
seeds); each run's objectives are read from its own rows, so a run in a
batch scores exactly as it does alone. select_tests reads a single
mutant set as a batch of one row; score_objective is its kill count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .cache import MutationCache
from .index import build_index
from .strategy import ReductionRun, Strategy, execute_indexed

# The most repetitions `train`, `baselines`, `evaluate` and SearchConfig
# accept. Each row of a batch holds its own generator (about 850 bytes)
# and mutant pool, and a generation's rows are built at once, so a
# population of 100 at this bound already holds about 85 MB of generators.
MAX_REPETITIONS = 1000


@dataclass(frozen=True)
class TestSelection:
    """T' for a reduced mutant set, plus how many cache mutants it kills."""

    test_ids: tuple[str, ...]
    killed_mutants: int


@dataclass(frozen=True)
class ObjectivePair:
    time: float
    score: float


def _mutant_indices(cache: MutationCache, mutant_ids: Iterable[str]) -> np.ndarray:
    try:
        positions = sorted(cache.mutant_index[m] for m in mutant_ids)
    except KeyError as exc:
        raise KeyError(f"unknown mutant id {exc.args[0]!r}") from None
    return np.asarray(positions, dtype=np.int32)


def select_tests(
    m_prime: Iterable[str],
    cache: MutationCache,
) -> TestSelection:
    """Select the tests a prioritized suite would use to kill m_prime.

    Each killable mutant contributes its smallest-priority_rank killer;
    mutants with no killers contribute nothing. Deterministic and
    idempotent: a pure function of the mutant set.
    """
    cache = build_index(cache)
    mprime = _mutant_indices(cache, m_prime)
    mask, kills = _kernels.select_and_count(cache, mprime, [0, mprime.size])
    return TestSelection(
        test_ids=tuple(cache.test_ids[t] for t in mask[0, :-1].nonzero()[0]),
        killed_mutants=kills[0],
    )


def time_objective(run: ReductionRun, cache: MutationCache) -> float:
    """Relative cost of the reduced run; 1.0 means as expensive as the full run."""
    cache = build_index(cache)
    return run.strategy_cost / cache.total_cost


def score_objective(run: ReductionRun, cache: MutationCache) -> float:
    """Relative mutation score of the reduced run.

    Computed as killed / killable: both the reduced-run score and the
    full-run score share the |M| denominator, so the ratio of the two is
    an exact integer ratio. 0.0 when the cache has no killable mutants.
    """
    cache = build_index(cache)
    if cache.killable_count == 0:
        return 0.0
    return select_tests(run.mutant_ids, cache).killed_mutants / cache.killable_count


def evaluate_indexed(
    strategy: Strategy,
    cache: MutationCache,
    n: int,
    rows: Sequence[np.random.Generator],
) -> list[ObjectivePair]:
    """Hot path used by the search loop and the baselines; see evaluate for
    the contract. ``rows`` holds the generators of one or more runs of n
    repetitions, run by run; returns one pair per run. Every row is one
    row of a single VM batch and kernel call."""
    _, mutant_pools, bounds, costs = execute_indexed(strategy, cache, rows)
    _, kills = _kernels.select_and_count(cache, mutant_pools, bounds)
    try:
        full_cost = math.fsum([cache.total_cost] * n)
    except OverflowError:
        raise ValueError(f"{n} repetitions of the cache's total cost "
                         f"{cache.total_cost!r} overflow the float range") from None
    pairs = []
    for lo in range(0, len(rows), n):
        time = math.fsum(costs[lo:lo + n]) / full_cost
        if cache.killable_count == 0:
            score = 0.0
        else:
            score = sum(kills[lo:lo + n]) / (n * cache.killable_count)
        pairs.append(ObjectivePair(time=time, score=score))
    return pairs


def evaluate(
    strategy: Strategy,
    cache: MutationCache,
    n: int = 5,
    *,
    rng: np.random.Generator,
) -> ObjectivePair:
    """Average objectives over n independent repetitions of a strategy.

    Each repetition runs with its own child stream spawned from ``rng``,
    so repetitions are order-independent and the whole evaluation is a
    deterministic function of the generator's seed. TIME is the ratio of
    summed costs; SCORE is the mean of per-repetition relative scores,
    which reduces to total kills / (n * killable).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return evaluate_indexed(strategy, build_index(cache), n, rng.spawn(n))[0]
