"""Conventional reduction strategies the evolved ones are compared against.

Each baseline is a fixed strategy text with one parameter, run on the
same VM and evaluator as an evolved strategy. Three families, each swept
over its customary parameter range (``BASELINES`` holds, per family, the
front-row text, the strategy text and the sweep, ``{}`` standing for the
parameter):

* RMS p% (random mutant sampling): generate everything, keep a random
  percentage of the mutants. Every operator pays its generation cost.
  ``Execute Operators 100% → Retain Mutants random p%``
* ROS p% (random operator selection): execute a random percentage of the
  operators and keep all their mutants. Only the chosen operators pay.
  ``Execute Operators p%``
* SM n (selective mutation): drop the n highest-yield operators (ties by
  ascending id), execute the rest, keep all their mutants.
  ``Discard Operators highest-yield n → Execute Operators 100%``. Its
  first step is a VM-only node the grammar never emits; it draws nothing,
  so the SM front is identical whatever the seed.

Each swept parameter value is evaluated with the same repetition
averaging as an evolved strategy, and the front returned is the
non-dominated subset of the sweep. Front rows carry the family's
``Baseline ...`` text, which baseline_strategy reads back.
"""

from __future__ import annotations

from typing import Sequence

from .cache import MutationCache
from .index import build_index
from .objectives import evaluate_indexed
from .pareto import nondominated
from .search import EvaluatedStrategy, Front
from .strategy import Strategy, parse_strategy
from .streams import derive_seeds, row_generators

# kind -> (front-row text, strategy text, swept parameters).
BASELINES = {
    "RMS": ("Baseline RMS random {}%",
            "Execute Operators 100% → Retain Mutants random {}%", tuple(range(10, 100, 10))),
    "ROS": ("Baseline ROS random {}%", "Execute Operators {}%", tuple(range(10, 100, 10))),
    "SM": ("Baseline SM exclude {}",
           "Discard Operators highest-yield {} → Execute Operators 100%", tuple(range(1, 7))),
}
BASELINE_KINDS = tuple(BASELINES)

# Most rows x mutants one batch of a sweep's runs may hold, since the VM's
# pools and masks grow with that product; a batch holds at least one run.
# Whole sweeps of 30 runs, medians of 15: 0.42 s at 2**18 against 0.45 s
# at 2**20 on a 20 x 5,000 x 300 cache, 0.093 against 0.094 s on an
# 8 x 600 x 120 one (a single batch either way); 2.99 against 2.90 s on a
# 30 x 100,000 x 1,000 one (medians of 3), one run per batch against two.
BATCH_MAX_CELLS = 2**18


def baseline_strategy(text: str) -> Strategy:
    """The strategy a ``Baseline ...`` front row stands for. ValueError if
    the text is no family's row text, or if its strategy does not parse
    (a percentage above 100, say)."""
    for row_text, strategy_text, _ in BASELINES.values():
        prefix, suffix = row_text.split("{}")
        parameter = text[len(prefix):len(text) - len(suffix)]
        if parameter.isdecimal() and text == prefix + parameter + suffix:
            try:
                return parse_strategy(strategy_text.format(int(parameter)))
            except ValueError as exc:
                raise ValueError(f"baseline text {text!r}: {exc}") from None
    raise ValueError(f"unparseable baseline text {text!r}")


def baseline_front(kind: str, cache: MutationCache, seeds: Sequence[int],
                   repetitions: int = 5) -> list[Front]:
    """Evaluate a baseline family over its sweep once per seed; returns
    each seed's front, the non-dominated subset of its sweep.

    Each swept parameter gets its own evaluation seed derived from
    (seed, parameter), recorded on the returned entries so rows can be
    re-evaluated independently later; the whole sweep's evaluation seeds
    are derived in one pass. A parameter's runs over all seeds are seeded
    in one pass and run as the rows of as few VM batches as
    ``BATCH_MAX_CELLS`` allows; every run scores as it would alone.
    """
    if kind not in BASELINES:
        raise ValueError(f"unknown baseline kind {kind!r}")
    row_text, strategy_text, parameters = BASELINES[kind]
    cache = build_index(cache)
    runs_per_batch = max(1, BATCH_MAX_CELLS // (repetitions * cache.n_mutants))
    rows_per_batch = runs_per_batch * repetitions
    entries: list[list[EvaluatedStrategy]] = [[] for _ in seeds]
    sweep_seeds = derive_seeds([(int(seed), 3, parameter)
                                for parameter in parameters for seed in seeds])
    for i, parameter in enumerate(parameters):
        strategy = parse_strategy(strategy_text.format(parameter))
        text = row_text.format(parameter)
        eval_seeds = sweep_seeds[i * len(seeds):(i + 1) * len(seeds)]
        rows = row_generators(eval_seeds, repetitions)
        pairs = [pair for lo in range(0, len(rows), rows_per_batch)
                 for pair in evaluate_indexed(strategy, cache, repetitions,
                                              rows[lo:lo + rows_per_batch])]
        for run, eval_seed, pair in zip(entries, eval_seeds, pairs):
            run.append(EvaluatedStrategy(time=pair.time, score=pair.score,
                                         eval_seed=eval_seed, text=text))
    return [nondominated(run, key=lambda entry: entry.text) for run in entries]
