"""Conventional reduction strategies the evolved ones are compared against.

Each baseline is a strategy run on the same VM and evaluator as an
evolved one. Three families, each swept over its customary parameter
range:

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
non-dominated subset of the sweep. Front rows keep the ``Baseline ...``
text of describe(), which parse() reads back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .cache import MutationCache
from .index import build_index
from .objectives import evaluate_indexed
from .pareto import nondominated
from .search import EvaluatedStrategy, Front
from .strategy import Strategy, parse_strategy
from .streams import derive_seeds, row_generators

RMS_SWEEP = tuple(range(10, 100, 10))
ROS_SWEEP = tuple(range(10, 100, 10))
SM_SWEEP = tuple(range(1, 7))

# Most rows x mutants one batch of a sweep's runs may hold, since the VM's
# pools and masks grow with that product; a batch holds at least one run.
# Whole sweeps of 30 runs, medians of 15: 0.42 s at 2**18 against 0.45 s
# at 2**20 on a 20 x 5,000 x 300 cache, 0.093 against 0.094 s on an
# 8 x 600 x 120 one (a single batch either way); 2.99 against 2.90 s on a
# 30 x 100,000 x 1,000 one (medians of 3), one run per batch against two.
BATCH_MAX_CELLS = 2**18

Kind = Literal["RMS", "ROS", "SM"]
BASELINE_KINDS: tuple[Kind, ...] = ("RMS", "ROS", "SM")


@dataclass(frozen=True)
class BaselineSpec:
    kind: Kind
    percentage: int | None = None  # RMS / ROS
    exclusions: int | None = None  # SM

    def __post_init__(self) -> None:
        if self.kind in ("RMS", "ROS"):
            if self.percentage is None or not 0 <= self.percentage <= 100:
                raise ValueError(f"{self.kind} needs a percentage in [0, 100]")
            if self.exclusions is not None:
                raise ValueError(f"{self.kind} takes no exclusion count")
        elif self.kind == "SM":
            if self.exclusions is None or self.exclusions < 0:
                raise ValueError("SM needs an exclusion count >= 0")
            if self.percentage is not None:
                raise ValueError("SM takes no percentage")
        else:
            raise ValueError(f"unknown baseline kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "SM":
            return f"Baseline SM exclude {self.exclusions}"
        return f"Baseline {self.kind} random {self.percentage}%"

    @classmethod
    def parse(cls, text: str) -> "BaselineSpec":
        parts = text.split()
        if len(parts) == 4 and parts[0] == "Baseline":
            _, kind, method, amount = parts
            if kind == "SM" and method == "exclude" and amount.isdecimal():
                return cls(kind="SM", exclusions=int(amount))
            if (kind in ("RMS", "ROS") and method == "random"
                    and amount.endswith("%") and amount[:-1].isdecimal()):
                return cls(kind=kind, percentage=int(amount[:-1]))
        raise ValueError(f"unparseable baseline text {text!r}")

    def strategy(self) -> Strategy:
        """The reduction this baseline performs, as a strategy for the VM."""
        if self.kind == "RMS":
            text = f"Execute Operators 100% → Retain Mutants random {self.percentage}%"
        elif self.kind == "ROS":
            text = f"Execute Operators {self.percentage}%"
        else:
            text = (f"Discard Operators highest-yield {self.exclusions}"
                    " → Execute Operators 100%")
        return parse_strategy(text)


def sweep(kind: Kind) -> tuple[BaselineSpec, ...]:
    if kind == "RMS":
        return tuple(BaselineSpec(kind="RMS", percentage=p) for p in RMS_SWEEP)
    if kind == "ROS":
        return tuple(BaselineSpec(kind="ROS", percentage=p) for p in ROS_SWEEP)
    if kind == "SM":
        return tuple(BaselineSpec(kind="SM", exclusions=n) for n in SM_SWEEP)
    raise ValueError(f"unknown baseline kind {kind!r}")


def baseline_front(kind: Kind, cache: MutationCache, seeds: Sequence[int],
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
    cache = build_index(cache)
    runs_per_batch = max(1, BATCH_MAX_CELLS // (repetitions * cache.n_mutants))
    rows_per_batch = runs_per_batch * repetitions
    entries: list[list[EvaluatedStrategy]] = [[] for _ in seeds]
    specs = sweep(kind)
    parameters = [spec.exclusions if spec.kind == "SM" else spec.percentage for spec in specs]
    sweep_seeds = derive_seeds([(int(seed), 3, parameter)
                                for parameter in parameters for seed in seeds])
    for i, spec in enumerate(specs):
        strategy, text = spec.strategy(), spec.describe()
        eval_seeds = sweep_seeds[i * len(seeds):(i + 1) * len(seeds)]
        rows = row_generators(eval_seeds, repetitions)
        pairs = [pair for lo in range(0, len(rows), rows_per_batch)
                 for pair in evaluate_indexed(strategy, cache, repetitions,
                                              rows[lo:lo + rows_per_batch])]
        for run, eval_seed, pair in zip(entries, eval_seeds, pairs):
            run.append(EvaluatedStrategy(time=pair.time, score=pair.score,
                                         eval_seed=eval_seed, text=text))
    return [nondominated(run, key=lambda entry: entry.text) for run in entries]
