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
from typing import Literal

import numpy as np

from .cache import MutationCache
from .index import CacheIndex, build_index
from .objectives import evaluate_indexed
from .pareto import nondominated
from .search import EvaluatedStrategy, Front
from .strategy import Strategy, parse_strategy

RMS_SWEEP = tuple(range(10, 100, 10))
ROS_SWEEP = tuple(range(10, 100, 10))
SM_SWEEP = tuple(range(1, 7))

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


def baseline_front(kind: Kind, cache: MutationCache | CacheIndex, seed: int,
                   repetitions: int = 5) -> Front:
    """Evaluate a baseline family over its sweep; non-dominated subset.

    Each swept parameter gets its own evaluation seed derived from
    (seed, parameter), recorded on the returned entries so rows can be
    re-evaluated independently later.
    """
    index = build_index(cache)
    entries: list[EvaluatedStrategy] = []
    for spec in sweep(kind):
        parameter = spec.exclusions if spec.kind == "SM" else spec.percentage
        eval_seed = int(np.random.SeedSequence(
            entropy=(int(seed), 3, parameter)).generate_state(1, np.uint64)[0])
        pair = evaluate_indexed(spec.strategy(), index, repetitions,
                                np.random.default_rng(eval_seed))
        entries.append(EvaluatedStrategy(
            time=pair.time, score=pair.score, eval_seed=eval_seed,
            text=spec.describe()))
    return nondominated(entries, key=lambda entry: entry.text)
