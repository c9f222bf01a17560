"""Mutation analysis cache: the recorded outcome of one full mutation run.

A cache holds everything a reduction strategy needs to be replayed without
re-running any tool: the mutation operators with their per-operator
generation cost, the test cases with their execution priority, and one
record per generated mutant (owning operator, execution cost, and the set
of tests that kill it). Mutants with no killers are equivalent mutants
from the consumer's point of view; they count against the mutation score
denominator and can never be killed.

Costs are abstract non-negative units. They are normalized to at most 9
significant digits on construction so that the JSON serialization (which
writes at most 9 significant digits) round-trips exactly and repeated
saves are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .index import CacheIndex


class CacheError(ValueError):
    """Raised when cache data violates the format or its invariants."""


def _quantize(value: float) -> float:
    """Round a cost to 9 significant digits (the serialization precision)."""
    return float(format(float(value), ".9g"))


@dataclass(frozen=True)
class OperatorRecord:
    """One mutation operator and the cost of generating its mutants."""

    id: str
    generation_cost: float

    def __post_init__(self) -> None:
        if not self.id:
            raise CacheError("operator with empty id")
        cost = _quantize(self.generation_cost)
        if not math.isfinite(cost) or cost < 0:
            raise CacheError(f"operator {self.id!r}: generation_cost must be finite and >= 0")
        object.__setattr__(self, "generation_cost", cost)


@dataclass(frozen=True)
class TestRecord:
    """One test case and its execution priority (lower rank runs first)."""

    id: str
    priority_rank: int

    def __post_init__(self) -> None:
        if not self.id:
            raise CacheError("test with empty id")
        if self.priority_rank < 0:
            raise CacheError(f"test {self.id!r}: priority_rank must be >= 0")


@dataclass(frozen=True)
class MutantRecord:
    """One generated mutant: owner operator, execution cost, killing tests."""

    id: str
    operator_id: str
    exec_cost: float
    killers: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise CacheError("mutant with empty id")
        cost = _quantize(self.exec_cost)
        if not math.isfinite(cost) or cost <= 0:
            raise CacheError(f"mutant {self.id!r}: exec_cost must be finite and > 0")
        object.__setattr__(self, "exec_cost", cost)
        object.__setattr__(self, "killers", tuple(self.killers))
        if len(set(self.killers)) != len(self.killers):
            raise CacheError(f"mutant {self.id!r}: duplicate killer test id")


@dataclass(frozen=True)
class MutationCache:
    """Validated, immutable view of one mutation run.

    Invariants enforced on construction: ids are unique per section, every
    mutant references a defined operator, every killer references a defined
    test, priority ranks are unique, and all three sections are non-empty.
    """

    operators: tuple[OperatorRecord, ...]
    tests: tuple[TestRecord, ...]
    mutants: tuple[MutantRecord, ...]
    total_cost: float = field(init=False, compare=False)
    killable_count: int = field(init=False, compare=False)
    # The numeric view, stored by index.build_index on first use.
    _index: CacheIndex | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "tests", tuple(self.tests))
        object.__setattr__(self, "mutants", tuple(self.mutants))
        if not self.operators:
            raise CacheError("cache has no operators")
        if not self.tests:
            raise CacheError("cache has no tests")
        if not self.mutants:
            raise CacheError("cache has no mutants")
        for section, records in (("operator", self.operators),
                                 ("test", self.tests),
                                 ("mutant", self.mutants)):
            seen: set[str] = set()
            for rec in records:
                if rec.id in seen:
                    raise CacheError(f"duplicate {section} id {rec.id!r}")
                seen.add(rec.id)
        ranks = [t.priority_rank for t in self.tests]
        if len(set(ranks)) != len(ranks):
            raise CacheError("duplicate priority_rank among tests")
        op_ids = {op.id for op in self.operators}
        test_ids = {t.id for t in self.tests}
        for m in self.mutants:
            if m.operator_id not in op_ids:
                raise CacheError(f"mutant {m.id!r}: unknown operator {m.operator_id!r}")
            for killer in m.killers:
                if killer not in test_ids:
                    raise CacheError(f"mutant {m.id!r}: unknown killer test {killer!r}")
        # Derived values are always recomputed, never read from a file.
        total = math.fsum(op.generation_cost for op in self.operators)
        total += math.fsum(m.exec_cost for m in self.mutants)
        object.__setattr__(self, "total_cost", total)
        object.__setattr__(self, "killable_count", sum(1 for m in self.mutants if m.killers))


def global_score(cache: MutationCache) -> float:
    """Mutation score of the full test suite against the full mutant set.

    Every mutant with at least one killer is killed by the full suite, so
    this is simply killable / |M|.
    """
    return cache.killable_count / len(cache.mutants)


def operator_yields(cache: MutationCache) -> list[tuple[str, int]]:
    """Mutant count per operator, highest yield first, ties by id ascending.

    Zero-yield operators are included, so the counts always sum to the
    number of mutants and every operator appears exactly once.
    """
    counts = {op.id: 0 for op in cache.operators}
    for m in cache.mutants:
        counts[m.operator_id] += 1
    return sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))


# ===== JSON serialization =====

def _cache_to_document(cache: MutationCache) -> dict:
    return {
        "operators": [
            {"id": op.id, "generation_cost": op.generation_cost}
            for op in cache.operators
        ],
        "tests": [
            {"id": t.id, "priority_rank": t.priority_rank}
            for t in cache.tests
        ],
        "mutants": [
            {
                "id": m.id,
                "operator_id": m.operator_id,
                "exec_cost": m.exec_cost,
                "killers": list(m.killers),
            }
            for m in cache.mutants
        ],
    }


def dumps_cache(cache: MutationCache) -> str:
    """Serialize to the canonical JSON form: sorted keys, stable numbers.

    Record order within each section is preserved. Costs were normalized to
    9 significant digits on construction, so the default shortest-repr float
    formatting never exceeds that precision and repeated saves of the same
    cache are byte-identical.
    """
    return json.dumps(_cache_to_document(cache), sort_keys=True, indent=1) + "\n"


def save_cache(cache: MutationCache, path: str | Path) -> None:
    Path(path).write_text(dumps_cache(cache), encoding="utf-8")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CacheError(message)


def loads_cache(text: str) -> MutationCache:
    """Parse and validate the JSON cache format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheError(f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    for key in ("operators", "tests", "mutants"):
        _require(key in doc, f"missing top-level key {key!r}")
        _require(isinstance(doc[key], list), f"{key!r} must be an array")
    try:
        operators = tuple(
            OperatorRecord(id=str(o["id"]), generation_cost=float(o["generation_cost"]))
            for o in doc["operators"]
        )
        tests = tuple(
            TestRecord(id=str(t["id"]), priority_rank=int(t["priority_rank"]))
            for t in doc["tests"]
        )
        mutants = tuple(
            MutantRecord(
                id=str(m["id"]),
                operator_id=str(m["operator_id"]),
                exec_cost=float(m["exec_cost"]),
                killers=tuple(str(k) for k in m["killers"]),
            )
            for m in doc["mutants"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CacheError):
            raise
        raise CacheError(f"malformed record: {exc}") from exc
    return MutationCache(operators=operators, tests=tests, mutants=mutants)


def load_cache(path: str | Path) -> MutationCache:
    return loads_cache(Path(path).read_text(encoding="utf-8"))


# ===== CSV kill-matrix import =====

def read_kill_matrix_csv(path: str | Path) -> MutationCache:
    """Import a kill-matrix CSV into a cache.

    Expected columns: mutant_id, operator_id, exec_cost, killed_by, where
    killed_by lists the killing test ids separated by ';' (empty for
    surviving mutants). Operators and tests are inferred: operators get
    generation cost 0 (the CSV carries none), and tests are ranked by
    ascending id.
    """
    rows: list[dict[str, str]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = {"mutant_id", "operator_id", "exec_cost", "killed_by"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise CacheError(
                f"kill-matrix CSV must have columns {sorted(expected)}, "
                f"got {reader.fieldnames}"
            )
        rows = list(reader)
    if not rows:
        raise CacheError("kill-matrix CSV has no rows")
    op_ids = sorted({row["operator_id"] for row in rows})
    test_ids = sorted({
        killer
        for row in rows
        for killer in row["killed_by"].split(";")
        if killer
    })
    if not test_ids:
        raise CacheError("kill-matrix CSV defines no killing tests")
    mutants = []
    for row in rows:
        try:
            cost = float(row["exec_cost"])
        except ValueError as exc:
            raise CacheError(f"mutant {row['mutant_id']!r}: bad exec_cost") from exc
        killers = tuple(k for k in row["killed_by"].split(";") if k)
        mutants.append(MutantRecord(
            id=row["mutant_id"],
            operator_id=row["operator_id"],
            exec_cost=cost,
            killers=killers,
        ))
    return MutationCache(
        operators=tuple(OperatorRecord(id=o, generation_cost=0.0) for o in op_ids),
        tests=tuple(TestRecord(id=t, priority_rank=r) for r, t in enumerate(test_ids)),
        mutants=tuple(mutants),
    )


# ===== Synthetic caches =====

def synth_cache(
    n_operators: int,
    n_mutants: int,
    n_tests: int,
    seed: int,
    kill_density: float = 0.8,
    cost_skew: float = 2.0,
    redundancy: float = 0.3,
) -> MutationCache:
    """Generate a reproducible synthetic cache with heterogeneous operators.

    Mutation operators in real tools differ wildly: some flood the pool with
    cheap mutants, some produce a few expensive ones, and kill rates vary by
    operator family. The generator models that, so which operators a
    reduction strategy keeps actually matters. The sampling law, in draw
    order (all draws come from one generator seeded by (seed, n_operators,
    n_mutants, n_tests), so a fixed argument tuple always yields the same
    cache, bit for bit):

    1. Operator generation costs are uniform on [0.5, 5.0].
    2. Each operator gets an exec-cost scale cost_skew**u, u uniform on
       [-1, 1]: its mutants run up to cost_skew times cheaper or dearer
       than average. cost_skew = 1 makes operators cost-identical.
    3. Each operator gets a kill exponent g = 3**v, v uniform on [-1, 1],
       and its mutants are killable with probability kill_density**g.
       Low-density caches therefore spread killability across operators;
       kill_density 1.0 forces every mutant killable regardless of g.
    4. Mutants are assigned to operators with weights cost_skew**-i over
       operator index i, giving the skewed yields that motivate excluding
       high-yield operators. Exec costs are lognormal(0, 0.6) times the
       owner's scale, plus 0.05.
    5. Killer sets are drawn per operator from a pool of
       max(1, round((1 - redundancy) * killable_in_operator)) templates,
       each a geometric(0.45)-sized random test subset. redundancy 1
       collapses each operator's killable mutants onto one killer set;
       redundancy 0 gives almost every mutant its own.
    """
    if n_operators < 1 or n_mutants < 1 or n_tests < 1:
        raise ValueError("n_operators, n_mutants and n_tests must all be >= 1")
    if not 0 < kill_density <= 1:
        raise ValueError("kill_density must be in (0, 1]")
    if cost_skew < 1:
        raise ValueError("cost_skew must be >= 1")
    if not 0 <= redundancy <= 1:
        raise ValueError("redundancy must be in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=(int(seed), n_operators, n_mutants, n_tests)))

    op_width = max(2, len(str(n_operators - 1)))
    mut_width = max(2, len(str(n_mutants - 1)))
    test_width = max(2, len(str(n_tests - 1)))
    op_ids = [f"op{i:0{op_width}d}" for i in range(n_operators)]
    mutant_ids = [f"m{i:0{mut_width}d}" for i in range(n_mutants)]
    test_ids = [f"t{i:0{test_width}d}" for i in range(n_tests)]

    operators = tuple(
        OperatorRecord(id=op_ids[i], generation_cost=float(rng.uniform(0.5, 5.0)))
        for i in range(n_operators)
    )
    tests = tuple(
        TestRecord(id=test_ids[i], priority_rank=i) for i in range(n_tests)
    )

    cost_scale = cost_skew ** rng.uniform(-1.0, 1.0, size=n_operators)
    kill_exponent = 3.0 ** rng.uniform(-1.0, 1.0, size=n_operators)

    weights = cost_skew ** -np.arange(n_operators, dtype=np.float64)
    weights /= weights.sum()
    owner = rng.choice(n_operators, size=n_mutants, p=weights)
    exec_costs = (rng.lognormal(mean=0.0, sigma=0.6, size=n_mutants)
                  * cost_scale[owner] + 0.05)

    killable = rng.random(n_mutants) < kill_density ** kill_exponent[owner]

    # Killer sets come from per-operator template pools so redundancy
    # clusters inside operators; templates are drawn operator by operator in
    # index order to keep the stream deterministic.
    killers_of: list[tuple[str, ...]] = [()] * n_mutants
    for op in range(n_operators):
        members = np.flatnonzero((owner == op) & killable)
        if not members.size:
            continue
        pool_size = max(1, round((1.0 - redundancy) * members.size))
        pool = []
        for _ in range(pool_size):
            size = 1 + min(rng.geometric(0.45) - 1, n_tests - 1)
            chosen = np.sort(rng.choice(n_tests, size=size, replace=False))
            pool.append(tuple(test_ids[t] for t in chosen))
        assignment = rng.integers(0, pool_size, size=members.size)
        for slot, mutant in enumerate(members):
            killers_of[int(mutant)] = pool[int(assignment[slot])]

    mutants = tuple(
        MutantRecord(
            id=mutant_ids[i],
            operator_id=op_ids[int(owner[i])],
            exec_cost=float(exec_costs[i]),
            killers=killers_of[i],
        )
        for i in range(n_mutants)
    )
    return MutationCache(operators=operators, tests=tests, mutants=mutants)


def reroll_killers(cache: MutationCache, fraction: float, seed: int) -> MutationCache:
    """Clone a cache with the killer sets of a fraction of mutants redrawn.

    Models drift between two versions of a subject: round(fraction * |M|)
    mutants (chosen uniformly) get a fresh killer set drawn over the same
    tests with the same expected size distribution used by synth_cache.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), len(cache.mutants))))
    n = len(cache.mutants)
    n_reroll = int(fraction * n + 0.5)
    chosen = set(rng.choice(n, size=n_reroll, replace=False).tolist()) if n_reroll else set()
    test_ids = [t.id for t in sorted(cache.tests, key=lambda t: t.priority_rank)]
    mutants = []
    for i, m in enumerate(cache.mutants):
        if i in chosen:
            size = 1 + min(int(rng.geometric(0.45)) - 1, len(test_ids) - 1)
            picked = np.sort(rng.choice(len(test_ids), size=size, replace=False))
            killers = tuple(test_ids[t] for t in picked)
            mutants.append(MutantRecord(
                id=m.id, operator_id=m.operator_id,
                exec_cost=m.exec_cost, killers=killers,
            ))
        else:
            mutants.append(m)
    return MutationCache(operators=cache.operators, tests=cache.tests, mutants=tuple(mutants))
