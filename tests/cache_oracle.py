"""The record-based cache loader and index build, kept as a test oracle.

Before the cache became columnar, ``loads_cache`` built one frozen record
per operator, test and mutant, each validated in ``__post_init__``, and
``build_index`` copied the records into the index's arrays one mutant at a
time. That code is kept here, unchanged but for its names and the rules
added since (an id must be text UTF-8 can encode; an integer past int()'s
digit limit, or a cost past the float range, is named without Python's
own message), so the columnar
loader can be checked against it: ``oracle_loads`` gives the
same errors in the same order, and ``oracle_index`` the index-order
columns and views of the loaded cache. The kill classes are compared as
multisets of killer rows (``class_multiset``), since their order is free.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from mutreduce.cache import CacheError


def _quantize(value: float) -> float:
    """Round a cost to 9 significant digits (the serialization precision)."""
    return float(format(float(value), ".9g"))


def _require_utf8(record_id: str, section: str) -> None:
    try:
        record_id.encode("utf-8")
    except UnicodeEncodeError:
        raise CacheError(f"{section} {record_id!r}: id must be UTF-8 text") from None


@dataclass(frozen=True)
class OperatorRecord:
    id: str
    generation_cost: float

    def __post_init__(self) -> None:
        if not self.id:
            raise CacheError("operator with empty id")
        _require_utf8(self.id, "operator")
        cost = _quantize(self.generation_cost)
        if not math.isfinite(cost) or cost < 0:
            raise CacheError(f"operator {self.id!r}: generation_cost must be finite and >= 0")
        object.__setattr__(self, "generation_cost", cost)


@dataclass(frozen=True)
class TestRecord:
    id: str
    priority_rank: int

    def __post_init__(self) -> None:
        if not self.id:
            raise CacheError("test with empty id")
        _require_utf8(self.id, "test")
        if self.priority_rank < 0:
            raise CacheError(f"test {self.id!r}: priority_rank must be >= 0")


@dataclass(frozen=True)
class MutantRecord:
    id: str
    operator_id: str
    exec_cost: float
    killers: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise CacheError("mutant with empty id")
        _require_utf8(self.id, "mutant")
        cost = _quantize(self.exec_cost)
        if not math.isfinite(cost) or cost <= 0:
            raise CacheError(f"mutant {self.id!r}: exec_cost must be finite and > 0")
        object.__setattr__(self, "exec_cost", cost)
        object.__setattr__(self, "killers", tuple(self.killers))
        if len(set(self.killers)) != len(self.killers):
            raise CacheError(f"mutant {self.id!r}: duplicate killer test id")


@dataclass(frozen=True)
class OracleCache:
    operators: tuple[OperatorRecord, ...]
    tests: tuple[TestRecord, ...]
    mutants: tuple[MutantRecord, ...]
    total_cost: float = field(init=False, compare=False)
    killable_count: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
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
        total = math.fsum(op.generation_cost for op in self.operators)
        total += math.fsum(m.exec_cost for m in self.mutants)
        object.__setattr__(self, "total_cost", total)
        object.__setattr__(self, "killable_count", sum(1 for m in self.mutants if m.killers))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CacheError(message)


def _float(record: dict, key: str, where: str) -> float:
    try:
        return float(record[key])
    except OverflowError:  # an int past the float range
        raise CacheError(f"malformed record: {where}.{key} is past the float range") from None


def oracle_loads(text: str) -> OracleCache:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheError(f"not valid JSON: {exc}") from exc
    except ValueError:  # an integer past int()'s digit limit
        raise CacheError(f"not valid JSON: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    _require(isinstance(doc, dict), "top level must be an object")
    for key in ("operators", "tests", "mutants"):
        _require(key in doc, f"missing top-level key {key!r}")
        _require(isinstance(doc[key], list), f"{key!r} must be an array")
    try:
        operators = tuple(
            OperatorRecord(id=str(o["id"]),
                           generation_cost=_float(o, "generation_cost", f"operators[{i}]"))
            for i, o in enumerate(doc["operators"])
        )
        tests = tuple(
            TestRecord(id=str(t["id"]), priority_rank=int(t["priority_rank"]))
            for t in doc["tests"]
        )
        mutants = tuple(
            MutantRecord(
                id=str(m["id"]),
                operator_id=str(m["operator_id"]),
                exec_cost=_float(m, "exec_cost", f"mutants[{i}]"),
                killers=tuple(str(k) for k in m["killers"]),
            )
            for i, m in enumerate(doc["mutants"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CacheError):
            raise
        raise CacheError(f"malformed record: {exc}") from exc
    return OracleCache(operators=operators, tests=tests, mutants=mutants)


def oracle_index(cache: OracleCache) -> dict[str, object]:
    """The index fields, as the record-based build_index computed them."""
    ops = sorted(cache.operators, key=lambda o: o.id)
    tests = sorted(cache.tests, key=lambda t: t.priority_rank)
    mutants = sorted(cache.mutants, key=lambda m: m.id)

    op_ids = tuple(o.id for o in ops)
    test_ids = tuple(t.id for t in tests)
    mutant_ids = tuple(m.id for m in mutants)
    op_index = {o: i for i, o in enumerate(op_ids)}
    test_index = {t: i for i, t in enumerate(test_ids)}

    n_m = len(mutants)
    killer_counts = np.fromiter((len(m.killers) for m in mutants),
                                dtype=np.int64, count=n_m)
    killer_indptr = np.zeros(n_m + 1, dtype=np.int64)
    np.cumsum(killer_counts, out=killer_indptr[1:])
    unsorted_tests = np.fromiter(
        (test_index[k] for m in mutants for k in m.killers),
        dtype=np.int32, count=int(killer_indptr[-1]))
    rows = np.repeat(np.arange(n_m), killer_counts)
    killer_tests = unsorted_tests[np.lexsort((unsorted_tests, rows))]

    killable = killer_counts > 0
    first_killer = np.full(n_m, len(tests), dtype=np.int32)
    first_killer[killable] = killer_tests[killer_indptr[:-1][killable]]
    rows = np.split(killer_tests, killer_indptr[1:-1])

    mutant_operator = np.fromiter(
        (op_index[m.operator_id] for m in mutants), dtype=np.int32, count=n_m)
    op_indptr = np.zeros(len(ops) + 1, dtype=np.int64)
    np.cumsum(np.bincount(mutant_operator, minlength=len(ops)), out=op_indptr[1:])

    return {
        "operator_ids": op_ids,
        "test_ids": test_ids,
        "mutant_ids": mutant_ids,
        "generation_cost": np.array([o.generation_cost for o in ops], dtype=np.float64),
        "exec_cost": np.array([m.exec_cost for m in mutants], dtype=np.float64),
        "mutant_operator": mutant_operator,
        "killer_indptr": killer_indptr,
        "killer_tests": killer_tests,
        "first_killer": first_killer,
        "kill_classes": Counter(tuple(row.tolist()) for row in rows if row.size),
        "op_indptr": op_indptr,
        "total_cost": cache.total_cost,
        "killable_count": cache.killable_count,
    }


def class_multiset(classes) -> Counter:
    """A cache's kill classes as killer row -> multiplicity.

    Fails unless the classes are distinct, non-empty rows with positive
    multiplicities in the dtypes the kernel reads.
    """
    assert classes.starts.dtype == classes.multiplicity.dtype == np.int64
    assert classes.tests.dtype == np.int32
    bounds = classes.starts.tolist() + [classes.tests.size]
    rows = [tuple(classes.tests[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    multiplicity = classes.multiplicity.tolist()
    assert len(multiplicity) == len(rows) == len(set(rows))
    assert all(rows) and all(m > 0 for m in multiplicity)
    return Counter(dict(zip(rows, multiplicity)))
