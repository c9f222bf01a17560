"""Mutation analysis cache: the recorded outcome of one full mutation run.

A cache holds everything a reduction strategy needs to be replayed without
re-running any tool: the mutation operators with their per-operator
generation cost, the test cases with their execution priority, and one
entry per generated mutant (owning operator, execution cost, and the set
of tests that kill it). Mutants with no killers are equivalent mutants
from the consumer's point of view; they count against the mutation score
denominator and can never be killed.

The cache is columnar and stored in index order, the one order every
layer reads: operators and mutants by ascending id, tests by ascending
priority_rank, and each mutant's killers (the CSR ``killer_indptr`` /
``killer_tests``, positions in ``test_ids``) by ascending test position,
so a mutant's first killer opens its row. Iterating mutant positions
ascending is the id-ordered processing every tie-break rule in the
package is defined on. Every producer builds file-order columns and
ends in ``_checked_cache``, which validates them with vectorised checks
(so errors name the first bad record in file order), then reorders them
once: ``loads_cache`` from the parsed JSON, ``MutationCache.from_records``
from record objects, ``read_kill_matrix_csv`` from a kill matrix's rows,
and ``synth_cache`` from its draws.
A text in the layout ``dumps_cache`` writes is parsed a chunk of
``CHUNK_CHARS`` characters of mutant records at a time, each chunk's
objects freed before the next is parsed, so a load holds one chunk of
parsed records instead of the whole document; any other text, and any
irregular one, is parsed whole. Both paths share every check after the
mutant fields, so they build the same cache or raise the same error.
Saving writes index order, so a cache equals any reordering of its
records, and a saved file loads without a reorder: ids that ascend
strictly are distinct, so they skip the duplicate search and the sort;
ranks that ascend strictly are distinct and are their own test order;
killer rows that ascend strictly name no test twice and need no sort.
Any other file is checked and reordered in full. ``operators``,
``tests`` and ``mutants`` rebuild the records on demand. The cache
also derives the views the kill kernel reads: ``first_killer`` (each
mutant's first killer, ``n_tests`` for one no test kills),
``kill_classes`` (each distinct killer row of the killable
mutants once, with the number of mutants sharing it: duplicate mutants
are interchangeable when kills are counted) and ``test_classes`` (the
same classes test-major, for counts that start from the unselected
tests; see ``mutreduce._kernels`` for the rule that picks a count
path). The strategy VM reads ``operator_mutants`` (mutant positions by
owner, cut into spans by ``op_indptr``) and ``owner_codes``, the owners
in a dtype that radix-sorts. All but ``first_killer`` and ``op_indptr``
are built on first use. Memory is O(mutants + kill nonzeros), never
O(tests x mutants).

Costs are abstract non-negative units. They are normalized to at most 9
significant digits on construction so that the JSON serialization (which
writes at most 9 significant digits) round-trips exactly and repeated
saves are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, lt
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .numerals import read_json, read_real


class CacheError(ValueError):
    """Raised when cache data violates the format or its invariants."""


_POW10 = 10.0 ** np.arange(23)


def _quantize(values: np.ndarray) -> np.ndarray:
    """Round costs to 9 significant digits: float(format(x, '.9g')), bit for bit.

    With k = 8 - floor(log10|x|), r = rint(x * 10**k) is the 9-digit
    mantissa unless x * 10**k lies near a half (the product is off by at
    most 1.2e-7 below 1e9), and r / 10**k is then exactly float('<r>e-k'),
    since 10**k is exact for |k| <= 22 and IEEE division rounds correctly.
    Values outside that case (zeros, subnormals, huge or non-finite ones,
    near-halves) take the formatting route.
    """
    x = np.asarray(values, dtype=np.float64)
    out = x.copy()
    with np.errstate(all="ignore"):
        k = 8 - np.floor(np.log10(np.abs(x)))
        fast = np.isfinite(k) & (np.abs(k) <= 22)
        k = np.where(fast, k, 0).astype(np.int64)
        scale = _POW10[np.abs(k)]
        up = k >= 0
        y = np.where(up, x * scale, x / scale)
        r = np.rint(y)
        fast &= ((np.abs(y) >= 1e8) & (np.abs(y) < 999_999_999.5)
                 & (np.abs(np.abs(y - r) - 0.5) > 1e-6))
        out[fast] = np.where(up, r / scale, r * scale)[fast]
    for i in np.flatnonzero(~fast).tolist():
        out[i] = float(format(float(x[i]), ".9g"))
    return out


@dataclass(frozen=True)
class OperatorRecord:
    """One mutation operator and the cost of generating its mutants."""

    id: str
    generation_cost: float


@dataclass(frozen=True)
class TestRecord:
    """One test case and its execution priority (lower rank runs first)."""

    id: str
    priority_rank: int


@dataclass(frozen=True)
class MutantRecord:
    """One generated mutant: owner operator, execution cost, killing tests."""

    id: str
    operator_id: str
    exec_cost: float
    killers: tuple[str, ...]


def _csr(lengths: np.ndarray) -> np.ndarray:
    """Row offsets for rows of the given lengths."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def _rows(indptr: np.ndarray, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The CSR rows ``rows`` of ``values``, concatenated: O(len(rows) + their length)."""
    if not rows.size:
        return values[:0]
    starts = indptr.take(rows)
    lengths = indptr.take(rows + 1) - starts
    ends = np.cumsum(lengths)
    shift = np.repeat(starts - (ends - lengths), lengths)
    return values.take(np.arange(int(ends[-1])) + shift)


def _inverse(order: np.ndarray) -> np.ndarray:
    """new_position[old_position] for a permutation given as old positions."""
    position = np.empty(order.size, dtype=np.int32)
    position[order] = np.arange(order.size, dtype=np.int32)
    return position


class KillClasses(NamedTuple):
    """Killable mutants grouped by identical killer rows, as a CSR of classes."""

    starts: np.ndarray        # int64 offset of each class's row in tests
    tests: np.ndarray         # int32 test positions, ascending per row
    multiplicity: np.ndarray  # int64 number of mutants with each class's row


class TestClasses(NamedTuple):
    """The kill classes test-major: for each test, the classes whose row holds it."""

    indptr: np.ndarray   # int64 offset of each test's row in classes (n_tests + 1)
    classes: np.ndarray  # int32 class positions, ascending per test
    width: np.ndarray    # int64 number of tests per class


@dataclass(frozen=True, eq=False)
class MutationCache:
    """Validated, immutable columns of one mutation run, in index order.

    The constructor takes the columns as they are, already in index order;
    ``_checked_cache``, which every producer calls, checks them and
    reorders them first: ids are unique per section, every mutant
    references a defined operator, every killer references a defined test
    at most once, priority ranks are unique, costs are finite (operators
    >= 0, mutants > 0), and all three sections are non-empty. Equality
    compares the columns.
    """

    operator_ids: tuple[str, ...]
    generation_cost: np.ndarray   # float64, per operator
    test_ids: tuple[str, ...]
    priority_rank: np.ndarray     # int64, per test
    mutant_ids: tuple[str, ...]
    mutant_operator: np.ndarray   # int32 position in operator_ids, per mutant
    exec_cost: np.ndarray         # float64, per mutant
    killer_indptr: np.ndarray     # int64 row offsets into killer_tests
    killer_tests: np.ndarray      # int32 positions in test_ids, ascending per row
    first_killer: np.ndarray = field(init=False, repr=False)  # int32, per mutant
    op_indptr: np.ndarray = field(init=False, repr=False)     # int64 mutant count offsets
    total_cost: float = field(init=False)
    killable_count: int = field(init=False)

    def __post_init__(self) -> None:
        # Derived values are always recomputed, never read from a file.
        killable = np.diff(self.killer_indptr) > 0
        first_killer = np.full(self.n_mutants, self.n_tests, dtype=np.int32)
        first_killer[killable] = self.killer_tests[self.killer_indptr[:-1][killable]]
        yields = np.bincount(self.mutant_operator, minlength=self.n_operators)
        try:  # fsum of the two sums is their float sum, or OverflowError
            total = math.fsum((math.fsum(self.generation_cost.tolist()),
                               math.fsum(self.exec_cost.tolist())))
        except OverflowError:
            raise CacheError("costs overflow: their sum is past the float range") from None
        for name, value in (("first_killer", first_killer),
                            ("op_indptr", _csr(yields)),
                            ("total_cost", total),
                            ("killable_count", int(np.count_nonzero(killable)))):
            object.__setattr__(self, name, value)

    @property
    def n_operators(self) -> int:
        return len(self.operator_ids)

    @property
    def n_tests(self) -> int:
        return len(self.test_ids)

    @property
    def n_mutants(self) -> int:
        return len(self.mutant_ids)

    @cached_property
    def mutant_index(self) -> dict[str, int]:
        """Mutant id to position; built on first use, as only id-based callers need it."""
        return dict(zip(self.mutant_ids, range(self.n_mutants)))

    @cached_property
    def kill_classes(self) -> KillClasses:
        """The killable mutants' distinct killer rows, with their multiplicities.

        Rows are compared exactly, one row length at a time: that length's
        rows form a (rows x length) matrix, one lexsort makes equal rows
        adjacent, and a class opens wherever a row differs from the one
        before it. Built on first use rather than on load: building it on
        load measured a higher peak RSS when a process loads a second cache.
        """
        lengths = np.diff(self.killer_indptr)
        tests = [np.empty(0, dtype=np.int32)]
        multiplicity = [np.empty(0, dtype=np.int64)]
        widths = [np.empty(0, dtype=np.int64)]
        for n in (np.flatnonzero(np.bincount(lengths)[1:]) + 1).tolist():
            starts = self.killer_indptr[:-1][lengths == n]
            block = self.killer_tests[starts[:, None] + np.arange(n)]
            block = block[np.lexsort(block.T)]
            differs = (block[1:] != block[:-1]).any(axis=1)
            heads = np.flatnonzero(np.concatenate(([True], differs)))
            tests.append(block[heads].ravel())
            multiplicity.append(np.diff(heads, append=len(block)))
            widths.append(np.full(heads.size, n, dtype=np.int64))
        return KillClasses(starts=_csr(np.concatenate(widths))[:-1],
                           tests=np.concatenate(tests),
                           multiplicity=np.concatenate(multiplicity))

    @cached_property
    def test_classes(self) -> TestClasses:
        """``kill_classes`` transposed, so a count can start from the tests
        a selection leaves out."""
        classes = self.kill_classes
        width = np.diff(classes.starts, append=classes.tests.size)
        owner = np.repeat(np.arange(width.size, dtype=np.int32), width)
        return TestClasses(indptr=_csr(np.bincount(classes.tests, minlength=self.n_tests)),
                           classes=owner[np.argsort(classes.tests, kind="stable")],
                           width=width)

    @cached_property
    def operator_mutants(self) -> np.ndarray:
        """Mutant positions by owner, ascending within each: operator i's
        mutants are the span ``op_indptr[i]:op_indptr[i + 1]``."""
        return np.argsort(self.mutant_operator, kind="stable").astype(np.int32)

    @cached_property
    def owner_codes(self) -> np.ndarray:
        """``mutant_operator`` in the narrowest unsigned dtype that holds it,
        so a stable sort of owners is a radix sort."""
        return self.mutant_operator.astype(np.min_scalar_type(self.n_operators - 1))

    def mutants_of_operators(self, ops: np.ndarray) -> np.ndarray:
        """Sorted mutant positions generated by the given distinct operator
        positions: all of them without a pass if the operators own every
        mutant, their spans of ``operator_mutants`` joined and sorted if
        they own under a third, otherwise one mask pass over every
        mutant's owner."""
        owned = int((self.op_indptr.take(ops + 1) - self.op_indptr.take(ops)).sum())
        if owned == self.n_mutants:
            return np.arange(self.n_mutants, dtype=np.int32)
        if 3 * owned < self.n_mutants:
            return self._mutants_from_spans(ops)
        return self._mutants_from_mask(ops)

    def _mutants_from_spans(self, ops: np.ndarray) -> np.ndarray:
        return np.sort(_rows(self.op_indptr, self.operator_mutants, ops))

    def _mutants_from_mask(self, ops: np.ndarray) -> np.ndarray:
        chosen = np.zeros(self.n_operators, dtype=bool)
        chosen[ops] = True
        return chosen.take(self.mutant_operator).nonzero()[0].astype(np.int32)

    @classmethod
    def from_records(cls, operators, tests, mutants) -> MutationCache:
        """Check record objects and build their columns, as loads_cache does."""
        return _from_document(_document(operators, tests, mutants))

    def _columns(self) -> tuple:
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self) if f.init)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self._columns(), other._columns()))

    def __hash__(self) -> int:
        # Hashable, so a cache can key a dict or a weak set. Consistent
        # with __eq__: equal caches have equal operators and totals.
        return hash((self.operator_ids, self.total_cost, self.killable_count))

    @property
    def operators(self) -> tuple[OperatorRecord, ...]:
        return tuple(map(OperatorRecord, self.operator_ids, self.generation_cost.tolist()))

    @property
    def tests(self) -> tuple[TestRecord, ...]:
        return tuple(map(TestRecord, self.test_ids, self.priority_rank.tolist()))

    @property
    def mutants(self) -> tuple[MutantRecord, ...]:
        """The mutant records, each one's killer test ids first killer first."""
        owners = map(self.operator_ids.__getitem__, self.mutant_operator.tolist())
        names = list(map(self.test_ids.__getitem__, self.killer_tests.tolist()))
        bounds = self.killer_indptr.tolist()
        killers = [tuple(names[a:b]) for a, b in zip(bounds, bounds[1:])]
        return tuple(map(MutantRecord, self.mutant_ids, owners, self.exec_cost.tolist(), killers))


def global_score(cache: MutationCache) -> float:
    """Mutation score of the full test suite against the full mutant set.

    Every mutant with at least one killer is killed by the full suite, so
    this is simply killable / |M|.
    """
    return cache.killable_count / len(cache.mutant_ids)


def operator_yields(cache: MutationCache) -> list[tuple[str, int]]:
    """Mutant count per operator, highest yield first, ties by id ascending.

    Zero-yield operators are included, so the counts always sum to the
    number of mutants and every operator appears exactly once.
    """
    return sorted(zip(cache.operator_ids, np.diff(cache.op_indptr).tolist()),
                  key=lambda pair: (-pair[1], pair[0]))


# ===== JSON serialization =====

def _document(operators, tests, mutants) -> dict:
    """The cache document of record objects: a record's attributes are its
    JSON fields."""
    return {"operators": list(map(vars, operators)), "tests": list(map(vars, tests)),
            "mutants": list(map(vars, mutants))}


def dumps_cache(cache: MutationCache) -> str:
    """Serialize to the canonical JSON form: sorted keys, stable numbers.

    Records are written in index order, so two caches that differ only in
    record order save to the same bytes. Costs were normalized to
    9 significant digits on construction, so the default shortest-repr float
    formatting never exceeds that precision and repeated saves of the same
    cache are byte-identical.
    """
    document = _document(cache.operators, cache.tests, cache.mutants)
    return json.dumps(document, sort_keys=True, indent=1) + "\n"


def save_cache(cache: MutationCache, path: str | Path) -> None:
    Path(path).write_text(dumps_cache(cache), encoding="utf-8")


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring its previous state.

    Parsing allocates several objects per mutant, none of them in a cycle,
    yet the collector would run hundreds of passes over the growing
    document: on a 100k-mutant cache they take about half the load time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def loads_cache(text: str) -> MutationCache:
    """Parse and validate the JSON cache format: a chunk of mutant records
    at a time where ``_chunked_sections`` can, else the whole document."""
    with _collector_paused():
        sections = _chunked_sections(text)
        if sections is None:
            return _from_document(_parse_json(text))
        return _checked_cache(*sections, malformed=None)


def load_cache(path: str | Path) -> MutationCache:
    """loads_cache of a file's text; its errors name the file."""
    try:
        return loads_cache(Path(path).read_text(encoding="utf-8"))
    except (CacheError, UnicodeDecodeError) as exc:
        raise CacheError(f"cache file {path}: {exc}") from exc


def _parse_json(text: str) -> dict:
    try:
        doc = read_json(text)
    except ValueError as exc:
        raise CacheError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CacheError("top level must be an object")
    for key in ("operators", "tests", "mutants"):
        if key not in doc:
            raise CacheError(f"missing top-level key {key!r}")
        if not isinstance(doc[key], list):
            raise CacheError(f"{key!r} must be an array")
    return doc


# ----- record fields -----

def _check_string(value, where: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{where} must be a string, not {type(value).__name__}")
    return value


def _check_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{where} must be a number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise OverflowError(f"{where} is past the float range") from None


def _check_rank(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{where} must be an integer, not {type(value).__name__}")
    if not -2**63 <= value < 2**63:
        raise OverflowError(f"{where} is out of the 64-bit range")
    return value


def _check_killers(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{where} must be an array of test ids, not {type(value).__name__}")
    for j, killer in enumerate(value):
        _check_string(killer, f"{where}[{j}]")
    return value


def _plain_types(allowed: set) -> Callable[[list], bool]:
    return lambda column: set(map(type, column)) <= allowed


def _costs(column: list) -> np.ndarray:
    return _quantize(np.array(column, dtype=np.float64))


def _killer_csr(column: list) -> tuple[np.ndarray, list[str]]:
    """A killers column as (row offsets, the killer names of all rows in order).

    The one flattening of the rows is also their type test: a name that
    is not a string raises TypeError, which sends the section to the
    record-by-record path of ``_fields``.
    """
    indptr = _csr(np.fromiter(map(len, column), dtype=np.int64, count=len(column)))
    names = list(chain.from_iterable(column))
    if not set(map(type, names)) <= {str}:
        raise TypeError("killer test ids must be strings")
    return indptr, names


class _Field(NamedTuple):
    name: str
    fast: Callable[[list], bool]   # whole-column type test for the common case
    check: Callable                # per-value test naming the offending record
    convert: Callable              # column of checked values -> stored column; may
                                   # raise TypeError on a value ``fast`` let through


_OPERATOR_FIELDS = (
    _Field("id", _plain_types({str}), _check_string, tuple),
    _Field("generation_cost", _plain_types({int, float}), _check_number, _costs),
)
_TEST_FIELDS = (
    _Field("id", _plain_types({str}), _check_string, tuple),
    _Field("priority_rank", _plain_types({int}), _check_rank,
           lambda column: np.array(column, dtype=np.int64)),
)
_MUTANT_FIELDS = (
    _Field("id", _plain_types({str}), _check_string, tuple),
    _Field("operator_id", _plain_types({str}), _check_string, list),
    _Field("exec_cost", _plain_types({int, float}), _check_number, _costs),
    _Field("killers", _plain_types({list, tuple}), _check_killers, _killer_csr),
)


def _fields(records: list, section: str, fields: tuple[_Field, ...]):
    """A section's records as one converted column per field, in file order.

    Returns (columns, malformed). malformed is None, or the CacheError of
    the first record with a missing field or a value of the wrong JSON
    type; the columns then hold only the records before it, so their
    own checks can still report an earlier record first.
    """
    try:
        columns = [list(map(itemgetter(f.name), records)) for f in fields]
        if all(f.fast(column) for f, column in zip(fields, columns)):
            return [f.convert(column) for f, column in zip(fields, columns)], None
    except (KeyError, TypeError, OverflowError):
        pass
    # Slow path: walk the records to find the first bad one, field by field.
    columns = [[] for _ in fields]
    malformed = None
    for i, record in enumerate(records):
        try:
            values = [f.check(record[f.name], f"{section}s[{i}].{f.name}") for f in fields]
        except (KeyError, TypeError, OverflowError) as exc:
            malformed = CacheError(f"malformed record: {exc}")
            break
        for column, value in zip(columns, values):
            column.append(value)
    return [f.convert(column) for f, column in zip(fields, columns)], malformed


def _not_utf8(ids: tuple[str, ...]) -> list[bool]:
    """Per id: does it hold a lone surrogate, which UTF-8 cannot encode?

    One encode of the joined ids answers for all of them (1.3 ms at
    100,000 ids, nearly all of it the join); only when it fails is each
    id encoded, with "replace" changing just what UTF-8 cannot encode.
    """
    try:
        "".join(ids).encode("utf-8")
        return []
    except UnicodeEncodeError:
        return [item.encode("utf-8", "replace").decode("utf-8") != item for item in ids]


def _check_records(section: str, ids: tuple[str, ...], checks) -> None:
    """Raise for the first record in file order failing a check.

    Within one record the empty-id test comes first, then the test that
    the id is UTF-8 text, then ``checks`` in order; each check is
    (message, per-record bools).
    """
    first = ids.index("") if "" in ids else len(ids)
    message = f"{section} with empty id"
    for text, bad in [("id must be UTF-8 text", _not_utf8(ids)), *checks]:
        hits = np.flatnonzero(bad)
        if hits.size and hits[0] < first:
            first = int(hits[0])
            message = f"{section} {ids[first]!r}: {text}"
    if first < len(ids):
        raise CacheError(message)


def _positions(ids: tuple[str, ...]) -> dict[str, int]:
    return dict(zip(ids, range(len(ids))))


def _codes(names: list[str], n_ids: int, position: dict[str, int]) -> tuple[np.ndarray, list]:
    """Each name's position among n_ids ids, with the names they lack.

    Unknown names get distinct codes from n_ids up, and are returned in
    code order, so code c names ``unknown[c - n_ids]``.
    """
    codes = np.fromiter(map(position.get, names, repeat(-1)), dtype=np.int64, count=len(names))
    unknown: dict[str, int] = {}
    if (codes < 0).any():
        codes = np.array([position[name] if name in position
                          else n_ids + unknown.setdefault(name, len(unknown))
                          for name in names], dtype=np.int64)
    return codes, list(unknown)


def _rows_with_duplicates(indptr: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per CSR row: does any code appear twice in it?"""
    n = len(indptr) - 1
    duplicated = np.zeros(n, dtype=bool)
    if codes.size:
        width = int(codes.max()) + 1
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        keys = np.sort(rows * width + codes)
        duplicated[keys[1:][keys[1:] == keys[:-1]] // width] = True
    return duplicated


def _first_duplicate(ids: tuple[str, ...]) -> str | None:
    if len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for item in ids:
        if item in seen:
            return item
        seen.add(item)
    return None


def _unknown_reference(mutants: _Mutants, n_operators: int, n_tests: int) -> CacheError | None:
    """The error for the first mutant naming an undefined operator or test."""
    op_codes, killer_codes, indptr = mutants.op_codes, mutants.killer_codes, mutants.killer_indptr
    bad = op_codes >= n_operators
    bad_killers = np.flatnonzero(killer_codes >= n_tests)
    if not (bad.any() or bad_killers.size):
        return None
    bad[np.searchsorted(indptr, bad_killers, side="right") - 1] = True
    i = int(np.flatnonzero(bad)[0])
    where = f"mutant {mutants.ids[i]!r}"
    if op_codes[i] >= n_operators:
        name = mutants.unknown_operators[op_codes[i] - n_operators]
        return CacheError(f"{where}: unknown operator {name!r}")
    j = int(bad_killers[np.searchsorted(bad_killers, indptr[i])])
    name = mutants.unknown_tests[killer_codes[j] - n_tests]
    return CacheError(f"{where}: unknown killer test {name!r}")


def _increasing(values) -> bool:
    """Is each value strictly less than the next? Such values are distinct."""
    return all(map(lt, values, values[1:]))


def _rows_increasing(indptr: np.ndarray, codes: np.ndarray) -> bool:
    """Is every CSR row of codes strictly increasing? Such a row holds no code twice."""
    opens = np.zeros(codes.size + 1, dtype=bool)
    opens[indptr] = True
    return bool(((codes[1:] > codes[:-1]) | opens[1:-1]).all())


def _ascending(ids: tuple[str, ...]) -> np.ndarray:
    """Positions of ids in ascending (code point) order."""
    return np.fromiter(sorted(range(len(ids)), key=ids.__getitem__),
                       dtype=np.int64, count=len(ids))


def _gather(column, order: np.ndarray | None):
    """column reordered to order, or column itself if order is None (already in order)."""
    if order is None:
        return column
    if isinstance(column, tuple):
        return tuple(map(column.__getitem__, order.tolist()))
    return column[order]


class _Head(NamedTuple):
    """The checked operators and tests sections, in file order."""

    operator_ids: tuple[str, ...]
    generation_cost: np.ndarray
    test_ids: tuple[str, ...]
    priority_rank: np.ndarray


class _Mutants(NamedTuple):
    """The mutants section's columns, in file order. Names the operators
    or tests do not define have codes from n_operators or n_tests up, and
    are listed in code order in unknown_operators or unknown_tests."""

    ids: tuple[str, ...]
    exec_cost: np.ndarray
    op_codes: np.ndarray       # int64 positions in operator_ids
    killer_indptr: np.ndarray  # int64 row offsets into killer_codes
    killer_codes: np.ndarray   # int64 positions in test_ids, in file order per row
    unknown_operators: list[str]
    unknown_tests: list[str]


def _head(doc: dict) -> _Head:
    """Take the operators and tests out of ``doc``, and check them."""
    (operator_ids, generation_cost), malformed = _fields(
        doc.pop("operators"), "operator", _OPERATOR_FIELDS)
    _check_records("operator", operator_ids, [
        ("generation_cost must be finite and >= 0",
         ~(np.isfinite(generation_cost) & (generation_cost >= 0)))])
    if malformed is not None:
        raise malformed

    (test_ids, priority_rank), malformed = _fields(doc.pop("tests"), "test", _TEST_FIELDS)
    _check_records("test", test_ids, [("priority_rank must be >= 0", priority_rank < 0)])
    if malformed is not None:
        raise malformed
    return _Head(operator_ids, generation_cost, test_ids, priority_rank)


def _mutant_columns(records: list, head: _Head, positions: tuple[dict, dict]):
    """(the mutant records' _Mutants, the CacheError of the first malformed
    one or None); positions are the operator and test id positions."""
    (ids, operator_names, exec_cost, (killer_indptr, killer_names)), malformed = _fields(
        records, "mutant", _MUTANT_FIELDS)
    op_codes, unknown_operators = _codes(operator_names, len(head.operator_ids), positions[0])
    killer_codes, unknown_tests = _codes(killer_names, len(head.test_ids), positions[1])
    return _Mutants(ids, exec_cost, op_codes, killer_indptr, killer_codes,
                    unknown_operators, unknown_tests), malformed


def _from_document(doc: dict) -> MutationCache:
    """Check a parsed cache document and build its columns in index order.

    Errors come in the order a record-at-a-time reading meets them: each
    section's records in file order (fields, then the record's own
    values), then empty sections, duplicate ids, duplicate ranks and
    undefined references. Each section is taken out of ``doc`` and freed
    once its columns are built. The checked file-order columns are then
    reordered once: the sections by id and rank, and the killer rows
    gathered into mutant order, each sorted by test position.

    A section already in index order skips what that order makes
    redundant; one neighbour comparison per section tells. Ids that
    ascend strictly are distinct and sorted, so they skip the duplicate
    search, the sort and the gather (for mutants, of their killer rows
    too). Ranks that ascend strictly are distinct, so they skip the rank
    set, and are their own test order. Killer rows that each ascend
    strictly in file-order test position hold no test twice, so they
    skip the duplicate-killer check; with ranks in order, that position
    is the index-order one and the rows skip their sort. Every file
    ``dumps_cache`` writes takes all of these. A section that fails its
    test takes the full check and reorder, so every error and the order
    errors come in are the same either way.
    """
    head = _head(doc)
    positions = _positions(head.operator_ids), _positions(head.test_ids)
    mutants, malformed = _mutant_columns(doc.pop("mutants"), head, positions)
    return _checked_cache(head, mutants, malformed)


def _checked_cache(head: _Head, mutants: _Mutants, malformed: CacheError | None) -> MutationCache:
    """Check the mutants, then the sections together, and reorder the
    columns into index order: the one place every producer's columns
    pass. malformed, the error of a malformed mutant record, is raised
    after the records before it are checked."""
    operator_ids, generation_cost, test_ids, priority_rank = head
    mutant_ids, exec_cost, op_codes, killer_indptr, killer_codes = mutants[:5]
    rows_increasing = _rows_increasing(killer_indptr, killer_codes)
    checks = [("exec_cost must be finite and > 0", ~(np.isfinite(exec_cost) & (exec_cost > 0)))]
    if not rows_increasing:
        checks.append(("duplicate killer test id",
                       _rows_with_duplicates(killer_indptr, killer_codes)))
    _check_records("mutant", mutant_ids, checks)
    if malformed is not None:
        raise malformed

    sections = (("operator", operator_ids), ("test", test_ids), ("mutant", mutant_ids))
    for section, ids in sections:
        if not ids:
            raise CacheError(f"cache has no {section}s")
    in_order = {section: _increasing(ids) for section, ids in sections}
    for section, ids in sections:
        duplicate = None if in_order[section] else _first_duplicate(ids)
        if duplicate is not None:
            raise CacheError(f"duplicate {section} id {duplicate!r}")
    ranks_in_order = bool((priority_rank[1:] > priority_rank[:-1]).all())
    if not ranks_in_order and len(set(priority_rank.tolist())) != priority_rank.size:
        raise CacheError("duplicate priority_rank among tests")
    unknown = _unknown_reference(mutants, len(operator_ids), len(test_ids))
    if unknown is not None:
        raise unknown

    op_order = None if in_order["operator"] else _ascending(operator_ids)
    test_order = None if ranks_in_order else np.argsort(priority_rank, kind="stable")
    mutant_order = None if in_order["mutant"] else _ascending(mutant_ids)
    if op_order is not None:
        op_codes = _inverse(op_order)[op_codes]
    if mutant_order is not None:
        killer_codes = _rows(killer_indptr, killer_codes, mutant_order)
        killer_indptr = _csr(np.diff(killer_indptr)[mutant_order])
    if test_order is not None:
        killer_codes = _inverse(test_order)[killer_codes]
    if test_order is not None or not rows_increasing:
        # One sort of (row, test) keys sorts each row and keeps rows in place.
        row_keys = np.repeat(np.arange(len(mutant_ids)) * len(test_ids), np.diff(killer_indptr))
        killer_codes = np.sort(row_keys + killer_codes) - row_keys
    return MutationCache(
        operator_ids=_gather(operator_ids, op_order),
        generation_cost=_gather(generation_cost, op_order),
        test_ids=_gather(test_ids, test_order),
        priority_rank=_gather(priority_rank, test_order),
        mutant_ids=_gather(mutant_ids, mutant_order),
        mutant_operator=_gather(op_codes, mutant_order).astype(np.int32),
        exec_cost=_gather(exec_cost, mutant_order),
        killer_indptr=killer_indptr,
        killer_tests=killer_codes.astype(np.int32),
    )


# ----- chunked reading -----

# The characters of mutant records parsed at a time. Peak RSS after two
# loads of a 100,000-mutant, 12 MB cache in a fresh process, and the CPU
# time of one load (medians of 7; 2-vCPU Xeon, Python 3.11.7, numpy
# 2.4.6): the whole document took 106.8 MB and 301 ms; chunks of 16 KiB
# 61.1 MB and 271 ms, 128 KiB 60.6 MB and 212 ms, 1 MiB 63.6 MB and
# 255 ms, and 4 MiB 80.7 MB and 278 ms.
CHUNK_CHARS = 128 * 1024

# dumps_cache's layout: keys sorted, so the mutants array opens the text,
# and an indent of one, so each record opens and closes on its own line.
_LAYOUT_OPEN = '{\n "mutants": ['
_LAYOUT_CLOSE = '\n ],\n "operators": ['
_RECORD_BREAK = '\n  },\n  {'


def _chunked_sections(text: str) -> tuple[_Head, _Mutants] | None:
    """A text in ``dumps_cache``'s layout, read a chunk of mutant records
    at a time, or None for the whole-document path to read.

    The text must open with the mutants array, which ends at the first
    ``_LAYOUT_CLOSE``. The rest of the text, with that array emptied, is
    parsed once; its top level must hold exactly the three sections, each
    once. A JSON string holds no raw newline, so a chunk cut at a
    ``_RECORD_BREAK`` parses only if the cut fell between two records,
    and the chunks then parse to the records the whole array does. Names
    become codes a chunk at a time, so no name string outlives its chunk.

    None too for anything irregular: no ``_LAYOUT_CLOSE`` (as for an empty
    array), a parse error, a repeated key, a malformed record, a name the
    operators or tests do not define, or an operator or test the checks
    refuse. The whole-document path then raises every error.
    """
    start = len(_LAYOUT_OPEN)
    end = text.find(_LAYOUT_CLOSE, start)
    if not text.startswith(_LAYOUT_OPEN) or end < 0:
        return None
    try:
        rest = json.loads(text[:start] + text[end:], object_pairs_hook=_unique_keys)
        if (rest.keys() != {"mutants", "operators", "tests"}
                or not isinstance(rest["operators"], list) or not isinstance(rest["tests"], list)):
            return None
        head = _head(rest)
        positions = _positions(head.operator_ids), _positions(head.test_ids)
        chunks = []
        for piece in _pieces(text, start, end):
            mutants, malformed = _mutant_columns(json.loads("[" + piece + "]"), head, positions)
            if malformed is not None or mutants.unknown_operators or mutants.unknown_tests:
                return None
            chunks.append(mutants)
    except (ValueError, RecursionError):  # JSON errors and CacheError are ValueErrors
        return None
    return head, _Mutants(
        ids=tuple(chain.from_iterable(chunk.ids for chunk in chunks)),
        exec_cost=np.concatenate([chunk.exec_cost for chunk in chunks]),
        op_codes=np.concatenate([chunk.op_codes for chunk in chunks]),
        killer_indptr=_csr(np.concatenate([np.diff(chunk.killer_indptr) for chunk in chunks])),
        killer_codes=np.concatenate([chunk.killer_codes for chunk in chunks]),
        unknown_operators=[], unknown_tests=[])


def _unique_keys(pairs: list) -> dict:
    """An object_pairs_hook refusing an object that repeats a key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("repeated key")
    return obj


def _pieces(text: str, start: int, end: int) -> Iterator[str]:
    """The records text[start:end], cut at the first ``_RECORD_BREAK`` past
    every CHUNK_CHARS characters; the comma between the two records at a
    cut is left out."""
    comma = _RECORD_BREAK.index(",")
    while (cut := text.find(_RECORD_BREAK, start + CHUNK_CHARS, end)) >= 0:
        yield text[start:cut + comma]
        start = cut + comma + 1
    yield text[start:end]


# ===== CSV kill-matrix import =====

_MATRIX_COLUMNS = ("mutant_id", "operator_id", "exec_cost", "killed_by")


def unreadable_line(reader, exc: csv.Error | UnicodeDecodeError) -> str:
    """Where and why a csv.reader over a UTF-8 text file stopped. A
    csv.Error, such as a cell past csv's field limit, comes from the line
    the reader just read. A UnicodeDecodeError comes from decoding the next
    line, a chunk at a time, so the bad byte is on that line or in the
    8 KB after it."""
    if isinstance(exc, UnicodeDecodeError):
        return f"line {reader.line_num + 1}: cannot decode UTF-8 at or after it ({exc.reason})"
    return f"line {reader.line_num}: {exc}"


def read_kill_matrix_csv(path: str | Path) -> MutationCache:
    """Import a kill-matrix CSV into a cache.

    Expected columns: mutant_id, operator_id, exec_cost, killed_by, where
    exec_cost is a real (``numerals.read_real``: a JSON number inside the
    float range) and killed_by lists the killing test ids
    separated by ';' (empty for surviving mutants). A UTF-8 byte-order
    mark may open the file. Operators and tests are inferred: operators
    get generation cost 0 (the CSV carries none), and tests are ranked by
    ascending id.

    Lines are read as ``csv.DictReader`` reads them: the first is the
    header, a repeated column name takes its last position, blank rows
    are skipped and extra cells ignored. Each row goes straight into
    file-order columns, its operator and killer names coded in first-seen
    order. Once the file is read, the first of these raises: a line csv
    or UTF-8 cannot read, no rows, a row missing a cell, no killing test,
    a bad exec_cost, an empty operator id; then ``_checked_cache`` checks
    and reorders the columns as it does a cache file's.
    """
    ids, operator_codes, exec_cost, killer_counts, killer_codes = [], [], [], [], []
    operators: dict[str, int] = {}
    tests: dict[str, int] = {}
    short_row = bad_cost = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or not set(_MATRIX_COLUMNS).issubset(header):
                raise CacheError(f"kill-matrix CSV must have columns "
                                 f"{sorted(_MATRIX_COLUMNS)}, got {header}")
            last = {name: i for i, name in enumerate(header)}
            at = [last[name] for name in _MATRIX_COLUMNS]
            width = max(at) + 1
            for row in reader:
                if short_row is not None or not row:
                    continue
                if len(row) < width:
                    short_row = row
                    continue
                mutant, operator, cost, killed_by = map(row.__getitem__, at)
                ids.append(mutant)
                operator_codes.append(operators.setdefault(operator, len(operators)))
                try:
                    exec_cost.append(read_real(cost, "exec_cost"))
                except ValueError:
                    exec_cost.append(math.nan)
                    bad_cost = mutant if bad_cost is None else bad_cost
                names = [name for name in killed_by.split(";") if name]
                killer_counts.append(len(names))
                killer_codes.extend([tests.setdefault(name, len(tests)) for name in names])
        except (csv.Error, UnicodeDecodeError) as exc:
            raise CacheError(f"kill-matrix CSV {path}, {unreadable_line(reader, exc)}") from exc
    if short_row is not None:
        missing = next(name for name, i in zip(_MATRIX_COLUMNS, at) if i >= len(short_row))
        mutant = short_row[at[0]] if at[0] < len(short_row) else None
        raise CacheError(f"mutant {mutant!r}: row has no {missing} cell")
    if not ids:
        raise CacheError("kill-matrix CSV has no rows")
    if not tests:
        raise CacheError("kill-matrix CSV defines no killing tests")
    if bad_cost is not None:
        raise CacheError(f"mutant {bad_cost!r}: bad exec_cost")
    operator_ids, test_ids = tuple(operators), tuple(tests)
    _check_records("operator", operator_ids, [])
    head = _Head(operator_ids, np.zeros(len(operator_ids)),
                 test_ids, _inverse(_ascending(test_ids)).astype(np.int64))
    mutants = _Mutants(tuple(ids), _costs(exec_cost), np.array(operator_codes, dtype=np.int64),
                       _csr(np.array(killer_counts, dtype=np.int64)),
                       np.array(killer_codes, dtype=np.int64), [], [])
    return _checked_cache(head, mutants, None)


# ===== Synthetic caches =====

# Upper bounds on synth_cache's sizes. A cache holds positions as int32,
# and n_tests itself as the int32 first-killer sentinel, so no count may
# pass 2**31 - 1; each bound below is tighter, where a build still fits in
# memory and time (measured on 2 vCPUs).
# Each operator takes a Python-level pass over every mutant's owner, so
# the time grows with operators x mutants: 1,000 x 10**6 took 12 s.
MAX_SYNTH_OPERATORS = 1_000
# Ten times kill-large's cache: 30 x 10**6 x 1,000 took 10 s and held
# 275 MB, and saving it peaked at 1.5 GB for a 123 MB file.
MAX_SYNTH_MUTANTS = 1_000_000
# Each test holds an id string: 10**6 tests held 72 MB and a 56 MB file.
MAX_SYNTH_TESTS = 1_000_000


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

    The columns are drawn already in index order: ids are distinct and
    ascending, each test's rank is its position, killer rows are sorted,
    and every reference is in range. ``_checked_cache`` checks them as it
    does a loaded cache's, and finds nothing to reorder.
    """
    if n_operators < 1 or n_mutants < 1 or n_tests < 1:
        raise ValueError("n_operators, n_mutants and n_tests must all be >= 1")
    for name, count, bound in (("n_operators", n_operators, MAX_SYNTH_OPERATORS),
                               ("n_mutants", n_mutants, MAX_SYNTH_MUTANTS),
                               ("n_tests", n_tests, MAX_SYNTH_TESTS)):
        if count > bound:
            raise ValueError(f"{name} must be <= {bound}")
    if not 0 < kill_density <= 1:
        raise ValueError("kill_density must be in (0, 1]")
    if not (math.isfinite(cost_skew) and cost_skew >= 1):
        raise ValueError("cost_skew must be finite and >= 1")
    if not 0 <= redundancy <= 1:
        raise ValueError("redundancy must be in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=(int(seed), n_operators, n_mutants, n_tests)))

    op_width = max(2, len(str(n_operators - 1)))
    mut_width = max(2, len(str(n_mutants - 1)))
    test_width = max(2, len(str(n_tests - 1)))

    generation_cost = np.array([rng.uniform(0.5, 5.0) for _ in range(n_operators)])
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
    killers_of = [np.empty(0, dtype=np.int32)] * n_mutants
    for op in range(n_operators):
        members = np.flatnonzero((owner == op) & killable)
        if not members.size:
            continue
        pool_size = max(1, round((1.0 - redundancy) * members.size))
        pool = []
        for _ in range(pool_size):
            size = 1 + min(rng.geometric(0.45) - 1, n_tests - 1)
            pool.append(np.sort(rng.choice(n_tests, size=size, replace=False)).astype(np.int32))
        assignment = rng.integers(0, pool_size, size=members.size)
        for mutant, slot in zip(members.tolist(), assignment.tolist()):
            killers_of[mutant] = pool[slot]

    head = _Head(tuple(f"op{i:0{op_width}d}" for i in range(n_operators)),
                 _quantize(generation_cost),
                 tuple(f"t{i:0{test_width}d}" for i in range(n_tests)),
                 np.arange(n_tests, dtype=np.int64))
    mutants = _Mutants(tuple(f"m{i:0{mut_width}d}" for i in range(n_mutants)),
                       _quantize(exec_costs), owner,
                       _csr(np.fromiter(map(len, killers_of), dtype=np.int64, count=n_mutants)),
                       np.concatenate(killers_of), [], [])
    return _checked_cache(head, mutants, None)
