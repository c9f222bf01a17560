"""Reduction strategies: executable pipelines over a mutation cache.

A strategy is an ordered pipeline of operations. It starts from the full
operator pool and an empty mutant pool; ExecuteOperators moves operators
from the pool into the executed set and adds their mutants to the mutant
pool. A Select step shrinks either pool, retaining or discarding a
random selection of it (four phrases: Retain or Discard, Operators or
Mutants); a group pipeline partitions the mutant pool by operator, reorders
or drops groups, samples each remaining group, and flattens the result
back into the pool. DiscardHighestYield drops the operators with the
most mutants; the grammar never emits it, it exists so the selective
mutation baseline runs on this VM like any other strategy.

Pools are canonical sorted index arrays. The draw contract, implemented
by ``_mark`` alone: every random selection of k from a pool is one
``Generator.choice`` of k distinct positions in the sorted pool, turned
into a keep-mask over it; selecting the whole pool or nothing draws
nothing. Draws happen in node order and, inside a group pipeline, in
group order after reordering.
Percentage counts round half away from zero (computed in exact integer
arithmetic); quantity counts clip to the pool size. Ties never occur
because pools are index sets.

The VM runs a batch: one row per generator, each row one run of the
strategy, so that the repetitions of an evaluation (or of several
evaluations of one strategy) share one pass. The operator pools form a
(rows x size) int32 matrix, since selection counts depend only on pool
sizes and so every row's pool has the same size at every node; the
executed operators form a (rows x n_operators) mask; the
mutant pools, whose sizes differ, are the rows' sorted pools
concatenated, cut by rows + 1 bounds. At a drawing node the rows draw in
row order, each from its own generator (inside a group pipeline, in its
own group order), so each generator makes the calls a lone run would
make; a single run is a batch of one row.

The executed operators pay their generation cost once; the mutants left
in the final pool pay their execution cost. Mutants that were generated
and later discarded cost nothing extra: their generation is already part
of the owning operator's cost.

Text and tokens share one reader. strategy_from_tokens builds a strategy
from the terminal tokens of a grammar derivation. parse_strategy reads
render's text by cutting each arrow-separated phrase into its head and
argument words, restoring the grammar's spelling of those words, and
handing the tokens to strategy_from_tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Iterable, Iterator, Literal, Sequence, Union

import numpy as np

from . import genome
from .cache import MutationCache
from .index import build_index


class StrategyParseError(ValueError):
    """Raised when token streams or rendered text do not form a strategy."""


@dataclass(frozen=True)
class Selection:
    """Random selection of part of a pool, by percentage or by count."""

    kind: Literal["percentage", "quantity"]
    value: int  # percent in 0..100 or quantity >= 0

    def __post_init__(self) -> None:
        if self.kind not in ("percentage", "quantity"):
            raise ValueError(f"bad selection kind {self.kind!r}")
        if self.value < 0:
            raise ValueError("selection value must be >= 0")
        if self.kind == "percentage" and self.value > 100:
            raise ValueError("selection percentage must be <= 100")

    def count(self, pool_size: int) -> int:
        if self.kind == "percentage":
            return (self.value * pool_size + 50) // 100
        return min(self.value, pool_size)

    def render(self) -> str:
        suffix = "%" if self.kind == "percentage" else ""
        return f"random {self.value}{suffix}"


@dataclass(frozen=True)
class Select:
    """Retain (``keep``) or discard a random selection of the operator or
    mutant pool."""

    pool: Literal["operators", "mutants"]
    keep: bool
    selection: Selection

    def __post_init__(self) -> None:
        if self.pool not in ("operators", "mutants"):
            raise ValueError(f"bad pool {self.pool!r}")

    def render(self) -> str:
        verb = "Retain" if self.keep else "Discard"
        return f"{verb} {self.pool.capitalize()} {self.selection.render()}"


@dataclass(frozen=True)
class DiscardHighestYield:
    """Drop the ``count`` operators with the most mutants from the pool,
    ties by ascending operator index (ascending id). Draws nothing."""

    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("operator count must be >= 0")

    def render(self) -> str:
        return f"Discard Operators highest-yield {self.count}"


@dataclass(frozen=True)
class ExecuteOperators:
    selection: Selection

    def render(self) -> str:
        suffix = "%" if self.selection.kind == "percentage" else ""
        return f"Execute Operators {self.selection.value}{suffix}"


@dataclass(frozen=True)
class OrderGroupsBySize:
    descending: bool

    def render(self) -> str:
        return f"Order Groups by Size {'descending' if self.descending else 'ascending'}"


@dataclass(frozen=True)
class TakeGroups:
    edge: Literal["first", "last"]
    count: int
    keep: bool

    def __post_init__(self) -> None:
        if self.edge not in ("first", "last"):
            raise ValueError(f"bad edge {self.edge!r}")
        if self.count < 0:
            raise ValueError("group count must be >= 0")

    def render(self) -> str:
        verb = "Retain" if self.keep else "Discard"
        return f"{verb} Groups {self.edge} {self.count}"


GroupOperation = Union[OrderGroupsBySize, TakeGroups]


@dataclass(frozen=True)
class GroupPipeline:
    """Group mutants by operator, transform the group list, sample each
    remaining group, then flatten back into the mutant pool."""

    operations: tuple[GroupOperation, ...]
    sample: Selection

    def render(self) -> str:
        return " → ".join(["Group Mutants by Operator",
                           *(op.render() for op in self.operations),
                           f"Sample Each Group {self.sample.render()}"])


Operation = Union[Select, ExecuteOperators, GroupPipeline, DiscardHighestYield]


@dataclass(frozen=True)
class Strategy:
    nodes: tuple[Operation, ...]


@dataclass(frozen=True)
class ReductionRun:
    """Outcome of executing a strategy once against a cache."""

    operator_ids: tuple[str, ...]
    mutant_ids: tuple[str, ...]
    strategy_cost: float


def render(strategy: Strategy) -> str:
    """The operations' phrases joined by arrows; parse_strategy inverts it."""
    return " → ".join(node.render() for node in strategy.nodes)


# ===== Execution =====
# A drawing node draws row by row; the rest of a node runs once for all
# rows, except where a large cache makes each row pay for what it keeps.
# Masks are applied with compress and index arrays with take: the same
# elements as boolean or fancy indexing, several times faster on small
# pools.

# Below this many mutants, an Execute always takes the membership pass:
# joining operator spans cost 18 against 9 us per call at 600 mutants, and
# broke even near 10,000.
SPANS_MIN_MUTANTS = 8192


def _mark(keep: np.ndarray, k: int, rng: np.random.Generator) -> None:
    """The draw rule: mark k positions of ``keep``, a keep-mask over one
    sorted pool. k >= the pool size marks all of them and k = 0 none,
    without drawing; otherwise ``rng.choice(len(keep), k, replace=False)``
    picks them."""
    if k >= keep.size:
        keep[:] = True
    elif k:
        keep[rng.choice(keep.size, size=k, replace=False)] = True


def _split_operators(op_pool: np.ndarray, selection: Selection,
                     rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """(selected, rest) of an operator pool matrix; each row keeps its order."""
    rows, size = op_pool.shape
    k = selection.count(size)
    if k >= size:
        return op_pool, op_pool[:, :0]
    if k == 0:
        return op_pool[:, :0], op_pool
    keep = np.zeros(op_pool.shape, dtype=bool)
    for row, rng in zip(keep, rngs):
        _mark(row, k, rng)
    return op_pool[keep].reshape(rows, k), op_pool[~keep].reshape(rows, size - k)


def _select_mutants(pool: np.ndarray, bounds: list[int], selection: Selection, keep: bool,
                    rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, list[int]]:
    """Retain (``keep``) or discard the selection's count of each row's mutant pool."""
    picked = np.zeros(pool.size, dtype=bool)
    sizes = []
    for lo, hi, rng in zip(bounds, bounds[1:], rngs):
        k = selection.count(hi - lo)
        _mark(picked[lo:hi], k, rng)
        sizes.append(k if keep else hi - lo - k)
    return pool.compress(picked if keep else ~picked), list(accumulate(sizes, initial=0))


def _add_mutants(pool: np.ndarray, bounds: list[int], chosen: np.ndarray,
                 owned: np.ndarray, cache: MutationCache) -> tuple[np.ndarray, list[int]]:
    """Each row's mutant pool joined with the mutants of its chosen
    operators (``chosen`` as a rows x k matrix, ``owned`` as a rows x
    n_operators mask). An Execute that finds every pool empty on a large
    cache goes row by row, so that each row pays only for what it
    chooses; any other takes one membership pass for all rows, which also
    merges the pools the rows hold."""
    if not pool.size and cache.n_mutants >= SPANS_MIN_MUTANTS:
        rows = [cache.mutants_of_operators(ops) for ops in chosen]
        return np.concatenate(rows), list(accumulate(map(len, rows), initial=0))
    member = owned.take(cache.mutant_operator, axis=1)
    if pool.size:
        for row, lo, hi in zip(member, bounds, bounds[1:]):
            row[pool[lo:hi]] = True
    positions = np.empty(member.shape, dtype=np.int32)
    positions[:] = np.arange(cache.n_mutants, dtype=np.int32)
    sizes = member.sum(axis=1).tolist()
    return positions.compress(member.ravel()), list(accumulate(sizes, initial=0))


def _run_group_pipeline(pipeline: GroupPipeline, pool: np.ndarray, bounds: list[int],
                        cache: MutationCache,
                        rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, list[int]]:
    # Positions grouped by row, then by ascending operator index, ascending
    # within a group: one stable sort of row * n_operators + owner, in the
    # narrowest unsigned dtype, so that it is a radix sort. Each group is a
    # (start, size) span of that order. Later reorderings are stable, so
    # equal-sized groups keep operator order.
    width = cache.n_operators
    key_type = np.min_scalar_type(len(rngs) * width - 1)
    key = np.repeat(np.arange(0, len(rngs) * width, width, dtype=key_type),
                    np.diff(bounds))
    key += cache.owner_codes.take(pool)
    order = np.argsort(key, kind="stable")
    all_sizes = np.bincount(key, minlength=len(rngs) * width).reshape(len(rngs), width)
    kept = np.zeros(pool.size, dtype=bool)  # over positions of order
    row_sizes = []
    for lo, sizes, rng in zip(bounds, all_sizes.tolist(), rngs):
        groups = [g for g in zip(accumulate(sizes, initial=lo), sizes) if g[1]]
        for op in pipeline.operations:
            if isinstance(op, OrderGroupsBySize):
                groups.sort(key=(lambda g: -g[1]) if op.descending else (lambda g: g[1]))
            else:  # TakeGroups: keep or drop a head or tail segment
                n = len(groups)
                cut = min(op.count, n) if op.edge == "first" else max(n - op.count, 0)
                head, tail = groups[:cut], groups[cut:]
                groups = head if op.keep == (op.edge == "first") else tail
        row_size = 0
        for start, size in groups:
            k = pipeline.sample.count(size)
            _mark(kept[start:start + size], k, rng)
            row_size += k
        row_sizes.append(row_size)
    keep = np.zeros(pool.size, dtype=bool)
    keep[order.compress(kept)] = True
    return pool.compress(keep), list(accumulate(row_sizes, initial=0))


def execute_indexed(
    strategy: Strategy,
    cache: MutationCache,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, list[int], list[float]]:
    """Hot path: run a strategy once per generator in ``rngs``, as the rows
    of one batch. Returns (executed operators as a rows x n_operators
    bool mask, the rows' reduced mutant pools concatenated, the rows'
    bounds in that concatenation, each row's strategy cost)."""
    n_rows = len(rngs)
    op_pool = np.empty((n_rows, cache.n_operators), dtype=np.int32)
    op_pool[:] = np.arange(cache.n_operators, dtype=np.int32)
    executed = np.zeros(op_pool.shape, dtype=bool)
    pool = np.empty(0, dtype=np.int32)
    bounds = [0] * (n_rows + 1)
    for node in strategy.nodes:
        if isinstance(node, ExecuteOperators):
            chosen, op_pool = _split_operators(op_pool, node.selection, rngs)
            if chosen.size:
                owned = np.zeros(executed.shape, dtype=bool)
                owned[np.arange(n_rows)[:, None], chosen] = True
                executed |= owned
                pool, bounds = _add_mutants(pool, bounds, chosen, owned, cache)
        elif isinstance(node, Select) and node.pool == "operators":
            op_pool = _split_operators(op_pool, node.selection, rngs)[not node.keep]
        elif isinstance(node, Select):
            pool, bounds = _select_mutants(pool, bounds, node.selection, node.keep, rngs)
        elif isinstance(node, GroupPipeline):
            pool, bounds = _run_group_pipeline(node, pool, bounds, cache, rngs)
        elif isinstance(node, DiscardHighestYield):
            yields = np.diff(cache.op_indptr).take(op_pool)
            keep = np.ones(op_pool.shape, dtype=bool)
            np.put_along_axis(keep, np.argsort(-yields, axis=1, kind="stable")[:, :node.count],
                              False, axis=1)
            op_pool = op_pool[keep].reshape(n_rows, -1)
        else:
            raise TypeError(f"unknown strategy node {node!r}")
    costs = [float(cache.generation_cost.compress(row).sum())
             + float(cache.exec_cost.take(pool[lo:hi]).sum())
             for row, lo, hi in zip(executed, bounds, bounds[1:])]
    return executed, pool, bounds, costs


def execute(
    strategy: Strategy,
    cache: MutationCache,
    rng: np.random.Generator,
) -> ReductionRun:
    """Run a strategy against a cache once: a batch of one row.

    The reduced mutant set is always a subset of the mutants generated by
    the executed operators; a strategy with no ExecuteOperators step (or
    one that executes nothing) yields an empty set at zero cost.
    """
    cache = build_index(cache)
    executed, mutant_pool, _, costs = execute_indexed(strategy, cache, [rng])
    return ReductionRun(
        operator_ids=tuple(cache.operator_ids[o] for o in executed[0].nonzero()[0]),
        mutant_ids=tuple(cache.mutant_ids[m] for m in mutant_pool),
        strategy_cost=costs[0],
    )


# ===== Reading strategies: grammar tokens and rendered text =====

# Heads followed by a selection, each with the node it builds from it.
_SELECTION_HEADS = {"Execute Operators": ExecuteOperators} | {
    f"{verb} {pool.capitalize()}": partial(Select, pool, verb == "Retain")
    for verb in ("Retain", "Discard") for pool in ("operators", "mutants")}
_HEADS = {*_SELECTION_HEADS, "Group Mutants by Operator", "Order Groups by Size",
          "Retain Groups", "Discard Groups", "Sample Each Group"}
# Argument words that rendered text spells in lower case.
_GRAMMAR_SPELLING = {"random": "Random", "first": "First", "last": "Last",
                     "ascending": "Ascending", "descending": "Descending"}


def _next(stream: Iterator[str], context: str) -> str:
    token = next(stream, None)
    if token is None:
        raise StrategyParseError(f"unexpected end of tokens while reading {context}")
    return token


def _count(token: str, what: str) -> int:
    if not token.isdecimal():
        raise StrategyParseError(f"bad {what} {token!r}")
    return int(token)


def _selection(method: str, amount: str, context: str) -> Selection:
    if method != "Random":
        raise StrategyParseError(f"expected 'Random' in {context}, got {method!r}")
    if amount.endswith("%"):
        percent = _count(amount[:-1], f"{context} percentage")
        if percent > 100:
            raise StrategyParseError(f"{context} percentage {amount!r} is above 100%")
        return Selection("percentage", percent)
    return Selection("quantity", _count(amount, f"{context} quantity"))


def strategy_from_tokens(tokens: Iterable[str]) -> Strategy:
    """Assemble a strategy from the terminal tokens of a grammar derivation,
    plus the VM-only ``Discard Operators highest-yield n``."""
    stream = iter(tokens)
    nodes: list[Operation] = []
    for head in stream:
        if head in _SELECTION_HEADS:
            method = _next(stream, head)
            if method == "highest-yield" and head == "Discard Operators":
                nodes.append(DiscardHighestYield(_count(_next(stream, head), "operator count")))
            else:
                nodes.append(_SELECTION_HEADS[head](_selection(method, _next(stream, head), head)))
        elif head == "Group Mutants by Operator":
            operations: list[GroupOperation] = []
            while (token := _next(stream, "group pipeline")) != "Sample Each Group":
                if token == "Order Groups by Size":
                    direction = _next(stream, token)
                    if direction not in ("Ascending", "Descending"):
                        raise StrategyParseError(f"bad direction {direction!r}")
                    operations.append(OrderGroupsBySize(descending=direction == "Descending"))
                elif token in ("Retain Groups", "Discard Groups"):
                    edge = _next(stream, token)
                    if edge not in ("First", "Last"):
                        raise StrategyParseError(f"bad edge {edge!r}")
                    operations.append(TakeGroups(
                        edge=edge.lower(),  # type: ignore[arg-type]
                        count=_count(_next(stream, token), "group count"),
                        keep=token == "Retain Groups",
                    ))
                else:
                    raise StrategyParseError(f"unexpected token {token!r} in group pipeline")
            sample = _selection(_next(stream, token), _next(stream, token), token)
            nodes.append(GroupPipeline(operations=tuple(operations), sample=sample))
        else:
            raise StrategyParseError(f"unexpected token {head!r}")
    return Strategy(nodes=tuple(nodes))


def _phrase_tokens(phrase: str) -> list[str]:
    """The grammar tokens of one rendered phrase: its head, then its
    argument words in the grammar's spelling. Execute Operators text leaves
    out the Random of its selection; it is put back."""
    words = phrase.split(" ")
    for n in (2, 3, 4):  # heads are two to four words; none begins another
        head = " ".join(words[:n])
        if head in _HEADS:
            break
    else:
        raise StrategyParseError(f"unparseable strategy phrase {phrase!r}")
    args = words[n:]
    if any(word != word.lower() for word in args):
        raise StrategyParseError(f"argument words are lower case in {phrase!r}")
    tokens = [head, "Random"] if head == "Execute Operators" else [head]
    tokens.extend(_GRAMMAR_SPELLING.get(word, word) for word in args)
    return tokens


def parse_strategy(text: str) -> Strategy:
    """Inverse of render: arrow-joined phrases, read as grammar tokens."""
    # Phrase ends need no check of their own: heads are several words and
    # arguments one, so a phrase with a word too few or too many leaves a
    # head where the builder wants an argument, or the reverse.
    tokens: list[str] = []
    for phrase in re.split(r"→|->", text):
        tokens += _phrase_tokens(phrase.strip())
    return strategy_from_tokens(tokens)


def strategy_from_chromosome(chromosome, grammar,
                             max_wraps: int = genome.MAX_WRAPS) -> Strategy | None:
    """Map a chromosome and build its strategy; None if the mapping fails."""
    result = genome.map_chromosome(chromosome, grammar, max_wraps)
    return strategy_from_tokens(result.tokens) if result.mapped else None
