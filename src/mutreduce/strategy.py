"""Reduction strategies: executable pipelines over a mutation cache.

A strategy is an ordered pipeline of operations. It starts from the full
operator pool and an empty mutant pool; ExecuteOperators moves operators
from the pool into the executed set and adds their mutants to the mutant
pool. Operator-level and mutant-level retain/discard steps shrink the
pools; a group pipeline partitions the mutant pool by operator, reorders
or drops groups, samples each remaining group, and flattens the result
back into the pool. DiscardHighestYield drops the operators with the
most mutants; the grammar never emits it, it exists so the selective
mutation baseline runs on this VM like any other strategy.

Pools are canonical sorted index arrays. The draw contract: every random
selection of k from a pool is one ``rng.choice(len(pool), k,
replace=False)`` over positions in the sorted pool, turned into a keep-mask
over it; selecting the whole pool or nothing draws nothing. Draws happen in
node order and, inside a group pipeline, in group order after reordering.
Percentage counts round half away from zero (computed in exact integer
arithmetic); quantity counts clip to the pool size. Ties never occur
because pools are index sets.

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
from itertools import accumulate
from typing import Iterable, Iterator, Literal, Union

import numpy as np

from . import genome
from .cache import MutationCache
from .index import CacheIndex, build_index


class StrategyParseError(ValueError):
    """Raised when token streams or rendered text do not form a strategy."""


@dataclass(frozen=True)
class Selection:
    """Random selection of part of a pool, by percentage or by count."""

    kind: Literal["percentage", "quantity"]
    value: int  # percent in 10..100 or quantity >= 0

    def __post_init__(self) -> None:
        if self.kind not in ("percentage", "quantity"):
            raise ValueError(f"bad selection kind {self.kind!r}")
        if self.value < 0:
            raise ValueError("selection value must be >= 0")

    def count(self, pool_size: int) -> int:
        if self.kind == "percentage":
            return (self.value * pool_size + 50) // 100
        return min(self.value, pool_size)

    def render(self) -> str:
        suffix = "%" if self.kind == "percentage" else ""
        return f"random {self.value}{suffix}"


@dataclass(frozen=True)
class RetainOperators:
    selection: Selection

    def render(self) -> str:
        return f"Retain Operators {self.selection.render()}"


@dataclass(frozen=True)
class DiscardOperators:
    selection: Selection

    def render(self) -> str:
        return f"Discard Operators {self.selection.render()}"


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
class RetainMutants:
    selection: Selection

    def render(self) -> str:
        return f"Retain Mutants {self.selection.render()}"


@dataclass(frozen=True)
class DiscardMutants:
    selection: Selection

    def render(self) -> str:
        return f"Discard Mutants {self.selection.render()}"


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

    def render_parts(self) -> list[str]:
        parts = ["Group Mutants by Operator"]
        parts.extend(op.render() for op in self.operations)
        parts.append(f"Sample Each Group {self.sample.render()}")
        return parts


Operation = Union[
    RetainOperators, DiscardOperators, ExecuteOperators,
    RetainMutants, DiscardMutants, GroupPipeline, DiscardHighestYield,
]


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
    """One phrase per operation, joined by arrows; parse_strategy inverts it."""
    parts: list[str] = []
    for node in strategy.nodes:
        if isinstance(node, GroupPipeline):
            parts.extend(node.render_parts())
        else:
            parts.append(node.render())
    return " → ".join(parts)


# ===== Execution =====
# Masks are applied with compress and index arrays with take: the same
# elements as boolean or fancy indexing, several times faster on draws.

def _pick(size: int, selection: Selection, rng: np.random.Generator) -> np.ndarray:
    """Keep-mask over a sorted pool of ``size``: the selection's count of
    positions, drawn as one ``rng.choice(size, k, replace=False)``."""
    k = selection.count(size)
    if k >= size:
        return np.ones(size, dtype=bool)
    mask = np.zeros(size, dtype=bool)
    if k > 0:
        mask[rng.choice(size, size=k, replace=False)] = True
    return mask


def _union(pool: np.ndarray, added: np.ndarray, n: int) -> np.ndarray:
    """Sorted union of two sorted index pools over range(n), without a sort."""
    if not pool.size:
        return added
    member = np.zeros(n, dtype=bool)
    member[pool] = member[added] = True
    return member.nonzero()[0].astype(np.int32)


def _run_group_pipeline(pipeline: GroupPipeline, mutant_pool: np.ndarray,
                        index: CacheIndex, rng: np.random.Generator) -> np.ndarray:
    owners = index.mutant_operator.take(mutant_pool)
    # Pool positions grouped by ascending operator index, ascending within a
    # group; each group is a (start, size) span of them. Later reorderings
    # are stable, so equal-sized groups keep operator order.
    order = np.argsort(owners, kind="stable")
    sizes = np.bincount(owners).tolist()
    groups = [g for g in zip(accumulate(sizes, initial=0), sizes) if g[1]]
    for op in pipeline.operations:
        if isinstance(op, OrderGroupsBySize):
            groups.sort(key=(lambda g: -g[1]) if op.descending else (lambda g: g[1]))
        else:  # TakeGroups: keep or drop a head or tail segment
            n = len(groups)
            cut = min(op.count, n) if op.edge == "first" else max(n - op.count, 0)
            head, tail = groups[:cut], groups[cut:]
            groups = head if op.keep == (op.edge == "first") else tail
    keep = np.zeros(mutant_pool.size, dtype=bool)
    for start, size in groups:
        span = order[start:start + size]
        keep[span.compress(_pick(size, pipeline.sample, rng))] = True
    return mutant_pool.compress(keep)


def execute_indexed(
    strategy: Strategy,
    index: CacheIndex,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Hot path: run a strategy, returning (executed operator indices,
    reduced mutant indices, strategy cost)."""
    op_pool = np.arange(index.n_operators, dtype=np.int32)
    executed = op_pool[:0]
    mutant_pool = np.empty(0, dtype=np.int32)
    for node in strategy.nodes:
        if isinstance(node, ExecuteOperators):
            keep = _pick(op_pool.size, node.selection, rng)
            chosen, op_pool = op_pool.compress(keep), op_pool.compress(~keep)
            if chosen.size:
                executed = _union(executed, chosen, index.n_operators)
                mutant_pool = _union(mutant_pool, index.mutants_of_operators(chosen),
                                     index.n_mutants)
        elif isinstance(node, RetainOperators):
            op_pool = op_pool.compress(_pick(op_pool.size, node.selection, rng))
        elif isinstance(node, DiscardOperators):
            op_pool = op_pool.compress(~_pick(op_pool.size, node.selection, rng))
        elif isinstance(node, RetainMutants):
            mutant_pool = mutant_pool.compress(_pick(mutant_pool.size, node.selection, rng))
        elif isinstance(node, DiscardMutants):
            mutant_pool = mutant_pool.compress(~_pick(mutant_pool.size, node.selection, rng))
        elif isinstance(node, GroupPipeline):
            mutant_pool = _run_group_pipeline(node, mutant_pool, index, rng)
        elif isinstance(node, DiscardHighestYield):
            yields = np.diff(index.op_indptr)[op_pool]
            keep = np.ones(op_pool.size, dtype=bool)
            keep[np.argsort(-yields, kind="stable")[:node.count]] = False
            op_pool = op_pool.compress(keep)
        else:
            raise TypeError(f"unknown strategy node {node!r}")
    cost = 0.0
    if executed.size:
        cost += float(index.op_generation_cost.take(executed).sum())
    if mutant_pool.size:
        cost += float(index.mutant_exec_cost.take(mutant_pool).sum())
    return executed, mutant_pool, cost


def execute(
    strategy: Strategy,
    cache: MutationCache | CacheIndex,
    rng: np.random.Generator,
) -> ReductionRun:
    """Run a strategy against a cache once.

    The reduced mutant set is always a subset of the mutants generated by
    the executed operators; a strategy with no ExecuteOperators step (or
    one that executes nothing) yields an empty set at zero cost.
    """
    index = build_index(cache)
    executed, mutant_pool, cost = execute_indexed(strategy, index, rng)
    return ReductionRun(
        operator_ids=tuple(index.op_ids[o] for o in executed),
        mutant_ids=tuple(index.mutant_ids[m] for m in mutant_pool),
        strategy_cost=cost,
    )


# ===== Reading strategies: grammar tokens and rendered text =====

_SELECTION_HEADS = {
    "Retain Operators": RetainOperators,
    "Discard Operators": DiscardOperators,
    "Execute Operators": ExecuteOperators,
    "Retain Mutants": RetainMutants,
    "Discard Mutants": DiscardMutants,
}
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
        return Selection("percentage", _count(amount[:-1], f"{context} percentage"))
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
