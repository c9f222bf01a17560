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

Pools are canonical sorted index arrays. All random selection draws from
the supplied generator; selecting the whole pool or nothing draws nothing.
Percentage counts round half away from zero (computed in exact integer
arithmetic); quantity counts clip to the pool size. Ties never occur
because pools are index sets.

The executed operators pay their generation cost once; the mutants left
in the final pool pay their execution cost. Mutants that were generated
and later discarded cost nothing extra: their generation is already part
of the owning operator's cost.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Literal, Union

import numpy as np

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

def _pick(pool: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    if k <= 0:
        return pool[:0]
    if k >= pool.size:
        return pool
    return np.sort(rng.choice(pool, size=k, replace=False))


def _setdiff(pool: np.ndarray, removed: np.ndarray) -> np.ndarray:
    if removed.size == 0 or pool.size == 0:
        return pool
    keep = ~np.isin(pool, removed, assume_unique=True)
    return pool[keep]


def _run_group_pipeline(
    pipeline: GroupPipeline,
    mutant_pool: np.ndarray,
    index: CacheIndex,
    rng: np.random.Generator,
) -> np.ndarray:
    if mutant_pool.size == 0:
        return mutant_pool
    owners = index.mutant_operator[mutant_pool]
    order = np.argsort(owners, kind="stable")
    grouped = mutant_pool[order]
    _, first_positions = np.unique(owners[order], return_index=True)
    groups: list[np.ndarray] = np.split(grouped, first_positions[1:])
    # groups is ordered by ascending operator index here, each group holding
    # ascending mutant indices; later reorderings are stable, so equal-sized
    # groups keep that order.
    for op in pipeline.operations:
        if isinstance(op, OrderGroupsBySize):
            key = (lambda g: -g.size) if op.descending else (lambda g: g.size)
            groups.sort(key=key)
        else:
            k = min(op.count, len(groups))
            if op.edge == "first":
                segment, rest = groups[:k], groups[k:]
            else:
                rest, segment = groups[:len(groups) - k], groups[len(groups) - k:]
            groups = segment if op.keep else rest
    kept = [_pick(g, pipeline.sample.count(g.size), rng) for g in groups]
    kept = [g for g in kept if g.size]
    if not kept:
        return mutant_pool[:0]
    return np.sort(np.concatenate(kept))


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
            chosen = _pick(op_pool, node.selection.count(op_pool.size), rng)
            if chosen.size:
                executed = np.sort(np.concatenate([executed, chosen]))
                op_pool = _setdiff(op_pool, chosen)
                new_mutants = index.mutants_of_operators(chosen)
                mutant_pool = (np.sort(np.concatenate([mutant_pool, new_mutants]))
                               if mutant_pool.size else new_mutants)
        elif isinstance(node, RetainOperators):
            op_pool = _pick(op_pool, node.selection.count(op_pool.size), rng)
        elif isinstance(node, DiscardOperators):
            dropped = _pick(op_pool, node.selection.count(op_pool.size), rng)
            op_pool = _setdiff(op_pool, dropped)
        elif isinstance(node, RetainMutants):
            mutant_pool = _pick(mutant_pool, node.selection.count(mutant_pool.size), rng)
        elif isinstance(node, DiscardMutants):
            dropped = _pick(mutant_pool, node.selection.count(mutant_pool.size), rng)
            mutant_pool = _setdiff(mutant_pool, dropped)
        elif isinstance(node, GroupPipeline):
            mutant_pool = _run_group_pipeline(node, mutant_pool, index, rng)
        elif isinstance(node, DiscardHighestYield):
            yields = np.diff(index.op_indptr)[op_pool]
            dropped = op_pool[np.argsort(-yields, kind="stable")[:node.count]]
            op_pool = _setdiff(op_pool, dropped)
        else:
            raise TypeError(f"unknown strategy node {node!r}")
    cost = 0.0
    if executed.size:
        cost += float(index.op_generation_cost[executed].sum())
    if mutant_pool.size:
        cost += float(index.mutant_exec_cost[mutant_pool].sum())
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


# ===== Building strategies from grammar token streams =====

_SELECTION_HEADS = {
    "Retain Operators": RetainOperators,
    "Discard Operators": DiscardOperators,
    "Execute Operators": ExecuteOperators,
    "Retain Mutants": RetainMutants,
    "Discard Mutants": DiscardMutants,
}


class _TokenStream:
    def __init__(self, tokens: Iterable[str]):
        self.tokens = list(tokens)
        self.pos = 0

    def next(self, context: str) -> str:
        if self.pos >= len(self.tokens):
            raise StrategyParseError(f"unexpected end of tokens while reading {context}")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def _amount_from_token(token: str, context: str) -> Selection:
    if token.endswith("%"):
        body, kind = token[:-1], "percentage"
    else:
        body, kind = token, "quantity"
    if not body.isdigit():
        raise StrategyParseError(f"bad {context} amount {token!r}")
    return Selection(kind=kind, value=int(body))


def _parse_selection(stream: _TokenStream, context: str) -> Selection:
    method = stream.next(context)
    if method != "Random":
        raise StrategyParseError(f"expected 'Random' in {context}, got {method!r}")
    return _amount_from_token(stream.next(context), context)


def strategy_from_tokens(tokens: Iterable[str]) -> Strategy:
    """Assemble a strategy from the terminal tokens of a grammar derivation."""
    stream = _TokenStream(tokens)
    nodes: list[Operation] = []
    while not stream.done():
        head = stream.next("operation")
        if head in _SELECTION_HEADS:
            nodes.append(_SELECTION_HEADS[head](_parse_selection(stream, head)))
        elif head == "Group Mutants by Operator":
            operations: list[GroupOperation] = []
            while True:
                token = stream.next("group pipeline")
                if token == "Sample Each Group":
                    sample = _parse_selection(stream, "Sample Each Group")
                    break
                if token == "Order Groups by Size":
                    direction = stream.next("group ordering")
                    if direction not in ("Ascending", "Descending"):
                        raise StrategyParseError(f"bad direction {direction!r}")
                    operations.append(OrderGroupsBySize(descending=direction == "Descending"))
                elif token in ("Retain Groups", "Discard Groups"):
                    edge = stream.next("group edge")
                    if edge not in ("First", "Last"):
                        raise StrategyParseError(f"bad edge {edge!r}")
                    count_token = stream.next("group count")
                    if not count_token.isdigit():
                        raise StrategyParseError(f"bad group count {count_token!r}")
                    operations.append(TakeGroups(
                        edge=edge.lower(),  # type: ignore[arg-type]
                        count=int(count_token),
                        keep=token == "Retain Groups",
                    ))
                else:
                    raise StrategyParseError(f"unexpected token {token!r} in group pipeline")
            nodes.append(GroupPipeline(operations=tuple(operations), sample=sample))
        else:
            raise StrategyParseError(f"unexpected token {head!r}")
    return Strategy(nodes=tuple(nodes))


def strategy_from_chromosome(chromosome, grammar, max_wraps: int | None = None):
    """Map a chromosome and build its strategy; None if the mapping fails."""
    from . import genome

    kwargs = {} if max_wraps is None else {"max_wraps": max_wraps}
    result = genome.map_chromosome(chromosome, grammar, **kwargs)
    if not result.mapped:
        return None
    return strategy_from_tokens(result.tokens)


# ===== Parsing rendered text back =====

_PHRASE_PATTERNS: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"^(Retain|Discard) (Operators|Mutants) random (\d+)(%?)$"), "pool"),
    (re.compile(r"^Execute Operators (\d+)(%?)$"), "execute"),
    (re.compile(r"^Discard Operators highest-yield (\d+)$"), "yield"),
    (re.compile(r"^Group Mutants by Operator$"), "group"),
    (re.compile(r"^Order Groups by Size (ascending|descending)$"), "order"),
    (re.compile(r"^(Retain|Discard) Groups (first|last) (\d+)$"), "take"),
    (re.compile(r"^Sample Each Group random (\d+)(%?)$"), "sample"),
]


def _selection_from_match(number: str, percent: str) -> Selection:
    return Selection(kind="percentage" if percent else "quantity", value=int(number))


def parse_strategy(text: str) -> Strategy:
    """Inverse of render: parse arrow-joined phrases back into a strategy."""
    phrases = [p.strip() for p in re.split(r"→|->", text)]
    if phrases == [""]:
        raise StrategyParseError("empty strategy text")
    nodes: list[Operation] = []
    group: list[GroupOperation] | None = None
    for phrase in phrases:
        matched = None
        for pattern, kind in _PHRASE_PATTERNS:
            m = pattern.match(phrase)
            if m:
                matched = (kind, m)
                break
        if matched is None:
            raise StrategyParseError(f"unparseable strategy phrase {phrase!r}")
        kind, m = matched
        in_group = group is not None
        if kind in ("order", "take", "sample") and not in_group:
            raise StrategyParseError(f"{phrase!r} outside a group pipeline")
        if kind in ("pool", "execute", "yield", "group") and in_group:
            raise StrategyParseError(f"group pipeline not closed before {phrase!r}")
        if kind == "pool":
            verb, target, number, percent = m.groups()
            selection = _selection_from_match(number, percent)
            table = {
                ("Retain", "Operators"): RetainOperators,
                ("Discard", "Operators"): DiscardOperators,
                ("Retain", "Mutants"): RetainMutants,
                ("Discard", "Mutants"): DiscardMutants,
            }
            nodes.append(table[(verb, target)](selection))
        elif kind == "execute":
            nodes.append(ExecuteOperators(_selection_from_match(*m.groups())))
        elif kind == "yield":
            nodes.append(DiscardHighestYield(int(m.group(1))))
        elif kind == "group":
            group = []
        elif kind == "order":
            group.append(OrderGroupsBySize(descending=m.group(1) == "descending"))
        elif kind == "take":
            verb, edge, count = m.groups()
            group.append(TakeGroups(edge=edge, count=int(count), keep=verb == "Retain"))
        elif kind == "sample":
            nodes.append(GroupPipeline(
                operations=tuple(group),
                sample=_selection_from_match(*m.groups()),
            ))
            group = None
    if group is not None:
        raise StrategyParseError("group pipeline missing its sampling step")
    return Strategy(nodes=tuple(nodes))
