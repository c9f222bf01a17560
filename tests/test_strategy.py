import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutreduce.cache import (MutantRecord, MutationCache, OperatorRecord,
                             TestRecord, synth_cache)
from mutreduce.genome import Chromosome, random_chromosome
from mutreduce.grammar import DEFAULT_GRAMMAR_TEXT
from mutreduce.index import build_index
from mutreduce.objectives import ObjectivePair, evaluate_indexed
from mutreduce.strategy import (SPANS_MIN_MUTANTS, DiscardHighestYield,
                                ExecuteOperators, GroupPipeline,
                                OrderGroupsBySize, Select, Selection, Strategy,
                                StrategyParseError, TakeGroups, execute,
                                execute_indexed, parse_strategy, render,
                                strategy_from_chromosome,
                                strategy_from_tokens)


def pct(value):
    return Selection(kind="percentage", value=value)


def qty(value):
    return Selection(kind="quantity", value=value)


def five_operator_cache():
    """Five operators with distinct group sizes 30/20/12/8/5."""
    sizes = {"opA": 30, "opB": 20, "opC": 12, "opD": 8, "opE": 5}
    operators = tuple(
        OperatorRecord(id=op, generation_cost=float(i + 1))
        for i, op in enumerate(sorted(sizes))
    )
    tests = tuple(TestRecord(id=f"t{i}", priority_rank=i) for i in range(3))
    mutants = []
    counter = 0
    for op in sorted(sizes):
        for _ in range(sizes[op]):
            killers = (f"t{counter % 3}",) if counter % 2 == 0 else ()
            mutants.append(MutantRecord(
                id=f"m{counter:02d}", operator_id=op,
                exec_cost=0.5 + 0.01 * counter, killers=killers,
            ))
            counter += 1
    return MutationCache.from_records(operators=operators, tests=tests,
                                      mutants=tuple(mutants))


# ===== selection counting =====

@pytest.mark.parametrize("value,size,expected", [
    (10, 8, 1),    # 0.8 rounds half away from zero
    (10, 4, 0),    # 0.4 rounds down
    (50, 3, 2),    # 1.5 rounds up
    (90, 8, 7),    # 7.2 rounds down
    (100, 13, 13),
    (10, 0, 0),
])
def test_percentage_count_rounds_half_away_from_zero(value, size, expected):
    assert pct(value).count(size) == expected


def test_quantity_count_clips_to_pool():
    assert qty(7).count(3) == 3
    assert qty(2).count(10) == 2
    assert qty(0).count(10) == 0


def test_selection_validates():
    with pytest.raises(ValueError):
        Selection(kind="modal", value=1)
    with pytest.raises(ValueError):
        Selection(kind="quantity", value=-1)
    with pytest.raises(ValueError):
        Selection(kind="percentage", value=101)


def test_select_validates_its_pool():
    with pytest.raises(ValueError):
        Select("groups", True, pct(10))
    with pytest.raises(ValueError):
        Select("Operators", False, pct(10))


# ===== rendering and parsing =====

def test_identity_strategy_renders_canonically():
    strategy = Strategy((ExecuteOperators(pct(100)), Select("mutants", True, pct(100))))
    assert render(strategy) == "Execute Operators 100% → Retain Mutants random 100%"


def test_six_step_showcase_round_trip():
    text = ("Retain Operators random 80% → Execute Operators 100% → "
            "Group Mutants by Operator → Order Groups by Size descending → "
            "Discard Groups first 2 → Sample Each Group random 10%")
    strategy = parse_strategy(text)
    assert strategy == Strategy((
        Select("operators", True, pct(80)),
        ExecuteOperators(pct(100)),
        GroupPipeline(
            operations=(
                OrderGroupsBySize(descending=True),
                TakeGroups(edge="first", count=2, keep=False),
            ),
            sample=pct(10),
        ),
    ))
    assert render(strategy) == text


def test_parse_accepts_ascii_arrows():
    a = parse_strategy("Execute Operators 5 -> Retain Mutants random 3")
    b = parse_strategy("Execute Operators 5 → Retain Mutants random 3")
    assert a == b
    assert a.nodes[0].selection == qty(5)


def test_parse_rejects_malformed_text():
    with pytest.raises(StrategyParseError):
        parse_strategy("")
    with pytest.raises(StrategyParseError):
        parse_strategy("Levitate Operators random 10%")
    with pytest.raises(StrategyParseError):
        parse_strategy("Order Groups by Size ascending")  # outside a pipeline
    with pytest.raises(StrategyParseError):
        parse_strategy("Group Mutants by Operator → Execute Operators 10%")
    with pytest.raises(StrategyParseError):
        parse_strategy("Group Mutants by Operator")  # never sampled
    with pytest.raises(StrategyParseError):
        parse_strategy("Execute Operators ²")  # a digit, but not a decimal one
    with pytest.raises(StrategyParseError):
        parse_strategy("Discard Operators highest-yield")  # truncated
    with pytest.raises(StrategyParseError):
        parse_strategy("Execute Operators random 10%")  # text writes no random
    with pytest.raises(StrategyParseError):
        parse_strategy("Retain Mutants Random 10%")  # argument words are lower case
    with pytest.raises(StrategyParseError):
        parse_strategy("Execute Operators 100% → Group Mutants by Operator → "
                       "Retain Groups First 2 → Sample Each Group random 10%")
    with pytest.raises(StrategyParseError):
        parse_strategy("Execute Operators 250% → Retain Mutants random 100%")
    with pytest.raises(StrategyParseError):
        parse_strategy("Execute Operators 100% → Retain Mutants random 999%")


def test_tokens_build_the_same_tree_as_text():
    tokens = [
        "Discard Operators", "highest-yield", "1",
        "Discard Operators", "Random", "2",
        "Execute Operators", "Random", "50%",
        "Group Mutants by Operator",
        "Retain Groups", "Last", "3",
        "Sample Each Group", "Random", "100%",
        "Discard Mutants", "Random", "10%",
    ]
    from_tokens = strategy_from_tokens(tokens)
    from_text = parse_strategy(
        "Discard Operators highest-yield 1 → "
        "Discard Operators random 2 → Execute Operators 50% → "
        "Group Mutants by Operator → Retain Groups last 3 → "
        "Sample Each Group random 100% → Discard Mutants random 10%")
    assert from_tokens == from_text
    assert from_tokens.nodes[0] == DiscardHighestYield(1)


def test_token_stream_errors():
    with pytest.raises(StrategyParseError):
        strategy_from_tokens(["Execute Operators", "Random"])  # truncated
    with pytest.raises(StrategyParseError):
        strategy_from_tokens(["Execute Operators", "Sorted", "10%"])
    with pytest.raises(StrategyParseError):
        strategy_from_tokens(["Group Mutants by Operator", "Juggle Groups"])
    with pytest.raises(StrategyParseError):
        strategy_from_tokens(["Execute Operators", "Random", "²"])
    with pytest.raises(StrategyParseError):
        strategy_from_tokens(["Execute Operators", "Random", "²%"])
    with pytest.raises(StrategyParseError):
        strategy_from_tokens(["Discard Operators", "highest-yield"])  # truncated
    with pytest.raises(StrategyParseError):
        strategy_from_tokens(["Retain Operators", "highest-yield", "2"])
    with pytest.raises(StrategyParseError):
        strategy_from_tokens(["Group Mutants by Operator", "Sample Each Group", "Random", "101%"])


def test_render_parse_round_trip_and_injectivity(grammar):
    rng = np.random.default_rng(21)
    seen = {}
    checked = 0
    while checked < 1000:
        strategy = strategy_from_chromosome(random_chromosome(rng), grammar)
        if strategy is None:
            continue
        text = render(strategy)
        assert parse_strategy(text) == strategy
        if text in seen:
            assert seen[text] == strategy
        seen[text] = strategy
        checked += 1


def test_strategy_from_chromosome_mapping_failure_is_none():
    from mutreduce.grammar import parse_grammar
    bottomless = parse_grammar(
        "<s> ::= " + " ".join("<c>" for _ in range(200)) + '\n<c> ::= "a" | "b"'
    )
    assert strategy_from_chromosome(Chromosome((1,) * 15), bottomless) is None


def test_strategy_from_chromosome_all_zero(grammar):
    strategy = strategy_from_chromosome(Chromosome((0,) * 15), grammar)
    assert render(strategy) == "Execute Operators 10%"


# ===== execution =====

def test_identity_strategy_keeps_everything():
    cache = five_operator_cache()
    strategy = Strategy((ExecuteOperators(pct(100)), Select("mutants", True, pct(100))))
    run = execute(strategy, cache, np.random.default_rng(0))
    assert run.mutant_ids == tuple(m.id for m in cache.mutants)
    assert run.operator_ids == tuple(op.id for op in cache.operators)
    assert run.strategy_cost == pytest.approx(cache.total_cost, rel=1e-12)


def test_retain_zero_operators_yields_nothing():
    cache = five_operator_cache()
    strategy = Strategy((Select("operators", True, qty(0)),))
    run = execute(strategy, cache, np.random.default_rng(0))
    assert run.mutant_ids == ()
    assert run.operator_ids == ()
    assert run.strategy_cost == 0.0


def test_execute_after_empty_pool_yields_nothing():
    cache = five_operator_cache()
    strategy = Strategy((Select("operators", True, qty(0)), ExecuteOperators(pct(100))))
    run = execute(strategy, cache, np.random.default_rng(0))
    assert run.mutant_ids == ()
    assert run.strategy_cost == 0.0


def test_group_and_sample_everything_is_identity():
    cache = five_operator_cache()
    with_group = Strategy((
        ExecuteOperators(pct(100)),
        GroupPipeline(operations=(), sample=pct(100)),
    ))
    run = execute(with_group, cache, np.random.default_rng(0))
    assert run.mutant_ids == tuple(m.id for m in cache.mutants)


def test_full_pool_selections_consume_no_randomness():
    cache = five_operator_cache()
    strategy = Strategy((
        ExecuteOperators(pct(100)),
        Select("mutants", True, pct(100)),
        GroupPipeline(
            operations=(OrderGroupsBySize(descending=False),),
            sample=pct(100)),
    ))
    a = execute(strategy, cache, np.random.default_rng(1))
    b = execute(strategy, cache, np.random.default_rng(2))
    assert a == b


def test_discard_then_retain_shrinks_both_pools():
    cache = five_operator_cache()
    strategy = Strategy((
        Select("operators", False, qty(1)),
        ExecuteOperators(pct(100)),
        Select("mutants", False, pct(50)),
    ))
    run = execute(strategy, cache, np.random.default_rng(5))
    assert len(run.operator_ids) == 4
    total_from_executed = sum(
        1 for m in cache.mutants if m.operator_id in run.operator_ids)
    assert len(run.mutant_ids) == total_from_executed - (
        total_from_executed * 50 + 50) // 100


def test_discard_highest_yield_drops_largest_without_drawing():
    cache = five_operator_cache()
    sizes = {"opA": 30, "opB": 20, "opC": 12, "opD": 8, "opE": 5}
    text = ("Retain Operators random 80% → Discard Operators highest-yield 2 → "
            "Execute Operators 100%")
    strategy = parse_strategy(text)
    assert strategy.nodes[1] == DiscardHighestYield(2)
    assert render(strategy) == text
    assert "highest-yield" not in DEFAULT_GRAMMAR_TEXT
    for seed in range(6):
        retained = execute(Strategy((Select("operators", True, pct(80)),
                                     ExecuteOperators(pct(100)))),
                           cache, np.random.default_rng(seed)).operator_ids
        expected = sorted(sorted(retained, key=lambda op: -sizes[op])[2:])
        rng = np.random.default_rng(seed)
        assert execute(strategy, cache, rng).operator_ids == tuple(expected)
        # Only the Retain step drew: the stream continues where it would.
        after_retain = np.random.default_rng(seed)
        execute(Strategy(strategy.nodes[:1]), cache, after_retain)
        assert rng.random() == after_retain.random()


def test_six_step_showcase_matches_hand_simulation():
    """Re-derive the reduced set with an independent interpreter.

    The contract mirrored here: pools are canonical ascending index arrays;
    every partial selection makes exactly one choice() draw of its count;
    whole-pool and empty selections draw nothing; groups form per operator
    in ascending operator order, reorderings are stable, and each group is
    sampled in final list order.
    """
    cache = five_operator_cache()
    text = ("Retain Operators random 80% → Execute Operators 100% → "
            "Group Mutants by Operator → Order Groups by Size descending → "
            "Discard Groups first 2 → Sample Each Group random 10%")
    seed = 1234
    run = execute(parse_strategy(text), cache, np.random.default_rng(seed))

    rng = np.random.default_rng(seed)
    op_ids = sorted(op.id for op in cache.operators)
    mutant_ids = sorted(m.id for m in cache.mutants)
    owner = {m.id: m.operator_id for m in cache.mutants}

    def draw(pool, k):
        if k <= 0:
            return []
        if k >= len(pool):
            return list(pool)
        return sorted(rng.choice(pool, size=k, replace=False).tolist())

    # Retain Operators random 80%: (80 * 5 + 50) // 100 = 4 of 5.
    op_pool = draw(op_ids, (80 * len(op_ids) + 50) // 100)
    # Execute Operators 100%: whole pool, no draw.
    executed = sorted(op_pool)
    pool = [m for m in mutant_ids if owner[m] in executed]
    # Group by operator, ascending operator id.
    groups = [[m for m in pool if owner[m] == op] for op in executed]
    groups = [g for g in groups if g]
    # Order by size descending (stable), drop the two biggest.
    groups.sort(key=lambda g: -len(g))
    groups = groups[2:]
    # Sample 10% of each remaining group.
    kept = []
    for g in groups:
        kept.extend(draw(g, (10 * len(g) + 50) // 100))
    expected_mutants = tuple(sorted(kept))

    assert run.operator_ids == tuple(executed)
    assert run.mutant_ids == expected_mutants
    generation = {op.id: op.generation_cost for op in cache.operators}
    cost_of = {m.id: m.exec_cost for m in cache.mutants}
    expected_cost = (sum(generation[o] for o in executed)
                     + sum(cost_of[m] for m in expected_mutants))
    assert run.strategy_cost == pytest.approx(expected_cost, rel=1e-12)
    # The pipeline genuinely reduces: a strict subset at reduced cost.
    assert 0 < len(run.mutant_ids) < len(cache.mutants)


def test_group_edges_and_directions():
    cache = five_operator_cache()

    owner = {m.id: m.operator_id for m in cache.mutants}

    def kept_operators(pipeline):
        strategy = Strategy((ExecuteOperators(pct(100)), pipeline))
        run = execute(strategy, cache, np.random.default_rng(0))
        return sorted({owner[mid] for mid in run.mutant_ids})

    # Sizes: opA 30, opB 20, opC 12, opD 8, opE 5.
    ascending_keep_first_2 = GroupPipeline(
        operations=(OrderGroupsBySize(descending=False),
                    TakeGroups(edge="first", count=2, keep=True)),
        sample=pct(100))
    assert kept_operators(ascending_keep_first_2) == ["opD", "opE"]

    descending_keep_last_2 = GroupPipeline(
        operations=(OrderGroupsBySize(descending=True),
                    TakeGroups(edge="last", count=2, keep=True)),
        sample=pct(100))
    assert kept_operators(descending_keep_last_2) == ["opD", "opE"]

    discard_last_1 = GroupPipeline(
        operations=(OrderGroupsBySize(descending=False),
                    TakeGroups(edge="last", count=1, keep=False)),
        sample=pct(100))
    assert kept_operators(discard_last_1) == ["opB", "opC", "opD", "opE"]

    overshoot = GroupPipeline(
        operations=(TakeGroups(edge="first", count=10, keep=True),),
        sample=pct(100))
    assert kept_operators(overshoot) == ["opA", "opB", "opC", "opD", "opE"]


def test_equal_sized_groups_stay_in_operator_order():
    # Two operators with equal yields: stable descending ordering keeps
    # ascending operator order, so discarding the first group removes the
    # lexicographically smaller operator.
    operators = (OperatorRecord(id="opA", generation_cost=1.0),
                 OperatorRecord(id="opB", generation_cost=1.0))
    tests = (TestRecord(id="t0", priority_rank=0),)
    mutants = tuple(
        MutantRecord(id=f"m{i}", operator_id="opA" if i < 3 else "opB",
                     exec_cost=1.0, killers=())
        for i in range(6)
    )
    cache = MutationCache.from_records(operators=operators, tests=tests, mutants=mutants)
    strategy = Strategy((
        ExecuteOperators(pct(100)),
        GroupPipeline(
            operations=(OrderGroupsBySize(descending=True),
                        TakeGroups(edge="first", count=1, keep=False)),
            sample=pct(100)),
    ))
    run = execute(strategy, cache, np.random.default_rng(0))
    assert {next(m.operator_id for m in cache.mutants if m.id == mid)
            for mid in run.mutant_ids} == {"opB"}


def test_sampled_subsets_have_exact_sizes():
    cache = five_operator_cache()
    rng = np.random.default_rng(33)
    for p in (10, 30, 50, 70, 90):
        strategy = Strategy((ExecuteOperators(pct(100)), Select("mutants", True, pct(p))))
        run = execute(strategy, cache, rng)
        assert len(run.mutant_ids) == (p * 75 + 50) // 100


def test_cost_never_exceeds_total(grammar):
    cache = five_operator_cache()
    rng = np.random.default_rng(8)
    for _ in range(300):
        strategy = strategy_from_chromosome(random_chromosome(rng), grammar)
        if strategy is None:
            continue
        run = execute(strategy, cache, rng)
        assert 0.0 <= run.strategy_cost <= cache.total_cost + 1e-9
        executed_ops = set(run.operator_ids)
        for mid in run.mutant_ids:
            owner = next(m.operator_id for m in cache.mutants if m.id == mid)
            assert owner in executed_ops


# ===== oracle: the set-difference VM the mask VM replaced =====
# A copy of the earlier interpreter, which drew from the pool's values
# (rng.choice(pool, k)), sorted every draw and took set differences with
# np.isin; only its per-operator mutant slices are now recomputed from
# mutant_operator. The mask VM must agree with it on every output and
# leave the generator in the same state.

def _ref_pick(pool, k, rng):
    if k <= 0:
        return pool[:0]
    if k >= pool.size:
        return pool
    return np.sort(rng.choice(pool, size=k, replace=False))


def _ref_setdiff(pool, removed):
    if removed.size == 0 or pool.size == 0:
        return pool
    keep = ~np.isin(pool, removed, assume_unique=True)
    return pool[keep]


def _ref_run_group_pipeline(pipeline, mutant_pool, index, rng):
    if mutant_pool.size == 0:
        return mutant_pool
    owners = index.mutant_operator[mutant_pool]
    order = np.argsort(owners, kind="stable")
    grouped = mutant_pool[order]
    _, first_positions = np.unique(owners[order], return_index=True)
    groups = np.split(grouped, first_positions[1:])
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
    kept = [_ref_pick(g, pipeline.sample.count(g.size), rng) for g in groups]
    kept = [g for g in kept if g.size]
    if not kept:
        return mutant_pool[:0]
    return np.sort(np.concatenate(kept))


def _ref_execute_indexed(strategy, index, rng):
    op_pool = np.arange(index.n_operators, dtype=np.int32)
    executed = op_pool[:0]
    mutant_pool = np.empty(0, dtype=np.int32)
    for node in strategy.nodes:
        if isinstance(node, ExecuteOperators):
            chosen = _ref_pick(op_pool, node.selection.count(op_pool.size), rng)
            if chosen.size:
                executed = np.sort(np.concatenate([executed, chosen]))
                op_pool = _ref_setdiff(op_pool, chosen)
                parts = [np.flatnonzero(index.mutant_operator == o).astype(np.int32)
                         for o in chosen]
                new_mutants = np.sort(np.concatenate(parts))
                mutant_pool = (np.sort(np.concatenate([mutant_pool, new_mutants]))
                               if mutant_pool.size else new_mutants)
        elif isinstance(node, Select) and node.pool == "operators":
            picked = _ref_pick(op_pool, node.selection.count(op_pool.size), rng)
            op_pool = picked if node.keep else _ref_setdiff(op_pool, picked)
        elif isinstance(node, Select):
            picked = _ref_pick(mutant_pool, node.selection.count(mutant_pool.size), rng)
            mutant_pool = picked if node.keep else _ref_setdiff(mutant_pool, picked)
        elif isinstance(node, GroupPipeline):
            mutant_pool = _ref_run_group_pipeline(node, mutant_pool, index, rng)
        elif isinstance(node, DiscardHighestYield):
            yields = np.diff(index.op_indptr)[op_pool]
            dropped = op_pool[np.argsort(-yields, kind="stable")[:node.count]]
            op_pool = _ref_setdiff(op_pool, dropped)
        else:
            raise TypeError(f"unknown strategy node {node!r}")
    cost = 0.0
    if executed.size:
        cost += float(index.generation_cost[executed].sum())
    if mutant_pool.size:
        cost += float(index.exec_cost[mutant_pool].sum())
    return executed, mutant_pool, cost


def assert_matches_reference(strategy, index, seed):
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    executed, pool, bounds, costs = execute_indexed(strategy, index, [rng])
    ref_executed, ref_pool, ref_cost = _ref_execute_indexed(strategy, index, ref_rng)
    context = f"{render(strategy)!r} at seed {seed}"
    assert executed.shape == (1, index.n_operators), context
    assert executed[0].nonzero()[0].tolist() == ref_executed.tolist(), context
    assert pool.dtype == ref_pool.dtype == np.int32, context
    assert bounds == [0, ref_pool.size], context
    assert pool.tolist() == ref_pool.tolist(), context
    assert costs == [ref_cost], context
    # Same number and sizes of draws: the streams end in the same state.
    assert rng.bit_generator.state == ref_rng.bit_generator.state, context


def tied_yield_cache():
    """Operators with yields 4/4/2/2/1, ids out of order in the records."""
    sizes = {"opE": 1, "opA": 4, "opC": 2, "opB": 4, "opD": 2}
    operators = tuple(OperatorRecord(id=op, generation_cost=1.0 + len(op) / 10)
                      for op in sizes)
    tests = (TestRecord(id="t0", priority_rank=0),)
    mutants = []
    for op, size in sizes.items():
        for i in range(size):
            mutants.append(MutantRecord(id=f"{op}-m{i}", operator_id=op,
                                        exec_cost=0.25 * (i + 1), killers=("t0",)))
    return MutationCache.from_records(operators=operators, tests=tests, mutants=tuple(mutants))


@pytest.fixture(scope="module")
def oracle_caches():
    # The third has 300 operators of about 30 mutants each: its owners sort
    # as uint16, and its operator choices under a third of the mutants
    # take the spans path of mutants_of_operators.
    wide = synth_cache(300, 9000, 50, seed=61, cost_skew=1.0)
    assert wide.owner_codes.dtype == np.uint16
    assert wide.n_mutants >= SPANS_MIN_MUTANTS
    return [build_index(five_operator_cache()),
            build_index(synth_cache(8, 600, 120, seed=101, kill_density=0.9)),
            build_index(wide)]


def test_vm_matches_reference_on_grammar_strategies(grammar, oracle_caches):
    rng = np.random.default_rng(404)
    checked = 0
    while checked < 500:
        strategy = strategy_from_chromosome(random_chromosome(rng), grammar)
        if strategy is None:
            continue
        for index in oracle_caches:
            for seed in (checked, 10_000 + checked):
                assert_matches_reference(strategy, index, seed)
        checked += 1


# ===== operator spans =====

# Nine operators owning 3000/2999/1/1500/1000/499/1/0/0 of 9000 mutants,
# their owners shuffled over the mutant positions.
SPAN_YIELDS = (3000, 2999, 1, 1500, 1000, 499, 1, 0, 0)


def span_cache():
    owners = np.random.default_rng(8).permutation(
        np.repeat(np.arange(len(SPAN_YIELDS), dtype=np.int32), SPAN_YIELDS))
    n = owners.size
    return MutationCache(
        operator_ids=tuple(f"op{i}" for i in range(len(SPAN_YIELDS))),
        generation_cost=np.ones(len(SPAN_YIELDS)),
        test_ids=("t0",), priority_rank=np.zeros(1, dtype=np.int64),
        mutant_ids=tuple(f"m{i:04d}" for i in range(n)),
        mutant_operator=owners, exec_cost=np.ones(n),
        killer_indptr=np.zeros(n + 1, dtype=np.int64),
        killer_tests=np.empty(0, dtype=np.int32))


SPANS = span_cache()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, len(SPAN_YIELDS) - 1), unique=True))
@example([])
@example([3])
@example(list(range(len(SPAN_YIELDS))))
@example([0, 1, 2, 3, 4, 5, 6])  # every owner, without those that own nothing
@example([0])          # 3 x its mutants is all 9000: the mask pass
@example([1])          # one mutant fewer: the spans
@example([1, 2])
@example([7, 8])       # operators that own nothing
def test_operator_spans_and_mask_agree_with_brute_force(ops):
    chosen = np.array(ops, dtype=np.int32)
    wanted = set(ops)
    expected = [m for m, op in enumerate(SPANS.mutant_operator.tolist()) if op in wanted]
    for found in (SPANS.mutants_of_operators(chosen), SPANS._mutants_from_spans(chosen),
                  SPANS._mutants_from_mask(chosen)):
        assert found.dtype == np.int32
        assert found.tolist() == expected


def test_spans_path_only_for_a_third_of_the_mutants(monkeypatch):
    def refuse(self, ops):
        raise AssertionError("wrong path")
    both = ("_mutants_from_spans", "_mutants_from_mask")
    small = five_operator_cache()
    for cache, ops, wrong in ((SPANS, [0], ("_mutants_from_spans",)),
                              (SPANS, [1, 2], ("_mutants_from_spans",)),
                              (SPANS, [1], ("_mutants_from_mask",)),
                              (SPANS, [5, 6, 7], ("_mutants_from_mask",)),
                              (SPANS, [0, 1, 2, 3, 4, 5, 6], both),  # they own every mutant
                              (SPANS, list(range(len(SPAN_YIELDS))), both),
                              (small, [4], ("_mutants_from_mask",)),  # 5 of 75 mutants
                              (small, [0, 1], ("_mutants_from_spans",))):
        with monkeypatch.context() as patch:
            for name in wrong:
                patch.setattr(MutationCache, name, refuse)
            found = cache.mutants_of_operators(np.array(ops, dtype=np.int32))
        expected = np.flatnonzero(np.isin(cache.mutant_operator, ops))
        assert found.tolist() == expected.tolist()


def test_execute_goes_row_by_row_only_into_empty_pools_of_a_large_cache(monkeypatch):
    """The VM decides when an Execute asks the cache for each row's mutants:
    never on a small cache, and on a large one only while every pool is
    empty; a later Execute merges into the held pools in one pass."""
    calls = []
    query = MutationCache.mutants_of_operators

    def counted(self, ops):
        calls.append(ops.tolist())
        return query(self, ops)

    def refuse(self, ops):
        raise AssertionError("row-by-row Execute on a small cache")

    small = build_index(five_operator_cache())
    assert small.n_mutants < SPANS_MIN_MUTANTS <= SPANS.n_mutants
    with monkeypatch.context() as patch:
        patch.setattr(MutationCache, "mutants_of_operators", refuse)
        for text in ("Execute Operators 2", "Execute Operators 1 → Execute Operators 100%"):
            for seed in range(3):
                assert_rows_match_reference(parse_strategy(text), small, seed, 5)
    # Every choice of three of SPANS's operators owns a mutant, so the
    # second Execute always finds the pools held.
    strategy = parse_strategy("Execute Operators 3 → Execute Operators 3")
    with monkeypatch.context() as patch:
        patch.setattr(MutationCache, "mutants_of_operators", counted)
        for seed in range(3):
            calls.clear()
            assert_rows_match_reference(strategy, SPANS, seed, 5)
            assert len(calls) == 5 and all(len(ops) == 3 for ops in calls)


def test_operator_spans_view():
    spans = SPANS.operator_mutants
    assert spans.dtype == np.int32
    assert sorted(spans.tolist()) == list(range(SPANS.n_mutants))
    bounds = SPANS.op_indptr.tolist()
    for op in range(len(SPAN_YIELDS)):
        span = spans[bounds[op]:bounds[op + 1]]
        assert (SPANS.mutant_operator[span] == op).all()
        assert (np.diff(span) > 0).all()
    assert SPANS.owner_codes.dtype == np.uint8
    assert SPANS.owner_codes.tolist() == SPANS.mutant_operator.tolist()


def _random_selection(rng):
    if rng.random() < 0.5:
        return pct(int(rng.choice([0, 10, 35, 50, 90, 100])))
    return qty(int(rng.integers(0, 12)) if rng.random() < 0.8 else 10_000)


def _random_node(rng):
    kind = int(rng.integers(0, 7))
    if kind == 2:
        return ExecuteOperators(_random_selection(rng))
    if kind < 5:
        return Select("operators" if kind < 2 else "mutants", kind in (0, 3),
                      _random_selection(rng))
    if kind == 5:
        return DiscardHighestYield(int(rng.integers(0, 7)))
    operations = []
    for _ in range(int(rng.integers(0, 4))):
        if rng.random() < 0.4:
            operations.append(OrderGroupsBySize(descending=bool(rng.random() < 0.5)))
        else:
            operations.append(TakeGroups(edge="first" if rng.random() < 0.5 else "last",
                                         count=int(rng.integers(0, 7)),
                                         keep=bool(rng.random() < 0.5)))
    return GroupPipeline(operations=tuple(operations), sample=_random_selection(rng))


def test_vm_matches_reference_on_arbitrary_node_sequences(oracle_caches):
    """Node sequences the grammar never emits: several Execute steps (so
    pools merge), DiscardHighestYield, 0% and over-sized selections."""
    rng = np.random.default_rng(505)
    indexes = oracle_caches + [build_index(tied_yield_cache())]
    for case in range(300):
        nodes = [_random_node(rng) for _ in range(int(rng.integers(1, 9)))]
        for index in indexes:
            assert_matches_reference(Strategy(tuple(nodes)), index, case)


def test_render_parse_round_trip_on_arbitrary_node_sequences():
    """Text of sequences the grammar never emits reads back to the same
    strategy: several Executes, DiscardHighestYield, 0% and over-sized
    quantities, empty group pipelines, Select on both pools either way."""
    rng = np.random.default_rng(606)
    selects = set()
    for _ in range(500):
        nodes = tuple(_random_node(rng) for _ in range(int(rng.integers(1, 9))))
        assert parse_strategy(render(Strategy(nodes))) == Strategy(nodes)
        selects |= {(node.pool, node.keep) for node in nodes if isinstance(node, Select)}
    assert selects == {(pool, keep) for pool in ("operators", "mutants") for keep in (True, False)}


EDGE_TEXTS = (
    "Execute Operators 0% → Retain Mutants random 100%",
    "Execute Operators 100% → Retain Mutants random 0%",
    "Execute Operators 100% → Discard Mutants random 100%",
    "Execute Operators 100% → Discard Mutants random 0%",
    "Retain Operators random 100% → Execute Operators 100%",
    "Discard Operators random 0% → Execute Operators 100%",
    "Retain Operators random 0% → Execute Operators 100%",
    "Execute Operators 99999 → Retain Mutants random 99999",
    "Execute Operators 99999 → Discard Mutants random 99999",
    "Discard Operators random 99999 → Execute Operators 3",
    "Execute Operators 100% → Group Mutants by Operator → "
    "Retain Groups last 0 → Sample Each Group random 50%",
    "Execute Operators 100% → Group Mutants by Operator → "
    "Discard Groups first 0 → Sample Each Group random 99999",
    "Execute Operators 100% → Group Mutants by Operator → "
    "Order Groups by Size ascending → Sample Each Group random 0%",
    "Retain Operators random 0 → Execute Operators 100% → "
    "Group Mutants by Operator → Sample Each Group random 50%",
    "Execute Operators 100% → Execute Operators 100% → Retain Mutants random 3",
    "Execute Operators 2 → Discard Mutants random 50% → Execute Operators 2 → "
    "Retain Mutants random 90%",
    "Discard Operators highest-yield 1 → Execute Operators 100%",
    "Discard Operators highest-yield 3 → Execute Operators 1",
    "Discard Operators highest-yield 99 → Execute Operators 100%",
    "Retain Operators random 3 → Discard Operators highest-yield 1 → "
    "Execute Operators 100%",
)


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_vm_matches_reference_on_edge_cases(oracle_caches, text):
    strategy = parse_strategy(text)
    for index in oracle_caches + [build_index(tied_yield_cache())]:
        for seed in range(4):
            assert_matches_reference(strategy, index, seed)


# ===== batches: every row is a lone run on its own stream =====

def assert_rows_match_reference(strategy, index, seed, n_rows):
    """Run a batch of ``n_rows`` rows, each on a child stream of ``seed``,
    and check every row against the oracle run on an equal stream.
    Returns each row's pool size and whether the row drew."""
    rngs = np.random.default_rng(seed).spawn(n_rows)
    fresh = [rng.bit_generator.state for rng in rngs]
    executed, pool, bounds, costs = execute_indexed(strategy, index, rngs)
    context = f"{render(strategy)!r} at seed {seed}, {n_rows} rows"
    assert executed.shape == (n_rows, index.n_operators), context
    assert pool.dtype == np.int32, context
    assert len(bounds) == n_rows + 1 and bounds[0] == 0 and bounds[-1] == pool.size, context
    assert len(costs) == n_rows, context
    rows = []
    for r, ref_rng in enumerate(np.random.default_rng(seed).spawn(n_rows)):
        ref_executed, ref_pool, ref_cost = _ref_execute_indexed(strategy, index, ref_rng)
        row = f"{context}, row {r}"
        assert executed[r].nonzero()[0].tolist() == ref_executed.tolist(), row
        assert pool[bounds[r]:bounds[r + 1]].tolist() == ref_pool.tolist(), row
        assert costs[r] == ref_cost, row
        assert rngs[r].bit_generator.state == ref_rng.bit_generator.state, row
        rows.append((ref_pool.size, rngs[r].bit_generator.state != fresh[r]))
    return rows


@pytest.mark.parametrize("n_rows", [1, 5])
def test_batch_rows_match_reference_on_grammar_strategies(grammar, oracle_caches, n_rows):
    rng = np.random.default_rng(707)
    checked = 0
    while checked < 150:
        strategy = strategy_from_chromosome(random_chromosome(rng), grammar)
        if strategy is None:
            continue
        for index in oracle_caches:
            assert_rows_match_reference(strategy, index, checked, n_rows)
        checked += 1


@pytest.mark.parametrize("n_rows", [1, 5])
def test_batch_rows_match_reference_on_arbitrary_node_sequences(oracle_caches, n_rows):
    rng = np.random.default_rng(808)
    for case in range(120):
        nodes = tuple(_random_node(rng) for _ in range(int(rng.integers(1, 9))))
        for index in oracle_caches + [build_index(tied_yield_cache())]:
            assert_rows_match_reference(Strategy(nodes), index, case, n_rows)


# Strategies whose rows keep pools of different sizes: one random operator
# executed, then a fixed count kept or dropped, so some rows draw and some
# do not, some pools end empty, and pools pass the 8- and 128-element
# blocks of pairwise summation.
ROW_SHAPE_TEXTS = (
    "Execute Operators 1 → Retain Mutants random 20",
    "Execute Operators 1 → Discard Mutants random 8",
    "Execute Operators 2 → Retain Mutants random 130",
    "Execute Operators 1 → Discard Mutants random 1100",
    "Retain Operators random 2 → Execute Operators 1 → Group Mutants by Operator → "
    "Sample Each Group random 9",
    "Execute Operators 3 → Group Mutants by Operator → Order Groups by Size descending → "
    "Discard Groups first 1 → Sample Each Group random 50%",
)


def test_batch_rows_cover_uneven_and_empty_pools(oracle_caches):
    seen = set()
    for text in ROW_SHAPE_TEXTS:
        for index in oracle_caches:
            for seed in range(6):
                sizes = [size for size, _ in assert_rows_match_reference(
                    parse_strategy(text), index, seed, 5)]
                if len(set(sizes)) > 1:
                    seen.add("sizes differ")
                if 0 in sizes and max(sizes) > 0:
                    seen.add("an empty pool beside another")
                if any(8 < size <= 128 for size in sizes):
                    seen.add("past 8")
                if max(sizes) > 128:
                    seen.add("past 128")
    assert seen == {"sizes differ", "an empty pool beside another", "past 8", "past 128"}


def test_batch_rows_that_draw_nothing_beside_rows_that_draw():
    # Operators own 30/20/12/8/5 mutants: Retain Mutants random 10 draws
    # only in the rows whose executed operator owns more than 10.
    cache = build_index(five_operator_cache())
    strategy = parse_strategy("Execute Operators 1 → Retain Mutants random 10")
    execute_only = Strategy(strategy.nodes[:1])
    mixed = 0
    for seed in range(20):
        assert_rows_match_reference(strategy, cache, seed, 5)
        rngs = np.random.default_rng(seed).spawn(5)
        execute_indexed(strategy, cache, rngs)
        bare = np.random.default_rng(seed).spawn(5)
        execute_indexed(execute_only, cache, bare)
        drew = [a.bit_generator.state != b.bit_generator.state for a, b in zip(rngs, bare)]
        mixed += any(drew) and not all(drew)
    assert mixed > 0


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_batch_rows_match_reference_on_edge_cases(oracle_caches, text):
    strategy = parse_strategy(text)
    for index in oracle_caches + [build_index(tied_yield_cache())]:
        for seed in range(3):
            assert_rows_match_reference(strategy, index, seed, 5)


# The evaluation as it was before batching: one VM run and one kill count
# per repetition, each on its own child stream, with the oracle VM and a
# kill count read straight from the killer lists.

def _ref_kills(index, pool):
    selected = np.zeros(index.n_tests + 1, dtype=bool)
    selected[index.first_killer[pool]] = True
    owner = np.repeat(np.arange(index.n_mutants), np.diff(index.killer_indptr))
    return np.unique(owner[selected[index.killer_tests]]).size


def _ref_evaluate(strategy, index, n, rng):
    costs, killed = [], 0
    for sub in rng.spawn(n):
        _, pool, cost = _ref_execute_indexed(strategy, index, sub)
        costs.append(cost)
        killed += _ref_kills(index, pool)
    time = math.fsum(costs) / math.fsum([index.total_cost] * n)
    score = killed / (n * index.killable_count) if index.killable_count else 0.0
    return ObjectivePair(time=time, score=score)


def test_evaluate_equals_a_per_repetition_loop_over_the_reference(grammar, oracle_caches):
    rng = np.random.default_rng(909)
    checked = 0
    while checked < 60:
        strategy = strategy_from_chromosome(random_chromosome(rng), grammar)
        if strategy is None:
            continue
        for index in oracle_caches:
            for n in (1, 5):
                seed = 1000 * checked + n
                assert (evaluate_indexed(strategy, index, n, np.random.default_rng(seed).spawn(n))[0]
                        == _ref_evaluate(strategy, index, n, np.random.default_rng(seed))), \
                    f"{render(strategy)!r} at seed {seed}"
        checked += 1
