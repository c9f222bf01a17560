import math

import numpy as np
import pytest

from mutreduce.cache import (MutantRecord, MutationCache, OperatorRecord,
                             TestRecord, synth_cache)
from mutreduce.genome import random_chromosome
from mutreduce.objectives import (evaluate, evaluate_indexed, score_objective,
                                  select_tests, time_objective)
from mutreduce.strategy import (SPANS_MIN_MUTANTS, ExecuteOperators, ReductionRun,
                                Select, Selection, Strategy, execute,
                                parse_strategy, render, strategy_from_chromosome)
from mutreduce.streams import row_generators


def pct(value):
    return Selection(kind="percentage", value=value)


def eight_of_ten_cache():
    """10 mutants, 8 killable, each by its own same-named test.

    The full suite scores 0.8. Keeping mutants m0..m4 selects tests
    t0..t4, which kill exactly those five mutants: the reduced score is
    0.5 and the relative score 0.5 / 0.8 = 0.625.
    """
    tests = tuple(TestRecord(id=f"t{i}", priority_rank=i) for i in range(10))
    mutants = tuple(
        MutantRecord(id=f"m{i}", operator_id="op", exec_cost=1.0,
                     killers=(f"t{i}",) if i < 8 else ())
        for i in range(10)
    )
    return MutationCache.from_records(
        operators=(OperatorRecord(id="op", generation_cost=5.0),),
        tests=tests,
        mutants=mutants,
    )


# ===== select_tests =====

def test_lowest_rank_killer_selected(tiny_cache):
    selection = select_tests(["m1"], tiny_cache)
    assert selection.test_ids == ("t2",)


def test_empty_mutant_set_selects_nothing(tiny_cache):
    selection = select_tests([], tiny_cache)
    assert selection.test_ids == ()
    assert selection.killed_mutants == 0


def test_unkillable_mutants_contribute_nothing(tiny_cache):
    assert select_tests(["m4"], tiny_cache).test_ids == ()


def test_collateral_kills_counted(tiny_cache):
    # t2 kills both m1 and m2, so selecting either mutant alone still
    # counts two kills across the cache.
    assert select_tests(["m2"], tiny_cache).killed_mutants == 2


def test_selection_kills_every_killable_member():
    cache = synth_cache(4, 80, 25, seed=17, kill_density=0.7, redundancy=0.4)
    killers_of = {m.id: set(m.killers) for m in cache.mutants}
    rng = np.random.default_rng(3)
    ids = [m.id for m in cache.mutants]
    for _ in range(20):
        chosen = list(rng.choice(ids, size=30, replace=False))
        selection = select_tests(chosen, cache)
        selected = set(selection.test_ids)
        for mid in chosen:
            if killers_of[mid]:
                assert killers_of[mid] & selected
        # Exhaustive recount of cache-wide kills by the selected suite.
        recount = sum(1 for m in cache.mutants if set(m.killers) & selected)
        assert selection.killed_mutants == recount


def test_select_tests_idempotent_and_pure(tiny_cache):
    a = select_tests(["m1", "m3"], tiny_cache)
    b = select_tests(["m3", "m1"], tiny_cache)
    assert a == b


def test_unknown_mutant_id_raises(tiny_cache):
    with pytest.raises(KeyError, match="mX"):
        select_tests(["mX"], tiny_cache)


# ===== single-run objectives =====

def test_time_is_cost_ratio(tiny_cache):
    run = ReductionRun(operator_ids=("opA",), mutant_ids=("m1",),
                       strategy_cost=7.5)
    assert time_objective(run, tiny_cache) == 7.5 / 15.0


def test_identity_run_costs_everything(tiny_cache):
    strategy = Strategy((ExecuteOperators(pct(100)), Select("mutants", True, pct(100))))
    run = execute(strategy, tiny_cache, np.random.default_rng(0))
    assert time_objective(run, tiny_cache) == 1.0
    assert score_objective(run, tiny_cache) == 1.0


def test_empty_run_is_free_and_scoreless(tiny_cache):
    run = ReductionRun(operator_ids=(), mutant_ids=(), strategy_cost=0.0)
    assert time_objective(run, tiny_cache) == 0.0
    assert score_objective(run, tiny_cache) == 0.0


def test_relative_score_worked_example():
    cache = eight_of_ten_cache()
    run = ReductionRun(operator_ids=("op",),
                       mutant_ids=("m0", "m1", "m2", "m3", "m4"),
                       strategy_cost=10.0)
    assert score_objective(run, cache) == 0.625


def test_score_zero_when_nothing_killable():
    cache = MutationCache.from_records(
        operators=(OperatorRecord(id="op", generation_cost=1.0),),
        tests=(TestRecord(id="t", priority_rank=0),),
        mutants=(MutantRecord(id="m", operator_id="op", exec_cost=1.0,
                              killers=()),),
    )
    run = ReductionRun(operator_ids=("op",), mutant_ids=("m",),
                       strategy_cost=2.0)
    assert score_objective(run, cache) == 0.0


def test_score_is_an_exact_integer_ratio(tiny_cache):
    run = ReductionRun(operator_ids=("opA",), mutant_ids=("m3",),
                       strategy_cost=1.0)
    # m3's killer t4 kills only m3: exactly 1 of 3 killable.
    assert score_objective(run, tiny_cache) == 1 / 3


# ===== monotonicity under mutant-set inclusion =====

def test_objectives_monotone_under_inclusion():
    cache = synth_cache(5, 120, 30, seed=23, kill_density=0.6, redundancy=0.5)
    cost_of = {m.id: m.exec_cost for m in cache.mutants}
    ids = [m.id for m in cache.mutants]
    rng = np.random.default_rng(99)
    for _ in range(200):
        size_small = int(rng.integers(0, len(ids)))
        size_extra = int(rng.integers(0, len(ids) - size_small + 1))
        picked = rng.permutation(ids)
        small = sorted(picked[:size_small])
        large = sorted(picked[:size_small + size_extra])

        def run_for(subset):
            return ReductionRun(
                operator_ids=tuple(op.id for op in cache.operators),
                mutant_ids=tuple(subset),
                strategy_cost=math.fsum(cost_of[m] for m in subset),
            )

        assert time_objective(run_for(small), cache) <= \
            time_objective(run_for(large), cache)
        assert score_objective(run_for(small), cache) <= \
            score_objective(run_for(large), cache)


# ===== repetition-averaged evaluation =====

def test_identity_strategy_evaluates_to_unity(tiny_cache):
    strategy = Strategy((ExecuteOperators(pct(100)), Select("mutants", True, pct(100))))
    for n in (1, 3, 5):
        pair = evaluate(strategy, tiny_cache, n, rng=np.random.default_rng(4))
        assert pair.time == 1.0
        assert pair.score == 1.0


def test_deterministic_strategy_equals_single_run(tiny_cache):
    strategy = parse_strategy("Execute Operators 100%")
    single = execute(strategy, tiny_cache, np.random.default_rng(0))
    expected_time = time_objective(single, tiny_cache)
    expected_score = score_objective(single, tiny_cache)
    pair = evaluate(strategy, tiny_cache, 5, rng=np.random.default_rng(77))
    assert pair.time == pytest.approx(expected_time, rel=1e-12)
    assert pair.score == expected_score


def test_half_sampler_matches_external_aggregation():
    """Re-run the five repetition substreams by hand and aggregate them
    outside the implementation: time as summed-cost ratio, score as total
    kills over repetitions times killable."""
    cache = synth_cache(4, 60, 20, seed=31, kill_density=0.8)
    strategy = parse_strategy("Execute Operators 100% → Retain Mutants random 50%")
    seed = 555

    pair = evaluate(strategy, cache, 5, rng=np.random.default_rng(seed))

    substreams = np.random.default_rng(seed).spawn(5)
    costs = []
    kills = 0
    for sub in substreams:
        run = execute(strategy, cache, sub)
        costs.append(run.strategy_cost)
        kills += select_tests(run.mutant_ids, cache).killed_mutants
    killable = sum(1 for m in cache.mutants if m.killers)
    assert pair.time == math.fsum(costs) / math.fsum([cache.total_cost] * 5)
    assert pair.score == kills / (5 * killable)


def test_evaluate_is_deterministic_in_seed(tiny_cache):
    strategy = parse_strategy("Execute Operators 50% → Retain Mutants random 50%")
    a = evaluate(strategy, tiny_cache, 5, rng=np.random.default_rng(42))
    b = evaluate(strategy, tiny_cache, 5, rng=np.random.default_rng(42))
    assert a == b


def test_evaluate_rejects_zero_repetitions(tiny_cache):
    strategy = parse_strategy("Execute Operators 100%")
    with pytest.raises(ValueError):
        evaluate(strategy, tiny_cache, 0, rng=np.random.default_rng(0))


def test_objectives_stay_in_unit_interval(grammar):
    cache = synth_cache(5, 80, 30, seed=47, kill_density=0.5)
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 100:
        strategy = strategy_from_chromosome(random_chromosome(rng), grammar)
        if strategy is None:
            continue
        pair = evaluate(strategy, cache, 3, rng=rng)
        assert 0.0 <= pair.time <= 1.0
        assert 0.0 <= pair.score <= 1.0
        checked += 1


@pytest.mark.parametrize("cache", [
    synth_cache(5, 60, 20, seed=7, kill_density=0.8),
    # Large enough for the VM's row-by-row Execute and the kernel's
    # unselected-side count.
    synth_cache(6, SPANS_MIN_MUTANTS + 1000, 200, seed=3, kill_density=0.8),
], ids=["small", "large"])
def test_a_batch_of_runs_scores_each_run_as_it_scores_alone(grammar, cache):
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 25:
        strategy = strategy_from_chromosome(random_chromosome(rng), grammar)
        if strategy is None:
            continue
        seeds = [int(s) for s in rng.integers(0, 2**63, size=3)]
        for n in (1, 4):
            alone = [evaluate_indexed(strategy, cache, n,
                                      np.random.default_rng(s).spawn(n))[0]
                     for s in seeds]
            assert evaluate_indexed(strategy, cache, n, row_generators(seeds, n)) == alone, \
                render(strategy)
        checked += 1
