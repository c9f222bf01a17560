import hashlib
import math

import numpy as np
import pytest

from mutreduce import baselines
from mutreduce.baselines import (BASELINE_KINDS, BASELINES, BATCH_MAX_CELLS, baseline_front,
                                 baseline_strategy)
from mutreduce.cache import (MutantRecord, MutationCache, OperatorRecord,
                             TestRecord, synth_cache)
from mutreduce.objectives import ObjectivePair, evaluate, evaluate_indexed, select_tests
from mutreduce.runio import front_csv_text
from mutreduce.strategy import execute, render


def dominates(a, b) -> bool:
    """True if a is no worse on both objectives and better on at least one
    (time minimized, score maximized). Equal points never dominate."""
    return (a.time <= b.time and a.score >= b.score) and (
        a.time < b.time or a.score > b.score)


@pytest.fixture(scope="module")
def bench_cache():
    return synth_cache(6, 100, 25, seed=37, kill_density=0.7, redundancy=0.4)


def yields_cache():
    """Operators A and C yield 5 mutants each, B yields 3."""
    ops = tuple(OperatorRecord(id=o, generation_cost=1.0) for o in "ABC")
    tests = (TestRecord(id="t0", priority_rank=0),)
    mutants = []
    for op, count in (("A", 5), ("B", 3), ("C", 5)):
        for i in range(count):
            mutants.append(MutantRecord(id=f"{op}{i}", operator_id=op,
                                        exec_cost=1.0, killers=("t0",)))
    return MutationCache.from_records(operators=ops, tests=tests, mutants=tuple(mutants))


# ===== row texts and strategy texts =====

def test_spec_validation():
    """Texts with a missing, out-of-range or foreign parameter, or an
    unknown family, name no baseline."""
    for text in ("Baseline RMS random", "Baseline RMS random 101%", "Baseline SM random 10%",
                 "Baseline SM exclude -1", "Baseline XXX random 10%"):
        with pytest.raises(ValueError):
            baseline_strategy(text)


@pytest.mark.parametrize("spec,text", [
    (("RMS", 30), "Baseline RMS random 30%"),
    (("ROS", 90), "Baseline ROS random 90%"),
    (("SM", 2), "Baseline SM exclude 2"),
])
def test_describe_parse_round_trip(spec, text):
    kind, parameter = spec
    row_text, strategy_text, _ = BASELINES[kind]
    assert row_text.format(parameter) == text
    assert render(baseline_strategy(text)) == strategy_text.format(parameter)


@pytest.mark.parametrize("spec,text", [
    (("RMS", 30), "Execute Operators 100% → Retain Mutants random 30%"),
    (("ROS", 90), "Execute Operators 90%"),
    (("SM", 2), "Discard Operators highest-yield 2 → Execute Operators 100%"),
])
def test_spec_strategy_text(spec, text):
    kind, parameter = spec
    assert render(baseline_strategy(BASELINES[kind][0].format(parameter))) == text


def test_every_swept_row_text_reads_back_to_its_strategy():
    for kind, (row_text, strategy_text, parameters) in BASELINES.items():
        for parameter in parameters:
            strategy = baseline_strategy(row_text.format(parameter))
            assert render(strategy) == strategy_text.format(parameter)


def test_front_rows_carry_the_table_texts(bench_cache, monkeypatch):
    """With the non-dominated filter off, a front holds one row per swept
    parameter, in sweep order, each with the table's row text."""
    monkeypatch.setattr(baselines, "nondominated", lambda run, key: run)
    for kind, (row_text, _, parameters) in BASELINES.items():
        front = baseline_front(kind, bench_cache, [3])[0]
        assert [member.text for member in front] == [row_text.format(p) for p in parameters]


def test_parse_rejects_garbage():
    for text in ("Baseline SM random 10%", "just a strategy", "Baseline SM exclude 2 junk",
                 "Baseline RMS random 10% x", "Baseline SM exclude +2",
                 "Baseline RMS random 1_0%", "Baseline ROS random 120%",
                 # Decimal, but not as row texts are written: Arabic-Indic
                 # digits, a fullwidth zero, a leading zero.
                 "Baseline RMS random \u0663\u0660%", "Baseline SM exclude \uff103",
                 "Baseline RMS random 030%",
                 "Baseline ROS random 50% → Retain Mutants random 10%"):
        with pytest.raises(ValueError):
            baseline_strategy(text)


def test_a_parameter_past_ints_digit_limit_is_a_bad_count():
    """Named as any bad count is, not with int()'s message, in a message
    that names the row text by its length."""
    with pytest.raises(ValueError, match=r"bad operator count: 5000 digits$") as excinfo:
        baseline_strategy("Baseline SM exclude " + "9" * 5000)
    assert len(str(excinfo.value)) < 150


# ===== reduction semantics =====

def test_rms_keeps_exact_count(bench_cache):
    run = execute(baseline_strategy("Baseline RMS random 10%"), bench_cache,
                  np.random.default_rng(0))
    assert len(run.mutant_ids) == 10
    assert len(run.operator_ids) == 6  # RMS executes every operator


def test_rms_pays_all_generation_costs(bench_cache):
    run = execute(baseline_strategy("Baseline RMS random 10%"), bench_cache,
                  np.random.default_rng(1))
    generation = sum(op.generation_cost for op in bench_cache.operators)
    cost_of = {m.id: m.exec_cost for m in bench_cache.mutants}
    expected = generation + sum(cost_of[m] for m in run.mutant_ids)
    assert run.strategy_cost == pytest.approx(expected, rel=1e-12)


def test_ros_full_percentage_is_identity(bench_cache):
    run = execute(baseline_strategy("Baseline ROS random 100%"), bench_cache,
                  np.random.default_rng(0))
    assert run.mutant_ids == tuple(m.id for m in bench_cache.mutants)
    assert run.strategy_cost == pytest.approx(bench_cache.total_cost, rel=1e-12)


def test_ros_keeps_whole_operators(bench_cache):
    run = execute(baseline_strategy("Baseline ROS random 50%"), bench_cache,
                  np.random.default_rng(5))
    assert len(run.operator_ids) == 3  # (50 * 6 + 50) // 100
    owner = {m.id: m.operator_id for m in bench_cache.mutants}
    expected = {m.id for m in bench_cache.mutants
                if owner[m.id] in run.operator_ids}
    assert set(run.mutant_ids) == expected


def test_sm_excludes_highest_yield_with_id_tie_break():
    cache = yields_cache()
    run = execute(baseline_strategy("Baseline SM exclude 2"), cache, np.random.default_rng(0))
    # A and C tie at 5; both outrank B, so both go.
    assert run.operator_ids == ("B",)
    assert len(run.mutant_ids) == 3
    assert all(m.startswith("B") for m in run.mutant_ids)
    # Excluding one of the tied pair drops the lower id.
    run = execute(baseline_strategy("Baseline SM exclude 1"), cache, np.random.default_rng(0))
    assert run.operator_ids == ("B", "C")


def test_sm_is_deterministic_whatever_the_seed():
    cache = yields_cache()
    strategy = baseline_strategy("Baseline SM exclude 1")
    runs = [execute(strategy, cache, np.random.default_rng(seed))
            for seed in range(5)]
    assert all(r == runs[0] for r in runs)


def test_sm_can_exclude_everything():
    cache = yields_cache()
    run = execute(baseline_strategy("Baseline SM exclude 99"), cache, np.random.default_rng(0))
    assert run.operator_ids == ()
    assert run.mutant_ids == ()
    assert run.strategy_cost == 0.0


# ===== sweeps =====

def test_sweep_grids(bench_cache):
    assert BASELINES["RMS"][2] == (10, 20, 30, 40, 50, 60, 70, 80, 90)
    assert BASELINES["ROS"][2] == (10, 20, 30, 40, 50, 60, 70, 80, 90)
    assert BASELINES["SM"][2] == (1, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError):
        baseline_front("SMX", bench_cache, [1])
    assert BASELINE_KINDS == ("RMS", "ROS", "SM")


def test_front_sizes_bounded_by_sweep(bench_cache):
    for kind, bound in (("RMS", 9), ("ROS", 9), ("SM", 6)):
        front = baseline_front(kind, bench_cache, [3])[0]
        assert 1 <= len(front) <= bound
        for member in front:
            assert member.text.startswith(f"Baseline {kind}")


def test_fronts_are_mutually_nondominated(bench_cache):
    for kind in BASELINE_KINDS:
        front = baseline_front(kind, bench_cache, [4])[0]
        for a in front:
            for b in front:
                if a is not b:
                    assert not dominates(ObjectivePair(a.time, a.score),
                                         ObjectivePair(b.time, b.score))


def test_front_deterministic_per_seed(bench_cache):
    a = baseline_front("RMS", bench_cache, [6])[0]
    b = baseline_front("RMS", bench_cache, [6])[0]
    assert a == b
    c = baseline_front("RMS", bench_cache, [7])[0]
    assert a != c


def test_sm_front_identical_across_seeds(bench_cache):
    fronts = [baseline_front("SM", bench_cache, [s])[0] for s in range(4)]
    points = [[(m.time, m.score) for m in f] for f in fronts]
    assert all(p == points[0] for p in points)


def test_rms_fronts_vary_but_counts_hold(bench_cache):
    rng_points = set()
    for seed in range(4):
        front = baseline_front("RMS", bench_cache, [seed])[0]
        rng_points.add(tuple((m.time, m.score) for m in front))
    assert len(rng_points) > 1


def test_runs_of_many_seeds_equal_single_seed_calls(monkeypatch):
    """Two runs of five rows fill a batch on this cache, so three seeds
    take batches of 10 and 5 rows; each run scores as it does alone."""
    cache = synth_cache(6, BATCH_MAX_CELLS // 10, 40, seed=11, kill_density=0.8)
    batch_rows = []

    def spy(strategy, cache, n, rows):
        batch_rows.append(len(rows))
        return evaluate_indexed(strategy, cache, n, rows)

    monkeypatch.setattr(baselines, "evaluate_indexed", spy)
    for kind in BASELINE_KINDS:
        batch_rows.clear()
        together = baseline_front(kind, cache, [3, 4, 5])
        assert batch_rows == [10, 5] * len(BASELINES[kind][2])
        assert together == [baseline_front(kind, cache, [seed])[0] for seed in (3, 4, 5)]


# ===== evaluation aggregation =====

def test_evaluate_baseline_matches_external_aggregation(bench_cache):
    strategy = baseline_strategy("Baseline RMS random 40%")
    seed = 777
    pair = evaluate(strategy, bench_cache, 5,
                    rng=np.random.default_rng(seed))
    time, score = pair.time, pair.score

    substreams = np.random.default_rng(seed).spawn(5)
    costs = []
    kills = 0
    for sub in substreams:
        run = execute(strategy, bench_cache, sub)
        costs.append(run.strategy_cost)
        kills += select_tests(run.mutant_ids, bench_cache).killed_mutants
    killable = sum(1 for m in bench_cache.mutants if m.killers)
    assert time == math.fsum(costs) / math.fsum([bench_cache.total_cost] * 5)
    assert score == kills / (5 * killable)


def test_rms_means_are_monotone_in_percentage(bench_cache):
    """Larger samples cost more and kill more, on average: check the seed-
    averaged objectives are non-decreasing along the sweep."""
    mean_time = []
    mean_score = []
    for p in BASELINES["RMS"][2]:
        strategy = baseline_strategy(f"Baseline RMS random {p}%")
        times, scores = [], []
        for seed in range(30):
            pair = evaluate(strategy, bench_cache, 3,
                            rng=np.random.default_rng(seed))
            times.append(pair.time)
            scores.append(pair.score)
        mean_time.append(np.mean(times))
        mean_score.append(np.mean(scores))
    assert all(a <= b + 1e-12 for a, b in zip(mean_time, mean_time[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(mean_score, mean_score[1:]))


# ===== byte identity =====

# SHA-256 of front_csv_text(baseline_front(kind, bench_cache, [seed])[0]),
# recorded when baselines still had their own evaluator. Running them as
# strategies on the VM must not change a byte.
PINNED_FRONT_DIGESTS = {
    ("RMS", 1): "93751efe8583b8f727343be4e5ecb064545279f8df20455c3764e9e3c2a0e2f0",
    ("RMS", 2): "b8f5e56c54b95747d4722e5c3c3535eda3c21b5ab3624b76af71115c3d545fd9",
    ("RMS", 3): "4111a427eb952347d30b0c735a43e77bdb4251b57c3eef1645f817776269cdf1",
    ("ROS", 1): "36673f0640436089199cd163c15392843190760de30a7933c7cfa627cf30f026",
    ("ROS", 2): "03f46612ccefed745d08a9d221d0d95b209d9ca49808d4601d788d851cca76c5",
    ("ROS", 3): "3b35222d4c9d6196cad92a3584e1f3ff7a2351ba67d001ce18002558b8487e60",
    ("SM", 1): "1df432f7792eb86588f8d06149492c6f69954e87c23ca49da76252dcaf20e1e0",
    ("SM", 2): "d0507eefac938d0c30f41d1cdf1ac112961b33970c474e68b3febe3f167b6443",
    ("SM", 3): "e0e63173e9815a252e5e8e0045ec81d1dbf8d87fecd360fcf0a489b6faa3caaf",
}


@pytest.mark.parametrize("kind,seed", sorted(PINNED_FRONT_DIGESTS))
def test_front_bytes_match_pinned_digest(bench_cache, kind, seed):
    text = front_csv_text(baseline_front(kind, bench_cache, [seed])[0])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED_FRONT_DIGESTS[(kind, seed)]
