import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drift import reroll_killers
from mutreduce.cache import (CacheError, MutantRecord, MutationCache,
                             OperatorRecord, TestRecord, dumps_cache,
                             global_score, load_cache, loads_cache,
                             operator_yields, read_kill_matrix_csv,
                             save_cache, synth_cache)


def test_total_cost_is_sum_of_all_cost_fields(tiny_cache):
    expected = 2.0 + 3.0 + 1.0 + 2.0 + 4.0 + 3.0
    assert tiny_cache.total_cost == pytest.approx(expected, abs=0)


def test_killable_count(tiny_cache):
    assert tiny_cache.killable_count == 3


def test_unknown_killer_test_names_both_ids():
    with pytest.raises(CacheError, match=r"m1.*tX"):
        MutationCache.from_records(
            operators=(OperatorRecord(id="op", generation_cost=0.0),),
            tests=(TestRecord(id="t1", priority_rank=0),),
            mutants=(MutantRecord(id="m1", operator_id="op",
                                  exec_cost=1.0, killers=("tX",)),),
        )


def test_unknown_operator_rejected():
    with pytest.raises(CacheError, match="unknown operator"):
        MutationCache.from_records(
            operators=(OperatorRecord(id="op", generation_cost=0.0),),
            tests=(TestRecord(id="t1", priority_rank=0),),
            mutants=(MutantRecord(id="m1", operator_id="nope",
                                  exec_cost=1.0, killers=()),),
        )


@pytest.mark.parametrize("section", ["operators", "tests", "mutants"])
def test_empty_sections_rejected(tiny_cache, section):
    parts = {
        "operators": tiny_cache.operators,
        "tests": tiny_cache.tests,
        "mutants": tiny_cache.mutants,
    }
    parts[section] = ()
    with pytest.raises(CacheError):
        MutationCache.from_records(**parts)


def test_duplicate_ids_rejected(tiny_cache):
    with pytest.raises(CacheError, match="duplicate operator id"):
        MutationCache.from_records(
            operators=tiny_cache.operators + (OperatorRecord(id="opA", generation_cost=1.0),),
            tests=tiny_cache.tests,
            mutants=tiny_cache.mutants,
        )


def test_duplicate_priority_rank_rejected(tiny_cache):
    tests = tiny_cache.tests[:-1] + (TestRecord(id="t9", priority_rank=1),)
    with pytest.raises(CacheError, match="priority_rank"):
        MutationCache.from_records(operators=tiny_cache.operators, tests=tests,
                                   mutants=tiny_cache.mutants[:3])


def one_mutant_cache(generation_cost=0.0, exec_cost=1.0, killers=()):
    return MutationCache.from_records(
        operators=(OperatorRecord(id="op", generation_cost=generation_cost),),
        tests=(TestRecord(id="t1", priority_rank=0),),
        mutants=(MutantRecord(id="m", operator_id="op",
                              exec_cost=exec_cost, killers=killers),),
    )


def test_bad_costs_rejected():
    with pytest.raises(CacheError, match="generation_cost"):
        one_mutant_cache(generation_cost=-1.0)
    with pytest.raises(CacheError, match="exec_cost"):
        one_mutant_cache(exec_cost=0.0)
    with pytest.raises(CacheError, match="exec_cost"):
        one_mutant_cache(exec_cost=float("nan"))


@pytest.mark.parametrize("generation_cost,exec_costs", [(0.0, [1e308, 1e308]),
                                                       (1e308, [1e308])])
def test_costs_summing_past_the_float_range_are_rejected(generation_cost, exec_costs):
    text = json.dumps({
        "operators": [{"id": "op", "generation_cost": generation_cost}],
        "tests": [{"id": "t1", "priority_rank": 0}],
        "mutants": [{"id": f"m{i}", "operator_id": "op", "exec_cost": cost,
                     "killers": ["t1"]} for i, cost in enumerate(exec_costs)]})
    with pytest.raises(CacheError, match="costs overflow"):
        loads_cache(text)


def test_duplicate_killer_rejected():
    with pytest.raises(CacheError, match="duplicate killer"):
        one_mutant_cache(killers=("t1", "t1"))


# ===== serialization =====

def test_round_trip_equality(tiny_cache, tmp_path):
    path = tmp_path / "cache.json"
    save_cache(tiny_cache, path)
    assert load_cache(path) == tiny_cache


def test_save_twice_identical_bytes(tiny_cache, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_cache(tiny_cache, a)
    save_cache(tiny_cache, b)
    assert a.read_bytes() == b.read_bytes()


def test_loads_of_dumps_is_identity(small_synth):
    assert loads_cache(dumps_cache(small_synth)) == small_synth


def sorted_and_scrambled(cache):
    """The canonical text of a cache with ranks that are not positions, and
    the same records with every section and killer list reversed."""
    doc = json.loads(dumps_cache(cache))
    for test in doc["tests"]:
        test["priority_rank"] = 3 * test["priority_rank"] + 1
    sorted_text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    for section in ("operators", "tests", "mutants"):
        doc[section].reverse()
    for mutant in doc["mutants"]:
        mutant["killers"].reverse()
    return sorted_text, json.dumps(doc)


def test_record_order_does_not_matter(small_synth):
    sorted_text, scrambled_text = sorted_and_scrambled(small_synth)
    scrambled = loads_cache(scrambled_text)
    assert scrambled == loads_cache(sorted_text)
    assert dumps_cache(scrambled) == sorted_text


def test_costs_survive_round_trip_exactly():
    # 9 significant digits is the serialization precision; construction
    # already quantizes, so the stored float must come back bit-equal.
    m = MutantRecord(id="m", operator_id="op",
                     exec_cost=0.123456789123456, killers=())
    cache = MutationCache.from_records(
        operators=(OperatorRecord(id="op", generation_cost=1.0 / 3.0),),
        tests=(TestRecord(id="t", priority_rank=0),),
        mutants=(m,),
    )
    again = loads_cache(dumps_cache(cache))
    assert again.mutants[0].exec_cost == cache.mutants[0].exec_cost
    assert again.operators[0].generation_cost == cache.operators[0].generation_cost


def test_save_to_unwritable_path_raises(tiny_cache, tmp_path):
    with pytest.raises(OSError):
        save_cache(tiny_cache, tmp_path)  # a directory, not a file


def test_loads_rejects_garbage():
    with pytest.raises(CacheError, match="not valid JSON"):
        loads_cache("{nope")
    with pytest.raises(CacheError, match="missing top-level key"):
        loads_cache('{"operators": [], "tests": []}')
    with pytest.raises(CacheError, match="malformed record"):
        loads_cache('{"operators": [{"id": "a"}], "tests": [], "mutants": []}')


@pytest.mark.parametrize("enabled", [True, False])
def test_loads_pauses_and_restores_the_collector(tiny_cache, monkeypatch, enabled):
    import mutreduce.cache as cache_mod

    seen = []

    def recording_cache(**parts):
        seen.append(gc.isenabled())
        return MutationCache(**parts)

    monkeypatch.setattr(cache_mod, "MutationCache", recording_cache)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert loads_cache(dumps_cache(tiny_cache)) == tiny_cache
        assert seen == [False]
        assert gc.isenabled() is enabled
        for bad in ("{", '{"operators": [], "tests": [], "mutants": [{}]}'):
            with pytest.raises(CacheError):
                loads_cache(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# ===== global_score =====

def test_global_score_three_of_four(tiny_cache):
    assert global_score(tiny_cache) == 0.75


def test_global_score_all_killable():
    cache = MutationCache.from_records(
        operators=(OperatorRecord(id="op", generation_cost=0.0),),
        tests=(TestRecord(id="t", priority_rank=0),),
        mutants=(MutantRecord(id="m", operator_id="op", exec_cost=1.0,
                              killers=("t",)),),
    )
    assert global_score(cache) == 1.0


def test_global_score_matches_recount():
    cache = synth_cache(7, 100, 50, seed=7, kill_density=0.3)
    recount = sum(1 for m in cache.mutants if m.killers)
    assert global_score(cache) == recount / 100


# ===== operator_yields =====

def test_operator_yields_tie_broken_by_id():
    ops = tuple(OperatorRecord(id=o, generation_cost=0.0) for o in "ABC")
    tests = (TestRecord(id="t", priority_rank=0),)
    mutants = []
    for op, count in (("A", 5), ("B", 3), ("C", 5)):
        for i in range(count):
            mutants.append(MutantRecord(id=f"{op}{i}", operator_id=op,
                                        exec_cost=1.0, killers=()))
    cache = MutationCache.from_records(operators=ops, tests=tests, mutants=tuple(mutants))
    assert operator_yields(cache) == [("A", 5), ("C", 5), ("B", 3)]


def test_operator_yields_single_operator(tiny_cache):
    cache = MutationCache.from_records(
        operators=(OperatorRecord(id="solo", generation_cost=0.0),),
        tests=tiny_cache.tests,
        mutants=tuple(
            MutantRecord(id=m.id, operator_id="solo",
                         exec_cost=m.exec_cost, killers=m.killers)
            for m in tiny_cache.mutants
        ),
    )
    assert operator_yields(cache) == [("solo", 4)]


def test_operator_yields_matches_histogram(small_synth):
    histogram = {op.id: 0 for op in small_synth.operators}
    for m in small_synth.mutants:
        histogram[m.operator_id] += 1
    result = operator_yields(small_synth)
    assert dict(result) == histogram
    assert sum(count for _, count in result) == len(small_synth.mutants)
    counts = [count for _, count in result]
    assert counts == sorted(counts, reverse=True)


# ===== synth_cache =====

def test_synth_deterministic():
    a = synth_cache(7, 100, 50, seed=42, kill_density=0.3, cost_skew=2.0,
                    redundancy=0.5)
    b = synth_cache(7, 100, 50, seed=42, kill_density=0.3, cost_skew=2.0,
                    redundancy=0.5)
    assert a == b
    assert dumps_cache(a) == dumps_cache(b)
    assert len(a.mutants) == 100


def test_synth_full_density_kills_everything():
    for seed in (0, 1, 99):
        cache = synth_cache(4, 50, 10, seed=seed, kill_density=1.0)
        assert global_score(cache) == 1.0


def test_synth_redundancy_groups_killer_sets():
    loose = synth_cache(5, 200, 30, seed=3, kill_density=0.9, redundancy=0.0)
    tight = synth_cache(5, 200, 30, seed=3, kill_density=0.9, redundancy=0.95)
    distinct_loose = len({m.killers for m in loose.mutants if m.killers})
    distinct_tight = len({m.killers for m in tight.mutants if m.killers})
    assert distinct_tight < distinct_loose


def test_synth_yields_are_skewed():
    cache = synth_cache(8, 600, 50, seed=11, cost_skew=2.0)
    counts = [count for _, count in operator_yields(cache)]
    assert counts[0] > 3 * counts[-1]


def test_synth_rejects_bad_arguments():
    with pytest.raises(ValueError):
        synth_cache(0, 10, 10, seed=1)
    with pytest.raises(ValueError):
        synth_cache(2, 10, 10, seed=1, kill_density=0.0)
    with pytest.raises(ValueError):
        synth_cache(2, 10, 10, seed=1, cost_skew=0.5)
    with pytest.raises(ValueError):
        synth_cache(2, 10, 10, seed=1, redundancy=1.5)


@pytest.mark.parametrize("cost_skew", [math.inf, math.nan])
def test_synth_rejects_non_finite_cost_skew(cost_skew):
    with pytest.raises(ValueError, match="cost_skew must be finite and >= 1"):
        synth_cache(2, 10, 10, seed=1, cost_skew=cost_skew)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_synth_is_pure_function_of_seed(seed):
    a = synth_cache(3, 20, 8, seed=seed)
    b = synth_cache(3, 20, 8, seed=seed)
    assert a == b


# ===== kill-matrix import =====

def test_kill_matrix_round_trip(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text(
        "mutant_id,operator_id,exec_cost,killed_by\n"
        "m1,opA,1.5,t2;t1\n"
        "m2,opB,2.0,\n"
        "m3,opA,0.5,t1\n",
        encoding="utf-8",
    )
    cache = read_kill_matrix_csv(path)
    assert [op.id for op in cache.operators] == ["opA", "opB"]
    assert all(op.generation_cost == 0.0 for op in cache.operators)
    assert [t.id for t in cache.tests] == ["t1", "t2"]
    by_id = {m.id: m for m in cache.mutants}
    assert set(by_id["m1"].killers) == {"t1", "t2"}
    assert by_id["m2"].killers == ()
    assert by_id["m3"].exec_cost == 0.5


@pytest.mark.parametrize("cost", ["1_0", " \u0663 ", " 3", "+3", ".5", "nan", "inf"])
def test_kill_matrix_costs_are_spelled_as_json_numbers(tmp_path, cost):
    """float() reads each of these cells; a cache file could hold none."""
    path = tmp_path / "matrix.csv"
    path.write_text(f"mutant_id,operator_id,exec_cost,killed_by\nm1,opA,{cost},t1\n",
                    encoding="utf-8")
    with pytest.raises(CacheError) as excinfo:
        read_kill_matrix_csv(path)
    assert str(excinfo.value) == "mutant 'm1': bad exec_cost"


def test_kill_matrix_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mutant_id,exec_cost\nm1,1.0\n", encoding="utf-8")
    with pytest.raises(CacheError, match="columns"):
        read_kill_matrix_csv(path)


def test_kill_matrix_may_open_with_a_byte_order_mark(tmp_path):
    """Spreadsheets and Windows tools open a UTF-8 CSV with a byte-order
    mark. The import reads past it, and counts lines as without it."""
    path = tmp_path / "matrix.csv"
    rows = "mutant_id,operator_id,exec_cost,killed_by\nm1,opA,1.5,t1\n"
    path.write_text(rows, encoding="utf-8")
    plain = read_kill_matrix_csv(path)
    path.write_text(rows, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_kill_matrix_csv(path) == plain
    path.write_text(rows + "m2,opA,1.5," + "t" * 200_000 + "\n", encoding="utf-8-sig")
    with pytest.raises(CacheError, match="line 3: field larger than field limit"):
        read_kill_matrix_csv(path)


# ===== reroll_killers =====

def test_reroll_changes_only_the_chosen_fraction(small_synth):
    clone = reroll_killers(small_synth, 0.05, seed=9)
    assert clone.operators == small_synth.operators
    assert clone.tests == small_synth.tests
    changed = sum(
        1 for a, b in zip(small_synth.mutants, clone.mutants)
        if a.killers != b.killers
    )
    # round(0.05 * 60) = 3 mutants re-rolled; a redraw may coincide with
    # the old set, so changed can fall short but never exceed it.
    assert changed <= 3
    for a, b in zip(small_synth.mutants, clone.mutants):
        assert a.id == b.id
        assert a.exec_cost == b.exec_cost
        assert a.operator_id == b.operator_id


def test_reroll_deterministic(small_synth):
    a = reroll_killers(small_synth, 0.2, seed=5)
    b = reroll_killers(small_synth, 0.2, seed=5)
    assert a == b


def test_reroll_output_round_trips(small_synth):
    _, scrambled_text = sorted_and_scrambled(small_synth)
    clone = reroll_killers(loads_cache(scrambled_text), 0.5, seed=3)
    assert clone.killer_tests.dtype == np.int32
    assert loads_cache(dumps_cache(clone)) == clone


def test_reroll_zero_fraction_is_identity(small_synth):
    assert reroll_killers(small_synth, 0.0, seed=1) == small_synth


def test_reroll_rejects_bad_fraction(small_synth):
    with pytest.raises(ValueError):
        reroll_killers(small_synth, 1.5, seed=1)


def test_total_cost_matches_fsum(small_synth):
    expected = math.fsum(
        [op.generation_cost for op in small_synth.operators]
        + [m.exec_cost for m in small_synth.mutants]
    )
    assert small_synth.total_cost == expected
