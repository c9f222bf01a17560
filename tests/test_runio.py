import csv
import io
import os
import stat
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutreduce.baselines import baseline_strategy
from mutreduce.genome import Chromosome
from mutreduce.objectives import evaluate
from mutreduce.pareto import points_array
from mutreduce.runio import (FRONT_COLUMNS, atomic_write_text,
                             csv_text, front_csv_text, manifest_text, parse_config_text,
                             read_front_csv, read_front_points, read_manifest,
                             reevaluated_front, runlog_csv_text, sha256_file,
                             sha256_text, write_manifest)
from mutreduce.search import EvaluatedStrategy, GenerationStat, SearchConfig
from mutreduce.strategy import parse_strategy


def sample_front():
    return [
        EvaluatedStrategy(time=0.1 + 0.2, score=0.75, eval_seed=11,
                          text="Execute Operators 10%",
                          chromosome=Chromosome((3, 141, 59, 26))),
        EvaluatedStrategy(time=0.9, score=1.0, eval_seed=22,
                          text="Baseline RMS random 90%"),
    ]


# ===== front files =====

def test_front_csv_text_layout():
    text = front_csv_text(sample_front())
    lines = text.splitlines()
    assert lines[0] == "seed,chromosome,strategy_text,time,score"
    assert lines[1] == '11,"3,141,59,26",Execute Operators 10%,0.30000000000000004,0.75'
    assert lines[2] == "22,,Baseline RMS random 90%,0.9,1.0"
    assert text.endswith("\n")


def test_front_csv_round_trip(tmp_path):
    path = tmp_path / "front.csv"
    atomic_write_text(path, front_csv_text(sample_front()))
    assert read_front_csv(path) == sample_front()


def test_front_csv_text_reproduces_a_front_file_byte_for_byte(tmp_path):
    path = tmp_path / "front.csv"
    path.write_text(",".join(FRONT_COLUMNS) + "\n"
                    '11,"3,141,59,26",Execute Operators 10%,0.30000000000000004,0.75\n'
                    "22,,Baseline RMS random 90%,1e-17,1.0\n"
                    '7,"0,255",Discard Mutants random 5 → Execute Operators 100%,'
                    "0.3333333333333333,123456.789012345\n"
                    "18446744073709551615,,Baseline SM exclude 2,5e-324,0.0\n",
                    encoding="utf-8")
    assert front_csv_text(read_front_csv(path)) == path.read_text(encoding="utf-8")


def test_front_floats_survive_round_trip(tmp_path):
    # repr gives the shortest digits that parse back to the same float
    awkward = [1 / 3, 0.1 + 0.2, 1e-17, 123456.789012345]
    front = [EvaluatedStrategy(time=v, score=v, eval_seed=0, text="x")
             for v in awkward]
    path = tmp_path / "front.csv"
    atomic_write_text(path, front_csv_text(front))
    assert [r.time for r in read_front_csv(path)] == awkward


def test_front_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "front.csv"
    path.write_text("seed,genes,text,time,score\n1,,x,0.0,0.0\n")
    with pytest.raises(ValueError, match="must have columns"):
        read_front_csv(path)


def test_front_csv_reports_bad_line(tmp_path):
    path = tmp_path / "front.csv"
    path.write_text(",".join(FRONT_COLUMNS) + "\n"
                    "1,,ok,0.5,0.5\n"
                    "2,,bad,not-a-number,0.5\n")
    with pytest.raises(ValueError, match="line 3"):
        read_front_csv(path)


@pytest.mark.parametrize("line,reason", [
    ("-1,,x,0.5,0.5", "seed must be non-negative"),
    ("1,,x,0.5,0.5,extra", "expected 5 cells, got 6"),
    ("1,,x,0.5", "expected 5 cells, got 4"),
    ('1,"3,,4",x,0.5,0.5', "bad chromosome text '3,,4'"),
    ("1,genes,x,0.5,0.5", "bad chromosome text 'genes'"),
    (f"{2**64},,x,0.5,0.5", f"seed must be below {2**64}"),
    ("1_0,,x,0.5,0.5", "bad seed '1_0'"),
    ("\u0663,,x,0.5,0.5", "bad seed '\u0663'"),
    (" 7,,x,0.5,0.5", "bad seed ' 7'"),
    ("+5,,x,0.5,0.5", "bad seed '+5'"),
    ("007,,x,0.5,0.5", "bad seed '007'"),
    ("9" * 21 + ",,x,0.5,0.5", f"seed must be below {2**64}"),
    ("9" * 4301 + ",,x,0.5,0.5", "bad seed: 4301 digits"),
    ("-" + "9" * 4301 + ",,x,0.5,0.5", "seed must be non-negative"),
], ids=["negative seed", "sixth cell", "missing cell", "empty gene", "not a number",
        "seed past uint64", "underscore in seed", "non-ASCII seed digit", "space in seed",
        "sign on seed", "leading zero in seed", "21-digit seed",
        "seed past int's digit limit", "negative seed past int's digit limit"])
def test_front_csv_rejects_bad_rows(tmp_path, line, reason):
    path = tmp_path / "front.csv"
    path.write_text(",".join(FRONT_COLUMNS) + "\n1,,ok,0.5,0.5\n" + line + "\n")
    with pytest.raises(ValueError) as excinfo:
        read_front_csv(path)
    assert str(excinfo.value) == f"front file {path}, line 3: {reason}"


# Cells every rule accepts, and cells some rule rejects. float() takes a
# sign, underscores, spaces and non-ASCII digits; a seed, a chromosome, a
# time or a score takes none of them. A gene past 640 digits is left to
# the row walk; past 4,300 int() refuses it.
GOOD_SEEDS = ["0", "7", str(2**64 - 1)]
BAD_SEEDS = ["-1", str(2**64), "x", "", "9" * 4301, "+5", "5_0", " 8 ", "\u0665", "-0", "07"]
GOOD_CHROMOSOMES = ["", "0", "4,2", "3,141,59,26", "0,255", "1" * 700]
BAD_CHROMOSOMES = ["4,x", "01", "3,,4", ",", "4,", "\u0663", "-1", "7," + "1" * 4301]
GOOD_VALUES = ["0.5", "-0.0", "1e-17", "0.30000000000000004", "5e-324"]
BAD_VALUES = ["nan", "inf", "-inf", "1e400", "x", "", "1_0", " 0.25"]
TEXTS = ["stub", "Baseline RMS random 90%", "a,b", "two\nlines", 'say "hi"', "", "\u00fc"]

good_rows = st.tuples(st.sampled_from(GOOD_SEEDS), st.sampled_from(GOOD_CHROMOSOMES),
                      st.sampled_from(TEXTS), st.sampled_from(GOOD_VALUES),
                      st.sampled_from(GOOD_VALUES)).map(list)
BAD_CELLS = {0: BAD_SEEDS, 1: BAD_CHROMOSOMES, 3: BAD_VALUES, 4: BAD_VALUES}


@st.composite
def rows_breaking_one_rule(draw):
    row = draw(good_rows)
    column = draw(st.sampled_from(sorted(BAD_CELLS)))
    row[column] = draw(st.sampled_from(BAD_CELLS[column]))
    return row


any_rows = st.one_of(
    rows_breaking_one_rule(), rows_breaking_one_rule(),
    st.lists(st.sampled_from(GOOD_SEEDS + GOOD_CHROMOSOMES + TEXTS + GOOD_VALUES),
             min_size=1, max_size=7),  # 4 or 6 cells, or 5 in the wrong columns
    st.just([]))  # a blank line


@st.composite
def front_file_texts(draw):
    """A front file: a header (or none), good rows, and a few rows that
    may break a rule, at random places."""
    header = draw(st.sampled_from([FRONT_COLUMNS] * 8 + [("seed", "genes"), None]))
    rows = draw(st.lists(good_rows, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(any_rows))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    if header is not None:
        writer.writerow(header)
        writer.writerows(rows)
    return buffer.getvalue()


@settings(max_examples=300, deadline=None)
@given(text=front_file_texts())
@example(text="")
@example(text=",".join(FRONT_COLUMNS) + "\n")
@example(text=",".join(FRONT_COLUMNS) + "\n\n5,,x,0.5,0.5\n\n50,0,x,-0.0,1e-17\n")
def test_front_points_agree_with_the_row_walk(tmp_path_factory, text):
    """On good and bad files alike, read_front_points returns the points of
    read_front_csv's rows, bit for bit, or raises its message, line number
    included."""
    path = tmp_path_factory.mktemp("front") / "front.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        expected = read_front_csv(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            read_front_points(path)
        assert str(excinfo.value) == str(exc)
        return
    points = read_front_points(path)
    assert points.dtype == np.float64 and points.shape == (len(expected), 2)
    assert points.tobytes() == points_array(expected).tobytes()  # -0.0 keeps its sign


# Lines after a bad row that csv.reader, or the UTF-8 decoder of a later
# 8 KB chunk, refuses: the bad row still decides the message.
UNREADABLE_TAILS = {
    "cell-past-csv-field-limit": b"2,,%s,0.5,0.5\n" % (b"y" * 200_000),
    "bad-utf-8-in-a-later-chunk": b"2,,%s,0.5,0.5\n2,,\xff,0.5,0.5\n" % (b"y" * 20_000),
}
# Good rows, then a line 3 that csv.reader refuses, or a good line 3 whose
# last 8 KB chunk holds a byte that is not UTF-8: both are line 3's error.
UNREADABLE_LINES = {
    "cell-past-csv-field-limit": ("y" * 200_000, b""),
    "bad-utf-8-after-a-long-line": ("y" * 20_000, b"\xff\n"),
}


@pytest.mark.parametrize("column,cell,tail", [
    pytest.param(column, cell, b"", id=f"{FRONT_COLUMNS[column]}-{index}")
    for column, cells in BAD_CELLS.items() for index, cell in enumerate(cells)] + [
    pytest.param(0, "-1", tail, id=f"seed-0-then-{name}")
    for name, tail in UNREADABLE_TAILS.items()] + [
    pytest.param(2, cell, tail, id=f"strategy_text-{name}")
    for name, (cell, tail) in UNREADABLE_LINES.items()])
def test_front_points_raise_the_row_walk_message_on_every_bad_cell(tmp_path, column, cell, tail):
    row = ["1", "4,2", "x", "0.5", "0.5"]
    row[column] = cell
    path = tmp_path / "front.csv"
    path.write_bytes(csv_text(FRONT_COLUMNS, [["0", "", "ok", "0.5", "0.5"], row])
                     .encode("utf-8") + tail)
    with pytest.raises(ValueError) as expected:
        read_front_csv(path)
    assert str(expected.value).startswith(f"front file {path}, line 3: ")
    with pytest.raises(ValueError) as excinfo:
        read_front_points(path)
    assert str(excinfo.value) == str(expected.value)


def test_reevaluate_strategy_row_replays_exactly(tiny_cache):
    text = "Execute Operators 50% -> Retain Mutants random 2"
    pair = evaluate(parse_strategy(text), tiny_cache, 5,
                    rng=np.random.default_rng(123))
    row = EvaluatedStrategy(time=pair.time, score=pair.score, eval_seed=123,
                            text=text)
    [replayed] = reevaluated_front([row], tiny_cache)
    assert (replayed.time, replayed.score) == (pair.time, pair.score)


def test_reevaluate_baseline_row_replays_exactly(tiny_cache):
    text = "Baseline ROS random 50%"
    pair = evaluate(baseline_strategy(text), tiny_cache, 5, rng=np.random.default_rng(9))
    row = EvaluatedStrategy(time=pair.time, score=pair.score, eval_seed=9, text=text)
    [replayed] = reevaluated_front([row], tiny_cache)
    assert (replayed.time, replayed.score) == (pair.time, pair.score)


def test_reevaluated_front_equals_evaluations_with_the_row_seeds(small_synth):
    text = "Execute Operators 50% -> Retain Mutants random 2"
    baseline = "Baseline RMS random 30%"
    cases = [(0, text, parse_strategy(text)),
             (2**64 - 1, baseline, baseline_strategy(baseline)),
             (2**32, text, parse_strategy(text))]
    rows = [EvaluatedStrategy(time=0.0, score=0.0, eval_seed=seed, text=row_text)
            for seed, row_text, _ in cases]
    for repetitions in (1, 4):
        expected = [evaluate(strategy, small_synth, repetitions, rng=np.random.default_rng(seed))
                    for seed, _, strategy in cases]
        assert ([(r.time, r.score) for r in reevaluated_front(rows, small_synth, repetitions)]
                == [(pair.time, pair.score) for pair in expected])


def test_reevaluated_front_restores_chromosomes(tiny_cache):
    rows = [EvaluatedStrategy(time=0.0, score=0.0, eval_seed=5,
                              text="Execute Operators 100%",
                              chromosome=Chromosome((1, 2, 3))),
            EvaluatedStrategy(time=0.0, score=0.0, eval_seed=6,
                              text="Baseline SM exclude 1")]
    front = reevaluated_front(rows, tiny_cache, repetitions=3)
    assert front[0].chromosome is rows[0].chromosome
    assert front[1].chromosome is None
    assert front[0].eval_seed == 5
    assert front[0].text == "Execute Operators 100%"
    # objectives come from re-evaluation, not from the stale stored values
    assert front[0].time > 0.0


# ===== run logs =====

def test_runlog_csv_layout():
    stats = [GenerationStat(0, 40, 3, 0.125),
             GenerationStat(1, 80, 5, 1 / 3)]
    text = runlog_csv_text(stats)
    assert text == ("generation,evaluations,front_size,front_hypervolume\n"
                    "0,40,3,0.125\n"
                    "1,80,5,0.3333333333333333\n")


# ===== config =====

def test_parse_config_full_example():
    text = """
    # search budget
    seed = 42
    population_size = 50   # individuals
    max_evaluations=2000
    repetitions = 5
    crossover_probability = 0.9
    mutation_probability = 0.02
    """
    assert parse_config_text(text) == {
        "seed": 42,
        "population_size": 50,
        "max_evaluations": 2000,
        "repetitions": 5,
        "crossover_probability": 0.9,
        "mutation_probability": 0.02,
    }


def test_parse_config_empty_and_comment_only():
    assert parse_config_text("") == {}
    assert parse_config_text("# nothing here\n\n") == {}


def test_parse_config_unknown_key():
    with pytest.raises(ValueError, match="line 2: unknown key 'colour'"):
        parse_config_text("seed = 1\ncolour = red\n")


def test_parse_config_bad_value():
    with pytest.raises(ValueError, match="line 1: bad value for seed"):
        parse_config_text("seed = forty-two\n")


def test_parse_config_missing_equals():
    with pytest.raises(ValueError, match="line 1: expected key = value"):
        parse_config_text("seed 42\n")


def test_parse_config_float_keys_accept_ints():
    assert parse_config_text("crossover_probability = 1") == {
        "crossover_probability": 1.0}


def test_parse_config_reads_every_search_config_field():
    config = SearchConfig(seed=3, population_size=10, max_evaluations=40,
                          crossover_probability=0.5)
    text = "".join(f"{key} = {value}\n" for key, value in config.as_dict().items())
    values = parse_config_text(text)
    assert values == config.as_dict()
    assert SearchConfig.from_dict(values) == config


# ===== manifests =====

def test_manifest_round_trip(tmp_path):
    manifest = {"command": "train", "seed": 3,
                "config": {"population_size": 10},
                "cache_sha256": "ab" * 32}
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    assert read_manifest(path) == manifest


def test_manifest_text_is_canonical():
    # sorted keys and a fixed indent make equal manifests equal bytes
    a = manifest_text({"b": 1, "a": 2})
    b = manifest_text({"a": 2, "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_read_manifest_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        read_manifest(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        read_manifest(array)
    long_number = tmp_path / "long_number.json"
    long_number.write_text('{"seeds": [' + "9" * 5000 + "]}")
    with pytest.raises(ValueError) as excinfo:
        read_manifest(long_number)
    assert str(excinfo.value) == (f"manifest {long_number} is not valid JSON: "
                                  f"an integer has more than {sys.get_int_max_str_digits()} digits")


# ===== low-level helpers =====

def test_atomic_write_overwrites_and_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_atomic_write_gives_the_mode_the_umask_allows(tmp_path, umask, mode):
    path = tmp_path / "out.txt"
    previous = os.umask(umask)
    try:
        atomic_write_text(path, "text")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_sha256_helpers(tmp_path):
    empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert sha256_text("") == empty
    path = tmp_path / "data.bin"
    path.write_text("front matter")
    assert sha256_file(path) == sha256_text("front matter")
