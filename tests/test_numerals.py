"""Every reader of file and argument text spells its numbers one of the two
ways ``mutreduce.numerals`` states: a count or a real."""

import csv
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutreduce.baselines import baseline_strategy
from mutreduce.cache import read_kill_matrix_csv
from mutreduce.cli import _front_sort_key
from mutreduce.genome import Chromosome
from mutreduce.numerals import COUNT, REAL, read_count, read_real
from mutreduce.runio import FRONT_COLUMNS, parse_config_text, read_front_csv, read_front_points
from mutreduce.strategy import strategy_from_tokens

# Pieces of number texts: ASCII and Arabic-Indic digits, and the signs,
# separators and words that float() or int() would take.
PIECES = [*"0123456789", *"٠١٥٩", "0", "1", "5", "_", " ", "+", "-", ".",
          "e", "E", "nan", "inf"]
DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=4)


@st.composite
def number_texts(draw):
    """Runs of pieces, or JSON numbers with up to two pieces put in."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(PIECES), max_size=8)))
    text = (draw(st.sampled_from(["", "-"])) + draw(st.just("0") | st.integers(1, 10**6).map(str))
            + draw(st.just("") | DIGITS.map(".".__add__))
            + draw(st.just("") | st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                                           DIGITS).map("".join)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(PIECES)) + text[at:]
    return text


def is_count(text):
    return COUNT.fullmatch(text) is not None


def is_real(text):
    return REAL.fullmatch(text) is not None and math.isfinite(float(text))


def accepts(read, *args):
    try:
        read(*args)
    except ValueError:
        return False
    return True


def csv_line(cells):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    return buffer.getvalue()


@settings(max_examples=400, deadline=None)
@given(text=number_texts())
@example(text="1_0")
@example(text="٤٠")
@example(text=" 0.25")
@example(text="0.25 ")
@example(text="-0")
@example(text="07")
@example(text="+5")
@example(text=".5")
@example(text="5.")
@example(text="1e400")
@example(text="nan")
@example(text="inf")
@example(text=str(2**64 - 1))
@example(text=str(2**64))
def test_every_reader_takes_exactly_the_module_spellings(tmp_path_factory, text):
    """Each reader accepts a number text exactly when numerals' pattern and
    bound do: a count for seeds, genes, strategy and baseline counts,
    integer config values and front file names; a finite real for front
    times and scores, kill-matrix costs and config probabilities."""
    count, real = is_count(text), is_real(text)
    # The patterns themselves: a count is what str() writes for an int >= 0,
    # a real what json reads as a number, with no space around it.
    assert count == (text.isascii() and text.isdigit() and str(int(text)) == text)
    try:
        json_number = text == text.strip() and type(json.loads(text)) in (int, float)
    except ValueError:
        json_number = False
    assert (REAL.fullmatch(text) is not None) == json_number

    assert accepts(read_count, text, "count") == count
    assert accepts(read_count, text, "seed", 2**64) == (count and int(text) < 2**64)
    assert accepts(read_real, text, "real") == real

    # Strategy tokens and baseline row texts.
    percent = count and int(text) <= 100
    assert accepts(strategy_from_tokens, ["Retain Mutants", "Random", text]) == count
    assert accepts(strategy_from_tokens, ["Execute Operators", "Random", text + "%"]) == percent
    assert accepts(strategy_from_tokens, ["Discard Operators", "highest-yield", text]) == count
    assert accepts(baseline_strategy, f"Baseline SM exclude {text}") == count
    assert accepts(baseline_strategy, f"Baseline RMS random {text}%") == percent

    # Config values: the text between "=" and the line end, less its spaces.
    value = text.strip(" ")
    assert accepts(parse_config_text, f"seed = {text}\n") == is_count(value)
    assert accepts(parse_config_text, f"crossover_probability = {text}\n") == is_real(value)

    # Front file cells and names, and chromosome text.
    key = _front_sort_key(Path(f"front_{text}.csv"))
    assert key == ((0, int(text), "") if count else (1, 0, text))
    assert accepts(Chromosome.check_text, text) == count
    if count:
        assert Chromosome.deserialize(text).genes == (int(text),)
    directory = tmp_path_factory.mktemp("numbers")
    front = directory / "front.csv"
    for cells, expected in ((["1", "", "x", text, "0.5"], real),
                            (["1", "", "x", "0.5", text], real),
                            ([text, "", "x", "0.5", "0.5"], count and int(text) < 2**64)):
        front.write_text(csv_line(FRONT_COLUMNS) + csv_line(cells), encoding="utf-8")
        assert accepts(read_front_csv, front) == expected
        assert accepts(read_front_points, front) == expected

    # A kill-matrix cost: a real, else "bad exec_cost" (a real <= 0 fails
    # the cost check after it is read).
    matrix = directory / "matrix.csv"
    matrix.write_text(csv_line(["mutant_id", "operator_id", "exec_cost", "killed_by"])
                      + csv_line(["m1", "op", text, "t1"]), encoding="utf-8")
    try:
        read_kill_matrix_csv(matrix)
        message = None
    except ValueError as exc:
        message = str(exc)
    assert (message == "mutant 'm1': bad exec_cost") == (not real)
    assert (message is None) == (real and float(text) > 0)


@settings(max_examples=300)
@given(n=st.integers(min_value=0) | st.integers(0, 10**4000))
def test_a_count_reads_back_as_str_writes_it(n):
    assert read_count(str(n), "count") == n


@settings(max_examples=300)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_a_real_reads_back_as_repr_writes_it(x):
    y = read_real(repr(x), "real")
    assert y == x and math.copysign(1, y) == math.copysign(1, x)


@pytest.mark.parametrize("text,message", [
    ("1_0", "bad count '1_0'"),
    ("9" * 5000, "bad count: 5000 digits"),
    ("x" * 5000, "bad count 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
])
def test_a_count_message_is_short(text, message):
    with pytest.raises(ValueError) as excinfo:
        read_count(text, "count")
    assert str(excinfo.value) == message


@pytest.mark.parametrize("text,message", [
    (" 0.5", "bad real ' 0.5'"),
    ("1e400", "real '1e400' is past the float range"),
    ("9" * 5000, "real '9999999999999999999999999999999999999999'... (5000 characters) "
                 "is past the float range"),
])
def test_a_real_message_is_short(text, message):
    with pytest.raises(ValueError) as excinfo:
        read_real(text, "real")
    assert str(excinfo.value) == message
