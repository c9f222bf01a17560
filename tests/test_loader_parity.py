"""The columnar loader and index against the record-based oracle.

``cache_oracle`` holds the loader and index build the columnar ones
replaced. Every index array must match it in values and dtype, and every
bad document must fail with the oracle's message, except the value types
the columnar loader reads strictly (``test_strict_types_are_malformed``).
A saved file read a chunk of records at a time must give the cache or
the error the whole-document reading gives.
"""

import csv
import hashlib
import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cache_oracle import class_multiset, oracle_index, oracle_loads
from matrix_oracle import oracle_matrix
from mutreduce import cache as cache_module
from mutreduce.cache import (CacheError, _quantize, dumps_cache, loads_cache,
                             read_kill_matrix_csv, synth_cache)
from mutreduce.index import build_index


def assert_index_matches_oracle(text):
    index = build_index(loads_cache(text))
    for name, expected in oracle_index(oracle_loads(text)).items():
        actual = getattr(index, name)
        if isinstance(expected, Counter):
            assert class_multiset(actual) == expected, name
        elif isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype, name
            assert np.array_equal(actual, expected), name
        elif isinstance(expected, float):
            assert actual.hex() == expected.hex(), name
        else:
            assert actual == expected, name


IDS = st.text(alphabet="ab_Zé一", min_size=1, max_size=3)
# Costs with many digits exercise the 9-significant-digit quantization.
COSTS = st.one_of(st.floats(1e-12, 1e12), st.integers(1, 10**12),
                  st.sampled_from([0.1, 2.5, 1 / 3, 1e-300]))


@st.composite
def cache_documents(draw):
    op_ids = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    test_ids = draw(st.lists(IDS, min_size=1, max_size=7, unique=True))
    ranks = draw(st.lists(st.integers(0, 10**12), min_size=len(test_ids),
                          max_size=len(test_ids), unique=True))
    mutant_ids = draw(st.lists(IDS, min_size=1, max_size=15, unique=True))
    operators = [{"id": o, "generation_cost": draw(st.one_of(st.just(0), st.just(0.0), COSTS))}
                 for o in op_ids]
    tests = [{"id": t, "priority_rank": r} for t, r in zip(test_ids, ranks)]
    mutants = []
    for m in mutant_ids:
        # Killer rows in shuffled order, empty ones included.
        killers = draw(st.permutations(test_ids))[:draw(st.integers(0, len(test_ids)))]
        mutants.append({"id": m, "operator_id": draw(st.sampled_from(op_ids)),
                        "exec_cost": draw(COSTS), "killers": killers})
    return json.dumps({"operators": operators, "tests": tests, "mutants": mutants})


@settings(max_examples=300, deadline=None)
@given(text=cache_documents())
def test_index_matches_oracle_on_generated_documents(text):
    assert_index_matches_oracle(text)
    # The same cache as a saved file: every section already in index order.
    assert_index_matches_oracle(dumps_cache(loads_cache(text)))


def _swap_two_mutants(doc, pick):
    mutants = doc["mutants"]
    i, j = pick(), pick()
    mutants[i], mutants[j] = mutants[j], mutants[i]


def _reverse_a_killer_row(doc, pick):
    doc["mutants"][pick()]["killers"].reverse()


def _reverse_the_ranks(doc, pick):
    ranks = [t["priority_rank"] for t in doc["tests"]]
    for test, rank in zip(doc["tests"], reversed(ranks)):
        test["priority_rank"] = rank


@settings(max_examples=300, deadline=None)
@given(text=cache_documents(), data=st.data(),
       perturb=st.sampled_from([_swap_two_mutants, _reverse_a_killer_row, _reverse_the_ranks]))
def test_a_saved_file_one_step_out_of_index_order_loads_in_full(text, data, perturb):
    """A file in index order but for one swapped mutant pair, one reversed
    killer row or reversed ranks takes the full reorder. The first two
    load equal to the file they came from; killer rows that ascend in file
    order but not in rank order (reversed ranks) are sorted by rank."""
    saved = dumps_cache(loads_cache(text))
    doc = json.loads(saved)
    perturb(doc, lambda: data.draw(st.integers(0, len(doc["mutants"]) - 1)))
    perturbed = json.dumps(doc)
    assert_index_matches_oracle(perturbed)
    if perturb is not _reverse_the_ranks:
        assert loads_cache(perturbed) == loads_cache(saved)


@pytest.mark.parametrize("args", [
    dict(n_operators=8, n_mutants=600, n_tests=120, seed=101, kill_density=0.9),
    dict(n_operators=6, n_mutants=300, n_tests=40, seed=29, kill_density=0.3, redundancy=0.5),
    dict(n_operators=30, n_mutants=2000, n_tests=200, seed=1),
])
def test_index_matches_oracle_on_synth_caches(args):
    cache = synth_cache(**args)
    text = dumps_cache(cache)
    assert_index_matches_oracle(text)
    assert dumps_cache(loads_cache(text)) == text
    assert loads_cache(text) == cache


@pytest.mark.parametrize("args,digest", [
    # The README cache.
    (dict(n_operators=8, n_mutants=600, n_tests=120, seed=101, kill_density=0.9),
     "d19baa790094ec57bd519dd672ed7668edcf78d44dcc5b7220e4041bae5db965"),
    (dict(n_operators=30, n_mutants=2000, n_tests=200, seed=1),
     "0f415ec7f2321a700f4c168e9289da38efb7ffad2a96311c8e76ae29cba3f386"),
])
def test_dumps_bytes_match_pinned_digest(args, digest):
    text = dumps_cache(synth_cache(**args))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@settings(max_examples=2000, deadline=None)
@given(values=st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(1e-9, 1e9),
    # Exact 10-digit decimals: every other one sits on a rounding half.
    st.builds(lambda m, e: m * 10.0 ** e, st.integers(10**9, 10**10), st.integers(-30, 20)),
), min_size=1, max_size=50))
def test_quantize_matches_format_bit_for_bit(values):
    expected = np.array([float(format(v, ".9g")) for v in values])
    actual = _quantize(np.array(values))
    assert actual.view(np.int64).tolist() == expected.view(np.int64).tolist()


def document(operators=None, tests=None, mutants=None, **extra):
    return json.dumps({
        "operators": [{"id": "op", "generation_cost": 1.0}] if operators is None else operators,
        "tests": ([{"id": "t1", "priority_rank": 0}, {"id": "t2", "priority_rank": 1}]
                  if tests is None else tests),
        "mutants": ([{"id": "m1", "operator_id": "op", "exec_cost": 1.0, "killers": ["t1"]}]
                    if mutants is None else mutants),
        **extra,
    })


def mutant(id="m1", operator_id="op", exec_cost=1.0, killers=("t1",)):
    return {"id": id, "operator_id": operator_id, "exec_cost": exec_cost,
            "killers": list(killers)}


BAD_DOCUMENTS = {
    "not json": "{nope",
    "top level array": "[]",
    "missing mutants": '{"operators": [], "tests": []}',
    "section not array": '{"operators": {}, "tests": [], "mutants": []}',
    "operator missing cost": document(operators=[{"id": "op"}]),
    "operator is an array": document(operators=[["op", 1.0]]),
    "operator is null": document(operators=[None]),
    "operator empty id": document(operators=[{"id": "", "generation_cost": 1.0}]),
    "operator negative cost": document(operators=[{"id": "op", "generation_cost": -1.0}]),
    "operator nan cost": document(operators=[{"id": "op", "generation_cost": float("nan")}]),
    "operator infinite cost": document(operators=[{"id": "op", "generation_cost": float("inf")}]),
    "test missing rank": document(tests=[{"id": "t1"}]),
    "test empty id": document(tests=[{"id": "", "priority_rank": 0}]),
    "test negative rank": document(tests=[{"id": "t1", "priority_rank": -1}]),
    "mutant missing killers": document(mutants=[{"id": "m1", "operator_id": "op",
                                                 "exec_cost": 1.0}]),
    "mutant is a string": document(mutants=["m1"]),
    "mutant empty id": document(mutants=[mutant(id="")]),
    "mutant zero cost": document(mutants=[mutant(exec_cost=0)]),
    "mutant negative cost": document(mutants=[mutant(exec_cost=-0.5)]),
    "mutant infinite cost": document(mutants=[mutant(exec_cost=float("inf"))]),
    "mutant tiny cost stays positive": document(mutants=[mutant(exec_cost=5e-324)]),
    "operator cost past the float range": document(
        operators=[{"id": "op", "generation_cost": 10**400}]),
    "mutant cost past the float range": document(mutants=[mutant(id="m0"),
                                                          mutant(exec_cost=10**400)]),
    "integer past int's digit limit": document(mutants=[mutant(exec_cost=2.5)]).replace(
        "2.5", "1" * 5000),
    "duplicate killer": document(mutants=[mutant(killers=("t2", "t1", "t2"))]),
    "duplicate unknown killer": document(mutants=[mutant(killers=("x", "x"))]),
    "two unknown killers": document(mutants=[mutant(killers=("x", "y"))]),
    "no operators": document(operators=[]),
    "no tests": document(tests=[]),
    "no mutants": document(mutants=[]),
    "no operators beats unknown operator": document(operators=[],
                                                    mutants=[mutant(operator_id="zz")]),
    "bad mutant beats no operators": document(operators=[], mutants=[mutant(exec_cost=0)]),
    "duplicate operator id": document(operators=[{"id": "op", "generation_cost": 1},
                                                 {"id": "op", "generation_cost": 2}]),
    "duplicate test id": document(tests=[{"id": "t1", "priority_rank": 0},
                                         {"id": "t1", "priority_rank": 1}]),
    "duplicate mutant id": document(mutants=[mutant(id="b"), mutant(id="a"), mutant(id="b")]),
    "duplicate operator beats duplicate mutant": document(
        operators=[{"id": "op", "generation_cost": 1}, {"id": "op", "generation_cost": 2}],
        mutants=[mutant(), mutant()]),
    "duplicate rank": document(tests=[{"id": "t1", "priority_rank": 3},
                                      {"id": "t2", "priority_rank": 3}]),
    "duplicate test id beats unknown killer": document(
        tests=[{"id": "t1", "priority_rank": 0}, {"id": "t1", "priority_rank": 1}],
        mutants=[mutant(killers=("zz",))]),
    "unknown operator": document(mutants=[mutant(operator_id="nope")]),
    "unknown killer": document(mutants=[mutant(killers=("t1", "tX"))]),
    "unknown operator beats unknown killer": document(
        mutants=[mutant(operator_id="nope", killers=("tX",))]),
    "unknown killer opening a row": document(mutants=[
        mutant(id="m0", killers=("t1",)), mutant(id="m1", killers=("tX", "t1"))]),
    "first unknown in file order": document(mutants=[
        mutant(id="z", killers=()), mutant(id="y", killers=("t2", "q")),
        mutant(id="a", operator_id="nope")]),
    "earlier record beats later malformed one": document(mutants=[
        mutant(id="m1", exec_cost=-1), {"id": "m2"}]),
    "malformed record beats later bad value": document(mutants=[
        mutant(id="m1"), {"id": "m2"}, mutant(id="m3", exec_cost=-1)]),
    "malformed record beats its own bad value": document(mutants=[
        {"id": "", "operator_id": "op", "exec_cost": -1}]),
    "operator section before mutant section": document(
        operators=[{"id": "op", "generation_cost": -1}], mutants=[{"id": "m2"}]),
    "empty id before cost in one record": document(mutants=[mutant(id="", exec_cost=-1)]),
    "cost before duplicate killer in one record": document(mutants=[
        mutant(exec_cost=0, killers=("t1", "t1"))]),
    "second of many records": document(mutants=[
        mutant(id=f"m{i}", exec_cost=-1.0 if i in (7, 9) else 1.0) for i in range(12)]),
    # Documents in index order but for the one fault: ids, ranks and killer
    # rows ascend, so each check they need is one the loader may skip on a
    # section that ascends strictly.
    "index order, adjacent duplicate mutant ids": document(mutants=[
        mutant(id="m1"), mutant(id="m2"), mutant(id="m2"), mutant(id="m3")]),
    "index order, repeated killer": document(mutants=[
        mutant(id="m1", killers=("t1", "t2")), mutant(id="m2", killers=("t1", "t1"))]),
    "index order, empty first mutant id": document(mutants=[
        mutant(id=""), mutant(id="m1"), mutant(id="m2")]),
    "index order, empty first operator id": document(operators=[
        {"id": "", "generation_cost": 1.0}, {"id": "op", "generation_cost": 1.0}]),
    "index order, tied ranks": document(tests=[
        {"id": "t1", "priority_rank": 0}, {"id": "t2", "priority_rank": 1},
        {"id": "t3", "priority_rank": 1}]),
    "index order, unknown killer ending an ascending row": document(mutants=[
        mutant(id="m1", killers=("t1", "t2")), mutant(id="m2", killers=("t1", "t2", "tX"))]),
    # A \ud800 escape loads as a lone surrogate, which no output can encode.
    "operator id not UTF-8": document(operators=[{"id": "o\ud800", "generation_cost": 1.0}],
                                      mutants=[mutant(operator_id="o\ud800")]),
    "test id not UTF-8": document(tests=[{"id": "t1", "priority_rank": 0},
                                         {"id": "\udcff", "priority_rank": 1}]),
    "mutant id not UTF-8 beats its own bad cost": document(mutants=[
        mutant(id="m0"), mutant(id="m\udcff", exec_cost=-1)]),
    "earlier bad cost beats a mutant id not UTF-8": document(mutants=[
        mutant(id="m0", exec_cost=-1), mutant(id="m\udcff")]),
    "empty id beats an id not UTF-8": document(mutants=[mutant(id=""), mutant(id="\ud800")]),
}


def oracle_message(text):
    with pytest.raises(CacheError) as caught:
        oracle_loads(text)
    return str(caught.value)


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_errors_match_oracle(name):
    text = BAD_DOCUMENTS[name]
    if name == "mutant tiny cost stays positive":
        assert_index_matches_oracle(text)
        return
    with pytest.raises(CacheError) as caught:
        loads_cache(text)
    assert str(caught.value) == oracle_message(text)


# Values of the wrong JSON type. The record loader coerced them (oracle
# outcome None) or failed with a bare Python exception text; the columnar
# loader reads types strictly and names the field.
STRICT_TYPES = {
    "killers string": (document(mutants=[{**mutant(), "killers": "t1"}]),
                       "mutants[0].killers must be an array of test ids, not str",
                       "mutant 'm1': unknown killer test 't'"),
    "killers object": (document(mutants=[{**mutant(), "killers": {"t1": 1}}]),
                       "mutants[0].killers must be an array of test ids, not dict", None),
    "killers null": (document(mutants=[{**mutant(), "killers": None}]),
                     "mutants[0].killers must be an array of test ids, not NoneType",
                     "malformed record: 'NoneType' object is not iterable"),
    "killer number": (document(mutants=[mutant(killers=(1,))]),
                      "mutants[0].killers[0] must be a string, not int",
                      "mutant 'm1': unknown killer test '1'"),
    "rank float": (document(tests=[{"id": "t1", "priority_rank": 1.5}]),
                   "tests[0].priority_rank must be an integer, not float", None),
    "rank string": (document(tests=[{"id": "t1", "priority_rank": "0"}]),
                    "tests[0].priority_rank must be an integer, not str", None),
    "exec_cost bool": (document(mutants=[mutant(exec_cost=True)]),
                       "mutants[0].exec_cost must be a number, not bool", None),
    "generation_cost bool": (document(operators=[{"id": "op", "generation_cost": False}]),
                             "operators[0].generation_cost must be a number, not bool", None),
    "exec_cost string": (document(mutants=[mutant(exec_cost="1.5")]),
                         "mutants[0].exec_cost must be a number, not str", None),
    "id number": (document(operators=[{"id": 5, "generation_cost": 1.0}],
                           mutants=[mutant(operator_id="5")]),
                  "operators[0].id must be a string, not int", None),
}


@pytest.mark.parametrize("name", sorted(STRICT_TYPES))
def test_strict_types_are_malformed(name):
    text, message, oracle = STRICT_TYPES[name]
    with pytest.raises(CacheError) as caught:
        loads_cache(text)
    assert str(caught.value) == f"malformed record: {message}"
    if oracle is None:
        oracle_loads(text)  # the record loader accepted it
    else:
        assert oracle_message(text) == oracle


# ===== the chunked reading of saved files =====

def whole_document(text):
    return cache_module._from_document(cache_module._parse_json(text))


def outcome(load, text):
    """The cache load(text) builds, or the type and message of its error."""
    try:
        return load(text)
    except ValueError as exc:  # CacheError
        return type(exc), str(exc)


def _set_field(field, value):
    def defect(doc, pick):
        doc["mutants"][pick()][field] = value
    return defect


def _unknown_killer(doc, pick):
    doc["mutants"][pick()]["killers"].append("not a test")


def _duplicate_mutant_id(doc, pick):
    doc["mutants"][pick()]["id"] = doc["mutants"][pick()]["id"]


def _in_text(old, new, count=1):
    def defect(text, pick):
        assert old in text
        return text.replace(old, new, count)
    return defect


def _in_a_record(old, new):
    """Replace old by new in the text of one mutant record."""
    def defect(text, pick):
        head, tail = text.split('\n ],\n "operators": [', 1)
        records = head.split("\n  },\n  {")
        i = pick()
        records[i] = records[i].replace(old, new, 1)
        return "\n  },\n  {".join(records) + '\n ],\n "operators": [' + tail
    return defect


DOCUMENT_DEFECTS = {
    "bad cost": _set_field("exec_cost", -1.0),
    "unknown killer": _unknown_killer,
    "unknown operator": _set_field("operator_id", "not an operator"),
    "wrong type": _set_field("killers", "t"),
    "duplicate id": _duplicate_mutant_id,
}
TEXT_DEFECTS = {
    "repeated top-level key": _in_text("\n}\n", ',\n "mutants": []\n}\n'),
    "repeated key in an operator": _in_text('"generation_cost"', '"id": "x", "generation_cost"'),
    "extra top-level key": _in_text("\n}\n", ',\n "extra": 1\n}\n'),
    "trailing garbage": _in_text("\n}\n", "\n}\nx"),
    "bad JSON in a chunk": _in_a_record('"exec_cost": ', '"exec_cost" '),
    "deep nesting": _in_a_record('"killers": [', '"killers": ' + "[" * 100_000 + "]" * 99_999),
    # An extra field is ignored, but int() refuses its 5,000 digits.
    "number past the digit limit": _in_a_record('"exec_cost": ', '"x": ' + "1" * 5000
                                                + ', "exec_cost": '),
}
LAYOUTS = {
    "compact": lambda doc: json.dumps(doc),
    "keys reordered": lambda doc: json.dumps(
        {key: doc[key] for key in ("operators", "tests", "mutants")}, indent=1),
}


@settings(max_examples=200, deadline=None)
@given(text=cache_documents(), data=st.data(),
       defect=st.sampled_from([None, *DOCUMENT_DEFECTS, *TEXT_DEFECTS, *LAYOUTS]))
def test_chunked_reading_matches_the_whole_document(text, data, defect):
    """With chunks of 64 characters, a saved file is read a record or two
    at a time. Clean, or with one defect, it gives the cache or the error
    the whole-document path gives; a file in any other layout is read
    whole."""
    saved = dumps_cache(loads_cache(text))
    doc = json.loads(saved)
    pick = lambda: data.draw(st.integers(0, len(doc["mutants"]) - 1))  # noqa: E731
    if defect in DOCUMENT_DEFECTS:
        DOCUMENT_DEFECTS[defect](doc, pick)
        saved = json.dumps(doc, sort_keys=True, indent=1) + "\n"  # dumps_cache's layout
    elif defect in TEXT_DEFECTS:
        saved = TEXT_DEFECTS[defect](saved, pick)
    elif defect in LAYOUTS:
        saved = LAYOUTS[defect](doc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "CHUNK_CHARS", 64)
        chunked = cache_module._chunked_sections(saved) is not None
        assert outcome(loads_cache, saved) == outcome(whole_document, saved)
    # The checks after the mutant fields are shared: a bad cost or a
    # duplicate id is found there, on either path.
    assert chunked == (defect in (None, "bad cost", "duplicate id"))


def test_a_saved_cache_in_one_chunk_is_read_on_the_chunked_path():
    """Every file in dumps_cache's layout takes the chunked path, one
    whose records fit in a single chunk too."""
    saved = dumps_cache(synth_cache(8, 600, 120, seed=1))
    assert len(saved) < cache_module.CHUNK_CHARS
    sections = cache_module._chunked_sections(saved)
    assert sections is not None
    assert cache_module._checked_cache(*sections, malformed=None) == whole_document(saved)


# ===== the kill-matrix import =====

MATRIX_COLUMNS = ("mutant_id", "operator_id", "exec_cost", "killed_by")
NAMES = st.text(alphabet='ab_é,"\n', min_size=1, max_size=3)
GOOD_COST_TEXTS = st.one_of(st.sampled_from(["1", "0.5", "1e-3", "2E+2", "3.14159265358979"]),
                            COSTS.map(repr))
# The first eleven are not JSON numbers, though float() reads all but "x"
# and ""; the rest are, and lie past the float range or fail the cost check.
BAD_COST_TEXTS = ["x", "", "nan", "inf", " 7", "1_0", "\u0663", "+3", ".5", "5.", "01",
                  "-1", "0", "-0.0", "1e400", "1" * 400]
# What can be wrong with one row, and with the file as a whole. A row is
# often sound; the two faults whose order the import decides itself (a
# missing cell before a bad cost) come twice as often as the rest.
ROW_FAULTS = (None, None, "short row", "short row", "bad cost", "bad cost", "empty mutant id",
              "empty operator id", "duplicate killer", "repeated mutant id", "long row",
              "cell past the field limit")
FILE_DEFECTS = (None, None, None, None, "no rows", "no killing tests", "missing column",
                "renamed column", "blank header", "not UTF-8")


@st.composite
def kill_matrix_files(draw):
    """The bytes of a kill-matrix file: its columns in any order, perhaps
    repeated (the last of a name holds its value, the others junk), extra
    columns, blank lines, either line ending, perhaps a byte-order mark.
    Clean, or with a defect of the file and faults in some of its rows,
    so that which error comes first is checked too."""
    clean = draw(st.integers(0, 2)) == 0
    defect = None if clean else draw(st.sampled_from(FILE_DEFECTS))
    header = list(draw(st.permutations(
        MATRIX_COLUMNS + tuple(draw(st.lists(st.sampled_from(["note", *MATRIX_COLUMNS]),
                                             max_size=2))))))
    column = draw(st.sampled_from(MATRIX_COLUMNS))
    if defect == "missing column":
        header = [name for name in header if name != column]
    if defect == "renamed column":
        header = [name.upper() if name == column else name for name in header]
    last = {name: i for i, name in enumerate(header)}
    tests = draw(st.lists(NAMES.filter(lambda name: ";" not in name), min_size=1, max_size=5,
                          unique=True))
    operators = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    mutants = draw(st.lists(NAMES, min_size=1, max_size=8, unique=True))
    rows = []
    for mutant in mutants:
        killers = draw(st.lists(st.sampled_from(tests), min_size=not rows, max_size=3,
                                unique=True))
        record = {"mutant_id": mutant, "operator_id": draw(st.sampled_from(operators)),
                  "exec_cost": draw(GOOD_COST_TEXTS),
                  "killed_by": ";".join(killers + [""] * draw(st.integers(0, 1)))}
        fault = None if clean else draw(st.sampled_from(ROW_FAULTS))
        if fault == "bad cost":
            record["exec_cost"] = draw(st.sampled_from(BAD_COST_TEXTS))
        elif fault == "empty mutant id":
            record["mutant_id"] = ""
        elif fault == "empty operator id":
            record["operator_id"] = ""
        elif fault == "duplicate killer":
            record["killed_by"] = "tt;" + record["killed_by"] + ";tt"
        elif fault == "repeated mutant id":
            record["mutant_id"] = mutants[0]
        if defect == "no killing tests":
            record["killed_by"] = draw(st.sampled_from(["", ";"]))
        row = [record.get(name, "junk") if last[name] == i else "junk"
               for i, name in enumerate(header)]
        if fault == "short row":
            del row[draw(st.integers(0, len(row) - 1)):]
        elif fault == "long row":
            row += ["x", ""]
        elif fault == "cell past the field limit":
            row.append("x" * (csv.field_size_limit() + 1))
        rows.append(row)
    if defect == "no rows":
        rows.clear()
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow([] if defect == "blank header" else header)
    writer.writerows(rows)
    data = buffer.getvalue().encode("utf-8")
    if defect == "not UTF-8":
        lines = data.split(b"\n")
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at][:1] + b"\xff" + lines[at][1:]
        data = b"\n".join(lines)
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + data


def matrix_outcome(read, path):
    """The cache read(path) builds, with its columns' dtypes, or its error."""
    try:
        cache = read(path)
    except CacheError as exc:
        return str(exc)
    return cache, [getattr(column, "dtype", None) for column in cache._columns()]


HEADER = b"mutant_id,operator_id,exec_cost,killed_by\n"


@settings(max_examples=300, deadline=None)
@given(data=kill_matrix_files())
@example(data=HEADER + b"m1,op,x,t1\nm2,op\n")  # a missing cell before a bad cost
@example(data=HEADER + b"m1,op,x,\n")  # no killing test before a bad cost
@example(data=HEADER + b"m1,,x,t1\n")  # a bad cost before an empty operator id
@example(data=b"\xef\xbb\xbf" + HEADER + b"m1,op,1,t1\n")  # a byte-order mark
@example(data=b"exec_cost,mutant_id,operator_id,exec_cost,killed_by\nx,m1,op,1,t1\n")
def test_kill_matrix_import_matches_the_row_reader(tmp_path_factory, data):
    """The column-building import gives the cache, or the first error's
    message, that the row-based reader kept in matrix_oracle gives."""
    path = tmp_path_factory.mktemp("matrix") / "matrix.csv"
    path.write_bytes(data)
    assert matrix_outcome(read_kill_matrix_csv, path) == matrix_outcome(oracle_matrix, path)
