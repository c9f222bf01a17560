import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mutreduce.cache import dumps_cache, load_cache, synth_cache
from mutreduce.cli import main
from mutreduce.runio import read_front_csv, read_manifest


@pytest.fixture()
def cache_file(tmp_path):
    path = tmp_path / "cache.json"
    data = synth_cache(3, 40, 10, seed=21, kill_density=0.8, redundancy=0.3)
    path.write_text(dumps_cache(data))
    return path


def train_args(cache_file, out_dir, **overrides):
    args = {"runs": 2, "seed": 7, "population-size": 8,
            "max-evaluations": 24, "repetitions": 2}
    args.update(overrides)
    argv = ["train", "--cache", str(cache_file), "--out", str(out_dir)]
    for key, value in args.items():
        argv += [f"--{key}", str(value)]
    return argv


# ===== cache commands =====

def test_cache_synth_writes_reproducible_file(tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = ["cache", "synth", "--operators", "4", "--mutants", "50",
            "--tests", "12", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    assert "wrote" in capsys.readouterr().out
    assert load_cache(out) == synth_cache(4, 50, 12, seed=5)

    again = tmp_path / "c2.json"
    assert main(argv[:-1] + [str(again)]) == 0
    assert out.read_text() == again.read_text()


def test_cache_synth_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["cache", "synth", "--operators", "2", "--mutants", "5",
                 "--tests", "3", "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("skew", ["inf", "nan"])
def test_cache_synth_non_finite_cost_skew_exits_two(tmp_path, capsys, skew):
    out = tmp_path / "c.json"
    assert main(["cache", "synth", "--operators", "2", "--mutants", "5",
                 "--tests", "3", "--cost-skew", skew, "--out", str(out)]) == 2
    assert "error: cost_skew must be finite and >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cache_inspect_summarizes(cache_file, capsys):
    assert main(["cache", "inspect", str(cache_file)]) == 0
    out = capsys.readouterr().out
    assert "operators:    3" in out
    assert "mutants:      40" in out
    assert "tests:        10" in out
    assert "global score:" in out
    assert "mutants per operator:" in out
    data = load_cache(cache_file)
    classes, test_major = data.kill_classes, data.test_classes
    sizes = [data.first_killer.nbytes,
             classes.starts.nbytes + classes.tests.nbytes + classes.multiplicity.nbytes,
             sum(a.nbytes for a in test_major), data.operator_mutants.nbytes,
             data.owner_codes.nbytes]
    assert sizes[0] == 4 * 40 and sizes[3] == 4 * 40 and sizes[4] == 40
    assert ("view bytes:   first_killer {}, kill classes {}, test-major {}, "
            "operator spans {}, owner codes {}\n".format(*sizes)) in out


def test_cache_convert_from_kill_matrix_csv(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("mutant_id,operator_id,exec_cost,killed_by\n"
                      "m1,opA,1.5,t2;t1\n"
                      "m2,opB,2.0,\n")
    out = tmp_path / "converted.json"
    assert main(["cache", "convert", "--matrix", str(matrix),
                 "--out", str(out)]) == 0
    data = load_cache(out)
    assert [op.id for op in data.operators] == ["opA", "opB"]
    assert len(data.mutants) == 2


def test_cache_convert_writes_mutants_by_id(tmp_path):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("mutant_id,operator_id,exec_cost,killed_by\n"
                      "m3,opB,1.0,t2\n"
                      "m1,opA,1.5,t2;t1\n"
                      "m2,opA,2.0,\n")
    out = tmp_path / "converted.json"
    assert main(["cache", "convert", "--matrix", str(matrix), "--out", str(out)]) == 0
    mutants = json.loads(out.read_text())["mutants"]
    assert [m["id"] for m in mutants] == ["m1", "m2", "m3"]
    assert [m["killers"] for m in mutants] == [["t1", "t2"], [], ["t2"]]


def test_cache_inspect_prints_kill_nonzeros_without_building_records(
        cache_file, capsys, monkeypatch):
    import mutreduce.cache as cache_mod

    def no_records(*args, **kwargs):
        raise AssertionError("inspect built a record")

    for name in ("OperatorRecord", "TestRecord", "MutantRecord"):
        monkeypatch.setattr(cache_mod, name, no_records)
    data = load_cache(cache_file)
    assert main(["cache", "inspect", str(cache_file)]) == 0
    out = capsys.readouterr().out
    assert f"killable:     {data.killable_count}\n" in out
    assert f"kill nonzeros: {data.killer_tests.size}\n" in out
    assert data.killer_tests.size > data.killable_count
    classes = data.kill_classes
    assert f"kill classes: {classes.starts.size}\n" in out
    assert f"class nonzeros: {classes.tests.size}\n" in out
    assert classes.starts.size < data.killable_count


@pytest.mark.parametrize("row,cell", [("m1,opA,1.5", "killed_by"),
                                      ("m1,opA", "exec_cost")])
def test_cache_convert_short_row_is_input_error(tmp_path, capsys, row, cell):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("mutant_id,operator_id,exec_cost,killed_by\n"
                      "m0,opA,1.0,t1\n"
                      f"{row}\n")
    out = tmp_path / "converted.json"
    assert main(["cache", "convert", "--matrix", str(matrix),
                 "--out", str(out)]) == 2
    assert f"mutant 'm1': row has no {cell} cell" in capsys.readouterr().err
    assert not out.exists()


def test_cache_inspect_missing_file_is_usage_error(tmp_path):
    assert main(["cache", "inspect", str(tmp_path / "nope.json")]) == 2


def test_cache_inspect_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["cache", "inspect", str(bad)]) == 2


# ===== train =====

def test_train_writes_fronts_logs_and_manifest(cache_file, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(train_args(cache_file, out_dir)) == 0
    assert "wrote 2 run(s)" in capsys.readouterr().out

    for seed in (7, 8):
        front = read_front_csv(out_dir / f"front_{seed}.csv")
        assert front, "front should have at least one member"
        assert all(0.0 <= r.time <= 1.0 and 0.0 <= r.score <= 1.0
                   for r in front)
        assert [r.time for r in front] == sorted(r.time for r in front)
        log_lines = (out_dir / f"runlog_{seed}.csv").read_text().splitlines()
        assert log_lines[0] == "generation,evaluations,front_size,front_hypervolume"
        assert len(log_lines) >= 2

    manifest = read_manifest(out_dir / "manifest.json")
    assert manifest["command"] == "train"
    assert manifest["algorithm"] == "ge"
    assert manifest["seeds"] == [7, 8]
    assert manifest["config"]["population_size"] == 8
    assert "seed" not in manifest["config"]
    assert set(manifest["outputs"]) == {
        "front_7.csv", "runlog_7.csv", "front_8.csv", "runlog_8.csv"}


def test_train_defaults_to_thirty_runs(cache_file, tmp_path):
    out_dir = tmp_path / "many"
    argv = ["train", "--cache", str(cache_file), "--out", str(out_dir),
            "--population-size", "4", "--max-evaluations", "4",
            "--repetitions", "1"]
    assert main(argv) == 0
    manifest = read_manifest(out_dir / "manifest.json")
    assert manifest["seeds"] == list(range(1, 31))
    assert len(list(out_dir.glob("front_*.csv"))) == 30


def test_train_random_algorithm(cache_file, tmp_path):
    out_dir = tmp_path / "rand"
    assert main(train_args(cache_file, out_dir, algorithm="random",
                           runs=1)) == 0
    manifest = read_manifest(out_dir / "manifest.json")
    assert manifest["algorithm"] == "random"
    rows = read_front_csv(out_dir / "front_7.csv")
    assert all(row.chromosome for row in rows)


def test_train_config_file_and_flag_precedence(cache_file, tmp_path):
    config = tmp_path / "search.cfg"
    config.write_text("seed = 50\npopulation_size = 6\nrepetitions = 1\n")
    out_dir = tmp_path / "cfg"
    argv = ["train", "--cache", str(cache_file), "--config", str(config),
            "--runs", "1", "--max-evaluations", "12",
            "--population-size", "8", "--out", str(out_dir)]
    assert main(argv) == 0
    manifest = read_manifest(out_dir / "manifest.json")
    # flag beats file; file beats default; file seed used when flag absent
    assert manifest["config"]["population_size"] == 8
    assert manifest["config"]["repetitions"] == 1
    assert manifest["seeds"] == [50]

    out_dir2 = tmp_path / "cfg2"
    assert main(argv[:-1] + [str(out_dir2), "--seed", "9"]) == 0
    assert read_manifest(out_dir2 / "manifest.json")["seeds"] == [9]


def test_train_rejects_bad_config_file(cache_file, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("colour = red\n")
    assert main(["train", "--cache", str(cache_file), "--config", str(config),
                 "--out", str(tmp_path / "x")]) == 2


def test_train_manifest_rerun_is_byte_identical(cache_file, tmp_path):
    first = tmp_path / "first"
    assert main(train_args(cache_file, first)) == 0
    second = tmp_path / "second"
    assert main(["train", "--manifest", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    for name in ("front_7.csv", "front_8.csv", "runlog_7.csv", "runlog_8.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_manifests_record_python_and_numpy(cache_file, tmp_path):
    assert main(train_args(cache_file, tmp_path / "t")) == 0
    assert main(["baselines", "--cache", str(cache_file),
                 "--out", str(tmp_path / "b")]) == 0
    for out_dir in ("t", "b"):
        manifest = read_manifest(tmp_path / out_dir / "manifest.json")
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__


@pytest.mark.parametrize("recorded", ["0.0.0", None])
def test_train_manifest_warns_on_numpy_mismatch(cache_file, tmp_path, capsys,
                                                recorded):
    """A different recorded numpy warns; a manifest without the key (written
    before versions were recorded) replays silently. Both replay exactly."""
    first = tmp_path / "first"
    assert main(train_args(cache_file, first)) == 0
    manifest_path = first / "manifest.json"
    manifest = read_manifest(manifest_path)
    if recorded is None:
        del manifest["numpy"], manifest["python"]
    else:
        manifest["numpy"] = recorded
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    second = tmp_path / "second"
    assert main(["train", "--manifest", str(manifest_path),
                 "--out", str(second)]) == 0
    err = capsys.readouterr().err
    if recorded is None:
        assert err == ""
    else:
        assert f"recorded with numpy {recorded}" in err
        assert np.__version__ in err
    for name in ("front_7.csv", "front_8.csv", "runlog_7.csv", "runlog_8.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_train_manifest_rejects_overrides(cache_file, tmp_path, capsys):
    out_dir = tmp_path / "base"
    assert main(train_args(cache_file, out_dir, runs=1)) == 0
    capsys.readouterr()
    assert main(["train", "--manifest", str(out_dir / "manifest.json"),
                 "--seed", "3", "--out", str(tmp_path / "re")]) == 2
    err = capsys.readouterr().err
    assert "cannot be combined with --seed" in err
    assert "--cache" not in err
    assert not (tmp_path / "re").exists()


def test_train_hashes_the_cache_once(cache_file, tmp_path, monkeypatch):
    """A flag run hashes the cache for its manifest; a manifest replay
    reuses the hash it checked."""
    import mutreduce.runio as runio_mod

    hashed = []
    sha256_file = runio_mod.sha256_file
    monkeypatch.setattr(runio_mod, "sha256_file",
                        lambda path: hashed.append(Path(path).resolve()) or sha256_file(path))
    first = tmp_path / "first"
    assert main(train_args(cache_file, first, runs=1)) == 0
    assert hashed == [cache_file.resolve()]
    hashed.clear()
    assert main(["train", "--manifest", str(first / "manifest.json"),
                 "--out", str(tmp_path / "second")]) == 0
    assert hashed == [cache_file.resolve()]
    assert (read_manifest(tmp_path / "second" / "manifest.json")["cache_sha256"]
            == read_manifest(first / "manifest.json")["cache_sha256"])


def test_train_manifest_detects_cache_drift(cache_file, tmp_path):
    out_dir = tmp_path / "base"
    assert main(train_args(cache_file, out_dir, runs=1)) == 0
    drifted = synth_cache(3, 40, 10, seed=22)
    cache_file.write_text(dumps_cache(drifted))
    assert main(["train", "--manifest", str(out_dir / "manifest.json"),
                 "--out", str(tmp_path / "re")]) == 2


def _replay_edited_manifest(cache_file, tmp_path, edit):
    """Train once, edit the manifest with ``edit``, replay it; exit code."""
    out_dir = tmp_path / "base"
    assert main(train_args(cache_file, out_dir, runs=1)) == 0
    manifest_path = out_dir / "manifest.json"
    manifest = read_manifest(manifest_path)
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    return main(["train", "--manifest", str(manifest_path),
                 "--out", str(tmp_path / "re")])


def test_train_manifest_rejects_unknown_algorithm(cache_file, tmp_path, capsys):
    code = _replay_edited_manifest(cache_file, tmp_path,
                                   lambda m: m.update(algorithm="foo"))
    assert code == 2
    assert "unknown algorithm 'foo'" in capsys.readouterr().err
    assert not (tmp_path / "re").exists()


@pytest.mark.parametrize("edit,reason", [
    (lambda m: m.update(config=5), "config must be an object"),
    (lambda m: m.update(seeds=5), "seeds must be a non-empty list of integers"),
    (lambda m: m.update(seeds=[]), "seeds must be a non-empty list of integers"),
    (lambda m: m["config"].update(population_size="4"), "population_size must be an integer"),
    (lambda m: m["config"].update(crossover_probability="x"),
     "crossover_probability must be a number"),
    (lambda m: m.update(seeds=[7, 7]), "manifest.json: seeds must be distinct"),
    (lambda m: m.update(seeds=[[1]]), "seeds must be a non-empty list of integers"),
    (lambda m: m.update(seeds=[1, -1]), "seed must be >= 0"),
], ids=["config-not-object", "seeds-not-list", "seeds-empty",
        "population-size-string", "crossover-probability-string",
        "seeds-repeated", "seeds-nested", "seed-negative-later"])
def test_train_manifest_malformed_shape_is_bad_input(cache_file, tmp_path, capsys,
                                                     monkeypatch, edit, reason):
    """Every run is checked before the first starts: no replay run trains."""
    import mutreduce.cli as cli_mod

    trained = []
    run_evolution = cli_mod.run_evolution

    def recording(config, *args):
        trained.append(config.seed)
        return run_evolution(config, *args)

    monkeypatch.setattr(cli_mod, "run_evolution", recording)
    assert _replay_edited_manifest(cache_file, tmp_path, edit) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "internal error" not in captured.err
    assert reason in captured.err
    assert "seed 1:" not in captured.out
    assert trained == [7]  # the recorded run only
    assert not (tmp_path / "re").exists()


def test_train_parallel_output_matches_sequential(cache_file, tmp_path):
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    assert main(train_args(cache_file, seq) + ["--jobs", "1"]) == 0
    assert main(train_args(cache_file, par) + ["--jobs", "2"]) == 0
    for name in ("front_7.csv", "front_8.csv", "runlog_7.csv", "runlog_8.csv"):
        assert (seq / name).read_bytes() == (par / name).read_bytes()


def test_jobs_env_variable(cache_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MUTREDUCE_JOBS", "2")
    out_dir = tmp_path / "env"
    assert main(train_args(cache_file, out_dir, runs=1)) == 0
    assert read_manifest(out_dir / "manifest.json")["jobs"] == 2

    monkeypatch.setenv("MUTREDUCE_JOBS", "")  # empty is unset
    assert main(train_args(cache_file, tmp_path / "empty", runs=1)) == 0
    assert read_manifest(tmp_path / "empty" / "manifest.json")["jobs"] == 1

    for bad in ("many", "0", "  "):
        monkeypatch.setenv("MUTREDUCE_JOBS", bad)
        capsys.readouterr()
        assert main(train_args(cache_file, tmp_path / "bad", runs=1)) == 2
        assert "MUTREDUCE_JOBS" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    assert main(["train", "--help"]) == 0
    assert "MUTREDUCE_JOBS" in capsys.readouterr().out


def test_train_usage_errors(cache_file, tmp_path):
    assert main(["train", "--out", str(tmp_path / "x")]) == 2  # no cache
    assert main(train_args(cache_file, tmp_path / "y", runs=0)) == 2
    assert main(train_args(cache_file, tmp_path / "z") + ["--jobs", "0"]) == 2


# ===== baselines =====

def test_baselines_writes_per_kind_fronts(cache_file, tmp_path, capsys):
    out_dir = tmp_path / "base"
    assert main(["baselines", "--cache", str(cache_file), "--seed", "4",
                 "--repetitions", "2", "--out", str(out_dir)]) == 0
    assert "3 baseline sweep(s)" in capsys.readouterr().out
    for kind, bound in (("rms", 9), ("ros", 9), ("sm", 6)):
        rows = read_front_csv(out_dir / kind / "front_4.csv")
        assert 1 <= len(rows) <= bound
        assert all(row.text.startswith("Baseline") for row in rows)
        assert all(row.chromosome is None for row in rows)
    manifest = read_manifest(out_dir / "manifest.json")
    assert manifest["command"] == "baselines"
    assert manifest["kinds"] == ["RMS", "ROS", "SM"]


def test_baselines_sm_objectives_identical_across_seeds(cache_file, tmp_path):
    out_dir = tmp_path / "sm"
    assert main(["baselines", "--cache", str(cache_file), "--kinds", "SM",
                 "--seed", "1", "--runs", "2", "--repetitions", "2",
                 "--out", str(out_dir)]) == 0
    first = read_front_csv(out_dir / "sm" / "front_1.csv")
    second = read_front_csv(out_dir / "sm" / "front_2.csv")
    assert [(r.time, r.score, r.text) for r in first] == \
           [(r.time, r.score, r.text) for r in second]


def test_baselines_kind_subset_and_validation(cache_file, tmp_path):
    out_dir = tmp_path / "only"
    assert main(["baselines", "--cache", str(cache_file), "--kinds", "rms",
                 "--repetitions", "1", "--out", str(out_dir)]) == 0
    assert (out_dir / "rms" / "front_1.csv").exists()
    assert not (out_dir / "sm").exists()
    assert main(["baselines", "--cache", str(cache_file), "--kinds", "XXX",
                 "--out", str(tmp_path / "bad")]) == 2
    # A kind named twice (in any case) would run twice.
    assert main(["baselines", "--cache", str(cache_file), "--kinds", "RMS,rms",
                 "--out", str(tmp_path / "twice")]) == 2
    assert not (tmp_path / "twice").exists()


def test_baselines_negative_seed_is_a_usage_error(cache_file, tmp_path, capsys):
    assert main(["baselines", "--cache", str(cache_file), "--seed", "-1",
                 "--out", str(tmp_path / "bad")]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("repetitions", ["0", "-1"])
def test_bad_repetitions_is_a_usage_error(cache_file, tmp_path, repetitions):
    assert main(["baselines", "--cache", str(cache_file), "--kinds", "SM",
                 "--repetitions", repetitions,
                 "--out", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad").exists()
    out_dir = tmp_path / "base"
    assert main(["baselines", "--cache", str(cache_file), "--kinds", "SM",
                 "--repetitions", "1", "--out", str(out_dir)]) == 0
    assert main(["evaluate", "--front", str(out_dir / "sm" / "front_1.csv"),
                 "--cache", str(cache_file), "--repetitions", repetitions,
                 "--out", str(tmp_path / "replay.csv")]) == 2


# ===== evaluate =====

def test_evaluate_replays_train_front_exactly(cache_file, tmp_path):
    out_dir = tmp_path / "runs"
    assert main(train_args(cache_file, out_dir, runs=1)) == 0
    replay = tmp_path / "replay.csv"
    assert main(["evaluate", "--front", str(out_dir / "front_7.csv"),
                 "--cache", str(cache_file), "--repetitions", "2",
                 "--out", str(replay)]) == 0
    assert replay.read_bytes() == (out_dir / "front_7.csv").read_bytes()


def test_evaluate_replays_baseline_front_exactly(cache_file, tmp_path):
    out_dir = tmp_path / "base"
    assert main(["baselines", "--cache", str(cache_file), "--kinds", "ROS",
                 "--repetitions", "5", "--out", str(out_dir)]) == 0
    source = out_dir / "ros" / "front_1.csv"
    replay = tmp_path / "replay.csv"
    assert main(["evaluate", "--front", str(source), "--cache",
                 str(cache_file), "--out", str(replay)]) == 0
    assert replay.read_bytes() == source.read_bytes()


def test_evaluate_on_other_cache_changes_objectives(cache_file, tmp_path):
    out_dir = tmp_path / "base"
    assert main(["baselines", "--cache", str(cache_file), "--kinds", "RMS",
                 "--repetitions", "2", "--out", str(out_dir)]) == 0
    other = tmp_path / "other.json"
    other.write_text(dumps_cache(synth_cache(3, 40, 10, seed=99)))
    replay = tmp_path / "transfer.csv"
    source = out_dir / "rms" / "front_1.csv"
    assert main(["evaluate", "--front", str(source), "--cache", str(other),
                 "--repetitions", "2", "--out", str(replay)]) == 0
    original = read_front_csv(source)
    transferred = read_front_csv(replay)
    assert [r.text for r in transferred] == [r.text for r in original]
    assert [(r.time, r.score) for r in transferred] != \
           [(r.time, r.score) for r in original]


@pytest.mark.parametrize("row,reason", [
    ("-3,,Execute Operators 100%,0.5,0.5", "seed must be non-negative, got -3"),
    ("3,1;2,Execute Operators 100%,0.5,0.5", "bad chromosome text '1;2'"),
    ('3,"+3,04",Execute Operators 100%,0.5,0.5', "bad chromosome text '+3,04'"),
], ids=["negative seed", "malformed chromosome", "non-canonical genes"])
def test_evaluate_rejects_a_bad_front_row(cache_file, tmp_path, capsys, row, reason):
    front = tmp_path / "front.csv"
    front.write_text("seed,chromosome,strategy_text,time,score\n" + row + "\n")
    replay = tmp_path / "replay.csv"
    assert main(["evaluate", "--front", str(front), "--cache", str(cache_file),
                 "--out", str(replay)]) == 2
    assert f"front file {front}, line 2: {reason}" in capsys.readouterr().err
    assert not replay.exists()


@pytest.mark.parametrize("text,reason", [
    ("Baseline ROS random 120%",
     "baseline text 'Baseline ROS random 120%': "
     "Execute Operators percentage '120%' is above 100%"),
    ("Baseline XYZ random 5%", "unparseable baseline text 'Baseline XYZ random 5%'"),
])
def test_evaluate_rejects_a_bad_baseline_row(cache_file, tmp_path, capsys, text, reason):
    front = tmp_path / "front.csv"
    front.write_text(f"seed,chromosome,strategy_text,time,score\n3,,{text},0.5,0.5\n")
    replay = tmp_path / "replay.csv"
    assert main(["evaluate", "--front", str(front), "--cache", str(cache_file),
                 "--out", str(replay)]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not replay.exists()


# ===== report =====

def write_point_front(path, seed, points):
    lines = ["seed,chromosome,strategy_text,time,score"]
    for i, (time, score) in enumerate(points):
        lines.append(f"{seed},,stub {i},{time!r},{score!r}")
    path.write_text("\n".join(lines) + "\n")


def test_report_tables_and_scatter(tmp_path, capsys):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    write_point_front(a_dir / "front_1.csv", 1, [(0.1, 0.9), (0.3, 0.95)])
    write_point_front(a_dir / "front_2.csv", 2, [(0.15, 0.92)])
    write_point_front(b_dir / "front_1.csv", 1, [(0.5, 0.5)])
    write_point_front(b_dir / "front_2.csv", 2, [(0.6, 0.55), (0.7, 0.6)])
    out_dir = tmp_path / "report"
    assert main(["report", "--runs", f"ge={a_dir}", "--runs", f"rms={b_dir}",
                 "--out", str(out_dir)]) == 0
    echoed = capsys.readouterr().out
    assert "hypervolume:" in echoed and "igd:" in echoed

    table = (out_dir / "hypervolume_table.csv").read_text().splitlines()
    assert table[0].split(",")[:5] == [
        "label", "ge_mean", "ge_sd", "rms_mean", "rms_sd"]
    assert "a12_ge_vs_rms" in table[0]
    assert table[1].startswith("experiment,")

    scatter = (out_dir / "scatter.csv").read_text().splitlines()
    assert len(scatter) - 1 == 6  # one row per pooled solution
    assert scatter[1] == "0.1,0.9,ge"

    values = (out_dir / "values.csv").read_text().splitlines()
    assert len(values) - 1 == 2 * 2 * 2  # indicators x methods x runs

    reference = (out_dir / "reference_front.csv").read_text().splitlines()
    assert reference[0] == "time,score"
    assert len(reference) > 1


# SHA-256 of each report file, recorded with the SciPy-based statistics.
REPORT_DIGESTS = {
    "hypervolume_table.csv": "901fc49b294c3a8a22f805f995162e2569a239914c8f28239502166556f25334",
    "igd_table.csv": "36a33aae6de8c1be5dc0db851ddf9c521767329e32eaa3fd57d02d57cecf0df0",
    "reference_front.csv": "44ef2d6ba23dafd3700b00330d25d2e10fc34300a5d45e6be84c7df69b8351d1",
    "scatter.csv": "4f8dca8664f513504df52b675a261bf4a6ad9570ec365d067a2d67d3d4880905",
    "values.csv": "56c1959b07b13b32a6c3e8d8088ebc4528aa70a0392fbba898b81b10d776b84d",
}


def test_report_bytes_match_pinned_digest(tmp_path, capsys):
    """A seeded random-search-versus-baselines experiment; SM is
    deterministic, so its indicator values tie across runs."""
    cache = tmp_path / "cache.json"
    assert main(["cache", "synth", "--operators", "6", "--mutants", "150",
                 "--tests", "30", "--seed", "5", "--out", str(cache)]) == 0
    assert main(["baselines", "--cache", str(cache), "--runs", "6",
                 "--repetitions", "2", "--out", str(tmp_path / "b")]) == 0
    assert main(["train", "--cache", str(cache), "--algorithm", "random",
                 "--runs", "6", "--population-size", "10",
                 "--max-evaluations", "40", "--repetitions", "2",
                 "--out", str(tmp_path / "r")]) == 0
    out = tmp_path / "report"
    capsys.readouterr()
    assert main(["report", "--runs", f"random={tmp_path / 'r'}",
                 "--runs", f"rms={tmp_path / 'b' / 'rms'}",
                 "--runs", f"ros={tmp_path / 'b' / 'ros'}",
                 "--runs", f"sm={tmp_path / 'b' / 'sm'}",
                 "--out", str(out)]) == 0
    echoed = capsys.readouterr().out
    assert "Kruskal-Wallis p = 8.394e-05" in echoed
    assert "Kruskal-Wallis p = 0.00333" in echoed
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert digests == REPORT_DIGESTS


def test_report_input_validation(tmp_path):
    a_dir = tmp_path / "a"
    a_dir.mkdir()
    write_point_front(a_dir / "front_1.csv", 1, [(0.1, 0.9)])
    empty = tmp_path / "empty"
    empty.mkdir()
    out = str(tmp_path / "out")
    assert main(["report", "--runs", f"ge={a_dir}", "--out", out]) == 2
    assert main(["report", "--runs", f"ge={a_dir}", "--runs", f"ge={a_dir}",
                 "--out", out]) == 2
    assert main(["report", "--runs", "nodirectory", "--out", out]) == 2
    assert main(["report", "--runs", f"ge={a_dir}", "--runs", f"b={empty}",
                 "--out", out]) == 2


@pytest.mark.parametrize("point", [(float("nan"), 0.5), (0.5, float("inf"))])
def test_report_rejects_non_finite_front_values(tmp_path, capsys, point):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    write_point_front(a_dir / "front_1.csv", 1, [(0.1, 0.9)])
    write_point_front(b_dir / "front_1.csv", 1, [(0.2, 0.8), point])
    out = tmp_path / "out"
    assert main(["report", "--runs", f"ge={a_dir}", "--runs", f"rms={b_dir}",
                 "--out", str(out)]) == 2
    assert f"front file {b_dir / 'front_1.csv'}, line 3: " in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_a_malformed_chromosome(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    write_point_front(a_dir / "front_1.csv", 1, [(0.1, 0.9)])
    (b_dir / "front_1.csv").write_text("seed,chromosome,strategy_text,time,score\n"
                                       '1,"4,2",stub 0,0.2,0.8\n'
                                       '1,"4,x",stub 1,0.3,0.9\n')
    out = tmp_path / "out"
    assert main(["report", "--runs", f"ge={a_dir}", "--runs", f"rms={b_dir}",
                 "--out", str(out)]) == 2
    assert (f"front file {b_dir / 'front_1.csv'}, line 3: bad chromosome text '4,x'"
            in capsys.readouterr().err)
    assert not out.exists()


# ===== plumbing =====

def test_version_and_help(capsys):
    assert main(["--version"]) == 0
    assert "mutreduce" in capsys.readouterr().out
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("cache", "train", "baselines", "evaluate", "report"):
        assert command in out


def test_internal_errors_exit_three(monkeypatch, tmp_path):
    import mutreduce.cli as cli_mod

    def boom(**kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_mod, "synth_cache", boom)
    assert main(["cache", "synth", "--operators", "2", "--mutants", "5",
                 "--tests", "2", "--out", str(tmp_path / "c.json")]) == 3


def test_cli_import_leaves_scipy_unloaded():
    """SciPy is a test oracle only: neither importing the CLI nor running
    the report statistics may load it (its import takes about a second)."""
    import mutreduce

    package_root = str(Path(mutreduce.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    probe = ("import sys, mutreduce.cli\n"
             "from mutreduce.analysis import compare_experiment\n"
             "stat = compare_experiment({'a': [[(0.1, 0.9)], [(0.2, 0.8)]],\n"
             "                           'b': [[(0.5, 0.5)], [(0.6, 0.4)]]})\n"
             "assert 0.0 < stat.kruskal['hypervolume'][1] < 1.0\n"
             "print('scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_loads_neither_multiprocessing_nor_scipy():
    """Only ``train --jobs`` with several runs needs multiprocessing, only
    the tests need SciPy, and numpy.random is first needed by a draw:
    importing the CLI loads none of them."""
    import mutreduce

    package_root = str(Path(mutreduce.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    probe = ("import sys, mutreduce.cli\n"
             "print(sorted(name for name in ('multiprocessing', 'numpy.random', 'scipy')\n"
             "             if name in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
