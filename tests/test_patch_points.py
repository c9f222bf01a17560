"""The benchmark's trace patches program functions by module attribute name.

perfbench/spans.py wraps each (module, attribute) it lists; a refactor that
renames or drops one of those lookups (an import that looks unused, say)
breaks traced runs only. This test reads the list without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans._patch_points()


@pytest.mark.parametrize("module_name,attribute",
                         [point[:2] for point in _patch_points()])
def test_patch_point_is_a_callable_module_attribute(module_name, attribute):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"


def test_strategy_building_and_prune_map_through_the_genome_attribute(monkeypatch, grammar):
    """The trace counts genome.map_calls by patching mutreduce.genome's
    map_chromosome; building a strategy and pruning must both look it up
    there, not hold their own reference."""
    import numpy as np

    from mutreduce import genome, strategy

    calls = []
    original = genome.map_chromosome

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(genome, "map_chromosome", counted)
    chromosome = genome.Chromosome((0,) * 40)
    assert strategy.strategy_from_chromosome(chromosome, grammar) is not None
    assert calls == [chromosome]
    genome.prune(chromosome, grammar, np.random.default_rng(0))
    assert calls == [chromosome, chromosome]


def test_report_calls_the_indicators_through_the_analysis_module(monkeypatch):
    """The trace times analysis.reference_front, igd and hypervolume by
    patching mutreduce.analysis; compare_experiment must look all three up
    there, once per front for the indicators and once per report for the
    reference front."""
    from mutreduce import analysis

    calls = {name: 0 for name in ("reference_front", "igd", "hypervolume")}
    for name in calls:
        original = getattr(analysis, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)
    runs = {"a": [[(0.1, 0.9), (0.5, 0.95)], [(0.2, 0.8)], [(0.3, 0.7)]],
            "b": [[(0.4, 0.6)], [(0.5, 0.5), (0.1, 0.1)], [(0.6, 0.4)]]}
    analysis.compare_experiment(runs)
    assert calls == {"reference_front": 1, "igd": 6, "hypervolume": 6}


def test_each_cache_command_loads_through_the_cli_module_once(monkeypatch, tmp_path):
    """The trace times cache.load_* by patching mutreduce.cli.load_cache;
    train with --jobs 1, baselines, evaluate and cache inspect must each
    look it up there, and load their cache exactly once."""
    from mutreduce import cli
    from mutreduce.cache import dumps_cache, synth_cache

    cache_file = tmp_path / "cache.json"
    cache_file.write_text(dumps_cache(synth_cache(3, 40, 10, seed=21)))
    calls = []
    original = cli.load_cache

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "load_cache", counted)
    cache = str(cache_file)
    commands = {
        "train": ["train", "--cache", cache, "--runs", "2", "--jobs", "1",
                  "--population-size", "4", "--max-evaluations", "8",
                  "--out", str(tmp_path / "ge")],
        "baselines": ["baselines", "--cache", cache, "--kinds", "SM", "--repetitions", "1",
                      "--out", str(tmp_path / "base")],
        "evaluate": ["evaluate", "--front", str(tmp_path / "base" / "sm" / "front_1.csv"),
                     "--cache", cache, "--repetitions", "1",
                     "--out", str(tmp_path / "replay.csv")],
        "cache inspect": ["cache", "inspect", cache],
    }
    for name, argv in commands.items():
        calls.clear()
        assert cli.main(argv) == 0, name
        assert calls == [cache_file], name


def test_report_reads_fronts_through_the_runio_module(monkeypatch, tmp_path):
    """report must look read_front_points up on mutreduce.runio, once per
    front file, so that a trace can wrap it there."""
    from mutreduce import cli, runio

    calls = []
    original = runio.read_front_points

    def counted(path):
        calls.append(path.name)
        return original(path)

    monkeypatch.setattr(runio, "read_front_points", counted)
    for method, points in (("a", [(0.1, 0.9), (0.3, 0.95)]), ("b", [(0.2, 0.8)])):
        (tmp_path / method).mkdir()
        for seed in (1, 2):
            (tmp_path / method / f"front_{seed}.csv").write_text(
                "seed,chromosome,strategy_text,time,score\n"
                + "".join(f"{seed},,stub,{time!r},{score!r}\n" for time, score in points))
    assert cli.main(["report", "--runs", f"a={tmp_path / 'a'}", "--runs", f"b={tmp_path / 'b'}",
                     "--out", str(tmp_path / "report")]) == 0
    assert calls == ["front_1.csv", "front_2.csv"] * 2
