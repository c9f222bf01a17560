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
