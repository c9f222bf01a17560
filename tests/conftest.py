"""Shared fixtures: small hand-built caches with known structure."""

import pytest

from mutreduce.cache import (MutantRecord, MutationCache, OperatorRecord,
                             TestRecord, synth_cache)
from mutreduce.grammar import default_grammar


@pytest.fixture(scope="session")
def grammar():
    return default_grammar()


@pytest.fixture()
def tiny_cache():
    """2 operators, 5 tests, 4 mutants; one mutant survives everything.

    Kill structure (test ranks t1 < t2 < t3 < t4 < t5):
      m1: {t2, t5}   m2: {t2}   m3: {t4}   m4: {} (equivalent)
    So the full suite kills 3 of 4 mutants and selecting {m1, m2} needs
    only t2, which kills both.
    """
    return MutationCache.from_records(
        operators=(
            OperatorRecord(id="opA", generation_cost=2.0),
            OperatorRecord(id="opB", generation_cost=3.0),
        ),
        tests=tuple(TestRecord(id=f"t{i}", priority_rank=i) for i in range(1, 6)),
        mutants=(
            MutantRecord(id="m1", operator_id="opA", exec_cost=1.0, killers=("t2", "t5")),
            MutantRecord(id="m2", operator_id="opA", exec_cost=2.0, killers=("t2",)),
            MutantRecord(id="m3", operator_id="opB", exec_cost=4.0, killers=("t4",)),
            MutantRecord(id="m4", operator_id="opB", exec_cost=3.0, killers=()),
        ),
    )


@pytest.fixture(scope="session")
def small_synth():
    """A mid-size generated cache for property tests."""
    return synth_cache(5, 60, 20, seed=7, kill_density=0.8,
                       cost_skew=2.0, redundancy=0.3)
