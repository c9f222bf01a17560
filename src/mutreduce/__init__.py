"""Search-based reduction strategies for mutation analysis.

Works entirely on cached mutation data: a cache records operators with
generation costs, prioritized tests, and mutants with execution costs
and killing tests. Reduction strategies are small pipelines that pick
which operators to execute and which mutants to keep; each is scored on
two objectives, relative cost (time, minimized) and relative mutation
score (score, maximized). Strategies are bred with grammatical
evolution over a BNF strategy language, or sampled at random on the
same budget, and compared against fixed-shape baselines with front
quality indicators and non-parametric statistics.

The hot evaluation kernel (first-killer test selection and kill
counting) is one NumPy kernel over the sparse killer lists of the
cache: each mutant's first killer, and the kill classes (each distinct
killer list once, with the number of mutants sharing it). Its memory
is O(nnz), the number of recorded kills, never O(tests x mutants).
``mutreduce.KERNEL_BACKEND`` names it in run provenance.
"""

from .analysis import (A12Result, StatReport, a12, compare_experiment,
                       hypervolume, igd, kruskal_wallis, reference_front)
from .baselines import BASELINE_KINDS, BaselineSpec, baseline_front
from .cache import (CacheError, MutantRecord, MutationCache, OperatorRecord,
                    TestRecord, dumps_cache, global_score, load_cache,
                    loads_cache, operator_yields, read_kill_matrix_csv,
                    save_cache, synth_cache)
from .genome import (Chromosome, GeneBounds, LengthLimits, MappingResult,
                     MappingStatus, map_chromosome, random_chromosome)
from .grammar import DEFAULT_GRAMMAR_TEXT, Grammar, GrammarError, default_grammar, parse_grammar
from .index import build_index
from .objectives import (ObjectivePair, evaluate, score_objective,
                         select_tests, time_objective)
from .search import (EvaluatedStrategy, SearchConfig, SearchResult,
                     run_evolution, run_random_search)
from .strategy import (ReductionRun, Strategy, StrategyParseError, execute,
                       parse_strategy, strategy_from_chromosome)

__version__ = "0.1.0"

# Name of the one kill kernel; benchmark provenance records it beside
# golden digests, which were recorded under this name.
KERNEL_BACKEND = "pure"

__all__ = [
    "A12Result", "BASELINE_KINDS", "BaselineSpec", "CacheError",
    "Chromosome", "DEFAULT_GRAMMAR_TEXT", "EvaluatedStrategy", "GeneBounds",
    "Grammar", "GrammarError", "KERNEL_BACKEND", "LengthLimits",
    "MappingResult", "MappingStatus", "MutantRecord", "MutationCache",
    "ObjectivePair", "OperatorRecord", "ReductionRun", "SearchConfig",
    "SearchResult", "StatReport", "Strategy", "StrategyParseError",
    "TestRecord", "a12", "baseline_front", "build_index", "compare_experiment",
    "default_grammar", "dumps_cache", "evaluate", "execute", "global_score",
    "hypervolume", "igd", "kruskal_wallis", "load_cache", "loads_cache",
    "map_chromosome", "operator_yields", "parse_grammar", "parse_strategy",
    "random_chromosome", "read_kill_matrix_csv", "reference_front",
    "run_evolution", "run_random_search", "save_cache", "score_objective",
    "select_tests", "strategy_from_chromosome", "synth_cache",
    "time_objective",
]
