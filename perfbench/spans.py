"""Spans around the calls into each layer, and the per-layer metrics built from them.

A span is a list ``[id, parent, layer, name, start, end, attr]``: ``parent``
is the id of the span that was open when this one started (-1 for a
root), times come from ``time.perf_counter`` and ``attr`` is one number
taken from the call (a size, a count) or None. Spans stay in memory while
the workload runs and are written out once it ends.

Spans are recorded from the benchmark's side only: ``install`` replaces a
public function on the module attribute where its caller looks it up
(``mutreduce.cli.load_cache``, ``mutreduce._kernels.select_and_count``,
...) with a recording wrapper. The program's own files are not touched,
so the traced run must write the same bytes as an untraced one.
"""

from __future__ import annotations

import importlib
import time
import weakref
from collections import defaultdict

ID, PARENT, LAYER, NAME, START, END, ATTR = range(7)

LAYERS = ("cli", "cache", "index", "genome", "strategy", "kernels",
          "objectives", "search", "baselines", "analysis", "runio")


class Recorder:
    """Collects spans in call order; one open-span stack (the run is single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, layer: str, name: str, func, attr=None):
        """Return ``func`` recording one span per call.

        ``attr(args, result)`` runs after the call, outside the span.
        """
        spans, open_ids, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), open_ids[-1] if open_ids else -1,
                    layer, name, 0.0, 0.0, None]
            spans.append(span)
            open_ids.append(span[ID])
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                open_ids.pop()
            if attr is not None:
                span[ATTR] = attr(args, result)
            return result

        return traced


def _new_index_nnz():
    """attr for build_index: kill nonzeros of an index not returned before, else None."""
    seen = weakref.WeakSet()

    def attr(args, index):
        if index in seen:
            return None
        seen.add(index)
        return int(index.killer_tests.size)

    return attr


def _pooled_points(args, result):
    return sum(len(front) for fronts in args[0].values() for front in fronts)


def _patch_points() -> tuple:
    """(module, attribute, layer, span name, attr) for every patched call.

    Each entry is the lookup its caller makes: cli calls load_cache
    through its own namespace, objectives and baselines call
    mutreduce._kernels.select_and_count, and so on. build_index is
    patched in every module that imported it.
    """
    new_index = _new_index_nnz()
    return (
        ("mutreduce.cli", "load_cache", "cache", "load", None),
        ("mutreduce.search", "build_index", "index", "build", new_index),
        ("mutreduce.objectives", "build_index", "index", "build", new_index),
        ("mutreduce.baselines", "build_index", "index", "build", new_index),
        ("mutreduce.strategy", "build_index", "index", "build", new_index),
        ("mutreduce.genome", "map_chromosome", "genome", "map",
         lambda args, result: 0 if result.mapped else 1),
        ("mutreduce.objectives", "execute_indexed", "strategy", "execute",
         lambda args, result: int(result[1].size)),
        ("mutreduce._kernels", "select_and_count", "kernels", "select_and_count",
         lambda args, result: int(args[1].size)),
        ("mutreduce.search", "evaluate_indexed", "objectives", "evaluate", None),
        ("mutreduce.objectives", "evaluate_indexed", "objectives", "evaluate", None),
        ("mutreduce.cli", "run_evolution", "search", "run",
         lambda args, result: len(result.generations)),
        ("mutreduce.cli", "run_random_search", "search", "run",
         lambda args, result: len(result.generations)),
        ("mutreduce.cli", "baseline_front", "baselines", "front", None),
        ("mutreduce.cli", "compare_experiment", "analysis", "compare", _pooled_points),
        ("mutreduce.analysis", "reference_front", "analysis", "reference_front", None),
        ("mutreduce.analysis", "igd", "analysis", "igd", None),
        ("mutreduce.analysis", "hypervolume", "analysis", "hypervolume", None),
        ("mutreduce.runio", "read_front_csv", "runio", "read",
         lambda args, result: len(result)),
        ("mutreduce.runio", "atomic_write_text", "runio", "write",
         lambda args, result: len(args[1].encode("utf-8"))),
        ("mutreduce.runio", "sha256_file", "runio", "sha256", None),
        ("mutreduce.runio", "sha256_text", "runio", "sha256", None),
    )


def install(recorder: Recorder) -> None:
    """Replace every patch point with a wrapper recording into ``recorder``."""
    for module_name, attribute, layer, name, attr in _patch_points():
        module = importlib.import_module(module_name)
        setattr(module, attribute,
                recorder.wrap(layer, name, getattr(module, attribute), attr))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span[ID], ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append((end - start) - covered)
    return result


def layer_self_times(spans: list[list]) -> dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        totals[span[LAYER]] += own
    return totals


def _percentile_us(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[round(q * (len(ordered) - 1))] * 1e6


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of one traced workload iteration.

    An index build is a build_index call that returned an index not seen
    before (memo hits and index pass-throughs are not builds);
    ``index.kill_nnz`` sums the kill nonzeros of the indexes built.
    """
    own = self_times(spans)
    by_name: dict[tuple[str, str], list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[LAYER], span[NAME]].append(i)

    def picked(layer, name=None):
        if name is not None:
            return by_name.get((layer, name), [])
        return [i for (lay, _), ids in by_name.items() if lay == layer for i in ids]

    def calls(layer, name):
        return len(picked(layer, name))

    def durations(layer, name):
        return [spans[i][END] - spans[i][START] for i in picked(layer, name)]

    def total_s(layer, name):
        return sum(durations(layer, name))

    def self_s(layer):
        return sum(own[i] for i in picked(layer))

    def attrs(layer, name):
        return [spans[i][ATTR] for i in picked(layer, name) if spans[i][ATTR] is not None]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    maps = calls("genome", "map")
    execute = durations("strategy", "execute")
    kernel = durations("kernels", "select_and_count")
    return {
        "cache.load_calls": calls("cache", "load"),
        "cache.load_s": total_s("cache", "load"),
        "index.build_calls": len(attrs("index", "build")),
        "index.build_s": total_s("index", "build"),
        "index.kill_nnz": sum(attrs("index", "build")),
        "genome.map_calls": maps,
        "genome.map_s": total_s("genome", "map"),
        "genome.map_failed_ratio": sum(attrs("genome", "map")) / maps if maps else 0.0,
        "strategy.execute_calls": len(execute),
        "strategy.execute_s": sum(execute),
        "strategy.execute_p50_us": _percentile_us(execute, 0.5),
        "strategy.execute_p90_us": _percentile_us(execute, 0.9),
        "strategy.kept_mean": mean(attrs("strategy", "execute")),
        "kernels.calls": len(kernel),
        "kernels.s": sum(kernel),
        "kernels.p50_us": _percentile_us(kernel, 0.5),
        "kernels.p90_us": _percentile_us(kernel, 0.9),
        "kernels.mprime_mean": mean(attrs("kernels", "select_and_count")),
        "objectives.evaluate_calls": calls("objectives", "evaluate"),
        "objectives.self_s": self_s("objectives"),
        "search.generations": sum(attrs("search", "run")),
        "search.self_s": self_s("search"),
        "baselines.front_calls": calls("baselines", "front"),
        "baselines.self_s": self_s("baselines"),
        "analysis.compare_s": total_s("analysis", "compare"),
        "analysis.reference_front_s": total_s("analysis", "reference_front"),
        "analysis.pooled_points": sum(attrs("analysis", "compare")),
        "analysis.igd_s": total_s("analysis", "igd"),
        "analysis.hypervolume_calls": calls("analysis", "hypervolume"),
        "runio.read_s": total_s("runio", "read"),
        "runio.rows_read": sum(attrs("runio", "read")),
        "runio.write_s": total_s("runio", "write"),
        "runio.bytes_written": sum(attrs("runio", "write")),
        "runio.sha256_s": total_s("runio", "sha256"),
        "cli.self_s": self_s("cli"),
    }
