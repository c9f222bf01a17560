"""The three benchmark workloads: their inputs, commands and checked outputs.

Inputs are generated from the workload seed before anything is timed;
the program receives only the generated files. The golden digests were
recorded at seed 1.

* ``ge-paper``: two training runs at the paper's budget on the README
  cache, then a replay of each resulting front. Stresses the strategy VM.
* ``kill-large``: a real-size cache (30 operators x 100,000 mutants x
  1,000 tests) through ``baselines`` and a small random search. Stresses
  the kill kernel, cache loading, the index and memory.
* ``report-paper``: three small caches of different kill density, each
  with 30 synthetic ge and random fronts of 100 points, through
  ``baselines --runs 30`` and ``report``. Stresses analysis and run I/O.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from outputs import (FRONT_COLUMNS, Checker, check_front, finite, front_points,
                     nondominated, read_csv, replay_checker, runlog_checker)

WORKLOADS = ("ge-paper", "kill-large", "report-paper")
BASELINE_KINDS = ("rms", "ros", "sm")
REPORT_METHODS = ("ge", "random") + BASELINE_KINDS
REPORT_FILES = ("hypervolume_table.csv", "igd_table.csv", "values.csv",
                "scatter.csv", "reference_front.csv")
REPORT_DENSITIES = (0.5, 0.7, 0.9)
REPORT_RUNS = 30
FRONT_POINTS = 100
# How long a ge run takes depends on how far its strategies grow, which
# its seed decides: one run at the paper's budget took 13.6 to 19.5 s over
# seeds 1-5. Two runs per iteration halve the seed's share of the spread.
GE_RUNS = 2


@dataclass
class Iteration:
    """One pass over a workload's commands, writing below ``out_dir``."""

    commands: list[tuple[str, list[str]]]
    checkers: dict[str, Checker]
    runlogs: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    seed: int
    inputs_dir: Path

    @property
    def setup_cache(self) -> Path:
        """The cache ``setup_s`` loads and indexes."""
        return self.inputs_dir / ("c0" if self.name == "report-paper" else "") / "cache.json"

    def iteration(self, out_dir: Path) -> Iteration:
        return _ITERATIONS[self.name](self, out_dir)


def generate_inputs(w: Workload) -> None:
    """Write the workload's input files. Imports the program, so the
    benchmark calls it in a child process, never in run.py itself."""
    import numpy as np
    from mutreduce.cache import dumps_cache, synth_cache

    def write_cache(path: Path, **synth_args) -> None:
        path.write_text(dumps_cache(synth_cache(**synth_args)), encoding="utf-8")

    w.inputs_dir.mkdir(parents=True, exist_ok=True)
    if w.name == "ge-paper":
        # The README cache at every seed; the seed drives the search. Caches
        # of other synthetic seeds move the training time by tens of
        # percent, which would swamp the run-to-run spread.
        write_cache(w.setup_cache, n_operators=8, n_mutants=600, n_tests=120,
                    seed=101, kill_density=0.9)
    elif w.name == "kill-large":
        write_cache(w.setup_cache, n_operators=30, n_mutants=100_000, n_tests=1_000,
                    seed=200 + w.seed, kill_density=0.8)
    else:
        # Fixed caches; the seed drives the synthetic fronts and the baseline
        # sampling. The report's cost then varies by about 4% between seeds.
        for i, density in enumerate(REPORT_DENSITIES):
            part = w.inputs_dir / f"c{i}"
            part.mkdir(exist_ok=True)
            write_cache(part / "cache.json", n_operators=8, n_mutants=600, n_tests=120,
                        seed=301 + i, kill_density=density)
            for m, method in enumerate(("ge", "random")):
                (part / method).mkdir(exist_ok=True)
                for run in range(REPORT_RUNS):
                    rng = np.random.default_rng((w.seed, i, m, run))
                    (part / method / f"front_{w.seed + run}.csv").write_text(
                        _synthetic_front(rng, method), encoding="utf-8")


def _synthetic_front(rng, method: str) -> str:
    """A front of FRONT_POINTS rows shaped like a population-100 run.

    Times and scores both rise, so rows are sorted by time and mutually
    non-dominated; ge fronts bend closer to the ideal corner than random.
    The bend is fixed per method: drawing it per run made the cost of
    ``reference_front`` swing with the seed.
    """
    bend = 4.5 if method == "ge" else 2.25
    times = sorted(rng.uniform(0.0, 1.0, FRONT_POINTS))
    scores = sorted(1.0 - (1.0 - rng.uniform(0.0, 1.0, FRONT_POINTS)) ** bend)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(FRONT_COLUMNS)
    for time, score in zip(times, scores):
        writer.writerow([int(rng.integers(2**63)), "", "Execute Operators 100%",
                         repr(float(time)), repr(float(score))])
    return buffer.getvalue()


def _ge_paper(w: Workload, out: Path) -> Iteration:
    cache = str(w.setup_cache)
    # Run i trains with seed base + i; the base keeps the runs of one
    # workload seed apart from those of the next.
    seeds = [GE_RUNS * w.seed + i for i in range(GE_RUNS)]
    commands = [("train", ["train", "--cache", cache, "--algorithm", "ge",
                           "--seed", str(seeds[0]), "--runs", str(GE_RUNS),
                           "--population-size", "100", "--max-evaluations", "10000",
                           "--repetitions", "5", "--jobs", "1", "--out", str(out / "ge")])]
    checkers: dict[str, Checker] = {}
    for s in seeds:
        front = f"ge/front_{s}.csv"
        commands.append(("evaluate", ["evaluate", "--front", str(out / front),
                                      "--cache", cache, "--out", str(out / f"replay_{s}.csv")]))
        checkers[front] = check_front
        checkers[f"ge/runlog_{s}.csv"] = runlog_checker(100, 10_000)
        checkers[f"replay_{s}.csv"] = replay_checker(out / front)
    return Iteration(commands=commands, checkers=checkers,
                     runlogs=tuple(f"ge/runlog_{s}.csv" for s in seeds))


def _kill_large(w: Workload, out: Path) -> Iteration:
    cache = str(w.setup_cache)
    checkers = {f"baselines/{kind}/front_{w.seed}.csv": check_front
                for kind in BASELINE_KINDS}
    checkers[f"random/front_{w.seed}.csv"] = check_front
    checkers[f"random/runlog_{w.seed}.csv"] = runlog_checker(3, 60)
    return Iteration(
        commands=[
            ("baselines", ["baselines", "--cache", cache, "--seed", str(w.seed),
                           "--runs", "1", "--out", str(out / "baselines")]),
            ("train", ["train", "--cache", cache, "--algorithm", "random",
                       "--seed", str(w.seed), "--runs", "1",
                       "--population-size", "20", "--max-evaluations", "60",
                       "--jobs", "1", "--out", str(out / "random")]),
        ],
        checkers=checkers,
        runlogs=(f"random/runlog_{w.seed}.csv",),
    )


def _report_paper(w: Workload, out: Path) -> Iteration:
    commands: list[tuple[str, list[str]]] = []
    checkers: dict[str, Checker] = {}
    seeds = range(w.seed, w.seed + REPORT_RUNS)
    for i in range(len(REPORT_DENSITIES)):
        part_in, part_out = w.inputs_dir / f"c{i}", out / f"c{i}"
        method_dirs = {"ge": part_in / "ge", "random": part_in / "random"}
        method_dirs.update({kind: part_out / "baselines" / kind
                            for kind in BASELINE_KINDS})
        commands.append(("baselines", [
            "baselines", "--cache", str(part_in / "cache.json"), "--seed", str(w.seed),
            "--runs", str(REPORT_RUNS), "--out", str(part_out / "baselines")]))
        commands.append(("report", [
            "report", *(arg for method in REPORT_METHODS
                        for arg in ("--runs", f"{method}={method_dirs[method]}")),
            "--label", f"c{i}", "--out", str(part_out / "report")]))
        for kind in BASELINE_KINDS:
            for s in seeds:
                checkers[f"c{i}/baselines/{kind}/front_{s}.csv"] = check_front
        inputs = [path for method in REPORT_METHODS
                  for path in (method_dirs[method] / f"front_{s}.csv" for s in seeds)]
        for name in REPORT_FILES:
            checkers[f"c{i}/report/{name}"] = _report_checker(name, inputs)
    return Iteration(commands=commands, checkers=checkers)


def _report_checker(name: str, inputs: list[Path]) -> Checker:
    """Shape and range checks on one report file; ``inputs`` are the pooled fronts."""
    n_methods = len(REPORT_METHODS)

    def check(path: Path) -> list[str]:
        header, rows = read_csv(path)
        if name.endswith("_table.csv"):
            if len(header) != 2 + 2 * n_methods + 2 * (n_methods - 1) or len(rows) != 1:
                return [f"{name}: table shape"]
            values = [finite(v) for v in rows[0][1:2 + 2 * n_methods]]
            if any(v < 0 for v in values) or (name.startswith("hyper") and max(values) > 1):
                return [f"{name}: value out of range"]
            return []
        if name == "values.csv":
            if len(rows) != 2 * n_methods * REPORT_RUNS:
                return [f"{name}: {len(rows)} rows"]
            if any(not 0.0 <= finite(row[3]) <= (1.0 if row[0] == "hypervolume" else 2.0)
                   for row in rows):
                return [f"{name}: value out of range"]
            return []
        pooled = {point for path_in in inputs for point in front_points(path_in)}
        if name == "scatter.csv":
            expected = sum(len(read_csv(path_in)[1]) for path_in in inputs)
            points = {(float(r[0]), float(r[1])) for r in rows}
            if len(rows) != expected or points != pooled:
                return [f"{name}: does not hold the pooled fronts"]
            return []
        if [(float(r[0]), float(r[1])) for r in rows] != nondominated(pooled):
            return [f"{name}: not the non-dominated subset of the pooled fronts"]
        return []

    return check


_ITERATIONS = {"ge-paper": _ge_paper, "kill-large": _kill_large,
               "report-paper": _report_paper}
