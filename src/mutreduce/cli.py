"""Command line interface.

Subcommands cover the whole experiment loop:

* ``cache synth | inspect | convert`` manage mutation data caches.
* ``train`` searches for reduction strategies (evolution or random) and
  writes one front and one run log per seed plus a manifest that can
  reproduce the outputs byte for byte via ``train --manifest``.
* ``baselines`` evaluates the fixed-shape baseline sweeps in the same
  front format.
* ``evaluate`` replays a front file against a cache.
* ``report`` compares methods with quality indicators and statistics.

Exit codes: 0 on success, 2 for usage or input problems (bad flags,
unreadable files, malformed data), 3 for unexpected internal errors.
"""

from __future__ import annotations

import csv
import io
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import click
import numpy as np

from . import __version__, runio
from .analysis import INDICATORS, StatReport, compare_experiment
from .baselines import BASELINE_KINDS, baseline_front
from .cache import (MutationCache, dumps_cache, global_score, load_cache,
                    operator_yields, read_kill_matrix_csv, synth_cache)
from .grammar import DEFAULT_GRAMMAR_TEXT, parse_grammar
from .search import SearchConfig, run_evolution, run_random_search


@click.group(name="mutreduce")
@click.version_option(__version__)
def cli() -> None:
    """Search-based reduction strategies for mutation analysis."""


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point returning an exit code instead of raising SystemExit."""
    try:
        cli.main(args=argv, prog_name="mutreduce", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.Abort:
        click.echo("aborted", err=True)
        return 2
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except Exception as exc:
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 3
    return 0


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is None:
        env = os.environ.get("MUTREDUCE_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise click.UsageError(
                    f"MUTREDUCE_JOBS must be an integer, got {env!r}")
        else:
            jobs = 1
    if jobs < 1:
        raise click.UsageError("--jobs must be >= 1")
    return jobs


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _versions() -> dict[str, str]:
    """Manifest provenance: byte-identity rests on numpy's Generator streams."""
    return {"python": platform.python_version(), "numpy": np.__version__}


# ===== cache =====

@cli.group()
def cache() -> None:
    """Create, inspect, and convert mutation data caches."""


@cache.command("synth")
@click.option("--operators", type=int, required=True, help="Number of mutation operators.")
@click.option("--mutants", type=int, required=True, help="Number of mutants.")
@click.option("--tests", type=int, required=True, help="Number of tests.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--kill-density", type=float, default=0.8, show_default=True,
              help="Probability a mutant is killable.")
@click.option("--cost-skew", type=float, default=2.0, show_default=True,
              help="How unevenly mutants spread over operators (>= 1).")
@click.option("--redundancy", type=float, default=0.3, show_default=True,
              help="Fraction of killable mutants sharing a killer set.")
@click.option("--out", "-o", "out_path", required=True,
              type=click.Path(dir_okay=False, path_type=Path))
def cache_synth(operators: int, mutants: int, tests: int, seed: int,
                kill_density: float, cost_skew: float, redundancy: float,
                out_path: Path) -> None:
    """Generate a reproducible synthetic cache."""
    data = synth_cache(n_operators=operators, n_mutants=mutants, n_tests=tests,
                       seed=seed, kill_density=kill_density,
                       cost_skew=cost_skew, redundancy=redundancy)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    runio.atomic_write_text(out_path, dumps_cache(data))
    click.echo(f"wrote {out_path}: {len(data.operator_ids)} operators, "
               f"{len(data.mutant_ids)} mutants, {len(data.test_ids)} tests, "
               f"{data.killable_count} killable")


@cache.command("inspect")
@click.argument("path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
def cache_inspect(path: Path) -> None:
    """Print summary statistics for a cache file."""
    data = load_cache(path)
    click.echo(f"operators:    {len(data.operator_ids)}")
    click.echo(f"tests:        {len(data.test_ids)}")
    click.echo(f"mutants:      {len(data.mutant_ids)}")
    click.echo(f"killable:     {data.killable_count}")
    click.echo(f"kill nonzeros: {data.killer_tests.size}")
    click.echo(f"global score: {global_score(data):.6f}")
    click.echo(f"total cost:   {data.total_cost:.6g}")
    click.echo("mutants per operator:")
    for op_id, count in operator_yields(data):
        click.echo(f"  {op_id}: {count}")


@cache.command("convert")
@click.option("--matrix", "matrix_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Kill-matrix CSV with columns mutant_id, operator_id, "
                   "exec_cost, killed_by.")
@click.option("--out", "-o", "out_path", required=True,
              type=click.Path(dir_okay=False, path_type=Path))
def cache_convert(matrix_path: Path, out_path: Path) -> None:
    """Convert a kill-matrix CSV export into a cache file."""
    data = read_kill_matrix_csv(matrix_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    runio.atomic_write_text(out_path, dumps_cache(data))
    click.echo(f"wrote {out_path}: {len(data.operator_ids)} operators, "
               f"{len(data.mutant_ids)} mutants, {len(data.test_ids)} tests")


# ===== train =====

def _train_task(task: tuple, data: MutationCache | None = None) -> tuple[int, str, str]:
    """One training run; returns (seed, front csv text, run log csv text).

    Module-level and fed plain data so it can cross a process boundary;
    a worker loads the cache from the task's path, the sequential path
    passes the cache it already loaded. The texts are rendered here so
    parallel and sequential runs go through the identical serialization
    path.
    """
    algorithm, config_values, grammar_text, cache_path = task
    if data is None:
        data = load_cache(cache_path)
    grammar = parse_grammar(grammar_text)
    config = SearchConfig.from_dict(config_values)
    driver = run_evolution if algorithm == "ge" else run_random_search
    result = driver(config, grammar, data)
    return (config.seed, runio.front_csv_text(result.front),
            runio.runlog_csv_text(result.generations))


def _run_training(algorithm: str, config_values: dict, grammar_text: str,
                  cache_file: Path, data: MutationCache, seeds: list[int],
                  jobs: int, out_dir: Path) -> dict[str, str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(algorithm, {**config_values, "seed": s}, grammar_text, str(cache_file))
             for s in seeds]
    if jobs == 1 or len(tasks) == 1:
        results = [_train_task(task, data) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_train_task, tasks))
    outputs: dict[str, str] = {}
    for run_seed, front_text, log_text in results:
        front_name = f"front_{run_seed}.csv"
        log_name = f"runlog_{run_seed}.csv"
        runio.atomic_write_text(out_dir / front_name, front_text)
        runio.atomic_write_text(out_dir / log_name, log_text)
        outputs[front_name] = runio.sha256_text(front_text)
        outputs[log_name] = runio.sha256_text(log_text)
        members = front_text.count("\n") - 1
        click.echo(f"seed {run_seed}: {members} front member(s)")
    return outputs


_TRAIN_OVERRIDE_FLAGS = ("--cache", "--algorithm", "--grammar", "--config",
                         "--seed", "--runs", "--population-size",
                         "--max-evaluations", "--repetitions")


@cli.command("train")
@click.option("--cache", "cache_path", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--algorithm", type=click.Choice(["ge", "random"]), default=None,
              help="Search driver: grammatical evolution or random search "
                   "on the same budget  [default: ge].")
@click.option("--grammar", "grammar_path", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="BNF grammar file; omit for the built-in strategy language.")
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="key = value file; explicit flags override it.")
@click.option("--seed", type=int, default=None,
              help="Base seed; run i uses seed + i  [default: 1].")
@click.option("--runs", type=int, default=None,
              help="Independent runs  [default: 30].")
@click.option("--population-size", type=int, default=None)
@click.option("--max-evaluations", type=int, default=None)
@click.option("--repetitions", type=int, default=None,
              help="Stochastic repetitions per strategy evaluation.")
@click.option("--jobs", type=int, default=None,
              help="Worker processes; runs are spread across them without "
                   "changing any output byte  [default: $MUTREDUCE_JOBS or 1].")
@click.option("--manifest", "manifest_path", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Reproduce a recorded run; only --jobs and --out apply.")
@click.option("--out", "-o", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def train(cache_path: Path | None, algorithm: str | None,
          grammar_path: Path | None, config_path: Path | None,
          seed: int | None, runs: int | None, population_size: int | None,
          max_evaluations: int | None, repetitions: int | None,
          jobs: int | None, manifest_path: Path | None, out_dir: Path) -> None:
    """Search a cache for reduction strategies.

    Writes front_<seed>.csv and runlog_<seed>.csv per run plus
    manifest.json recording config, seeds, grammar text, and the cache
    hash, so the exact outputs can be regenerated later.
    """
    jobs = _resolve_jobs(jobs)

    if manifest_path is not None:
        overrides = (cache_path, algorithm, grammar_path, config_path, seed,
                     runs, population_size, max_evaluations, repetitions)
        if any(value is not None for value in overrides):
            raise click.UsageError(
                "--manifest replays a recorded run; it cannot be combined with "
                + ", ".join(_TRAIN_OVERRIDE_FLAGS))
        manifest = runio.read_manifest(manifest_path)
        try:
            algorithm = manifest["algorithm"]
            config_values = manifest["config"]
            grammar_text = str(manifest["grammar_text"])
            recorded_cache = str(manifest["cache_path"])
            recorded_sha = str(manifest["cache_sha256"])
            seeds = manifest["seeds"]
        except KeyError as exc:
            raise ValueError(f"manifest {manifest_path} is missing key {exc}")
        if algorithm not in ("ge", "random"):
            raise click.UsageError(
                f"manifest {manifest_path} has unknown algorithm {algorithm!r}")
        if not isinstance(config_values, dict):
            raise ValueError(f"manifest {manifest_path}: config must be an object")
        if not (isinstance(seeds, list) and seeds and all(
                isinstance(s, int) and not isinstance(s, bool) for s in seeds)):
            raise ValueError(
                f"manifest {manifest_path}: seeds must be a non-empty list of integers")
        recorded_numpy = manifest.get("numpy")
        if recorded_numpy is not None and recorded_numpy != np.__version__:
            click.echo(f"warning: {manifest_path} was recorded with numpy "
                       f"{recorded_numpy}, running numpy {np.__version__}; "
                       f"outputs may not be byte-identical", err=True)
        cache_file = Path(recorded_cache)
        if not cache_file.is_absolute():
            cache_file = manifest_path.parent / cache_file
        actual_sha = runio.sha256_file(cache_file)
        if actual_sha != recorded_sha:
            raise ValueError(
                f"cache {cache_file} does not match the manifest "
                f"(sha256 {actual_sha} != {recorded_sha})")
    else:
        if cache_path is None:
            raise click.UsageError("--cache is required (or use --manifest)")
        cache_file = cache_path
        algorithm = algorithm or "ge"
        file_values = {}
        if config_path is not None:
            file_values = runio.parse_config_text(
                config_path.read_text(encoding="utf-8"))
        file_seed = file_values.pop("seed", None)
        for key, value in (("population_size", population_size),
                           ("max_evaluations", max_evaluations),
                           ("repetitions", repetitions)):
            if value is not None:
                file_values[key] = value
        base_seed = seed if seed is not None else (
            file_seed if file_seed is not None else 1)
        n_runs = runs if runs is not None else 30
        if n_runs < 1:
            raise click.UsageError("--runs must be >= 1")
        seeds = [base_seed + i for i in range(n_runs)]
        grammar_text = (grammar_path.read_text(encoding="utf-8")
                        if grammar_path is not None else DEFAULT_GRAMMAR_TEXT)
        # Record the fully resolved config so manifests stay reproducible
        # even if library defaults change.
        config_values = SearchConfig.from_dict(
            {**file_values, "seed": seeds[0]}).as_dict()
        del config_values["seed"]

    # Validate everything once up front; workers revalidate cheaply, and
    # the sequential path trains on the cache loaded here.
    parse_grammar(grammar_text)
    SearchConfig.from_dict({**config_values, "seed": seeds[0]})
    data = load_cache(cache_file)
    cache_sha = runio.sha256_file(cache_file)

    outputs = _run_training(algorithm, config_values, grammar_text,
                            cache_file, data, seeds, jobs, out_dir)
    runio.write_manifest(out_dir / "manifest.json", {
        "tool": "mutreduce",
        "version": __version__,
        "created_utc": _utc_now(),
        **_versions(),
        "command": "train",
        "algorithm": algorithm,
        "config": config_values,
        "grammar_text": grammar_text,
        "grammar_sha256": runio.sha256_text(grammar_text),
        "cache_path": str(Path(cache_file).resolve()),
        "cache_sha256": cache_sha,
        "seeds": seeds,
        "jobs": jobs,
        "outputs": outputs,
    })
    click.echo(f"wrote {len(seeds)} run(s) to {out_dir}")


# ===== baselines =====

@cli.command("baselines")
@click.option("--cache", "cache_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--kinds", default=",".join(BASELINE_KINDS), show_default=True,
              help="Comma-separated subset of RMS,ROS,SM.")
@click.option("--seed", type=int, default=1, show_default=True,
              help="Base seed; run i uses seed + i.")
@click.option("--runs", type=int, default=1, show_default=True)
@click.option("--repetitions", type=int, default=5, show_default=True)
@click.option("--out", "-o", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def baselines_command(cache_path: Path, kinds: str, seed: int, runs: int,
                      repetitions: int, out_dir: Path) -> None:
    """Evaluate the fixed-shape baseline sweeps on a cache.

    Writes <kind>/front_<seed>.csv per kind and run, in the same format
    as train output, so report can compare them directly.
    """
    kind_list = [k.strip().upper() for k in kinds.split(",") if k.strip()]
    unknown = [k for k in kind_list if k not in BASELINE_KINDS]
    if unknown or not kind_list:
        raise click.UsageError(
            f"--kinds must name a subset of {','.join(BASELINE_KINDS)}")
    if runs < 1:
        raise click.UsageError("--runs must be >= 1")
    if repetitions < 1:
        raise click.UsageError("--repetitions must be >= 1")
    data = load_cache(cache_path)
    seeds = list(range(seed, seed + runs))
    outputs: dict[str, str] = {}
    for kind in kind_list:
        sub = out_dir / kind.lower()
        sub.mkdir(parents=True, exist_ok=True)
        for run_seed in seeds:
            front = baseline_front(kind, data, run_seed, repetitions)
            text = runio.front_csv_text(front)
            name = f"{kind.lower()}/front_{run_seed}.csv"
            runio.atomic_write_text(out_dir / name, text)
            outputs[name] = runio.sha256_text(text)
    runio.write_manifest(out_dir / "manifest.json", {
        "tool": "mutreduce",
        "version": __version__,
        "created_utc": _utc_now(),
        **_versions(),
        "command": "baselines",
        "kinds": kind_list,
        "repetitions": repetitions,
        "cache_path": str(cache_path.resolve()),
        "cache_sha256": runio.sha256_file(cache_path),
        "seeds": seeds,
        "outputs": outputs,
    })
    click.echo(f"wrote {len(kind_list)} baseline sweep(s) x {runs} run(s) to {out_dir}")


# ===== evaluate =====

@cli.command("evaluate")
@click.option("--front", "front_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--cache", "cache_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--repetitions", type=int, default=5, show_default=True)
@click.option("--out", "-o", "out_path", required=True,
              type=click.Path(dir_okay=False, path_type=Path))
def evaluate_command(front_path: Path, cache_path: Path, repetitions: int,
                     out_path: Path) -> None:
    """Replay a front file's strategies against a cache.

    Rows run with their recorded seeds: on the cache that produced them
    this reproduces time and score exactly; on a different cache it
    measures how the strategies transfer. Row order is preserved.
    """
    if repetitions < 1:
        raise click.UsageError("--repetitions must be >= 1")
    rows = runio.read_front_csv(front_path)
    data = load_cache(cache_path)
    front = runio.reevaluated_front(rows, data, repetitions)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    runio.atomic_write_text(out_path, runio.front_csv_text(front))
    click.echo(f"re-evaluated {len(front)} strategies -> {out_path}")


# ===== report =====

def _front_sort_key(path: Path) -> tuple:
    suffix = path.stem[len("front_"):]
    try:
        return (0, int(suffix), "")
    except ValueError:
        return (1, 0, suffix)


def _indicator_table_text(label: str, indicator: str, stat: StatReport) -> str:
    first = stat.methods[0]
    header = ["label"]
    for method in stat.methods:
        header += [f"{method}_mean", f"{method}_sd"]
    header.append("p_value")
    for method in stat.methods[1:]:
        header += [f"a12_{first}_vs_{method}", f"magnitude_{first}_vs_{method}"]
    row: list[str] = [label]
    for method in stat.methods:
        row += [f"{stat.means[indicator][method]:.4f}",
                f"{stat.stdevs[indicator][method]:.4f}"]
    row.append(f"{stat.kruskal[indicator][1]:.4g}")
    for method in stat.methods[1:]:
        effect = stat.effect_sizes[indicator][method]
        row += [f"{effect.value:.4f}", effect.magnitude]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(row)
    return buffer.getvalue()


def _values_csv_text(stat: StatReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["indicator", "method", "run", "value"])
    for indicator in INDICATORS:
        for method in stat.methods:
            for run_index, value in enumerate(stat.values[indicator][method]):
                writer.writerow([indicator, method, run_index, repr(value)])
    return buffer.getvalue()


def _reference_csv_text(stat: StatReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["time", "score"])
    for time, score in stat.reference:
        writer.writerow([repr(time), repr(score)])
    return buffer.getvalue()


def _scatter_csv_text(methods: dict[str, list[list[runio.FrontRow]]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["time", "score", "method"])
    for name, fronts in methods.items():
        for rows in fronts:
            for row in rows:
                writer.writerow([repr(row.time), repr(row.score), name])
    return buffer.getvalue()


def _summary_line(indicator: str, stat: StatReport) -> str:
    first = stat.methods[0]
    parts = [f"{method} {stat.means[indicator][method]:.4f} "
             f"({stat.stdevs[indicator][method]:.4f})"
             for method in stat.methods]
    line = f"{indicator}: " + ", ".join(parts)
    line += f"; Kruskal-Wallis p = {stat.kruskal[indicator][1]:.4g}"
    for method in stat.methods[1:]:
        effect = stat.effect_sizes[indicator][method]
        line += (f"; A12 {first} vs {method} = {effect.value:.4f} "
                 f"({effect.magnitude})")
    return line


@cli.command("report")
@click.option("--runs", "run_specs", multiple=True, required=True,
              help="label=DIR, repeated once per method; DIR holds that "
                   "method's front_*.csv files (one per run).")
@click.option("--label", default="experiment", show_default=True,
              help="Row label in the output tables.")
@click.option("--out", "-o", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def report_command(run_specs: tuple[str, ...], label: str, out_dir: Path) -> None:
    """Compare methods' fronts with quality indicators and statistics.

    Pools every solution, normalizes onto the unit square, then reports
    per-run hypervolume and inverted generational distance with
    Kruskal-Wallis p-values and A12 effect sizes of the first method
    against each other. Writes one table per indicator plus the raw
    per-run values, a (time, score, method) scatter of every solution,
    and the pooled reference front.
    """
    methods: dict[str, list[list[runio.FrontRow]]] = {}
    for spec in run_specs:
        name, sep, directory = spec.partition("=")
        name = name.strip()
        directory = directory.strip()
        if not sep or not name or not directory:
            raise click.UsageError(f"--runs expects label=DIR, got {spec!r}")
        if name in methods:
            raise click.UsageError(f"duplicate method label {name!r}")
        files = sorted(Path(directory).glob("front_*.csv"), key=_front_sort_key)
        if not files:
            raise ValueError(f"no front_*.csv files in {directory}")
        methods[name] = [runio.read_front_csv(path) for path in files]
    stat = compare_experiment({
        name: [runio.front_rows_as_points(rows) for rows in fronts]
        for name, fronts in methods.items()})

    out_dir.mkdir(parents=True, exist_ok=True)
    for indicator in INDICATORS:
        runio.atomic_write_text(out_dir / f"{indicator}_table.csv",
                                _indicator_table_text(label, indicator, stat))
        click.echo(_summary_line(indicator, stat))
    runio.atomic_write_text(out_dir / "values.csv", _values_csv_text(stat))
    runio.atomic_write_text(out_dir / "scatter.csv", _scatter_csv_text(methods))
    runio.atomic_write_text(out_dir / "reference_front.csv",
                            _reference_csv_text(stat))
    click.echo(f"wrote report to {out_dir}")
