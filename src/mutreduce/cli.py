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
Click checks flag types and ranges, ``MUTREDUCE_JOBS`` included; every
output file but the manifest goes through ``_write_outputs``.
"""

from __future__ import annotations

import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import click
import numpy as np
from click.core import ParameterSource

from . import __version__, runio
from .analysis import INDICATORS, StatReport, compare_experiment
from .baselines import BASELINE_KINDS, baseline_front
from .cache import (MutationCache, dumps_cache, global_score, load_cache,
                    operator_yields, read_kill_matrix_csv, synth_cache)
from .grammar import DEFAULT_GRAMMAR_TEXT, Grammar, parse_grammar
from .numerals import read_count
from .objectives import MAX_REPETITIONS
from .search import MAX_POPULATION_SIZE, SearchConfig, run_evolution, run_random_search

# The most runs train and baselines accept, and a train manifest may
# record: each run's output texts are held until all are written.
MAX_RUNS = 1000


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


def _write_outputs(out_dir: Path, texts: dict[str, str]) -> None:
    """Write each text to its name under out_dir, making each directory
    the names need once."""
    paths = [out_dir / name for name in texts]
    for directory in dict.fromkeys(path.parent for path in paths):
        directory.mkdir(parents=True, exist_ok=True)
    for path, text in zip(paths, texts.values()):
        runio.atomic_write_text(path, text)


def _write_manifest(out_dir: Path, command: str, cache_file: Path, cache_sha: str,
                    seeds: list[int], texts: dict[str, str], **fields) -> None:
    """Write manifest.json: the provenance every command records, the
    SHA-256 of each output text, then the command's own fields. Python and
    numpy versions are recorded because byte-identity rests on numpy's
    Generator streams."""
    runio.write_manifest(out_dir / "manifest.json", {
        "tool": "mutreduce",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "command": command,
        "cache_path": str(Path(cache_file).resolve()),
        "cache_sha256": cache_sha,
        "seeds": seeds,
        "outputs": {name: runio.sha256_text(text) for name, text in texts.items()},
        **fields,
    })


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
    if seed < 0:
        raise click.UsageError("--seed must be >= 0")
    data = synth_cache(n_operators=operators, n_mutants=mutants, n_tests=tests,
                       seed=seed, kill_density=kill_density,
                       cost_skew=cost_skew, redundancy=redundancy)
    _write_outputs(out_path.parent, {out_path.name: dumps_cache(data)})
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
    click.echo(f"kill classes: {data.kill_classes.starts.size}")
    click.echo(f"class nonzeros: {data.kill_classes.tests.size}")
    views = {"first_killer": (data.first_killer,), "kill classes": data.kill_classes,
             "test-major": data.test_classes, "operator spans": (data.operator_mutants,),
             "owner codes": (data.owner_codes,)}
    click.echo("view bytes:   " + ", ".join(f"{name} {sum(a.nbytes for a in arrays)}"
                                            for name, arrays in views.items()))
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
    _write_outputs(out_path.parent, {out_path.name: dumps_cache(data)})
    click.echo(f"wrote {out_path}: {len(data.operator_ids)} operators, "
               f"{len(data.mutant_ids)} mutants, {len(data.test_ids)} tests")


# ===== train =====

def _train_task(task: tuple, data: MutationCache | None = None) -> tuple[int, str, str]:
    """One training run; returns (seed, front csv text, run log csv text).

    Module-level and fed picklable data (the parsed grammar and config)
    so it can cross a process boundary; a worker loads the cache from the
    task's path, the sequential path passes the cache it already loaded.
    The texts are rendered here so parallel and sequential runs go
    through the identical serialization path.
    """
    algorithm, config, grammar, cache_path = task
    if data is None:
        data = load_cache(cache_path)
    # Looked up in this module when the run starts: perfbench patches them here.
    driver = run_evolution if algorithm == "ge" else run_random_search
    result = driver(config, grammar, data)
    return (config.seed, runio.front_csv_text(result.front),
            runio.runlog_csv_text(result.generations))


def _run_training(algorithm: str, configs: list[SearchConfig], grammar: Grammar,
                  cache_file: Path, data: MutationCache, jobs: int,
                  out_dir: Path) -> dict[str, str]:
    """Train one run per config; writes and returns name -> output text."""
    tasks = [(algorithm, config, grammar, str(cache_file)) for config in configs]
    if jobs == 1 or len(tasks) == 1:
        results = [_train_task(task, data) for task in tasks]
    else:
        # Imported here: it brings in multiprocessing, which only this path needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_train_task, tasks))
    texts = {name: text for run_seed, front_text, log_text in results
             for name, text in ((f"front_{run_seed}.csv", front_text),
                                (f"runlog_{run_seed}.csv", log_text))}
    _write_outputs(out_dir, texts)
    for run_seed, front_text, _ in results:
        members = front_text.count("\n") - 1
        click.echo(f"seed {run_seed}: {members} front member(s)")
    return texts


def _read_train_manifest(manifest_path: Path) -> tuple[str, dict, str, Path, str, list[int]]:
    """(algorithm, config values, grammar text, cache file, cache hash,
    seeds) recorded in a train manifest, after checking its shape and the
    cache's hash."""
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
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"manifest {manifest_path}: seeds must be distinct")
    if len(seeds) > MAX_RUNS:
        raise ValueError(f"manifest {manifest_path}: at most {MAX_RUNS} seeds, "
                         f"got {len(seeds)}")
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
    return algorithm, config_values, grammar_text, cache_file, actual_sha, seeds


@cli.command("train")
@click.option("--cache", "cache_file", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--algorithm", type=click.Choice(["ge", "random"]), default="ge",
              show_default=True,
              help="Search driver: grammatical evolution or random search "
                   "on the same budget.")
@click.option("--grammar", "grammar_path", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="BNF grammar file; omit for the built-in strategy language.")
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="key = value file; explicit flags override it.")
@click.option("--seed", type=int, default=None,
              help="Base seed; run i uses seed + i  [default: 1].")
@click.option("--runs", type=click.IntRange(1, MAX_RUNS), default=30, show_default=True,
              help="Independent runs.")
@click.option("--population-size", type=click.IntRange(2, MAX_POPULATION_SIZE), default=None,
              help="Strategies per generation; even.")
@click.option("--max-evaluations", type=int, default=None)
@click.option("--repetitions", type=click.IntRange(1, MAX_REPETITIONS), default=None,
              help="Stochastic repetitions per strategy evaluation.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              envvar="MUTREDUCE_JOBS", show_envvar=True,
              help="Worker processes; runs are spread across them without "
                   "changing any output byte.")
@click.option("--manifest", "manifest_path", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Reproduce a recorded run; only --jobs and --out apply.")
@click.option("--out", "-o", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def train(cache_file: Path | None, algorithm: str, grammar_path: Path | None,
          config_path: Path | None, seed: int | None, runs: int,
          population_size: int | None, max_evaluations: int | None,
          repetitions: int | None, jobs: int, manifest_path: Path | None,
          out_dir: Path) -> None:
    """Search a cache for reduction strategies.

    Writes front_<seed>.csv and runlog_<seed>.csv per run plus
    manifest.json recording config, seeds, grammar text, and the cache
    hash, so the exact outputs can be regenerated later. Flags and a
    manifest resolve to the same run description; the grammar and every
    run's config are checked before the first run starts.
    """
    if manifest_path is not None:
        context = click.get_current_context()
        given = [param.opts[0] for param in context.command.params
                 if param.name not in ("jobs", "manifest_path", "out_dir")
                 and context.get_parameter_source(param.name) is ParameterSource.COMMANDLINE]
        if given:
            raise click.UsageError("--manifest replays a recorded run; it cannot be "
                                   "combined with " + ", ".join(given))
        algorithm, config_values, grammar_text, cache_file, cache_sha, seeds = \
            _read_train_manifest(manifest_path)
    else:
        if cache_file is None:
            raise click.UsageError("--cache is required (or use --manifest)")
        config_values = {} if config_path is None else runio.parse_config_text(
            config_path.read_text(encoding="utf-8"))
        file_seed = config_values.pop("seed", 1)
        for key, value in (("population_size", population_size),
                           ("max_evaluations", max_evaluations),
                           ("repetitions", repetitions)):
            if value is not None:
                config_values[key] = value
        base_seed = file_seed if seed is None else seed
        seeds = [base_seed + i for i in range(runs)]
        grammar_text = (grammar_path.read_text(encoding="utf-8")
                        if grammar_path is not None else DEFAULT_GRAMMAR_TEXT)
        cache_sha = None

    grammar = parse_grammar(grammar_text)
    configs = [SearchConfig.from_dict({**config_values, "seed": s}) for s in seeds]
    data = load_cache(cache_file)
    if cache_sha is None:  # a manifest replay has checked the hash already
        cache_sha = runio.sha256_file(cache_file)

    texts = _run_training(algorithm, configs, grammar, cache_file, data, jobs, out_dir)
    # The fully resolved config keeps a manifest reproducible even if
    # library defaults change.
    config_record = configs[0].as_dict()
    del config_record["seed"]
    _write_manifest(out_dir, "train", cache_file, cache_sha, seeds, texts,
                    algorithm=algorithm, config=config_record, grammar_text=grammar_text,
                    grammar_sha256=runio.sha256_text(grammar_text), jobs=jobs)
    click.echo(f"wrote {len(seeds)} run(s) to {out_dir}")


# ===== baselines =====

@cli.command("baselines")
@click.option("--cache", "cache_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--kinds", default=",".join(BASELINE_KINDS), show_default=True,
              help="Comma-separated subset of RMS,ROS,SM.")
@click.option("--seed", type=int, default=1, show_default=True,
              help="Base seed; run i uses seed + i.")
@click.option("--runs", type=click.IntRange(1, MAX_RUNS), default=1, show_default=True)
@click.option("--repetitions", type=click.IntRange(1, MAX_REPETITIONS), default=5,
              show_default=True)
@click.option("--out", "-o", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def baselines_command(cache_path: Path, kinds: str, seed: int, runs: int,
                      repetitions: int, out_dir: Path) -> None:
    """Evaluate the fixed-shape baseline sweeps on a cache.

    Writes <kind>/front_<seed>.csv per kind and run, in the same format
    as train output, so report can compare them directly.
    """
    kind_list = [k.strip().upper() for k in kinds.split(",") if k.strip()]
    if (not kind_list or len(set(kind_list)) < len(kind_list)
            or not set(kind_list) <= set(BASELINE_KINDS)):
        raise click.UsageError(
            f"--kinds must name a subset of {','.join(BASELINE_KINDS)}")
    if seed < 0:
        raise click.UsageError("--seed must be >= 0")
    data = load_cache(cache_path)
    seeds = list(range(seed, seed + runs))
    texts = {f"{kind.lower()}/front_{run_seed}.csv": runio.front_csv_text(front)
             for kind in kind_list
             for run_seed, front in zip(seeds, baseline_front(kind, data, seeds, repetitions))}
    _write_outputs(out_dir, texts)
    _write_manifest(out_dir, "baselines", cache_path, runio.sha256_file(cache_path), seeds,
                    texts, kinds=kind_list, repetitions=repetitions)
    click.echo(f"wrote {len(kind_list)} baseline sweep(s) x {runs} run(s) to {out_dir}")


# ===== evaluate =====

@cli.command("evaluate")
@click.option("--front", "front_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--cache", "cache_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--repetitions", type=click.IntRange(1, MAX_REPETITIONS), default=5,
              show_default=True)
@click.option("--out", "-o", "out_path", required=True,
              type=click.Path(dir_okay=False, path_type=Path))
def evaluate_command(front_path: Path, cache_path: Path, repetitions: int,
                     out_path: Path) -> None:
    """Replay a front file's strategies against a cache.

    Rows run with their recorded seeds: on the cache that produced them
    this reproduces time and score exactly; on a different cache it
    measures how the strategies transfer. Row order is preserved.
    """
    front = runio.reevaluated_front(runio.read_front_csv(front_path),
                                    load_cache(cache_path), repetitions)
    _write_outputs(out_path.parent, {out_path.name: runio.front_csv_text(front)})
    click.echo(f"re-evaluated {len(front)} strategies -> {out_path}")


# ===== report =====

def _utf8_argument(flag: str, text: str) -> str:
    """text, if UTF-8 can encode it: an argument whose bytes were not UTF-8
    decodes to lone surrogates, which no output file could hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise click.UsageError(f"{flag} must be UTF-8 text, got {text!r}") from None
    return text


def _front_sort_key(path: Path) -> tuple:
    """front_<seed>.csv files by seed, a count, then the rest by name."""
    suffix = path.stem[len("front_"):]
    try:
        return (0, read_count(suffix, "seed"), "")
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
    return runio.csv_text(header, [row])


def _values_csv_text(stat: StatReport) -> str:
    return runio.csv_text(["indicator", "method", "run", "value"], (
        [indicator, method, run_index, repr(value)]
        for indicator in INDICATORS
        for method in stat.methods
        for run_index, value in enumerate(stat.values[indicator][method])))


def _reference_csv_text(stat: StatReport) -> str:
    return runio.csv_text(["time", "score"], (
        [repr(time), repr(score)] for time, score in stat.reference))


def _scatter_csv_text(methods: dict[str, list[np.ndarray]]) -> str:
    return runio.csv_text(["time", "score", "method"], (
        [repr(time), repr(score), name]
        for name, fronts in methods.items()
        for points in fronts
        for time, score in points.tolist()))


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
    _utf8_argument("--label", label)
    methods: dict[str, list[np.ndarray]] = {}
    for spec in run_specs:
        name, sep, directory = spec.partition("=")
        name = _utf8_argument("--runs", name.strip())
        directory = directory.strip()
        if not sep or not name or not directory:
            raise click.UsageError(f"--runs expects label=DIR, got {spec!r}")
        if name in methods:
            raise click.UsageError(f"duplicate method label {name!r}")
        files = sorted(Path(directory).glob("front_*.csv"), key=_front_sort_key)
        if not files:
            raise ValueError(f"no front_*.csv files in {directory}")
        methods[name] = [runio.read_front_points(path) for path in files]
    stat = compare_experiment(methods)

    _write_outputs(out_dir, {
        **{f"{indicator}_table.csv": _indicator_table_text(label, indicator, stat)
           for indicator in INDICATORS},
        "values.csv": _values_csv_text(stat),
        "scatter.csv": _scatter_csv_text(methods),
        "reference_front.csv": _reference_csv_text(stat)})
    for indicator in INDICATORS:
        click.echo(_summary_line(indicator, stat))
    click.echo(f"wrote report to {out_dir}")


if __name__ == "__main__":
    raise SystemExit(main())
