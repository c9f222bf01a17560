"""On-disk formats for experiment artifacts.

Front files are CSV with columns seed, chromosome, strategy_text, time,
score: one row per front member, sorted by ascending time. ``seed`` is
the row's own evaluation seed, so any row can be re-evaluated standalone;
``chromosome`` is the comma-separated genome (empty for baseline rows).
One row walk reads them: it checks each row as it is read, so the first
bad row's message names its line, and a line ``csv`` cannot read is an
input error too. ``read_front_csv`` builds ``EvaluatedStrategy`` rows
from it; ``read_front_points`` keeps only the (time, score) points, as
one array, and checks chromosome cells without building genes. Run logs
are CSV with one row per generation. Manifests
are JSON and record everything needed to reproduce a command's outputs
bit for bit: config, seeds, embedded grammar text, and the cache path
with its hash.

All writes are atomic (temp file + rename, permissions as the umask
allows) and all float formatting uses the shortest round-trip
representation, so identical results are identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import objectives
from .baselines import baseline_strategy
from .cache import MutationCache, unreadable_line
from .genome import Chromosome
from .numerals import COUNT, read_count, read_json, read_real
from .search import EvaluatedStrategy, Front, GenerationStat, SearchConfig
from .strategy import parse_strategy

FRONT_COLUMNS = ("seed", "chromosome", "strategy_text", "time", "score")
RUNLOG_COLUMNS = ("generation", "evaluations", "front_size", "front_hypervolume")


# Temp file names: the process id and a counter, so that no two writes in
# one process, or in two processes, pick the same name.
_temp_numbers = itertools.count()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path through a temp file in the same directory and a
    rename. The temp file is created with mode 0o666, which the kernel
    narrows by the umask, as it does for any new file."""
    path = Path(path)
    data = text.encode("utf-8")
    for _ in range(10_000):
        tmp = path.parent / f".{path.name}.{os.getpid()}.{next(_temp_numbers)}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
            break
        except FileExistsError:  # left by a process that had this id
            continue
    else:
        raise FileExistsError(f"no free temp file name next to {path}")
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """CSV text with "\n" line ends: the header line, then one line per row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ===== Front files =====

def front_csv_text(front: Front) -> str:
    return csv_text(FRONT_COLUMNS, (
        [entry.eval_seed, entry.chromosome.serialize() if entry.chromosome else "",
         entry.text, repr(entry.time), repr(entry.score)] for entry in front))


def _front_rows(path: str | Path, chromosome_of: Callable[[str], object]) -> Iterator[tuple]:
    """The rows of a front file as (seed, chromosome, text, time, score)
    tuples, each checked as it is read, with chromosome_of applied to every
    non-empty chromosome cell. The first bad row, or the first line csv
    cannot read, raises ValueError with the file name and the row's
    physical line, before any later line is read."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != FRONT_COLUMNS:
                raise ValueError(
                    f"front file {path} must have columns {','.join(FRONT_COLUMNS)}, "
                    f"got {header}")
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(FRONT_COLUMNS):
                        raise ValueError(f"expected {len(FRONT_COLUMNS)} cells, got {len(row)}")
                    seed, chromosome, text, time, score = row
                    if seed.startswith("-") and seed != "-0" and COUNT.fullmatch(seed, 1):
                        raise ValueError("seed must be non-negative")
                    seed = read_count(seed, "seed", below=2**64)
                    chromosome = chromosome_of(chromosome) if chromosome else None
                    time, score = read_real(time, "time"), read_real(score, "score")
                except ValueError as exc:
                    raise ValueError(f"front file {path}, line {reader.line_num}: {exc}") from exc
                yield seed, chromosome, text, time, score
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"front file {path}, {unreadable_line(reader, exc)}") from exc


def read_front_csv(path: str | Path) -> Front:
    """The rows of a front file, each checked in turn; the first bad one,
    or the first line csv cannot read, raises ValueError with the file
    name and the row's physical line."""
    return [EvaluatedStrategy(time=time, score=score, eval_seed=seed, text=text,
                              chromosome=chromosome)
            for seed, chromosome, text, time, score
            in _front_rows(path, Chromosome.deserialize)]


def read_front_points(path: str | Path) -> np.ndarray:
    """The (time, score) points of a front file as an (n, 2) float64 array,
    in row order, after the same checks as read_front_csv, with the same
    messages. Chromosome cells are checked, not built."""
    points = [(time, score) for _, _, _, time, score
              in _front_rows(path, Chromosome.check_text)]
    return np.array(points, dtype=np.float64).reshape(-1, 2)


def reevaluated_front(front: Front, cache: MutationCache,
                      repetitions: int = 5) -> Front:
    """Re-run each front row against a cache with the row's own seed, all
    rows in one evaluation call.

    On the cache a row was trained on this reproduces its recorded
    objectives exactly (same seed, same repetition streams); on another
    cache it measures how the strategy transfers.
    """
    runs = [(baseline_strategy(row.text) if row.text.startswith("Baseline ")
             else parse_strategy(row.text), [row.eval_seed]) for row in front]
    pairs = objectives.evaluate_indexed(runs, cache, repetitions)
    return [replace(row, time=pair.time, score=pair.score) for row, pair in zip(front, pairs)]


# ===== Run logs =====

def runlog_csv_text(stats: Sequence[GenerationStat]) -> str:
    return csv_text(RUNLOG_COLUMNS, (
        [stat.generation, stat.evaluations, stat.front_size, repr(stat.front_hypervolume)]
        for stat in stats))


# ===== Config files =====

# Probabilities are reals, every other setting a count.
_CONFIG_READERS = {f.name: read_real if f.name.endswith("_probability") else read_count
                   for f in fields(SearchConfig)}


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines (# starts a comment); each value is
    a count, or a real for a ``*_probability`` key (see ``numerals``)."""
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_READERS:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_READERS[key](value, f"value for {key}")
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: {exc}") from None
    return values


# ===== Manifests =====

def manifest_text(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, indent=1) + "\n"


def write_manifest(path: str | Path, manifest: dict) -> None:
    atomic_write_text(path, manifest_text(manifest))


def read_manifest(path: str | Path) -> dict:
    try:
        manifest = read_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} must be a JSON object")
    return manifest
