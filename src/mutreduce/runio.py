"""On-disk formats for experiment artifacts.

Front files are CSV with columns seed, chromosome, strategy_text, time,
score: one row per front member, sorted by ascending time. ``seed`` is
the row's own evaluation seed, so any row can be re-evaluated standalone;
``chromosome`` is the comma-separated genome (empty for baseline rows).
Front files are read back as ``EvaluatedStrategy`` rows. Run logs are
CSV with one row per generation. Manifests are JSON and record
everything needed to reproduce a command's outputs bit for bit: config,
seeds, embedded grammar text, and the cache path with its hash.

All writes are atomic (temp file + rename, permissions as the umask
allows) and all float formatting uses the shortest round-trip
representation, so identical results are identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from . import objectives
from .baselines import baseline_strategy
from .cache import MutationCache
from .genome import Chromosome
from .search import EvaluatedStrategy, Front, GenerationStat, SearchConfig
from .strategy import parse_strategy
from .streams import row_generators

FRONT_COLUMNS = ("seed", "chromosome", "strategy_text", "time", "score")
RUNLOG_COLUMNS = ("generation", "evaluations", "front_size", "front_hypervolume")


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
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


def read_front_csv(path: str | Path) -> Front:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != FRONT_COLUMNS:
            raise ValueError(
                f"front file {path} must have columns {','.join(FRONT_COLUMNS)}, "
                f"got {header}")
        front: Front = []
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(FRONT_COLUMNS):
                    raise ValueError(f"expected {len(FRONT_COLUMNS)} cells, got {len(row)}")
                seed, chromosome, text, time, score = row
                entry = EvaluatedStrategy(
                    time=float(time), score=float(score), eval_seed=int(seed), text=text,
                    chromosome=Chromosome.deserialize(chromosome) if chromosome else None)
                if entry.eval_seed < 0:
                    raise ValueError(f"seed must be non-negative, got {entry.eval_seed}")
                if entry.eval_seed >= 2**64:
                    raise ValueError(f"seed must be below 2**64, got {entry.eval_seed}")
                if not (math.isfinite(entry.time) and math.isfinite(entry.score)):
                    raise ValueError(f"time and score must be finite, got "
                                     f"{entry.time!r} and {entry.score!r}")
            except ValueError as exc:
                raise ValueError(f"front file {path}, line {reader.line_num}: {exc}") from exc
            front.append(entry)
    return front


def reevaluated_front(front: Front, cache: MutationCache,
                      repetitions: int = 5) -> Front:
    """Re-run each front row against a cache with the row's own seed; one
    seeding pass builds the repetition rows of all of them.

    On the cache a row was trained on this reproduces its recorded
    objectives exactly (same seed, same repetition streams); on another
    cache it measures how the strategy transfers.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rows = row_generators([row.eval_seed for row in front], repetitions)
    replayed: Front = []
    for i, row in enumerate(front):
        if row.text.startswith("Baseline "):
            strategy = baseline_strategy(row.text)
        else:
            strategy = parse_strategy(row.text)
        [pair] = objectives.evaluate_indexed(strategy, cache, repetitions,
                                             rows[i * repetitions:(i + 1) * repetitions])
        replayed.append(replace(row, time=pair.time, score=pair.score))
    return replayed


# ===== Run logs =====

def runlog_csv_text(stats: Sequence[GenerationStat]) -> str:
    return csv_text(RUNLOG_COLUMNS, (
        [stat.generation, stat.evaluations, stat.front_size, repr(stat.front_hypervolume)]
        for stat in stats))


# ===== Config files =====

# Probabilities are floats, every other setting an integer.
_CONFIG_TYPES = {f.name: float if f.name.endswith("_probability") else int
                 for f in fields(SearchConfig)}


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines (# starts a comment)."""
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_TYPES:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: bad value for {key}: {value!r}") from exc
    return values


# ===== Manifests =====

def manifest_text(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, indent=1) + "\n"


def write_manifest(path: str | Path, manifest: dict) -> None:
    atomic_write_text(path, manifest_text(manifest))


def read_manifest(path: str | Path) -> dict:
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} must be a JSON object")
    return manifest
