"""Correctness checks on the files a workload iteration writes.

Every hashed output has a checker that holds at any seed (front files
are sorted and mutually non-dominated, run logs have the budgeted
length, report tables have the expected shape, replayed fronts equal
the trained ones). At the golden seed the file's SHA-256 must also equal
the committed digest. ``manifest.json`` is never hashed: it carries a
timestamp and an absolute path.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import Callable

FRONT_COLUMNS = ["seed", "chromosome", "strategy_text", "time", "score"]
RUNLOG_COLUMNS = ["generation", "evaluations", "front_size", "front_hypervolume"]

Checker = Callable[[Path], list[str]]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def front_points(path: Path) -> list[tuple[float, float]]:
    _, rows = read_csv(path)
    return [(float(row[3]), float(row[4])) for row in rows]


def nondominated(points) -> list[tuple[float, float]]:
    """Distinct points no other point dominates (time minimized, score
    maximized), sorted by time: one sweep in (time, -score) order."""
    result = []
    best = -1.0
    for time, score in sorted(set(points), key=lambda p: (p[0], -p[1])):
        if score > best:
            result.append((time, score))
            best = score
    return result


def check_front(path: Path) -> list[str]:
    header, rows = read_csv(path)
    if header != FRONT_COLUMNS:
        return [f"{path.name}: header {header}"]
    if not rows:
        return [f"{path.name}: no rows"]
    points = [(float(row[3]), float(row[4])) for row in rows]
    problems = []
    if any(not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0) for t, s in points):
        problems.append(f"{path.name}: objective outside [0, 1]")
    # Sorted by time and mutually non-dominated means both columns
    # strictly increase.
    if any(a[0] >= b[0] or a[1] >= b[1] for a, b in zip(points, points[1:])):
        problems.append(f"{path.name}: rows not sorted or not non-dominated")
    return problems


def runlog_checker(generations: int, evaluations: int) -> Checker:
    def check(path: Path) -> list[str]:
        header, rows = read_csv(path)
        if header != RUNLOG_COLUMNS:
            return [f"{path.name}: header {header}"]
        if len(rows) != generations or int(rows[-1][1]) != evaluations:
            return [f"{path.name}: expected {generations} generations ending at "
                    f"{evaluations} evaluations"]
        return []
    return check


def replay_checker(trained: Path) -> Checker:
    """The replayed front must equal the trained one row for row."""
    def check(path: Path) -> list[str]:
        problems = check_front(path)
        if front_points(path) != front_points(trained):
            problems.append(f"{path.name}: replayed (time, score) differ from "
                            f"{trained.name}")
        return problems
    return check


def check_outputs(out_dir: Path, checkers: dict[str, Checker],
                  golden: dict[str, str] | None) -> tuple[dict[str, str], list[str]]:
    """Check every expected output; returns (digests, failed file problems).

    A file fails when it is missing, when its checker reports a problem,
    or, when ``golden`` is given, when its digest differs from the golden
    one. Each failing file contributes exactly one problem line.
    """
    digests: dict[str, str] = {}
    failed: list[str] = []
    for rel, checker in sorted(checkers.items()):
        path = out_dir / rel
        if not path.is_file():
            failed.append(f"{rel}: missing")
            continue
        digests[rel] = sha256_file(path)
        try:
            problems = checker(path)
        except (ValueError, IndexError) as exc:
            problems = [f"{rel}: unreadable ({exc})"]
        if golden is not None and golden.get(rel) != digests[rel]:
            problems.append(f"{rel}: sha256 differs from the golden digest")
        if problems:
            failed.append("; ".join(problems))
    return digests, failed


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value
