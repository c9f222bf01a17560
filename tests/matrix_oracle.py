"""The row-based kill-matrix import, kept as a test oracle.

``read_kill_matrix_csv`` once held every row as a ``csv.DictReader`` dict,
then every mutant as a record dict, and handed that document to the JSON
loader's checks. That code is kept here, unchanged but for its name and
three rules added since (the file may open with a UTF-8 byte-order
mark, an exec_cost cell must be spelled as a JSON number, and that
number must lie inside the float range), so the
column-building import can be checked against it: ``oracle_matrix``
gives the same cache or raises the same message.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

from mutreduce.cache import CacheError, MutationCache, _from_document, unreadable_line

_MATRIX_COLUMNS = ("mutant_id", "operator_id", "exec_cost", "killed_by")
# RFC 8259's number grammar, written out here apart from the import's copy.
_JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def oracle_matrix(path: str | Path) -> MutationCache:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or not set(_MATRIX_COLUMNS).issubset(reader.fieldnames):
                raise CacheError(
                    f"kill-matrix CSV must have columns {sorted(_MATRIX_COLUMNS)}, "
                    f"got {reader.fieldnames}"
                )
            rows = list(reader)
        except (csv.Error, UnicodeDecodeError) as exc:
            where = unreadable_line(reader.reader, exc)  # DictReader's line_num lags a row
            raise CacheError(f"kill-matrix CSV {path}, {where}") from exc
    if not rows:
        raise CacheError("kill-matrix CSV has no rows")
    for row in rows:
        missing = [column for column in _MATRIX_COLUMNS if row[column] is None]
        if missing:
            raise CacheError(f"mutant {row['mutant_id']!r}: row has no {missing[0]} cell")
    test_ids = sorted({
        killer
        for row in rows
        for killer in row["killed_by"].split(";")
        if killer
    })
    if not test_ids:
        raise CacheError("kill-matrix CSV defines no killing tests")
    mutants = []
    for row in rows:
        if not (_JSON_NUMBER.fullmatch(row["exec_cost"])
                and math.isfinite(cost := float(row["exec_cost"]))):
            raise CacheError(f"mutant {row['mutant_id']!r}: bad exec_cost")
        mutants.append({"id": row["mutant_id"], "operator_id": row["operator_id"],
                        "exec_cost": cost,
                        "killers": [k for k in row["killed_by"].split(";") if k]})
    return _from_document({
        "operators": [{"id": o, "generation_cost": 0.0}
                      for o in sorted({m["operator_id"] for m in mutants})],
        "tests": [{"id": t, "priority_rank": r} for r, t in enumerate(test_ids)],
        "mutants": mutants,
    })


def kill_matrix_text(cache: MutationCache) -> str:
    """A kill matrix holding the cache's mutants, one row each."""
    return "".join([",".join(_MATRIX_COLUMNS) + "\n"] + [
        f"{m.id},{m.operator_id},{m.exec_cost!r},{';'.join(m.killers)}\n"
        for m in cache.mutants])
