"""Hot-loop kernel: first-killer test selection and kill counting.

One call serves a batch: the rows are the repetitions of one evaluation,
each a sorted mutant pool, given concatenated with the rows' bounds.
Selection reads ``first_killer`` (per mutant): a row's selected tests S
are its kept mutants' first killers. They are gathered once for the
batch and scattered into a (rows x (n_tests + 1)) mask. Counting reads
the kill classes (each distinct killer row once, with its multiplicity)
along one of two paths, both exact:

* class-major: fold every row of the mask over every class row with one
  ``reduceat`` along the tests; a row's kills are its hits times the
  multiplicities. Taken while the classes hold fewer than
  ``CLASS_MAJOR_MAX_NNZ`` tests in all, where its single pass is cheapest.
* unselected side, row by row: with U the unselected tests, a class
  survives only if its whole row lies in U, so the count is
  ``killable_count`` less the multiplicities of the classes with as many
  tests in U as their width, read from the test-major view
  ``test_classes``. A strategy that keeps many mutants selects nearly
  every test, so U is small; with U empty the count is
  ``killable_count`` outright.

Temporaries grow with the rows times the class nonzeros or the tests, and
with the kept mutants, never with tests x mutants.
"""

from __future__ import annotations

import numpy as np

from mutreduce.cache import _rows

# Class nonzeros below which the class-major fold is the count path. On
# synthetic caches with random kept sets the two costs cross near 4,000
# for one row: class-major took 21-28 against 35-37 us per count at 1,687
# nonzeros, 47-50 against 43-51 us at 4,108, and 54-66 against 46-56 us at
# 5,337. For batches of five rows they still cross there: 75 against 118
# us at 2,161, 148 against 156 us at 4,501, and 293 against 202 us at 7,367.
CLASS_MAJOR_MAX_NNZ = 4096


def select_and_count(cache, mprime: np.ndarray,
                     bounds: list[int]) -> tuple[np.ndarray, list[int]]:
    """First-killer test selection plus distinct-kill count, per row.

    ``mprime`` holds the rows' sorted mutant indices, concatenated; row r
    is ``mprime[bounds[r]:bounds[r + 1]]``. Returns the (rows x (n_tests
    + 1)) mask of the selected tests (the lowest-rank killer of each
    killable mutant kept; the last column collects the mutants no test
    kills) and, per row, the number of distinct mutants of the whole cache
    those tests kill.
    """
    mask = np.zeros((len(bounds) - 1, cache.n_tests + 1), dtype=bool)
    killers = cache.first_killer.take(mprime)
    for row, lo, hi in zip(mask, bounds, bounds[1:]):
        # Scattering by intp indices takes numpy's fast path; by int32
        # ones it costs half as much again.
        row[killers[lo:hi].astype(np.intp)] = True
    if cache.kill_classes.tests.size < CLASS_MAJOR_MAX_NNZ:
        return mask, count_class_major(cache, mask)
    return mask, count_unselected_side(cache, mask)


def count_class_major(cache, mask: np.ndarray) -> list[int]:
    """Kills of the tests set in each row of ``mask``: one segment per
    class, hit if any of its tests is set."""
    classes = cache.kill_classes
    if not classes.starts.size:
        return [0] * len(mask)
    hits = np.logical_or.reduceat(mask.take(classes.tests, axis=1), classes.starts, axis=1)
    return (hits @ classes.multiplicity).tolist()


def count_unselected_side(cache, mask: np.ndarray) -> list[int]:
    """Kills of the tests set in each row of ``mask``: all but the classes
    whose tests all lie among the unset ones."""
    view = cache.test_classes
    kills = []
    for row in mask:
        unselected = np.flatnonzero(~row[:-1])
        if unselected.size == cache.n_tests:
            kills.append(0)
            continue
        if not unselected.size:
            kills.append(cache.killable_count)
            continue
        inside = np.bincount(_rows(view.indptr, view.classes, unselected),
                             minlength=view.width.size)
        kills.append(cache.killable_count
                     - int(cache.kill_classes.multiplicity @ (inside == view.width)))
    return kills
