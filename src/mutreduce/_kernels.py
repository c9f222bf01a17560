"""Hot-loop kernel: first-killer test selection and kill counting.

Selection reads ``first_killer`` (per mutant): the selected tests S are
the kept mutants' first killers. Counting reads the kill classes (each
distinct killer row once, with its multiplicity) along one of two paths,
both exact:

* class-major: fold a mask of S over every class row with one
  ``reduceat``. Taken while the classes hold fewer than
  ``CLASS_MAJOR_MAX_NNZ`` tests in all, where its single pass is cheapest.
* unselected side: with U the unselected tests, a class survives only if
  its whole row lies in U, so the count is ``killable_count`` less the
  multiplicities of the classes with as many tests in U as their width,
  read from the test-major view ``test_classes``. A strategy that keeps
  many mutants selects nearly every test, so U is small; with U empty
  the count is ``killable_count`` outright.

Temporaries grow with the class nonzeros, the tests and the kept mutants,
never with tests x mutants.
"""

from __future__ import annotations

import numpy as np

from mutreduce.cache import _rows

# Class nonzeros below which the class-major fold is the count path. On
# synthetic caches with random kept sets the two costs cross near 4,000:
# class-major took 21-28 against 35-37 us per count at 1,687 nonzeros,
# 47-50 against 43-51 us at 4,108, and 54-66 against 46-56 us at 5,337.
CLASS_MAJOR_MAX_NNZ = 4096


def select_and_count(cache, mprime: np.ndarray) -> tuple[np.ndarray, int]:
    """First-killer test selection plus distinct-kill count.

    ``mprime`` holds sorted mutant indices. Returns the ascending array of
    selected test indices (the lowest-rank killer of each killable mutant)
    and the number of distinct mutants of the whole cache those tests kill.
    """
    # The extra last slot collects the mutants no test kills.
    mask = np.zeros(cache.n_tests + 1, dtype=bool)
    mask[cache.first_killer.take(mprime)] = True
    selected = mask[:-1].nonzero()[0]
    if selected.size == 0:
        return selected, 0
    if cache.kill_classes.tests.size < CLASS_MAJOR_MAX_NNZ:
        return selected, count_class_major(cache, mask)
    return selected, count_unselected_side(cache, mask)


def count_class_major(cache, mask: np.ndarray) -> int:
    """Kills of the tests set in ``mask``: one segment per class, hit if
    any of its tests is set."""
    classes = cache.kill_classes
    hits = np.logical_or.reduceat(mask[classes.tests], classes.starts)
    return int(classes.multiplicity @ hits)


def count_unselected_side(cache, mask: np.ndarray) -> int:
    """Kills of the tests set in ``mask``: all but the classes whose
    tests all lie among the unset ones."""
    unselected = np.flatnonzero(~mask[:-1])
    if not unselected.size:
        return cache.killable_count
    view = cache.test_classes
    inside = np.bincount(_rows(view.indptr, view.classes, unselected),
                         minlength=view.width.size)
    return cache.killable_count - int(cache.kill_classes.multiplicity @ (inside == view.width))
