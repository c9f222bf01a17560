"""Hot-loop kernel: first-killer test selection and kill counting.

One NumPy kernel over two views of the cache's killer lists: selection
reads ``first_killer`` (per mutant) and counting reads ``kill_classes``
(each distinct killer row once, with its multiplicity). Its temporaries
grow with the class nonzeros, the tests and the kept mutants, never with
tests x mutants.
"""

from __future__ import annotations

import numpy as np


def select_and_count(cache, mprime: np.ndarray) -> tuple[np.ndarray, int]:
    """First-killer test selection plus distinct-kill count.

    ``mprime`` holds sorted mutant indices. Returns the ascending array of
    selected test indices (the lowest-rank killer of each killable mutant)
    and the number of distinct mutants of the whole cache those tests kill.
    """
    # The extra last slot collects the mutants no test kills.
    mask = np.zeros(cache.n_tests + 1, dtype=bool)
    mask[cache.first_killer[mprime]] = True
    selected = mask[:-1].nonzero()[0]
    if selected.size == 0:
        return selected, 0
    # One segment of class tests per kill class: all its mutants are
    # killed if any of its killers was selected.
    classes = cache.kill_classes
    hits = np.logical_or.reduceat(mask[classes.tests], classes.starts)
    return selected, int(classes.multiplicity @ hits)
