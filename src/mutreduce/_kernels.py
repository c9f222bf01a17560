"""Hot-loop kernel: first-killer test selection and kill counting.

One NumPy kernel over the index's mutant-major killer lists
(killer_tests, with the first_killer and killable_starts views of them).
Its temporaries grow with the kill nonzeros (nnz), the tests and the kept
mutants, never with tests x mutants.
"""

from __future__ import annotations

import numpy as np


def select_and_count(index, mprime: np.ndarray) -> tuple[np.ndarray, int]:
    """First-killer test selection plus distinct-kill count.

    ``mprime`` holds sorted mutant indices. Returns the ascending array of
    selected test indices (the lowest-rank killer of each killable mutant)
    and the number of distinct mutants of the whole cache those tests kill.
    """
    # The extra last slot collects the mutants no test kills.
    mask = np.zeros(index.n_tests + 1, dtype=bool)
    mask[index.first_killer[mprime]] = True
    selected = mask[:-1].nonzero()[0]
    if selected.size == 0:
        return selected, 0
    # One segment of killer_tests per killable mutant: killed if any of
    # its killers was selected.
    hits = np.logical_or.reduceat(mask[index.killer_tests], index.killable_starts)
    return selected, int(np.count_nonzero(hits))
