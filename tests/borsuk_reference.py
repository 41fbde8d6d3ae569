"""Reference version of the dense odd-girth kernel in `oddwalk.borsuk`.

`_odd_walk_free` checks the trace of every odd power A, A^3, A^5, ... up
to `max_odd`, one general matrix product per step: the version the
library used before it checked the single longest odd length through one
symmetric even power.  test_borsuk.py requires the library to give the
same verdict.
"""

import numpy as np


def _odd_walk_free(adjacency: np.ndarray, max_odd: int) -> bool:
    """True iff there is no closed odd walk of length <= max_odd.

    Uses binarized float32 matrix powers (entries stay 0/1 exactly), so the
    check is exact while running at matrix-multiplication speed.
    """
    a = adjacency.astype(np.float32)
    a2 = (np.matmul(a, a) > 0.5).astype(np.float32)
    k = 1
    current = a
    while k <= max_odd:
        if np.trace(current) > 0.5:
            return False
        if k + 2 > max_odd:
            break
        nxt = np.matmul(current, a2)
        nxt = (nxt > 0.5).astype(np.float32)
        current = nxt
        k += 2
    return True
