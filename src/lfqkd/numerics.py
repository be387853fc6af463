"""Shared numerics: the binary entropy.

Every rate formula in this package reduces to binary-entropy terms, so this
primitive is kept exact about its edge cases. The threshold sweep solves a
whole grid at once, where numpy's per-call overhead outweighs the
arithmetic: so ``_binary_entropy_kernel`` uses no masks and runs in its
caller's ``np.errstate``. The bisection of the threshold curves is
``threshold.find_root_bisect``, which solves only the bracket e_d in [0, 1/2].
"""

from __future__ import annotations

import math

import numpy as np


def binary_entropy(x: float) -> float:
    """Binary entropy H2(x) = -x*log2(x) - (1-x)*log2(1-x), in bits.

    The endpoints use the limit convention H2(0) = H2(1) = 0 (computed by an
    explicit branch so no 0*log(0) NaN can propagate). Raises ValueError for
    arguments outside [0, 1].
    """
    if x < 0.0 or x > 1.0:
        raise ValueError(f"binary_entropy expects a probability in [0, 1], got {x}")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _binary_entropy_kernel(x: np.ndarray) -> np.ndarray:
    """Elementwise ``binary_entropy`` of a float array of one or more
    dimensions, H2(0) = H2(1) = 0. The arguments are not checked: callers pass
    probabilities they have already validated, and any other x, NaN included,
    gives 0. numpy's log2 may differ from ``math.log2`` in the last ulp.

    Callers run it inside their own ``np.errstate``, as numpy would otherwise
    warn: the expression is NaN at x = 0, 1 and outside [0, 1], and ``fmax``
    takes NaN to 0.
    """
    y = 1.0 - x
    h = -x * np.log2(x)
    h -= y * np.log2(y)
    return np.fmax(h, 0.0, out=h)
