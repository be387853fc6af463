"""Shared numerics: binary entropy and a bracketed bisection solver.

Every rate formula in this package reduces to binary-entropy terms, and the
tolerance-threshold curves are produced by locating sign changes of a rate
function, so these two primitives are kept exact about their edge cases.
Both also come in an array form, which the threshold sweep uses to solve a
whole grid of points at once. On such a grid numpy's per-call overhead
outweighs the arithmetic, so the array forms use no masks and a bisection
enters ``np.errstate`` once per solve.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

DEFAULT_BISECT_TOL = 1e-9


class NoSignChangeError(ValueError):
    """Raised when a bisection bracket does not contain a sign change."""


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
    """``binary_entropy_array`` outside ``np.errstate``, so numpy may warn: the
    expression is NaN at x = 0, 1 and outside [0, 1], and ``fmax`` takes NaN to 0."""
    h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.fmax(h, 0.0, out=h)


def binary_entropy_array(x: np.ndarray) -> np.ndarray:
    """Elementwise ``binary_entropy`` of a float array of one or more
    dimensions, H2(0) = H2(1) = 0. The arguments are not checked: callers pass
    probabilities they have already validated, and any other x, NaN included,
    gives 0. numpy's log2 may differ from ``math.log2`` in the last ulp.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _binary_entropy_kernel(x)


def find_root_bisect(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float = DEFAULT_BISECT_TOL,
) -> np.ndarray:
    """Locate a root of ``f`` in each bracket ``[lo, hi]`` by bisection.

    ``lo`` and ``hi`` are float arrays (or floats) that broadcast together;
    ``f`` maps an array of points to the array of their values and is
    called once per halving on every bracket. Returns the array of roots,
    at least one-dimensional. Each bracket follows the same rules:
    ``f(lo) == 0`` returns ``lo``, else ``f(hi) == 0`` returns ``hi``;
    otherwise the two must have opposite signs. The bracket is then halved
    until its width is at most ``tol``, its midpoint is no longer strictly
    inside it (``tol`` below float spacing), or ``f`` is exactly zero at
    the midpoint, which is returned. So each root is within ``tol`` of a
    true root (or one ulp of it), and a finite bracket ends within about
    2,100 halvings. Deterministic: the same inputs always produce the same
    output.

    The test ``f(lo) > 0`` keeps its value for the whole solve, as ``lo``
    moves only where ``f(mid) > 0`` agrees with it. The loop runs inside one ``np.errstate``
    per solve that turns numpy's overflow and invalid warnings off, for ``f``
    too: a bracket wider than the float range overflows ``hi - lo`` to inf.

    Raises
    ------
    ValueError
        If ``tol`` is not positive and finite or a bracket does not have
        ``lo < hi``.
    NoSignChangeError
        If ``f(lo)`` and ``f(hi)`` have the same (nonzero) sign.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    lo, hi = np.atleast_1d(lo.copy(), hi.copy())  # the loop moves the ends in place
    invalid = ~(lo < hi)
    if invalid.any():
        i = np.argmax(invalid)
        raise ValueError(f"invalid bracket [{lo[i]}, {hi[i]}]")

    f_lo = f(lo)
    done = f_lo == 0.0
    root = np.where(done, lo, np.nan)
    if not done.all():
        f_hi = f(hi)
        at_hi = ~done & (f_hi == 0.0)
        root[at_hi] = hi[at_hi]
        done |= at_hi
        same_sign = ~done & ((f_lo > 0.0) == (f_hi > 0.0))
        if same_sign.any():
            i = np.argmax(same_sign)
            raise NoSignChangeError(
                f"f({lo[i]}) = {f_lo[i]} and f({hi[i]}) = {f_hi[i]} have the same sign"
            )
    lo_positive, active = f_lo > 0.0, ~done
    # Scatter only in halvings where some bracket stops or hits f == 0;
    # np.count_nonzero finds those for less than ndarray.any() costs.
    with np.errstate(over="ignore", invalid="ignore"):
        while np.count_nonzero(active):
            mid = 0.5 * (lo + hi)
            go_on = (hi - lo > tol) & (lo < mid) & (mid < hi)
            stop = active & ~go_on
            if np.count_nonzero(stop):
                root[stop] = mid[stop]
                active &= go_on
                if not np.count_nonzero(active):
                    break
            f_mid = f(mid)
            at_mid = f_mid == 0.0
            if np.count_nonzero(at_mid):
                at_mid &= active
                root[at_mid] = mid[at_mid]
                active &= ~at_mid
            # Brackets already done keep halving; their roots are fixed.
            to_lo = (f_mid > 0.0) == lo_positive
            np.copyto(lo, mid, where=to_lo)
            np.copyto(hi, mid, where=~to_lo)
    return root
