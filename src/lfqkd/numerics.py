"""Shared numerics: binary entropy and a bracketed bisection solver.

Every rate formula in this package reduces to binary-entropy terms, and the
tolerance-threshold curves are produced by locating sign changes of a rate
function, so these two primitives are kept exact about their edge cases.
Both also come in an array form, which the threshold sweep uses to solve a
whole grid of points at once.
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


def binary_entropy_array(x: np.ndarray) -> np.ndarray:
    """Elementwise ``binary_entropy`` of a float array, H2(0) = H2(1) = 0.

    The arguments are not checked: callers pass probabilities they have
    already validated. The arithmetic is the scalar one; numpy's log2 may
    differ from ``math.log2`` in the last ulp.
    """
    h = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    p = x[inner]
    h[inner] = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return h


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
    lo, hi = np.broadcast_arrays(
        np.atleast_1d(np.asarray(lo, dtype=float)), np.atleast_1d(np.asarray(hi, dtype=float))
    )
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
    while not done.all():
        # A bracket wider than the float range overflows to inf (and
        # inf - inf); the stop tests still hold, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            mid = 0.5 * (lo + hi)
            stop = ~done & ((hi - lo <= tol) | ~((lo < mid) & (mid < hi)))
        root[stop] = mid[stop]
        done |= stop
        if done.all():
            break
        f_mid = f(mid)
        at_mid = ~done & (f_mid == 0.0)
        root[at_mid] = mid[at_mid]
        done |= at_mid
        # Brackets already done keep halving; their roots are fixed.
        to_lo = (f_mid > 0.0) == (f_lo > 0.0)
        lo = np.where(to_lo, mid, lo)
        f_lo = np.where(to_lo, f_mid, f_lo)
        hi = np.where(to_lo, hi, mid)
    return root
