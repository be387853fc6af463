"""Shared scalar numerics: binary entropy and a bracketed bisection solver.

Every rate formula in this package reduces to binary-entropy terms, and the
tolerance-threshold curves are produced by locating sign changes of a rate
function, so these two primitives are kept dependency-free and exact about
their edge cases.
"""

from __future__ import annotations

import math
from typing import Callable

DEFAULT_BISECT_TOL = 1e-9
MAX_BISECT_ITERATIONS = 200


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


def find_root_bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_BISECT_TOL,
) -> float:
    """Locate a root of ``f`` on ``[lo, hi]`` by bisection.

    ``f(lo)`` and ``f(hi)`` must have opposite signs (or one of them must be
    exactly zero). Returns a point whose enclosing bracket has width at most
    ``tol``, or is as narrow as floats allow when ``tol`` is below that, so
    the result is within ``tol`` of a true root (or one ulp of it).
    Deterministic: the same inputs always produce the same output.

    Raises
    ------
    NoSignChangeError
        If ``f(lo)`` and ``f(hi)`` have the same (nonzero) sign.
    RuntimeError
        If the bracket has not shrunk below ``tol`` after 200 iterations.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")

    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    f_hi = f(hi)
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoSignChangeError(
            f"f({lo}) = {f_lo} and f({hi}) = {f_hi} have the same sign"
        )

    for _ in range(MAX_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise RuntimeError(
        f"bisection did not reach tol={tol} within {MAX_BISECT_ITERATIONS} iterations"
    )
