"""Shared numerics: binary entropy and a bracketed bisection solver.

Every rate formula in this package reduces to binary-entropy terms, and the
tolerance-threshold curves are produced by locating sign changes of a rate
function, so these two primitives are kept exact about their edge cases.
The threshold sweep solves a whole grid at once, where numpy's per-call
overhead outweighs the arithmetic: so ``_binary_entropy_kernel`` uses no masks
and runs in its caller's ``np.errstate``, and a bisection enters one errstate
per solve and tests for stops only where one can occur.
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


def _safe_halvings(lo: np.ndarray, hi: np.ndarray, tol: float) -> int:
    """Halvings of the brackets ``[lo, hi]`` in which none can stop: with w the
    narrowest width, M the largest magnitude and t = max(tol, 2^-49*M,
    2^-1070), floor(log2(w/(4t))) - 1, or 0 if M > 2^1022. Else ``lo + hi``
    cannot overflow, w/(4t) <= 2^50, each midpoint is within 2^-53*M +
    2^-1075 <= t/8 of its bracket's centre, and after j halvings each width
    is at least w/2^j - 2^-52*M - 2^-1074 >= w/2^j - t/4, above 15t in the
    counted halvings: it exceeds ``tol`` and the midpoint is strictly inside."""
    m = max(np.max(np.abs(lo)), np.max(np.abs(hi)))
    t = max(tol, 2.0**-49 * m, 2.0**-1070)
    return max(int(np.min(hi - lo) / (4.0 * t)).bit_length() - 2, 0) if m <= 2.0**1022 else 0


def find_root_bisect(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float = DEFAULT_BISECT_TOL,
) -> np.ndarray:
    """Locate a root of ``f`` in each bracket ``[lo, hi]`` by bisection.

    ``lo`` and ``hi`` are float arrays (or floats) that broadcast together;
    ``f`` maps an array of points to their values and is called once per
    halving on every bracket. Returns the roots, at least one-dimensional.
    Per bracket: ``f(lo) == 0`` returns ``lo``, else ``f(hi) == 0`` returns
    ``hi``; otherwise the signs must differ, and the bracket is halved until
    its width is at most ``tol``, its midpoint is not strictly inside it
    (``tol`` below float spacing) or ``f`` is exactly zero there, which is
    returned. So each root is within ``tol`` (or one ulp) of a true root, a
    finite bracket ends within about 2,100 halvings, and the same inputs
    always give the same output.

    The midpoint is ``0.5*(lo + hi)``, or ``0.5*lo + 0.5*hi`` where the sum
    overflows. The first ``_safe_halvings`` halvings, where no bracket can
    stop (25 of 30 in a threshold solve), skip the stop test but not the
    test ``f == 0``. The solve, every call to ``f`` included, runs in one
    ``np.errstate`` with numpy's divide, overflow and invalid warnings off.

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

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
        # lo moves only where f(mid) > 0 agrees with f(lo) > 0: lo_positive holds.
        lo_positive, active = f_lo > 0.0, ~done
        n_active = np.count_nonzero(active)
        safe = _safe_halvings(lo, hi, tol) if n_active else 0
        # Scatter only where some bracket stops or hits f == 0 (count_nonzero beats any()).
        while n_active:
            mid = 0.5 * (lo + hi)
            if safe:
                safe -= 1
            else:
                # lo + hi overflows only where M > 2^1022, and there safe is 0.
                np.copyto(mid, 0.5 * lo + 0.5 * hi, where=np.isinf(mid))
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
                n_active = np.count_nonzero(active)
            # Brackets already done keep halving; their roots are fixed.
            to_lo = (f_mid > 0.0) == lo_positive
            np.copyto(lo, mid, where=to_lo)
            np.copyto(hi, mid, where=~to_lo)
    return root
