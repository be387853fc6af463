"""Independent references the tests check ``lfqkd`` against.

``reference_rate`` writes the paper's key rate again in scalar ``math``
(``log2``, ``expm1``), in the paper's order of terms and with no code from
``lfqkd``; ``baseline_rate`` is its basis-independent case at Q_s = 1.
``model_rate`` is not a reference: it is the rate of ``lfqkd``'s
own model path, by family. ``binomial_upper_bound`` is an exact binomial tail.
``binary_entropy_array`` and ``find_root_bisect`` are the masked entropy and
the bisection loop that ``lfqkd.numerics`` replaced with fewer numpy calls
per halving, kept verbatim: the new forms must give the same bits and make
the same calls to ``f``. ``rate_terms``, with its ``_binary_entropy_kernel``
and ``_mix``, is the rate kernel with two entropy calls that
``lfqkd.rates`` replaced with one, kept verbatim: the new form must give the
same bits in all five outputs. ``_tally`` is the shard tally with one pass
per ``ClickKind`` over int8 arrays that ``lfqkd.simulate`` replaced with one
popcount over bit planes, kept verbatim: the new form must give the same
counts on the unpacked planes.
"""

import math
from typing import Callable

import numpy as np

from lfqkd.numerics import NoSignChangeError
from lfqkd.rates import CoherentDecoy, CoherentDecoyMemory, SinglePhoton, key_rate
from lfqkd.simulate import ClickKind

DEFAULT_BISECT_TOL = 1e-9

#: One-sided tail beyond 3 sigma of a normal variable, about 0.135%.
THREE_SIGMA_TAIL = 0.5 * math.erfc(3.0 / math.sqrt(2.0))


def _h2(x):
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def reference_rate(family, eta, e_d, mu=0.5, eta_c=0.01):
    """Raw key rate -Q_s*H2(e_d) + P1*Y1*(1 - H2(min(delta_1/Y1, 1/2))).

    ``eta`` is the readout probability eta_m for the memory families.
    """
    if family in ("single-photon", "single-photon-memory"):
        q_s, p_1 = eta, 1.0
    elif family == "coherent":
        q_s, p_1 = -math.expm1(-eta * mu), mu * math.exp(-mu)
    else:
        trigger = -math.expm1(-eta_c * mu)
        q_s, p_1 = eta, eta_c * mu * math.exp(-mu) / trigger if trigger else math.exp(-mu)
    y_1 = eta
    if y_1 == 0.0:
        return -q_s * _h2(e_d)
    delta_1 = e_d * y_1 + 0.5 * (1.0 - y_1)
    return p_1 * y_1 * (1.0 - _h2(min(delta_1 / y_1, 0.5))) - q_s * _h2(e_d)


def baseline_rate(delta):
    """Key rate 1 - 2*H2(min(delta, 1/2)) of a basis-independent source at QBER ``delta``:
    equal bit and phase error rates make the two costs coincide. Floors at -1."""
    return 1.0 - 2.0 * _h2(min(delta, 0.5))


def model_rate(family, eta, e_d, mu=0.5, eta_c=0.01):
    """``key_rate(model).rate`` of the model of ``family`` at (``eta``, ``e_d``).

    Not an independent reference: this is ``lfqkd``'s model path, which checks
    the inputs the family uses. ``eta`` is the readout probability eta_m for
    the memory families; the single-photon memory is the single-photon model.
    """
    if family in ("single-photon", "single-photon-memory"):
        model = SinglePhoton(eta=eta, e_d=e_d)
    elif family == "coherent":
        model = CoherentDecoy(mu=mu, eta=eta, e_d=e_d)
    elif family == "coherent-memory":
        model = CoherentDecoyMemory(mu=mu, eta_c=eta_c, eta_m=eta, e_d=e_d)
    else:
        raise ValueError(f"unknown model family {family!r}")
    return key_rate(model).rate


def binomial_upper_bound(n, p, level=THREE_SIGMA_TAIL):
    """Fewest errors k with P(Binomial(n, p) > k) <= ``level``, summed exactly."""
    if p == 0.0:
        return 0
    log_p, log_q = math.log(p), math.log1p(-p)
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * log_p + (n - k) * log_q
        )
        if 1.0 - cdf <= level:
            return k
    return n


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


RANDOM_ASSIGNMENT_ERROR_RATE = 0.5


def _binary_entropy_kernel(x: np.ndarray) -> np.ndarray:
    """``binary_entropy_array`` outside ``np.errstate``, so numpy may warn: the
    expression is NaN at x = 0, 1 and outside [0, 1], and ``fmax`` takes NaN to 0."""
    h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.fmax(h, 0.0, out=h)


def _mix(e, q):
    """Error rate of a string whose fraction ``q`` has error rate ``e`` and
    whose other bits were assigned at random: e*q + e_0*(1 - q)."""
    return e * q + RANDOM_ASSIGNMENT_ERROR_RATE * (1.0 - q)


def rate_terms(
    q_s: np.ndarray,
    e_s: np.ndarray,
    p_1: float | np.ndarray,
    y_1: np.ndarray,
    e_1: np.ndarray | None = None,
):
    """The key rate and its terms, elementwise: the one rate formula.

    Returns ``(rate, ec_cost, pa_cost, phase_bound, delta_1)`` with

        delta_1     = e_1*Y1 + e_0*(1 - Y1),
        ec_cost     = Q_s*H2(E_s),
        phase_bound = delta_1/Y1,
        pa_cost     = P1*Y1*H2(min(phase_bound, 1/2)),
        rate        = P1*Y1 - ec_cost - pa_cost,

    where ``e_1``, the error rate of the single-photon clicks, is E_s unless
    given. The single-click formula is the case P1 = 1, Y1 = Q_s; then
    delta_1 is the overall QBER delta. Y1 = 0 needs no branch: the phase
    bound is inf, the clamp takes it to 1/2 and the signal P1*Y1 = 0 makes
    pa_cost 0, so the rate is -ec_cost (0 for the single-click formula). The
    inputs are not checked. The body runs in one ``np.errstate``, entropies
    included, as the bisection calls it once per halving. delta_1/Y1 is inf
    at Y1 = 0 and where a subnormal Y1 overflows it, as a float division does.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        signal = p_1 * y_1
        delta_1 = _mix(e_s if e_1 is None else e_1, y_1)
        ec_cost = q_s * _binary_entropy_kernel(e_s)
        phase_bound = delta_1 / y_1
        pa_cost = signal * _binary_entropy_kernel(np.minimum(phase_bound, 0.5))
        return signal - ec_cost - pa_cost, ec_cost, pa_cost, phase_bound, delta_1


def _tally(a: dict) -> np.ndarray:
    """Sifted pulses and sifted errors of one shard, as a (2, 3) array
    indexed by [error, ClickKind code]."""
    matched = a["matched"]
    matched_err = matched & (a["assigned_bit"] != a["alice_bit"])
    counts = np.zeros((2, len(ClickKind)), dtype=np.int64)
    for k in ClickKind:
        is_k = a["kind"] == np.int8(k)
        counts[0, k] = np.count_nonzero(is_k & matched)
        counts[1, k] = np.count_nonzero(is_k & matched_err)
    return counts
