"""Closed-form key rates for detector-efficiency-loophole-free post-processing.

The post-processing scheme modeled here keeps single clicks and assigns a
uniformly random bit to every no-click and double click, so Bob registers a
bit for each pulse and the fair-sampling assumption is never invoked. All
rates are driven by the observable pair

    Q_s : probability that a pulse produces exactly one detector click,
    E_s : error rate conditioned on a single click,

and the overall QBER including random assignments,

    delta = E_s * Q_s + e_0 * (1 - Q_s),    e_0 = 1/2.

Because Bob knows which bits were randomly assigned, the single-click string
can be isolated and its phase-error rate bounded by delta / Q_s, giving the
one-way key rate

    R = Q_s * (1 - H2(E_s) - H2(delta / Q_s))

for a basis-independent source. For a weak coherent source with decoy-state
estimation the single-photon fraction pays the privacy-amplification cost:

    R = -Q_s * H2(E_s) + P1 * Y1 * (1 - H2(delta_1 / Y1)),

with (Q_s, P1, Y1, delta_1) given by the channel model, optionally
conditioned on a quantum-memory trigger. Entropy arguments of the form
delta/Q_s or delta_1/Y1 are clamped at 1/2 before H2 (beyond that point the
privacy-amplification cost is already total; letting H2 turn over would
inflate the rate). Rates are returned unfloored so threshold solvers can
bracket sign changes. ``rate_kernel`` restates both formulas on arrays, as a
function of e_d, for solving a whole grid of points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Union

import numpy as np

from .numerics import binary_entropy, binary_entropy_array

#: Error rate e_0 of a uniformly assigned bit, fixed by construction.
RANDOM_ASSIGNMENT_ERROR_RATE = 0.5


class DegenerateInputError(ValueError):
    """Raised when an input makes a formula vacuous (division by zero)."""


def check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def _check_mu(mu: float) -> None:
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite for a coherent source, got {mu}")


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the source/channel/detector chain.

    Attributes
    ----------
    eta : float
        Overall transmittance (channel loss times detection efficiency).
    e_d : float
        Intrinsic detection error probability (wrong-detector routing).
    mu : float
        Mean photon number of the coherent source; unused for single photons.
    eta_c : float
        Channel transmittance up to the quantum memory (memory model only).
    eta_m : float
        Memory readout probability (memory model only).

    Dark counts are neglected by the closed forms, so there is no dark-count
    field.
    """

    eta: float = 0.0
    e_d: float = 0.0
    mu: float = 0.0
    eta_c: float = 0.0
    eta_m: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta", "e_d", "eta_c", "eta_m"):
            check_probability(name, getattr(self, name))
        if self.mu < 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")


@dataclass(frozen=True)
class SinglePhoton:
    """Perfect single-photon (basis-independent) source over a lossy channel."""

    eta: float
    e_d: float

    tag: ClassVar[str] = "single-photon"

    def __post_init__(self) -> None:
        self.system_params()

    def system_params(self) -> SystemParams:
        return SystemParams(eta=self.eta, e_d=self.e_d)


@dataclass(frozen=True)
class CoherentDecoy:
    """Weak coherent source with decoy-state single-photon estimation."""

    mu: float
    eta: float
    e_d: float

    tag: ClassVar[str] = "coherent"

    def __post_init__(self) -> None:
        _check_mu(self.mu)
        self.system_params()

    def system_params(self) -> SystemParams:
        return SystemParams(eta=self.eta, e_d=self.e_d, mu=self.mu)


@dataclass(frozen=True)
class CoherentDecoyMemory:
    """Coherent + decoy source with a quantum-memory trigger before Bob.

    All observable quantities are conditional on the memory trigger; only the
    readout probability ``eta_m`` contributes to the sampling problem.
    """

    mu: float
    eta_c: float
    eta_m: float
    e_d: float

    tag: ClassVar[str] = "coherent-memory"

    def __post_init__(self) -> None:
        _check_mu(self.mu)
        self.system_params()

    def system_params(self) -> SystemParams:
        return SystemParams(e_d=self.e_d, mu=self.mu, eta_c=self.eta_c, eta_m=self.eta_m)


SourceModel = Union[SinglePhoton, CoherentDecoy, CoherentDecoyMemory]


@dataclass(frozen=True)
class DetectionStats:
    """Observable pair: single-click rate and its conditional error rate."""

    q_s: float
    e_s: float

    def __post_init__(self) -> None:
        check_probability("q_s", self.q_s)
        check_probability("e_s", self.e_s)


@dataclass(frozen=True)
class KeyRateBreakdown:
    """Key rate with its additive terms.

    ``rate`` is the raw (unfloored) rate; callers present max(rate, 0) as the
    operational value. It always satisfies

        rate = signal - ec_cost - pa_cost

    where the signal term is ``q_s`` for the single-click formula and
    ``p_1 * y_1`` for the coherent formula. ``phase_bound`` is the raw
    entropy argument (delta/Q_s or delta_1/Y1) before the 1/2 clamp, kept for
    diagnostics; it is ``inf`` on the degenerate zero-denominator path. The
    single-photon fields ``p_1``, ``y_1``, ``delta_1`` are None for the
    single-click formula.
    """

    rate: float
    delta: float
    phase_bound: float
    ec_cost: float
    pa_cost: float
    p_1: float | None = None
    y_1: float | None = None
    delta_1: float | None = None

    @property
    def operational_rate(self) -> float:
        """Rate floored at zero, as presented to users."""
        return max(self.rate, 0.0)


def qber(stats: DetectionStats) -> float:
    """Overall QBER delta = E_s*Q_s + e_0*(1 - Q_s) with e_0 = 1/2.

    The second term is the error contribution of the uniformly assigned bits
    on no-clicks and double clicks. The result is a convex combination of
    ``e_s`` and ``e_0`` and therefore lies between them.
    """
    return stats.e_s * stats.q_s + RANDOM_ASSIGNMENT_ERROR_RATE * (1.0 - stats.q_s)


def rate_basis_independent_baseline(delta: float) -> float:
    """Key rate 1 - 2*H2(delta) of a basis-independent source at QBER delta.

    With equal bit and phase error rates the error-correction and
    privacy-amplification costs coincide. The entropy argument is clamped at
    1/2, so the result floors at -1.
    """
    check_probability("delta", delta)
    return 1.0 - 2.0 * binary_entropy(min(delta, 0.5))


def phase_error_single_bound(delta: float, q_s: float) -> float:
    """Upper bound min(delta/Q_s, 1/2) on the single-click phase error rate.

    Follows from delta_p = Q_s*E_ps + (1-Q_s)*E_pr with E_pr >= 0. A bound
    at 1/2 already forces a nonpositive rate, so larger quotients are
    clamped. Raises DegenerateInputError at Q_s = 0, where the bound is
    vacuous and the caller must treat the rate as nonpositive.
    """
    check_probability("delta", delta)
    check_probability("q_s", q_s)
    if q_s == 0.0:
        raise DegenerateInputError("phase-error bound is vacuous at q_s = 0")
    return min(delta / q_s, 0.5)


def key_rate_single_click(stats: DetectionStats) -> KeyRateBreakdown:
    """Key rate Q_s * (1 - H2(E_s) - H2(delta/Q_s)) of the single-click string.

    At Q_s = 0 there is no single-click string: the breakdown carries rate 0,
    an infinite (vacuous) phase bound, and zero cost terms.
    """
    delta = qber(stats)
    if stats.q_s == 0.0:
        return KeyRateBreakdown(
            rate=0.0, delta=delta, phase_bound=math.inf, ec_cost=0.0, pa_cost=0.0
        )
    raw_bound = delta / stats.q_s
    ec_cost = stats.q_s * binary_entropy(stats.e_s)
    pa_cost = stats.q_s * binary_entropy(min(raw_bound, 0.5))
    return KeyRateBreakdown(
        rate=stats.q_s - ec_cost - pa_cost,
        delta=delta,
        phase_bound=raw_bound,
        ec_cost=ec_cost,
        pa_cost=pa_cost,
    )


def single_photon_stats(params: SystemParams) -> DetectionStats:
    """Channel model for a single-photon source: Q_s = eta, E_s = e_d."""
    return DetectionStats(q_s=params.eta, e_s=params.e_d)


def single_photon_probability(mu: float) -> float:
    """P1 = mu * exp(-mu): the chance that a coherent pulse holds one photon."""
    _check_mu(mu)
    return mu * math.exp(-mu)


def heralded_single_photon_probability(mu: float, eta_c: float) -> float:
    """P1 = eta_c*mu*exp(-mu) / (1 - exp(-eta_c*mu)), given the memory trigger.

    Once ``eta_c * mu`` underflows, the trigger probability rounds to 0 and
    the limit exp(-mu) is returned instead of a 0/0. Raises
    DegenerateInputError at eta_c = 0, where the trigger never fires.
    """
    _check_mu(mu)
    if eta_c == 0.0:
        raise DegenerateInputError("eta_c = 0: the memory never triggers")
    trigger = -math.expm1(-eta_c * mu)
    if trigger == 0.0:
        return math.exp(-mu)
    return eta_c * mu * math.exp(-mu) / trigger


def coherent_fire_probabilities(mu: float, eta: float, e_d: float) -> tuple[float, float, float]:
    """Chances ``(p_c, p_w, p_h)`` that each of Bob's detectors fires on a coherent pulse.

    Of the Poisson(lam) photons that reach Bob, lam = eta*mu, the ones routed
    to the correct and to the wrong detector are independent Poisson
    variables (Poisson splitting), so the two threshold detectors fire
    independently:

        p_c = 1 - exp(-lam*(1 - e_d))   correct detector, matched bases,
        p_w = 1 - exp(-lam*e_d)         wrong detector, matched bases,
        p_h = 1 - exp(-lam/2)           either detector, mismatched bases.

    A matched pulse single-clicks with p_c*(1 - p_w) + p_w*(1 - p_c), with
    E_s = p_w*(1 - p_c) over that; ``coherent_stats`` neglects the double
    clicks p_c*p_w. The inputs are not checked.
    """
    lam = eta * mu
    return -math.expm1(-lam * (1.0 - e_d)), -math.expm1(-lam * e_d), -math.expm1(-lam / 2.0)


def coherent_stats(
    params: SystemParams,
) -> tuple[DetectionStats, float, float, float]:
    """Channel model for a coherent source without a memory.

    Returns ``(stats, p_1, y_1, delta_1)`` with

        Q_s = 1 - exp(-eta*mu)      (double clicks neglected),
        E_s = e_d,
        P1  = mu * exp(-mu)          single-photon emission probability,
        Y1  = eta                    single-photon single-click yield,
        delta_1 = e_d*Y1 + e_0*(1 - Y1).
    """
    p_1 = single_photon_probability(params.mu)
    q_s = -math.expm1(-params.eta * params.mu)
    y_1 = params.eta
    delta_1 = params.e_d * y_1 + RANDOM_ASSIGNMENT_ERROR_RATE * (1.0 - y_1)
    return DetectionStats(q_s=q_s, e_s=params.e_d), p_1, y_1, delta_1


def coherent_memory_stats(
    params: SystemParams,
) -> tuple[DetectionStats, float, float, float]:
    """Channel model for a coherent source heralded by a quantum memory.

    All quantities are conditional on the memory trigger:

        P1  = eta_c * mu * exp(-mu) / (1 - exp(-eta_c*mu)),
        Q_s = Y1 = eta_m,
        E_s = e_d,
        delta_1 = e_d*eta_m + e_0*(1 - eta_m).

    Raises DegenerateInputError at eta_c = 0 (the trigger never fires and P1
    is a 0/0 form).
    """
    p_1 = heralded_single_photon_probability(params.mu, params.eta_c)
    q_s = params.eta_m
    y_1 = params.eta_m
    delta_1 = params.e_d * y_1 + RANDOM_ASSIGNMENT_ERROR_RATE * (1.0 - y_1)
    return DetectionStats(q_s=q_s, e_s=params.e_d), p_1, y_1, delta_1


def key_rate_coherent(
    stats: DetectionStats, p_1: float, y_1: float, delta_1: float
) -> KeyRateBreakdown:
    """Key rate -Q_s*H2(E_s) + P1*Y1*(1 - H2(delta_1/Y1)) for coherent models.

    ``ec_cost = Q_s*H2(E_s)`` is paid on the whole single-click string while
    only the single-photon fraction ``P1*Y1`` generates key. At Y1 = 0 the
    generating term vanishes and the rate degenerates to ``-ec_cost``.
    """
    check_probability("p_1", p_1)
    check_probability("y_1", y_1)
    check_probability("delta_1", delta_1)
    delta = qber(stats)
    ec_cost = stats.q_s * binary_entropy(stats.e_s)
    if y_1 == 0.0:
        return KeyRateBreakdown(
            rate=-ec_cost,
            delta=delta,
            phase_bound=math.inf,
            ec_cost=ec_cost,
            pa_cost=0.0,
            p_1=p_1,
            y_1=y_1,
            delta_1=delta_1,
        )
    raw_bound = delta_1 / y_1
    pa_cost = p_1 * y_1 * binary_entropy(min(raw_bound, 0.5))
    return KeyRateBreakdown(
        rate=p_1 * y_1 - ec_cost - pa_cost,
        delta=delta,
        phase_bound=raw_bound,
        ec_cost=ec_cost,
        pa_cost=pa_cost,
        p_1=p_1,
        y_1=y_1,
        delta_1=delta_1,
    )


def rate_kernel(
    q_s: np.ndarray, p_1: float, y_1: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Array form of the coherent and single-click rates, as a function of e_d.

    Takes the e_d-independent channel terms over a set of points, with every
    ``y_1 > 0`` and E_s = e_d, and returns ``rate(e_d)``, which maps an array
    of e_d in [0, 1/2], one per point, to the raw key rates
    ``-Q_s*H2(e_d) + P1*Y1*(1 - H2(min(delta_1/Y1, 1/2)))``. The single-click
    formula is the case ``p_1 = 1``, ``y_1 = q_s``. The inputs are not
    checked. Each value is computed by the operations of
    ``key_rate_coherent`` and ``key_rate_single_click``, in the same order,
    so it differs from theirs at most where numpy's log2 differs from
    ``math.log2`` in the last ulp.
    """
    signal = p_1 * y_1
    random_errors = RANDOM_ASSIGNMENT_ERROR_RATE * (1.0 - y_1)

    def rate(e_d: np.ndarray) -> np.ndarray:
        delta_1 = e_d * y_1 + random_errors
        ec_cost = q_s * binary_entropy_array(e_d)
        # For a subnormal y_1 the quotient overflows to inf, as a float
        # division does, and the clamp takes it to 1/2.
        with np.errstate(over="ignore"):
            bound = np.minimum(delta_1 / y_1, 0.5)
        pa_cost = signal * binary_entropy_array(bound)
        return signal - ec_cost - pa_cost

    return rate


def key_rate(model: SourceModel) -> KeyRateBreakdown:
    """Evaluate the key rate of a source model through its channel model."""
    if isinstance(model, SinglePhoton):
        return key_rate_single_click(single_photon_stats(model.system_params()))
    if isinstance(model, CoherentDecoy):
        return key_rate_coherent(*coherent_stats(model.system_params()))
    if isinstance(model, CoherentDecoyMemory):
        return key_rate_coherent(*coherent_memory_stats(model.system_params()))
    raise TypeError(f"unknown source model: {model!r}")
