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
    delta_1 = E_s * Y1 + e_0 * (1 - Y1),

with (Q_s, P1, Y1) given by the channel model, optionally conditioned on a
quantum-memory trigger, and E_s = e_d. The single-click rate is the case
P1 = 1, Y1 = Q_s, so the package writes the formula once: ``rate_terms``
evaluates it elementwise on arrays, and ``channel_terms`` gives (Q_s, P1, Y1)
of each source family over an array of transmittances. ``key_rate``,
``key_rate_single_click``, the threshold sweep and the Monte Carlo comparison
all go through these two. Entropy arguments of the form delta/Q_s or
delta_1/Y1 are clamped at 1/2 before H2 (beyond that point the
privacy-amplification cost is already total; letting H2 turn over would
inflate the rate). Rates are returned unfloored so threshold solvers can
bracket sign changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .numerics import _binary_entropy_kernel
from .numerics import binary_entropy  # noqa: F401  -- not called here; bench/tracing.py patches it

#: Error rate e_0 of a uniformly assigned bit, fixed by construction.
RANDOM_ASSIGNMENT_ERROR_RATE = 0.5

#: Source families of ``channel_terms`` and the threshold curves.
MODEL_FAMILIES = (
    "single-photon",
    "coherent",
    "coherent-memory",
    "single-photon-memory",
)


def check_inputs(**inputs: float | None) -> None:
    """The one input check of the rate paths, in the order given.

    ``mu`` must be positive and finite, and every other input a probability
    in [0, 1], not -0.0; an input left at None is not used and not checked.
    Last, an ``eta_c`` of 0 is degenerate: the memory would never trigger.
    """
    for name, value in inputs.items():
        if value is None:
            continue
        if name == "mu":
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"mu must be positive and finite for a coherent source, got {value}"
                )
        elif not 0.0 <= value <= 1.0 or math.copysign(1.0, value) < 0.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    if inputs.get("eta_c") == 0.0:
        raise ValueError("eta_c = 0: the memory never triggers")


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
        Mean photon number of the coherent source.
    eta_c : float
        Channel transmittance up to the quantum memory (memory model only).
    eta_m : float
        Memory readout probability (memory model only).

    A parameter the source does not use is None and is not checked. Dark
    counts are neglected by the closed forms, so there is no dark-count
    field.
    """

    eta: float | None = None
    e_d: float = 0.0
    mu: float | None = None
    eta_c: float | None = None
    eta_m: float | None = None

    def __post_init__(self) -> None:
        check_inputs(mu=self.mu, eta=self.eta, e_d=self.e_d, eta_c=self.eta_c, eta_m=self.eta_m)


@dataclass(frozen=True)
class SinglePhoton:
    """Perfect single-photon (basis-independent) source over a lossy channel."""

    eta: float
    e_d: float

    tag: ClassVar[str] = "single-photon"
    mu: ClassVar[float] = math.nan
    eta_c: ClassVar[float] = math.nan

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
    eta_c: ClassVar[float] = math.nan

    def __post_init__(self) -> None:
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

    @property
    def eta(self) -> float:
        """The readout probability ``eta_m``, in the role ``channel_terms`` gives eta."""
        return self.eta_m

    def __post_init__(self) -> None:
        self.system_params()

    def system_params(self) -> SystemParams:
        return SystemParams(e_d=self.e_d, mu=self.mu, eta_c=self.eta_c, eta_m=self.eta_m)


#: A source model reads as ``(tag, eta, e_d, mu, eta_c)``: the inputs of ``channel_terms``
#: and the error rate, with NaN for an unused ``mu`` or ``eta_c``. Consumers branch on ``tag``.
SourceModel = SinglePhoton | CoherentDecoy | CoherentDecoyMemory


@dataclass(frozen=True)
class DetectionStats:
    """Observable pair: single-click rate and its conditional error rate."""

    q_s: float
    e_s: float

    def __post_init__(self) -> None:
        check_inputs(q_s=self.q_s, e_s=self.e_s)


@dataclass(frozen=True)
class KeyRateBreakdown:
    """Key rate with its additive terms.

    ``rate`` is the raw (unfloored) rate; callers present max(rate, 0) as the
    operational value. It always satisfies

        rate = signal - ec_cost - pa_cost

    where the signal term is ``q_s`` for the single-click formula and
    ``p_1 * y_1`` for the coherent formula. ``phase_bound`` is the raw
    entropy argument (delta/Q_s or delta_1/Y1) before the 1/2 clamp, kept for
    diagnostics; it is ``inf`` where its denominator is 0. The single-photon
    fields ``p_1``, ``y_1``, ``delta_1`` are None for the single-click
    formula.
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


def _assigned(q):
    """e_0*(1 - q): the error share of the fraction 1 - q of bits assigned at random."""
    return RANDOM_ASSIGNMENT_ERROR_RATE * (1.0 - q)


def _mix(e, q, assigned=None):
    """Error rate e*q + ``_assigned(q)`` of bits, a fraction q at error rate e, the rest random."""
    return e * q + (_assigned(q) if assigned is None else assigned)


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
    E_s = p_w*(1 - p_c) over that; ``channel_terms`` neglects the double
    clicks p_c*p_w. The inputs are not checked.
    """
    lam = eta * mu
    return -math.expm1(-lam * (1.0 - e_d)), -math.expm1(-lam * e_d), -math.expm1(-lam / 2.0)


def channel_terms(tag: str, eta: np.ndarray, mu: float = math.nan, eta_c: float = math.nan):
    """Channel terms ``(Q_s, P1, Y1)`` of source family ``tag`` over an array ``eta``.

    E_s = e_d for every family, and

        single-photon     Q_s = Y1 = eta,           P1 = 1,
        coherent          Q_s = 1 - exp(-eta*mu),   P1 = mu*exp(-mu),    Y1 = eta,
        coherent-memory   Q_s = Y1 = eta_m,         P1 = eta_c*mu*exp(-mu) / (1 - exp(-eta_c*mu)),

    neglecting double clicks, where for the memory ``eta`` is the readout
    probability eta_m and every term is conditional on the trigger.
    ``single-photon-memory`` is the single-photon source with eta_m in the
    role of eta. P1 is a float, the other two are like ``eta``, an array or a
    float64. Once ``eta_c * mu`` underflows, the trigger probability rounds
    to 0 and P1 takes its limit exp(-mu). The inputs are not checked.
    """
    if tag == "single-photon-memory":
        tag = "single-photon"
    if tag == "single-photon":
        return eta, 1.0, eta
    if tag == "coherent":
        return -np.expm1(-eta * mu), mu * math.exp(-mu), eta
    if tag == "coherent-memory":
        trigger = -math.expm1(-eta_c * mu)
        p_1 = eta_c * mu * math.exp(-mu) / trigger if trigger else math.exp(-mu)
        return eta, p_1, eta
    raise ValueError(f"unknown model family {tag!r}; expected one of {MODEL_FAMILIES}")


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
    bound is inf (as where a subnormal Y1 overflows it), the clamp takes it
    to 1/2 and the signal P1*Y1 = 0 makes pa_cost 0, so the rate is -ec_cost
    (0 for the single-click formula). The inputs, float64 arrays or scalars,
    are not checked; rate and the costs have their broadcast shape. The body
    is ``_rate_kernel`` in one ``np.errstate``; the bisection calls it in its own.
    """
    e_1 = e_s if e_1 is None else e_1
    shape = np.broadcast(q_s, e_s, p_1, y_1, e_1).shape  # np.broadcast_shapes costs 6x more
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _rate_kernel(q_s, e_s, e_1, y_1, p_1 * y_1, _assigned(y_1), shape)


def _rate_kernel(q_s, e_s, e_1, y_1, signal, assigned, shape):
    """``rate_terms`` outside ``np.errstate``, given P1*Y1, e_0*(1 - Y1) and the
    inputs' broadcast shape: both entropies in one call on a stacked array."""
    delta_1 = _mix(e_1, y_1, assigned)
    phase_bound = delta_1 / y_1
    entropy_args = np.empty((2,) + shape)
    entropy_args[0] = e_s
    np.minimum(phase_bound, 0.5, out=entropy_args[1, ...])  # a view also when shape is ()
    entropies = _binary_entropy_kernel(entropy_args)
    ec_cost = q_s * entropies[0]
    pa_cost = signal * entropies[1]
    return signal - ec_cost - pa_cost, ec_cost, pa_cost, phase_bound, delta_1


def model_terms(model: SourceModel) -> tuple[float, float, float]:
    """``channel_terms`` ``(Q_s, P1, Y1)`` at the operating point of ``model``."""
    if not isinstance(model, SourceModel):
        raise TypeError(f"unknown source model: {model!r}")
    terms = channel_terms(model.tag, np.float64(model.eta), model.mu, model.eta_c)
    return tuple(map(float, terms))


def _breakdown(q_s, e_s, p_1, y_1, single_click: bool) -> KeyRateBreakdown:
    """``rate_terms`` at one point; the single-click formula has no P1, Y1, delta_1.
    The point is float64 scalars: a float Y1 = 0 would raise in delta_1/Y1."""
    terms = rate_terms(*map(np.float64, (q_s, e_s, p_1, y_1)))
    rate, ec_cost, pa_cost, phase_bound, delta_1 = map(float, terms)
    extra = {} if single_click else {"p_1": p_1, "y_1": y_1, "delta_1": delta_1}
    return KeyRateBreakdown(rate, _mix(e_s, q_s), phase_bound, ec_cost, pa_cost, **extra)


def key_rate_single_click(stats: DetectionStats) -> KeyRateBreakdown:
    """Key rate Q_s * (1 - H2(E_s) - H2(delta/Q_s)) of the single-click string.

    At Q_s = 0 there is no single-click string: the breakdown carries rate 0,
    an infinite (vacuous) phase bound, and zero cost terms.
    """
    return _breakdown(stats.q_s, stats.e_s, 1.0, stats.q_s, single_click=True)


def key_rate(model: SourceModel) -> KeyRateBreakdown:
    """Evaluate the key rate of a source model through its channel model."""
    q_s, p_1, y_1 = model_terms(model)
    return _breakdown(q_s, model.e_d, p_1, y_1, single_click=model.tag == "single-photon")
