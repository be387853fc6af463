"""Seeded Monte Carlo of the two-detector squashing-model measurement.

Each trial is one pulse: Alice draws a uniform bit and basis, Bob an
independent uniform basis, and the channel (or the adversary) decides the
outcome at Bob's two threshold detectors. The squashing view reduces every
pulse to a classical pair: its click kind (no click, single click or double
click) and, for a single click, the bit of the detector that fired. So no
density-matrix machinery is needed for these scenarios.

Pre-processing follows the loophole-free rule: single clicks keep their bit,
while no-clicks and double clicks receive a uniformly random bit. A bit is
randomly assigned exactly when the pulse's ``kind`` is not
``ClickKind.SINGLE``, so the key can be restricted to the single-click string
while the random assignments still enter the overall QBER. Every rule is
array code over one shard of pulses: ``run_trials`` tallies the shard arrays
and ``trial_records`` returns them as one structured array. Tallies are
taken over basis-matched (sifted) pulses; Q_s and E_s estimate the analytic
channel model of the matching source.

Determinism: a batch is a pure function of (model, adversary, n_pulses,
seed). Pulses are generated in fixed-size shards of ``SHARD_SIZE``; shard i
uses a dedicated generator seeded from child i of
``numpy.random.SeedSequence(seed)``. Shards are independent, and tallies
merge by addition, so the result does not depend on how shard execution is
scheduled.

Each shard of n pulses makes two draws, in this order:

1. ``rng.bytes(n)``: one fair byte per pulse. Bit 0 is Alice's bit, bit 1
   Alice's basis, bit 2 Bob's basis and bit 3 the bit assigned to a
   no-click or double click. Bits 4-6 are the scenario's own fair bits:
   the single-click bit of a basis-mismatched pulse (honest single-photon
   and memory channels, and bit 4 of the time-shift attack, whose bit 5
   picks the active detector), or Eve's basis (4), Eve's bit for a
   mismatched guess (5) and the single-click bit of a basis Bob and Eve do
   not share (6) for the strong pulse. Bit 7 is unused.
2. Uniforms in [0, 1): ``rng.random((2, n))`` for the coherent channel,
   one row per detector (the detector of Alice's bit first), and
   ``rng.random(n)`` otherwise.

Every pulse rule is int8 and float64 arithmetic on those arrays. The
coherent channel uses the per-detector fire probabilities of
``rates.coherent_fire_probabilities``: the two detectors fire independently,
each when its uniform falls below its threshold. A single-photon or memory
pulse clicks when its uniform u < eta (eta_m) and is flipped when
u < eta*e_d, so a click is flipped with probability e_d; under the
time-shift attack the transmittance is 1 and a pulse is flipped when
u < e_d. The strong pulse reaches one detector only when u < 2**(1 - n).

Two adversaries are modeled. The extreme time-shift attack makes one
uniformly chosen detector fully active and the other inactive (Bob-side
transmittance 1 for the active one, 0 for the other; the channel is treated
as lossless so the 50% loss is Eve's). The strong-pulse attack measures
Alice's state in a uniform basis and resends ``n_photons`` copies of the
result without loss: a matching Bob basis reproduces Eve's bit, a
conjugate basis double-clicks except with probability 2**(1 - n_photons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Union

import numpy as np

from .rates import (
    CoherentDecoy,
    CoherentDecoyMemory,
    DetectionStats,
    SinglePhoton,
    SourceModel,
    coherent_fire_probabilities,
    key_rate_single_click,
    model_terms,
    rate_terms,
)
from .rates import key_rate  # noqa: F401  -- not called here; bench/tracing.py patches it

#: Pulses per RNG shard. Part of the seed-derivation rule: changing it
#: changes which generator produces which pulse, hence the batch contents.
SHARD_SIZE = 1 << 18

DEFAULT_STRONG_PULSE_PHOTONS = 20


class ClickKind(IntEnum):
    """Detector outcome of one pulse; the code is the number of detectors fired."""

    NO_CLICK = 0
    SINGLE = 1
    DOUBLE = 2


#: int8 ``ClickKind`` codes. Kind arrays are built and compared against
#: these: a compare with an ``IntEnum`` member costs about ten times as much.
_SINGLE, _DOUBLE = np.int8(ClickKind.SINGLE), np.int8(ClickKind.DOUBLE)

#: Fields of a ``trial_records`` row.
_RECORD_FIELDS = ("alice_bit", "alice_basis", "bob_basis", "kind", "assigned_bit")


@dataclass(frozen=True)
class ExtremeTimeShift:
    """One uniformly chosen detector active per pulse, the other dead."""

    tag = "time_shift"


@dataclass(frozen=True)
class StrongPulse:
    """Intercept-resend with an ``n_photons``-copy replacement pulse."""

    n_photons: int = DEFAULT_STRONG_PULSE_PHOTONS

    tag = "strong_pulse"

    def __post_init__(self) -> None:
        if self.n_photons < 1:
            raise ValueError(f"n_photons must be >= 1, got {self.n_photons}")


AdversaryStrategy = Union[None, ExtremeTimeShift, StrongPulse]


@dataclass(frozen=True)
class TrialBatch:
    """Sifted tallies of a simulation run.

    ``n_pulses`` counts basis-matched pulses (the sifted population over
    which Q_s and E_s are defined); ``n_generated`` is the number of pulses
    drawn before sifting. Error counts compare the assigned bit against
    Alice's bit within the sifted population, split by click class so both
    the loophole-free and the traditional post-processing can be evaluated
    from one batch.
    """

    n_pulses: int
    n_single: int
    n_single_errors: int
    n_double: int
    n_none: int
    seed: int
    scenario_tag: str
    model_tag: str
    n_generated: int
    n_double_errors: int
    n_none_errors: int

    @property
    def is_degenerate(self) -> bool:
        """True when the batch has no single clicks at all."""
        return self.n_single == 0

    def summary(self) -> dict:
        """Summary dict in the pinned schema, including the empirical rate."""
        stats = empirical_stats(self)
        return {
            "scenario": self.scenario_tag,
            "model": self.model_tag,
            "n_pulses": self.n_pulses,
            "seed": self.seed,
            "n_single": self.n_single,
            "n_double": self.n_double,
            "n_none": self.n_none,
            "n_single_errors": self.n_single_errors,
            "q_s": stats.q_s,
            "e_s": stats.e_s,
            "rate": key_rate_single_click(stats).rate,
        }


def _scenario_tag(adversary: AdversaryStrategy) -> str:
    if adversary is None:
        return "honest"
    return adversary.tag


def _bit(fair, k):
    """Bit ``k`` of each pulse's fair byte, as an int8 0/1 array."""
    return (fair >> k) & 1


def _select(mask, a, b):
    """``a`` where the int8 0/1 ``mask`` is 1, else ``b``.

    The arithmetic form of ``np.where``, which on a random mask costs about
    30 times as much per pulse.
    """
    return b ^ ((a ^ b) & mask)


def _fire(rng, u, matched, p, p_h):
    """Int8 fire flags of one detector: its chance is ``p`` on a matched
    pulse and ``p_h`` on a mismatched one. Fills ``u`` with fresh uniforms."""
    rng.random(out=u)
    return _select(matched, (u < p).view(np.int8), (u < p_h).view(np.int8))


def _honest_hits(model, fair, alice_bits, matched, n, rng):
    """Click kinds and single-click bits for the honest channel of ``model``."""
    if isinstance(model, CoherentDecoy):
        # Poisson splitting: the detector of Alice's bit and the other one
        # fire independently. Their uniforms are the two rows of
        # rng.random((2, n)), drawn a row at a time into one buffer: a
        # (2, n) draw against (2, n) thresholds made a batch twice as slow.
        p_c, p_w, p_h = coherent_fire_probabilities(model.mu, model.eta, model.e_d)
        u = np.empty(n)
        correct = _fire(rng, u, matched, p_c, p_h)
        wrong = _fire(rng, u, matched, p_w, p_h)
        return correct + wrong, alice_bits ^ wrong
    # CoherentDecoyMemory: trials are conditioned on the trigger.
    eta = model.eta if isinstance(model, SinglePhoton) else model.eta_m
    u = rng.random(n)
    clicked = (u < eta).view(np.int8)
    flips = (u < eta * model.e_d).view(np.int8)
    return clicked, _select(matched, alice_bits ^ flips, _bit(fair, 4))


def _time_shift_hits(model, fair, alice_bits, matched, n, rng):
    # Channel transmittance forced to 1: all loss in the batch is Eve's.
    flips = (rng.random(n) < model.e_d).view(np.int8)
    dest = _select(matched, alice_bits ^ flips, _bit(fair, 4))
    # A single click exactly when the active detector is the destination's.
    return 1 ^ dest ^ _bit(fair, 5), dest


def _strong_pulse_hits(adversary, fair, alice_bits, alice_bases, bob_bases, n, rng):
    eve_bases, eve_rand, conj_bits = _bit(fair, 4), _bit(fair, 5), _bit(fair, 6)
    eve_bits = _select(1 ^ eve_bases ^ alice_bases, alice_bits, eve_rand)
    same_basis = 1 ^ bob_bases ^ eve_bases
    one_side = (rng.random(n) < math.ldexp(1.0, 1 - adversary.n_photons)).view(np.int8)
    return _DOUBLE - (same_basis | one_side), _select(same_basis, eve_bits, conj_bits)


def _simulate_shard(model, adversary, n, rng):
    """Per-pulse arrays for one shard; the RNG draw order is fixed.

    Each channel returns the pulse's int8 ``ClickKind`` code and the bit a
    single click carries; that bit is ignored for the other kinds.
    """
    fair = np.frombuffer(rng.bytes(n), dtype=np.int8)
    alice_bits, alice_bases, bob_bases = _bit(fair, 0), _bit(fair, 1), _bit(fair, 2)
    matched = 1 ^ alice_bases ^ bob_bases

    if adversary is None:
        kind, bit = _honest_hits(model, fair, alice_bits, matched, n, rng)
    elif isinstance(adversary, ExtremeTimeShift):
        kind, bit = _time_shift_hits(model, fair, alice_bits, matched, n, rng)
    elif isinstance(adversary, StrongPulse):
        kind, bit = _strong_pulse_hits(adversary, fair, alice_bits, alice_bases, bob_bases, n, rng)
    else:
        raise TypeError(f"unknown adversary strategy: {adversary!r}")

    single = (kind == _SINGLE).view(np.int8)
    return {
        "alice_bit": alice_bits,
        "alice_basis": alice_bases,
        "bob_basis": bob_bases,
        "kind": kind,
        "assigned_bit": _select(single, bit, _bit(fair, 3)),
        "matched": matched.view(bool),
    }


def _pulse_shards(model, adversary, n_pulses, seed) -> Iterator[dict]:
    """Check the inputs, then simulate and yield one shard at a time, in order.

    The one input check for every entry point. Shard i draws from a
    generator seeded by child i of ``SeedSequence(seed)``.
    """
    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be positive, got {n_pulses}")
    if not isinstance(model, (SinglePhoton, CoherentDecoy, CoherentDecoyMemory)):
        raise TypeError(f"unknown source model: {model!r}")
    n_shards = -(-n_pulses // SHARD_SIZE)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_shards)):
        shard_n = min(SHARD_SIZE, n_pulses - i * SHARD_SIZE)
        rng = np.random.default_rng(child)
        yield _simulate_shard(model, adversary, shard_n, rng)


def run_trials(
    model: SourceModel,
    adversary: AdversaryStrategy = None,
    n_pulses: int = 1_000_000,
    seed: int = 0,
) -> TrialBatch:
    """Simulate ``n_pulses`` pulses and return the sifted tallies.

    ``n_pulses`` counts generated pulses; the returned batch's ``n_pulses``
    is the basis-matched subset those tallies cover. Identical arguments
    produce a bit-identical batch.
    """
    # Sifted pulses and sifted errors, indexed by ClickKind code.
    n_kind = [0] * len(ClickKind)
    n_err = [0] * len(ClickKind)
    for a in _pulse_shards(model, adversary, n_pulses, seed):
        matched = a["matched"]
        matched_err = matched & (a["assigned_bit"] != a["alice_bit"])
        for k in ClickKind:
            is_k = a["kind"] == np.int8(k)
            n_kind[k] += int(np.count_nonzero(is_k & matched))
            n_err[k] += int(np.count_nonzero(is_k & matched_err))

    return TrialBatch(
        n_pulses=sum(n_kind),
        n_single=n_kind[ClickKind.SINGLE],
        n_single_errors=n_err[ClickKind.SINGLE],
        n_double=n_kind[ClickKind.DOUBLE],
        n_none=n_kind[ClickKind.NO_CLICK],
        seed=seed,
        scenario_tag=_scenario_tag(adversary),
        model_tag=model.tag,
        n_generated=n_pulses,
        n_double_errors=n_err[ClickKind.DOUBLE],
        n_none_errors=n_err[ClickKind.NO_CLICK],
    )


def trial_records(
    model: SourceModel,
    adversary: AdversaryStrategy = None,
    n_pulses: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Per-pulse records of the same pulse stream ``run_trials`` tallies.

    Returns a structured array with one int8 row per generated pulse,
    basis-mismatched ones included, and fields ``alice_bit``,
    ``alice_basis``, ``bob_basis`` (0 for Z, 1 for X), ``kind`` (a
    ``ClickKind`` code) and ``assigned_bit``. The assigned bit is the
    detector's for a single click and uniformly random otherwise.
    """
    shards = list(_pulse_shards(model, adversary, n_pulses, seed))
    records = np.empty(n_pulses, dtype=[(name, np.int8) for name in _RECORD_FIELDS])
    for name in _RECORD_FIELDS:
        records[name] = np.concatenate([a[name] for a in shards])
    return records


def empirical_stats(batch: TrialBatch) -> DetectionStats:
    """Empirical (Q_s, E_s) of a batch.

    ``q_s`` is 0 when no pulse survived sifting and ``e_s`` is 0 for a
    degenerate batch (no single clicks); check ``batch.is_degenerate``
    before trusting them.
    """
    q_s = batch.n_single / batch.n_pulses if batch.n_pulses else 0.0
    e_s = batch.n_single_errors / max(batch.n_single, 1)
    return DetectionStats(q_s=q_s, e_s=e_s)


@dataclass(frozen=True)
class ComparisonReport:
    """Empirical-vs-analytic agreement for an honest batch.

    z-scores are under binomial standard errors at the analytic values; the
    pass flags allow ``q_s_offset_budget`` of systematic offset on top of
    3 sigma. The budget is the probability of >= 2 detected photons — the
    part of the coherent model the closed form neglects — and zero for the
    single-photon and memory models.
    """

    q_s_z_score: float
    e_s_z_score: float
    rate_gap: float
    q_s_offset_budget: float
    q_s_pass: bool
    e_s_pass: bool

    @property
    def passed(self) -> bool:
        return self.q_s_pass and self.e_s_pass

    def to_dict(self) -> dict:
        return {
            "q_s_z_score": self.q_s_z_score,
            "e_s_z_score": self.e_s_z_score,
            "rate_gap": self.rate_gap,
            "q_s_offset_budget": self.q_s_offset_budget,
            "q_s_pass": self.q_s_pass,
            "e_s_pass": self.e_s_pass,
            "passed": self.passed,
        }


def _z_score(observed: float, expected: float, n: int) -> float:
    se = math.sqrt(expected * (1.0 - expected) / n) if n > 0 else 0.0
    if se == 0.0:
        if observed == expected:
            return 0.0
        return math.copysign(math.inf, observed - expected)
    return (observed - expected) / se


def _within(observed: float, expected: float, n: int, budget: float) -> bool:
    se = math.sqrt(expected * (1.0 - expected) / n) if n > 0 else 0.0
    return abs(observed - expected) <= budget + 3.0 * se


def compare_to_analytic(model: SourceModel, batch: TrialBatch) -> ComparisonReport:
    """Check a batch's (Q_s, E_s) and rate against the closed-form model.

    Only honest batches have an analytic prediction; adversarial batches are
    rejected. The rate gap compares the rate formula evaluated on empirical
    stats against the fully analytic rate.
    """
    if batch.scenario_tag != "honest":
        raise ValueError(
            f"no analytic prediction for scenario {batch.scenario_tag!r}; "
            "compare honest batches only"
        )

    q_s, p_1, y_1 = model_terms(model)
    emp = empirical_stats(batch)
    # The closed-form rate and the rate at the batch's (Q_s, E_s), in one
    # kernel call. Every single click of a single-photon source is a single
    # photon, so the batch's Q_s and E_s are also its Y1 and e_1; the other
    # sources keep the model's P1, Y1 and e_1 = e_d.
    single = isinstance(model, SinglePhoton)
    analytic_rate, empirical_rate = rate_terms(
        np.array([q_s, emp.q_s]), np.array([model.e_d, emp.e_s]), p_1,
        np.array([y_1, emp.q_s if single else y_1]),
        np.array([model.e_d, emp.e_s if single else model.e_d]),
    )[0].tolist()
    budget = 0.0
    if isinstance(model, CoherentDecoy):
        lam = model.eta * model.mu
        budget = q_s - lam * math.exp(-lam)

    q_z = _z_score(emp.q_s, q_s, batch.n_pulses)
    if batch.is_degenerate:
        e_z = math.nan
        e_pass = False
    else:
        e_z = _z_score(emp.e_s, model.e_d, batch.n_single)
        e_pass = _within(emp.e_s, model.e_d, batch.n_single, budget)
    return ComparisonReport(
        q_s_z_score=q_z,
        e_s_z_score=e_z,
        rate_gap=abs(empirical_rate - analytic_rate),
        q_s_offset_budget=budget,
        q_s_pass=_within(emp.q_s, q_s, batch.n_pulses, budget),
        e_s_pass=e_pass,
    )
