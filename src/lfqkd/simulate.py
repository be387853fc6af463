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

A batch of more than one shard runs its shards on a thread pool, created
at the first such batch and kept for the process: numpy releases the GIL in
its RNG fills and in ufuncs over large arrays. The pool is as wide as the
CPUs this process may run on, and no more shards are in flight than the
batch has; a one-shard batch, or any batch on a one-CPU host, runs inline
and creates no pool. Each worker reduces its shard to what the caller keeps
(the six sifted tallies for ``run_trials``) and results are taken in shard
order, so tallies and records do not depend on the pool's width or on
the order in which shards finish.

Each shard of n pulses makes two draws, in this order:

1. ``rng.bytes(n)``: one fair byte per pulse, read from the raw 64-bit
   outputs it consumes (``_fair_bytes``). Bit 0 is Alice's bit, bit 1
   Alice's basis, bit 2 Bob's basis and bit 3 the bit assigned to a
   no-click or double click. Bits 4-6 are the scenario's own fair bits:
   the single-click bit of a basis-mismatched pulse (honest single-photon
   and memory channels, and bit 4 of the time-shift attack, whose bit 5
   picks the active detector), or Eve's basis (4), Eve's bit for a
   mismatched guess (5) and the single-click bit of a basis Bob and Eve do
   not share (6) for the strong pulse. Bit 7 is unused.
2. Uniforms in [0, 1): ``rng.random((2, n))`` for the coherent channel,
   one row per detector (the detector of Alice's bit first), and
   ``rng.random(n)`` otherwise. They are drawn ``BLOCK`` at a time into
   one small buffer, row 0 in full before row 1; ``rng.random`` fills a
   block with the doubles one whole draw would put there, so the stream is
   that of the whole draw, without an n-element float array per shard.

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

import functools
import math
import os
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Union

import numpy as np

from .rates import (
    DetectionStats,
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

#: Uniforms per block draw. Not part of the stream: any block size gives the
#: same doubles. A quarter of a shard: each block costs calls that pass
#: through the GIL, and at 2**14 a pooled 10**6-pulse batch took about 10%
#: longer.
BLOCK = 1 << 16

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


def _bit(fair, k):
    """Bit ``k`` of each pulse's fair byte, as an int8 0/1 array."""
    return (fair >> k) & 1


def _select(mask, a, b):
    """``a`` where the int8 0/1 ``mask`` is 1, else ``b``.

    The arithmetic form of ``np.where``, which on a random mask costs about
    30 times as much per pulse.
    """
    return b ^ ((a ^ b) & mask)


def _fair_bytes(rng, n):
    """The bytes of ``rng.bytes(n)`` as an int8 array, from raw words.

    ``rng.bytes`` returns ceil(n/4) uint32 as little-endian bytes, which
    PCG64 makes from the low, then the kept high, half of each of ceil(n/8)
    raw outputs: read here in place. No uniform after them reads a kept half.
    """
    words = rng.bit_generator.random_raw(-(-n // 8))
    return words.astype("<u8", copy=False).view(np.int8)[:n]


def _below(rng, n, *thresholds):
    """Int8 flags ``u < p`` for each threshold ``p``, over the next ``n``
    uniforms of ``rng``: the flags of ``u = rng.random(n)``.

    The uniforms are drawn ``BLOCK`` at a time into one reused buffer, so
    a shard holds no n-element float array. At most one block is one draw.
    """
    if n <= BLOCK:
        u = rng.random(n)
        return [(u < p).view(np.int8) for p in thresholds]
    flags = [np.empty(n, dtype=np.int8) for _ in thresholds]
    u = np.empty(BLOCK)
    for start in range(0, n, BLOCK):
        block = u[: n - start]
        rng.random(out=block)
        for flag, p in zip(flags, thresholds):
            np.less(block, p, out=flag[start : start + len(block)].view(np.bool_))
    return flags


def _honest_hits(model, fair, alice_bits, matched, n, rng):
    """Click kinds and single-click bits for the honest channel of ``model``."""
    if model.tag == "coherent":
        # Poisson splitting: the detector of Alice's bit and the other one
        # fire independently, with chance p_c and p_w on a matched pulse and
        # p_h each on a mismatched one. Their uniforms are the two rows of
        # rng.random((2, n)).
        p_c, p_w, p_h = coherent_fire_probabilities(model.mu, model.eta, model.e_d)
        correct = _select(matched, *_below(rng, n, p_c, p_h))
        wrong = _select(matched, *_below(rng, n, p_w, p_h))
        return correct + wrong, alice_bits ^ wrong
    # Single photon, or the memory at eta = eta_m with trials conditioned on the trigger.
    clicked, flips = _below(rng, n, model.eta, model.eta * model.e_d)
    return clicked, _select(matched, alice_bits ^ flips, _bit(fair, 4))


def _time_shift_hits(model, fair, alice_bits, matched, n, rng):
    # Channel transmittance forced to 1: all loss in the batch is Eve's.
    (flips,) = _below(rng, n, model.e_d)
    dest = _select(matched, alice_bits ^ flips, _bit(fair, 4))
    # A single click exactly when the active detector is the destination's.
    return 1 ^ dest ^ _bit(fair, 5), dest


def _strong_pulse_hits(adversary, fair, alice_bits, alice_bases, bob_bases, n, rng):
    eve_bases, eve_rand, conj_bits = _bit(fair, 4), _bit(fair, 5), _bit(fair, 6)
    eve_bits = _select(1 ^ eve_bases ^ alice_bases, alice_bits, eve_rand)
    same_basis = 1 ^ bob_bases ^ eve_bases
    (one_side,) = _below(rng, n, math.ldexp(1.0, 1 - adversary.n_photons))
    return _DOUBLE - (same_basis | one_side), _select(same_basis, eve_bits, conj_bits)


def _simulate_shard(model, adversary, n, rng):
    """Per-pulse arrays for one shard; the RNG draw order is fixed.

    Each channel returns the pulse's int8 ``ClickKind`` code and the bit a
    single click carries; that bit is ignored for the other kinds.
    """
    fair = _fair_bytes(rng, n)
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


@functools.cache
def _cpu_count() -> int:
    """CPUs this process may run on: the width of the shard pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _executor(pid: int):
    """The shard pool of process ``pid``, made at its first batch of more
    than one shard.

    Its threads start only as shards need them, so a pool of ``_cpu_count``
    threads never runs more than the shards a batch puts in flight. A forked
    child inherits the pool but not its threads, so it makes a pool of its own.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=_cpu_count(), thread_name_prefix="lfqkd-shard")


def _shard_specs(n_pulses: int, seed: int) -> Iterator[tuple]:
    """(pulse count, seed sequence) of each shard, in order, made as asked for.

    Shard i's seed is child i of ``SeedSequence(seed)`` as ``spawn`` makes
    it, ``SeedSequence(seed, spawn_key=(i,))``: the root's entropy is ``seed``.
    No other child is built, so a huge n_pulses is a long run, not a memory spike.
    """
    for i in range(-(-n_pulses // SHARD_SIZE)):
        n = min(SHARD_SIZE, n_pulses - i * SHARD_SIZE)
        yield n, np.random.SeedSequence(seed, spawn_key=(i,))


def _pooled(work, items, width: int) -> Iterator:
    """``map(work, items)`` on the shard pool, with at most ``width + 1``
    items taken ahead of the result being yielded."""
    pool, pending = _executor(os.getpid()), deque()
    try:
        for item in items:
            pending.append(pool.submit(work, item))
            if len(pending) > width:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _pulse_shards(model, adversary, n_pulses, seed, reduce) -> Iterator:
    """Check the inputs, then simulate each shard and give ``reduce`` of its
    arrays, one shard at a time, in shard order.

    The one input check for every entry point. A batch of more than one
    shard runs on the shard pool, where ``reduce`` runs too, so a shard's
    arrays are freed as soon as it is reduced.
    """
    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be positive, got {n_pulses}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not isinstance(model, SourceModel):
        raise TypeError(f"unknown source model: {model!r}")

    def shard(spec):
        n, seed_seq = spec
        return reduce(_simulate_shard(model, adversary, n, np.random.default_rng(seed_seq)))

    width = min(_cpu_count(), -(-n_pulses // SHARD_SIZE))
    specs = _shard_specs(n_pulses, seed)
    return map(shard, specs) if width == 1 else _pooled(shard, specs, width)


def _tally(a: dict) -> np.ndarray:
    """Sifted pulses and sifted errors of one shard, as a (2, 3) array
    indexed by [error, ClickKind code]."""
    matched = a["matched"].view(np.int8)
    # Bits 0 and 1 of the sifted kind flag single and double clicks. Masks are
    # made in place: fresh 2**18-byte arrays doubled a batch's page faults.
    double = a["kind"] * matched
    single, err = double & 1, a["assigned_bit"] ^ a["alice_bit"]
    double >>= 1
    err &= matched
    n, n_1, n_2, e = map(np.count_nonzero, (matched, single, double, err))
    e_1, e_2 = (np.count_nonzero(np.bitwise_and(x, err, out=x)) for x in (single, double))
    return np.array([[n - n_1 - n_2, n_1, n_2], [e - e_1 - e_2, e_1, e_2]])


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
    n_kind, n_err = sum(_pulse_shards(model, adversary, n_pulses, seed, _tally)).tolist()
    return TrialBatch(
        n_pulses=sum(n_kind),
        n_single=n_kind[ClickKind.SINGLE],
        n_single_errors=n_err[ClickKind.SINGLE],
        n_double=n_kind[ClickKind.DOUBLE],
        n_none=n_kind[ClickKind.NO_CLICK],
        seed=seed,
        scenario_tag="honest" if adversary is None else adversary.tag,
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
    shards = list(_pulse_shards(model, adversary, n_pulses, seed, lambda a: a))
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
        # vars() holds the fields in declaration order; asdict() would
        # deep-copy them at about 12x the cost on every compare call.
        return {**vars(self), "passed": self.passed}


def _binomial_se(p: float, n: int) -> float:
    """Standard error of a binomial proportion ``p`` over ``n`` trials, 0 when n = 0."""
    return math.sqrt(p * (1.0 - p) / n) if n > 0 else 0.0


def _z_score(observed: float, expected: float, n: int) -> float:
    se = _binomial_se(expected, n)
    if se == 0.0:
        if observed == expected:
            return 0.0
        return math.copysign(math.inf, observed - expected)
    return (observed - expected) / se


def _within(observed: float, expected: float, n: int, budget: float) -> bool:
    return abs(observed - expected) <= budget + 3.0 * _binomial_se(expected, n)


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
    single = model.tag == "single-photon"
    analytic_rate, empirical_rate = rate_terms(
        np.array([q_s, emp.q_s]), np.array([model.e_d, emp.e_s]), p_1,
        np.array([y_1, emp.q_s if single else y_1]),
        np.array([model.e_d, emp.e_s if single else model.e_d]),
    )[0].tolist()
    lam = model.eta * model.mu  # read for the coherent source only
    budget = q_s - lam * math.exp(-lam) if model.tag == "coherent" else 0.0

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
