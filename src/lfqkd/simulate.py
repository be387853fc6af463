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
bitwise code over one shard of pulses: ``run_trials`` tallies the shard's
bit planes and ``trial_records`` unpacks them into one structured array.
Tallies are taken over basis-matched (sifted) pulses; Q_s and E_s estimate
the analytic channel model of the matching source.

Determinism: a batch is a pure function of (model, adversary, n_pulses,
seed). Pulses are generated in fixed-size shards of ``SHARD_SIZE``; shard i
uses a dedicated generator seeded from child i of
``numpy.random.SeedSequence(seed)``. Shards are independent, and tallies
merge by addition, so the result does not depend on how shard execution is
scheduled.

A batch of more than one shard runs its shards on a thread pool, created
at the first such batch and kept for the process: numpy releases the GIL in
its RNG fills and in ufuncs over large arrays. The pool is as wide as the
CPUs this process may run on, one worker on a one-CPU host, and no more
shards are in flight than the batch has. Only a one-shard batch runs
inline, and it creates no pool. Each worker reduces its shard to what the
caller keeps (the six sifted tallies for ``run_trials``) and results are
taken in shard order, so tallies and records do not depend on the pool's
width or on the order in which shards finish.

Each shard of n pulses makes two draws, in this order, and leaves its
generator ceil(n/8) raw 64-bit outputs and n doubles on, or ceil(n/2)
raw outputs in place of the doubles for the coherent channel:

1. ``rng.bytes(n)``: one fair byte per pulse, read from the raw 64-bit
   outputs it consumes (``_fair_planes``). Bit 0 is Alice's bit, bit 1
   Alice's basis, bit 2 Bob's basis and bit 3 the bit assigned to a
   no-click or double click. Bits 4-6 are the scenario's own fair bits:
   the single-click bit of a basis-mismatched pulse (honest single-photon
   and memory channels, and bit 4 of the time-shift attack, whose bit 5
   picks the active detector), or Eve's basis (4), Eve's bit for a
   mismatched guess (5) and the single-click bit of a basis Bob and Eve do
   not share (6) for the strong pulse. Bit 7 is unused.
2. Uniforms in [0, 1), one per pulse, for every channel; each threshold
   of the draw flags the pulses whose uniform lies below it. They are
   drawn ``BLOCK`` at a time, so the stream is that of one whole draw
   without an n-element array per shard: the doubles of ``rng.random(n)``,
   or for the coherent channel 32-bit uniforms, halves of raw outputs, low
   half first, compared with the cuts round(p * 2**32). A draw whose every
   threshold is at most 0 or at least 1 (every cut 0 or 2**32; the
   time-shift attack at e_d = 0, say) flags no pulse or every pulse
   whatever u is: it is not made, and the stream is advanced past its slot
   instead. In any other draw such a threshold's row is not compared. A
   draw of one threshold p in (0, ``RARE``) (the strong pulse of 6 or more
   photons, the time-shift flip at 0 < e_d < 1/16) reads geometric gaps
   between its flags from the first of its n doubles, about n*p + 1 of
   them, and the stream is advanced to the end of its n (``_gaps``). Each
   pulse is still flagged with chance p.

Every per-pulse quantity is a bit plane: a uint64 array with pulse
64*w + j in bit j of word w; no count reads the padding bits. Plane k of
the fair bytes holds bit k of each, and each flag ``u < p`` is a plane;
both are packed ``BLOCK`` pulses at a time by ``np.packbits(...,
bitorder="little")``, while a gap draw sets its few flags one by one. The
rules are bitwise operations on planes. The click kind is a stack of
planes, single then double clicks (``correct ^ wrong`` and ``correct &
wrong`` for the coherent channel, ``same_basis | one_side`` and its
complement for the strong pulse), or single clicks alone where no double
click can happen. The tally clears the padding bits of the
sifted plane and popcounts all its masks in one call.

The coherent channel uses the per-detector fire probabilities of
``rates.coherent_fire_probabilities``: the detector of Alice's bit and the
other one fire independently, with chances c and w (p_c and p_w on a
matched pulse, p_h each on a mismatched one). So a pulse has one of four
joint outcomes, and its 32-bit uniform u picks one from [0, 1) cut as [no
click | correct only | both | wrong only] at t0 = (1-c)(1-w), t1 = 1 - w
and t2 = t0 + c (``_cuts``), each rounded to a multiple of 2**-32, so each
outcome's chance is within 2**-32 of exact: the detector of Alice's bit
fires where t0 <= u < t2, the other one where u >= t1. A ``trial_records``
draw has six thresholds, three per basis class, and ``matched`` selects
the three of each pulse; a ``run_trials`` draw, whose tally reads matched
pulses alone, compares the same uniforms with the matched three only. At
e_d = 0, w = 0 and t1 = 1, so no matched pulse fires the wrong detector;
where p_c rounds to 1, t0 = 0 and t2 = 1, so every matched pulse fires the
correct one. A single-photon or memory pulse clicks when its uniform
u < eta (eta_m) and is flipped when u < eta*e_d, so a click is flipped
with probability e_d; under the time-shift attack the transmittance is 1
and a pulse is flipped with chance e_d, and the strong pulse reaches one
detector with chance 2**(1 - n): at the flags of a gap draw when that
chance is below ``RARE``, else where its uniform u falls below it.

Two adversaries are modeled. The extreme time-shift attack makes one
uniformly chosen detector fully active and the other inactive (Bob-side
transmittance 1 for the active one, 0 for the other; the channel is treated
as lossless so the 50% loss is Eve's). The strong-pulse attack measures
Alice's state in a uniform basis and resends ``n_photons`` copies of the
result without loss: a matching Bob basis reproduces Eve's bit, a
conjugate basis double-clicks except with probability 2**(1 - n_photons).
Each pins the sifted Q_s at 1/2 (1/2 + 2**-n_photons for the strong pulse),
where the scheme's rate is at most 0; ``traditional_stats`` gives the click
rate and error rate that discarding no-clicks would keep instead.
"""

from __future__ import annotations

import functools
import math
import operator
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
#: same doubles, and any even one the same 32-bit uniforms. A quarter of a
#: shard: each block costs calls that pass through the GIL, and at 2**14 a
#: pooled 10**6-pulse batch took about 10% longer.
BLOCK = 1 << 16

#: A draw of one flag chance p in (0, RARE) is made by geometric gaps
#: (``_gaps``), in time about proportional to n*p, not to n. Part of the
#: stream. Below the measured crossover: per 2^18-pulse draw on a 2-vCPU
#: x86 host (numpy 2.4.6), gaps took 560 us at p = 1/16, 885 us at 1/10
#: and 1,558 us at 1/8, the uniform draw 1,140-1,280 us at each.
RARE = 1 / 16

DEFAULT_STRONG_PULSE_PHOTONS = 20


class ClickKind(IntEnum):
    """Detector outcome of one pulse; the code is the number of detectors fired."""

    NO_CLICK = 0
    SINGLE = 1
    DOUBLE = 2


#: Bit k of a fair byte in row k, for the seven bits the rules read.
_FAIR_BITS = np.array([[1 << k] for k in range(7)], np.uint8)

#: Fields of a ``trial_records`` row.
_RECORD_FIELDS = ("alice_bit", "alice_basis", "bob_basis", "kind", "assigned_bit")


def _check_integer(name: str, value) -> None:
    """Raise TypeError unless ``value`` is an integer, and not a bool."""
    try:
        operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
        _check_integer("n_photons", self.n_photons)
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
        """Summary dict in the pinned schema. Its ``rate`` is the single-click
        formula on the batch's (Q_s, E_s) for every source, while the
        ``rate_gap`` of ``compare_to_analytic`` uses the source's own formula:
        a coherent batch at mu 0.5, eta 0.8, e_d 0.02, seed 1 and 10^6 pulses
        has ``rate`` -0.040 (-0.0399), its source +0.051."""
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


def _select(mask, a, b):
    """``a`` where the bit of ``mask`` is 1, else ``b``, bitwise over planes,
    written over ``a``.

    The arithmetic form of ``np.where``, which on a random mask costs about
    30 times as much per pulse.
    """
    a ^= b
    a &= mask
    a ^= b
    return a


def _packed(n, rows, block_bits):
    """``rows`` planes over ``n`` pulses, packed ``BLOCK`` pulses at a time
    from ``block_bits(start, stop)``, their (rows, pulses) array; nonzero is
    a 1 bit. The padding bits are left as they come."""
    planes = np.empty((rows, 8 * -(-n // 64)), np.uint8)
    for start in range(0, n, BLOCK):
        packed = np.packbits(block_bits(start, min(n, start + BLOCK)), axis=1, bitorder="little")
        planes[:, start // 8 : start // 8 + packed.shape[1]] = packed
    return planes.view(np.uint64)


def _fair_planes(rng, n):
    """Plane k of the bytes of ``rng.bytes(n)``: bit k of every pulse's byte.

    ``rng.bytes`` returns ceil(n/4) uint32 as little-endian bytes, which
    PCG64 makes from the low, then the kept high, half of each of ceil(n/8)
    raw outputs: read here in place. No uniform after them reads a kept half.
    """
    words = rng.bit_generator.random_raw(-(-n // 8))
    fair = words.astype("<u8", copy=False).view(np.uint8)
    return _packed(n, len(_FAIR_BITS), lambda start, stop: fair[start:stop] & _FAIR_BITS)


def _gaps(rng, n, p):
    """A flag plane over ``n`` pulses, each pulse flagged with chance
    ``0 < p < 1``, from geometric gaps.

    Each double u of the slot gives the unflagged pulses before the next
    flag, ``floor(log1p(-u) / log1p(-p))``; the gaps are read in order from
    the first doubles until one passes the slot's end, and never more than
    n are read, since n gaps end at pulse n - 1 or later. A gap of inf (a
    subnormal p) is past the end. The doubles are drawn a chunk at a time,
    a chunk all but always enough, and the stream is then advanced to the
    end of the slot.
    """
    plane = np.zeros(-(-n // 64), np.uint64)
    scale, mean = np.log1p(-p), n * p
    chunk = int(mean + 8.0 * math.sqrt(mean)) + 16
    drawn, last = 0, -1.0
    with np.errstate(over="ignore"):
        while drawn < n:
            m = min(chunk, n - drawn)
            at = np.cumsum(np.floor(np.log1p(-rng.random(m)) / scale) + 1.0)
            at += last
            drawn += m
            k = int(np.searchsorted(at, n))
            flagged = at[:k].astype(np.uint64)
            np.bitwise_or.at(plane, flagged >> 6, np.uint64(1) << (flagged & 63))
            if k < m:
                break
            last = at[-1]
    rng.bit_generator.advance(n - drawn)
    return plane[None]


def _below(rng, n, *thresholds, u32=False):
    """Flag planes ``u < p``, one row per threshold ``p``, over the next
    ``n`` uniforms of ``rng``: the flags of ``u = rng.random(n)``, unless
    the draw has one threshold in (0, ``RARE``) or is ``u32``.

    The uniforms are drawn ``BLOCK`` at a time, and each row's flags are
    compared into one reused ``BLOCK`` of bools and packed in turn, so a
    shard holds no n-element uniform array and no (rows, ``BLOCK``) flag
    array. At most one block is one draw. Every u lies in [0, 1), so a
    p <= 0 flags no pulse and a p >= 1 every pulse: its row is a constant
    plane, not compared, and when no p lies strictly inside (0, 1) nothing
    is drawn. A draw of one p below ``RARE`` flags its pulses by ``_gaps``
    instead: the same chance per pulse, from the first of its doubles. The
    stream is advanced past the n doubles, one raw 64-bit output each, so a
    later draw reads the doubles it would.

    A ``u32`` draw reads 32-bit uniforms, pulse j from half j mod 2 (low
    half first) of raw output j // 2, against the cuts round(p * 2**32) in
    [0, 2**32], a row of cut 0 or 2**32 constant: a cut is an integer, so
    no draw of cuts goes to ``_gaps``.
    """
    top, slot = (1 << 32, -(-n // 2)) if u32 else (1.0, n)
    if u32:
        thresholds = [round(math.ldexp(t, 32)) for t in thresholds]
    if len(thresholds) == 1 and 0 < thresholds[0] < RARE:
        return _gaps(rng, n, thresholds[0])
    planes, live = np.empty((len(thresholds), 8 * -(-n // 64)), np.uint8), []
    for plane, t in zip(planes, thresholds):
        if 0 < t < top:
            live.append((plane, t))
        else:
            plane.fill(255 if t >= top else 0)
    if not live:
        rng.bit_generator.advance(slot)
        return planes.view(np.uint64)
    u, flags = None if u32 else np.empty(min(n, BLOCK)), np.empty(min(n, BLOCK), bool)
    for start in range(0, n, BLOCK):
        m = min(BLOCK, n - start)
        if u32:
            raw = rng.bit_generator.random_raw(-(-m // 2))
            block = raw.astype("<u8", copy=False).view("<u4")[:m]
        else:
            block = rng.random(out=u[:m])
        for plane, p in live:
            packed = np.packbits(np.less(block, p, out=flags[: len(block)]), bitorder="little")
            plane[start // 8 : start // 8 + len(packed)] = packed
    return planes.view(np.uint64)


def _cuts(c, w):
    """Cut points of [0, 1) into [no click | c only | both | w only] for two
    detectors that fire independently with chances ``c`` and ``w``: the
    parts have lengths (1-c)(1-w), c(1-w), cw and (1-c)w."""
    no_click = (1.0 - c) * (1.0 - w)
    return no_click, 1.0 - w, no_click + c


def _honest_hits(model, fair, matched, n, rng, sifted=False):
    """Click-kind planes and single-click bits for the honest channel of
    ``model``; only those of matched pulses hold when ``sifted``."""
    if model.tag == "coherent":
        # Poisson splitting: the detector of Alice's bit and the other one
        # fire independently, with chance p_c and p_w on a matched pulse and
        # p_h each on a mismatched one. One 32-bit uniform per pulse picks
        # the joint outcome: the detector of Alice's bit fires between the
        # first and the third cut, the other one from the second cut on. A
        # sifted draw compares the same uniforms with the matched cuts alone.
        p_c, p_w, p_h = coherent_fire_probabilities(model.mu, model.eta, model.e_d)
        cuts = _cuts(p_c, p_w) + (() if sifted else _cuts(p_h, p_h))
        flags = _below(rng, n, *cuts, u32=True).reshape(-1, 3, len(matched))
        no_click, wrong_silent, not_wrong_only = flags[0] if sifted else _select(matched, *flags)
        correct = not_wrong_only & ~no_click
        wrong = ~wrong_silent
        return np.stack((correct ^ wrong, correct & wrong)), wrong ^ fair[0]
    # Single photon, or the memory at eta = eta_m with trials conditioned on the trigger.
    clicked, flips = flags = _below(rng, n, model.eta, model.eta * model.e_d)
    return flags[:1], _select(matched, flips ^ fair[0], fair[4])


def _time_shift_hits(model, fair, matched, n, rng):
    # Channel transmittance forced to 1: all loss in the batch is Eve's.
    (flips,) = _below(rng, n, model.e_d)
    dest = _select(matched, flips ^ fair[0], fair[4])
    # A single click exactly when the active detector is the destination's.
    return ~(dest ^ fair[5])[None], dest


def _strong_pulse_hits(adversary, fair, n, rng):
    alice_bits, alice_bases, bob_bases, _, eve_bases, eve_rand, conj_bits = fair
    # Nothing reads fair bit 5 after Eve's bit is written over it.
    eve_bits = _select(eve_bases ^ alice_bases, eve_rand, alice_bits)
    same_basis = ~(bob_bases ^ eve_bases)
    (single,) = _below(rng, n, math.ldexp(1.0, 1 - adversary.n_photons))
    single |= same_basis
    return np.stack((single, ~single)), _select(same_basis, eve_bits, conj_bits)


def _simulate_shard(model, adversary, n, rng, sifted=False):
    """Per-pulse planes for one shard; the RNG draw order is fixed.

    Each channel returns its stack of click-kind planes and the bit a
    single click carries; that bit is ignored for the other kinds. When
    ``sifted``, those of a mismatched pulse may be left unset.
    """
    fair = _fair_planes(rng, n)
    matched = ~(fair[1] ^ fair[2])

    if adversary is None:
        kind, bit = _honest_hits(model, fair, matched, n, rng, sifted)
    elif isinstance(adversary, ExtremeTimeShift):
        kind, bit = _time_shift_hits(model, fair, matched, n, rng)
    else:
        kind, bit = _strong_pulse_hits(adversary, fair, n, rng)

    return {
        "n": n,
        "alice_bit": fair[0],
        "alice_basis": fair[1],
        "bob_basis": fair[2],
        "kind": kind,
        "assigned_bit": _select(kind[0], bit, fair[3]),
        "matched": matched,
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


def _pulse_shards(model, adversary, n_pulses, seed, reduce, sifted=False) -> Iterator:
    """Check the inputs, then simulate each shard and give ``reduce`` of its
    arrays, one shard at a time, in shard order; ``sifted`` for a ``reduce``
    that reads matched pulses alone.

    The one input check for every entry point, made before any shard runs.
    A batch of more than one shard runs on the shard pool, where ``reduce``
    runs too, so a shard's arrays are freed as soon as it is reduced.
    """
    _check_integer("n_pulses", n_pulses)
    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be positive, got {n_pulses}")
    _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not isinstance(model, SourceModel):
        raise TypeError(f"unknown source model: {model!r}")
    if not (adversary is None or isinstance(adversary, (ExtremeTimeShift, StrongPulse))):
        raise TypeError(f"unknown adversary strategy: {adversary!r}")

    def shard(spec):
        n, seed_seq = spec
        return reduce(_simulate_shard(model, adversary, n, np.random.default_rng(seed_seq), sifted))

    n_shards, specs = -(-n_pulses // SHARD_SIZE), _shard_specs(n_pulses, seed)
    width = min(_cpu_count(), n_shards)
    return map(shard, specs) if n_shards == 1 else _pooled(shard, specs, width)


def _tally(a: dict) -> np.ndarray:
    """Sifted pulses and sifted errors of one shard, as a (2, 3) array
    indexed by [error, ClickKind code]."""
    kinds, words = a["kind"].shape
    # Row pairs, each a mask and its errors: sifted pulses, then each kind.
    masks = np.empty((1 + kinds, 2, words), np.uint64)
    sifted, err = masks[0]
    np.copyto(sifted, a["matched"])
    sifted[-1] &= 2**64 - 1 >> -a["n"] % 64  # the padding bits are no pulses
    np.bitwise_xor(a["assigned_bit"], a["alice_bit"], out=err)
    err &= sifted
    np.bitwise_and(a["kind"], sifted, out=masks[1:, 0])
    np.bitwise_and(masks[1:, 0], err, out=masks[1:, 1])
    (n, e), *by_kind = np.bitwise_count(masks).sum(axis=2).tolist()
    (n_1, e_1), (n_2, e_2) = [*by_kind, (0, 0)][:2]
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
    n_kind, n_err = sum(_pulse_shards(model, adversary, n_pulses, seed, _tally, True)).tolist()
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
    shards = _pulse_shards(model, adversary, n_pulses, seed, lambda a: a)
    records = np.empty(n_pulses, dtype=[(name, np.int8) for name in _RECORD_FIELDS])
    for i, a in enumerate(shards):
        rows = records[i * SHARD_SIZE : i * SHARD_SIZE + a["n"]]
        for name in _RECORD_FIELDS:  # a plane, or the kind planes: single + 2 * double
            planes = np.atleast_2d(a[name]).view(np.uint8)
            bits = np.unpackbits(planes, axis=1, count=len(rows), bitorder="little")
            rows[name] = bits[0] if len(bits) == 1 else bits[0] + 2 * bits[1]
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


def traditional_stats(batch: TrialBatch) -> tuple[float, float]:
    """(Q_c, E_c) of traditional post-processing, which discards no-clicks
    and keeps single and double clicks: the fraction of sifted pulses that
    click and their error rate. ``rate_terms(q_c, e_c, q_c, 1)`` is the rate
    it would claim, fair sampling being the case Y1 = 1 on the kept pulses.
    """
    clicks = batch.n_single + batch.n_double
    q_c = clicks / batch.n_pulses if batch.n_pulses else 0.0
    return q_c, (batch.n_single_errors + batch.n_double_errors) / max(clicks, 1)


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

    Only an honest batch of ``model``'s own source (``batch.model_tag ==
    model.tag``) has an analytic prediction; other batches are rejected
    with ValueError. The rate gap compares the source's own rate formula
    on the batch's stats against the fully analytic rate.
    """
    if batch.scenario_tag != "honest":
        raise ValueError(
            f"no analytic prediction for scenario {batch.scenario_tag!r}; "
            "compare honest batches only"
        )

    q_s, p_1, y_1 = model_terms(model)
    if batch.model_tag != model.tag:
        raise ValueError(f"a batch of source {batch.model_tag!r} compared to model {model.tag!r}")
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
