"""Tests for the Monte Carlo detection simulator."""

import functools
import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lfqkd import simulate
from lfqkd.rates import (
    CoherentDecoy,
    CoherentDecoyMemory,
    DetectionStats,
    SinglePhoton,
    coherent_fire_probabilities,
    key_rate,
    key_rate_single_click,
)
from lfqkd.simulate import (
    BLOCK,
    RARE,
    ClickKind,
    ExtremeTimeShift,
    SHARD_SIZE,
    StrongPulse,
    TrialBatch,
    _below,
    _cpu_count,
    _fair_planes,
    _pulse_shards,
    _shard_specs,
    _simulate_shard,
    _tally,
    compare_to_analytic,
    empirical_stats,
    run_trials,
    traditional_stats,
    trial_records,
)
import reference
from reference import binomial_upper_bound

SP_MODEL = SinglePhoton(eta=0.7, e_d=0.03)
COH_MODEL = CoherentDecoy(mu=0.5, eta=0.8, e_d=0.02)
MEM_MODEL = CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=0.75, e_d=0.01)
PERFECT = SinglePhoton(eta=1.0, e_d=0.0)

#: Three honest sources and the two attacks.
SCENARIOS = [
    (SP_MODEL, None),
    (COH_MODEL, None),
    (MEM_MODEL, None),
    (SP_MODEL, ExtremeTimeShift()),
    (SP_MODEL, StrongPulse(20)),
]

#: The strong pulse at 6 and 4 photons, whose one-threshold flag draws
#: flag thousands of pulses: p = 2^-5 by geometric gaps, p = 1/8 by one
#: uniform per pulse (``RARE`` is 1/16).
FLAGGING_STRONG_PULSES = [(PERFECT, StrongPulse(6)), (PERFECT, StrongPulse(4))]

#: sha256 of ``trial_records(model, adversary, 300_001, seed=2026).tobytes()``
#: for each of SCENARIOS + FLAGGING_STRONG_PULSES, in order: two shards, the
#: last word holding one pulse. The first five were recorded from the int8
#: kernel the bit planes replaced. The time-shift entry was re-recorded when
#: a one-threshold draw below ``RARE`` moved to geometric gaps, its flips at
#: e_d 0.03 among them; the 20-photon strong pulse's kept its bytes, as
#: neither stream flags any of its 300,001 pulses. So only the last two pins
#: see the strong pulse's flag draw, one through each of its branches. The
#: coherent entry was re-recorded when the coherent channel moved from two
#: uniforms per pulse to one, cut into its four joint outcomes.
TRIAL_RECORDS_SHA256 = {
    "single-photon": "cf25260a7dcfdfa756758740da77c59af541574b1e5dc665977cb90944a5dab6",
    "coherent": "d7df986b73f38192e044527b0101e25af0f0892e638ad309686e6b6afeb764c9",
    "coherent-memory": "e0bfd0fa3459528e9536b3e3e879863f5ad84c3c28d743ab5743b70a8b87c561",
    "time-shift": "fbcf3b2be958c0d4f20f1b6b65e5deb943177fdbada4b2af3ae8072cb5342796",
    "strong-pulse": "286cafec81bebed62c4c45b75c0a01f9f90e1af06ea5b84db1676d8f5d4acb07",
    "strong-pulse-6": "a4b0b8ec077a96b94a93fa03b9d0cb86a43204c8c3f2716cbe98234ac0957039",
    "strong-pulse-4": "cbd4299101d0a86195c4fc8a58d9812fbdaf7d576e8f3141da34bf9693f4c43b",
}

#: Plane fields of a shard other than its click kind.
PLANE_FIELDS = ("alice_bit", "alice_basis", "bob_basis", "assigned_bit", "matched")


def unpack(plane, n):
    """The first ``n`` bits of a plane, pulse order, as int8 0/1."""
    return np.unpackbits(plane.view(np.uint8), count=n, bitorder="little").view(np.int8)


def pack(bits):
    """A 0/1 array as a plane: bit j of word w is element 64*w + j."""
    packed = np.packbits(bits.astype(bool), bitorder="little")
    return np.pad(packed, (0, -len(packed) % 8)).view(np.uint64)


def unpacked_shard(a):
    """A shard's planes as the int8 arrays of the kernel they replaced."""
    n = a["n"]
    arrays = {name: unpack(a[name], n) for name in PLANE_FIELDS}
    single, *double = a["kind"]
    arrays["kind"] = unpack(single, n) + 2 * (unpack(double[0], n) if double else 0)
    arrays["matched"] = arrays["matched"].view(bool)
    return arrays


def poisson_click_classes(lam, e_d, k_max=80):
    """Exact click-class probabilities by truncated Poisson enumeration.

    Matched bases: k detected photons produce a single click when all route
    to one detector, with per-photon wrong-routing probability e_d.
    """
    p_none = math.exp(-lam)
    p_correct = 0.0
    p_wrong = 0.0
    for k in range(1, k_max):
        p_k = math.exp(-lam) * lam**k / math.factorial(k)
        p_correct += p_k * (1.0 - e_d) ** k
        p_wrong += p_k * e_d**k
    p_single = p_correct + p_wrong
    p_double = 1.0 - p_none - p_single
    e_s = p_wrong / p_single
    return p_none, p_single, p_double, e_s


def mismatched_click_classes(lam):
    """Click-class probabilities of a basis-mismatched coherent pulse: each
    detector fires independently, with probability 1 - exp(-lam/2)."""
    q = math.exp(-lam / 2.0)
    return q * q, 2.0 * q * (1.0 - q), (1.0 - q) ** 2


def within_5sigma(observed, p, n):
    """|observed - p| within 5 binomial sigma, the variance floored at one
    count's: for a tiny p a count of 1 or 2 is far outside the normal tail."""
    return abs(observed - p) <= 5.0 * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def binomial_3sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


#: Closed-form (Q_s, E_s) of the two attacks on a lossless, errorless line:
#: the strong pulse's 20-photon replacement reaches one detector with
#: probability 2**-19 on a conjugate basis, half the time the wrong one.
TIME_SHIFT_EXACT = (0.5, 0.0)
STRONG_PULSE_EXACT = (0.5 + 2.0**-20, 2.0**-21 / (0.5 + 2.0**-20))


def nullified_rate_bound(q_exact, e_exact, n):
    """Single-click rate at Q_s = q_exact + 3 sigma, with E_s at ``e_exact``.

    A nullifying attack's rate is <= 0 at its closed-form (Q_s, E_s), but a
    finite batch leaves Q_s above it about half the time, and there the
    empirical rate is a hair above 0. The rate grows with Q_s, so a batch
    whose Q_s is within 3 sigma, as the tests check, stays at or below this.
    """
    q_s = q_exact + binomial_3sigma(q_exact, n)
    return key_rate_single_click(DetectionStats(q_s=q_s, e_s=e_exact)).rate


class TestDeterminism:
    def test_bit_identical_batches(self):
        a = run_trials(SP_MODEL, None, 100_000, seed=42)
        b = run_trials(SP_MODEL, None, 100_000, seed=42)
        assert a == b

    def test_seed_changes_output(self):
        a = run_trials(SP_MODEL, None, 100_000, seed=1)
        b = run_trials(SP_MODEL, None, 100_000, seed=2)
        assert a != b

    def test_adversary_batches_deterministic(self):
        a = run_trials(SP_MODEL, StrongPulse(), 50_000, seed=5)
        b = run_trials(SP_MODEL, StrongPulse(), 50_000, seed=5)
        assert a == b

    def test_first_shard_of_a_huge_run_comes_at_once(self):
        # Shard seeds are derived one at a time, not all before the first shard.
        first = next(_pulse_shards(SP_MODEL, None, 10**20, 0, lambda a: a))
        same = next(_pulse_shards(SP_MODEL, None, 2 * SHARD_SIZE, 0, lambda a: a))
        assert first.keys() == same.keys()
        assert all(np.array_equal(first[k], same[k]) for k in first)


class TestShardSchedule:
    """Shards run on a pool; what a batch holds must not depend on it."""

    @settings(max_examples=8, deadline=None)
    @given(
        scenario=st.sampled_from(SCENARIOS),
        n_pulses=st.integers(SHARD_SIZE - 1, 3 * SHARD_SIZE + 17),
        seed=st.integers(0, 2**64 - 1),
        order=st.randoms(use_true_random=False),
    )
    def test_batch_is_the_sum_of_shard_tallies_in_any_order(
        self, scenario, n_pulses, seed, order
    ):
        model, adversary = scenario
        specs = list(_shard_specs(n_pulses, seed))
        order.shuffle(specs)
        counts = sum(
            _tally(_simulate_shard(model, adversary, n, np.random.default_rng(seed_seq)))
            for n, seed_seq in specs
        )
        (none, single, double), (none_err, single_err, double_err) = counts.tolist()
        batch = run_trials(model, adversary, n_pulses, seed=seed)
        assert (
            batch.n_pulses, batch.n_none, batch.n_single, batch.n_double,
            batch.n_none_errors, batch.n_single_errors, batch.n_double_errors,
        ) == (none + single + double, none, single, double, none_err, single_err, double_err)

    def test_scheduler_takes_few_shards_ahead(self, monkeypatch):
        # A pool that took every shard at once would never start a huge run.
        drawn = []

        def counted_specs(n_pulses, seed):
            for spec in _shard_specs(n_pulses, seed):
                drawn.append(spec)
                yield spec

        monkeypatch.setattr(simulate, "_shard_specs", counted_specs)
        shards = _pulse_shards(SP_MODEL, None, 10**20, 0, lambda a: a["n"])
        assert next(shards) == SHARD_SIZE
        assert 1 <= len(drawn) <= _cpu_count() + 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_pooled_batches(self):
        # The child inherits the parent's pool object but none of its threads.
        expected = run_trials(SP_MODEL, None, 2 * SHARD_SIZE, seed=3)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply_async(run_trials, (SP_MODEL, None, 2 * SHARD_SIZE, 3))
            assert child.get(timeout=60) == expected

    def test_one_shard_batch_starts_no_pool(self):
        # A one-shard batch runs inline: no pool, and no import of
        # concurrent.futures, which costs a fresh process milliseconds.
        code = (
            "import sys\n"
            "import lfqkd.cli\n"
            "from lfqkd.rates import SinglePhoton\n"
            "from lfqkd.simulate import _executor, run_trials\n"
            "run_trials(SinglePhoton(eta=0.7, e_d=0.03), n_pulses=SIZE, seed=0)\n"
            "print('concurrent.futures' in sys.modules, _executor.cache_info().currsize)\n"
        ).replace("SIZE", str(SHARD_SIZE))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "0"]

    def test_one_cpu_host_runs_every_shard_of_a_batch_on_the_pool(self, monkeypatch):
        # A one-CPU host gets a pool one worker wide; only one-shard batches run inline.
        n_pulses = 2 * SHARD_SIZE + 17
        batch = run_trials(COH_MODEL, None, n_pulses, seed=4)
        records = trial_records(COH_MODEL, None, n_pulses, seed=4).tobytes()
        threads = []

        def recorded_shard(*args):
            threads.append(threading.current_thread())
            return _simulate_shard(*args)

        monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
        # A pool of its own: the process's pool is as wide as its CPUs.
        monkeypatch.setattr(simulate, "_executor", functools.cache(simulate._executor.__wrapped__))
        monkeypatch.setattr(simulate, "_simulate_shard", recorded_shard)
        try:
            assert run_trials(COH_MODEL, None, n_pulses, seed=4) == batch
            assert trial_records(COH_MODEL, None, n_pulses, seed=4).tobytes() == records
        finally:
            simulate._executor(os.getpid()).shutdown()
        assert len(threads) == 6
        assert threading.main_thread() not in threads
        assert len(set(threads)) == 1


#: Sources and attacks whose uniform draw may have no threshold inside
#: (0, 1): eta (eta_m) and e_d at 0, at 1 or in between, the time shift at
#: any e_d and the one-photon strong pulse. A coherent source whose p_c and
#: p_h round to 1 cuts its uniforms at 0 and 1 but for one cut, 1 - p_w,
#: about 1/2 at mu 100 and 1 - 1e-10 at mu 1e300. Each shard makes one
#: uniform draw, its last, so no later draw shows where a skipped one left
#: the stream: ``test_draw_of_no_live_threshold_is_advanced_over`` and
#: ``test_shard_reads_one_uniform_per_pulse`` check that.
LEVELS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
FIXED_DRAW_SCENARIOS = st.one_of(
    st.builds(lambda eta, e_d: (SinglePhoton(eta=eta, e_d=e_d), None), LEVELS, LEVELS),
    st.builds(
        lambda eta_m, e_d: (CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=eta_m, e_d=e_d), None),
        LEVELS, LEVELS,
    ),
    st.builds(
        lambda mu, eta, e_d: (CoherentDecoy(mu=mu, eta=eta, e_d=e_d), None),
        st.sampled_from([0.5, 100.0, 1e300]), LEVELS, LEVELS,
    ),
    st.builds(lambda e_d: (SinglePhoton(eta=1.0, e_d=e_d), ExtremeTimeShift()), LEVELS),
    st.sampled_from([
        (SP_MODEL, StrongPulse(1)),
        (SP_MODEL, StrongPulse(20)),
        (CoherentDecoy(mu=100.0, eta=1.0, e_d=0.007), None),
        (CoherentDecoy(mu=1e300, eta=1.0, e_d=1e-310), None),
    ]),
)


class TestBlockDraws:
    """The block draws read the same stream as one whole draw."""

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, SHARD_SIZE])
    @pytest.mark.parametrize(
        "thresholds", [(0.0, 0.02, 0.7, 1.0), (RARE,), (2.0**-19, 1e-3), (2.0**-1074, 0.5)]
    )
    def test_flags_match_one_whole_draw(self, n, thresholds):
        # A draw of one threshold at RARE, and any draw of two, compares
        # uniforms; only a lone threshold below RARE is drawn by gaps.
        u = np.random.default_rng(n).random(n)
        flags = _below(np.random.default_rng(n), n, *thresholds)
        assert flags.dtype == np.uint64
        assert flags.shape == (len(thresholds), -(-n // 64))
        for flag, p in zip(flags, thresholds):
            assert np.array_equal(unpack(flag, n), u < p)

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, SHARD_SIZE])
    def test_consecutive_draws_read_consecutive_doubles(self, n):
        u = np.random.default_rng(n).random((2, n))
        rng = np.random.default_rng(n)
        (row_0,) = _below(rng, n, 0.3)
        (row_1,) = _below(rng, n, 0.6)
        assert np.array_equal(unpack(row_0, n), u[0] < 0.3)
        assert np.array_equal(unpack(row_1, n), u[1] < 0.6)

    @pytest.mark.parametrize("n", [1, 63, BLOCK + 1, SHARD_SIZE])
    @pytest.mark.parametrize(
        "model",
        [
            COH_MODEL,
            CoherentDecoy(mu=0.5, eta=1.0, e_d=0.0),
            CoherentDecoy(mu=0.5, eta=0.0, e_d=0.02),
        ],
        ids=["coherent", "errorless", "dark"],
    )
    def test_shard_reads_one_uniform_per_pulse(self, n, model):
        # A coherent shard reads its fair bytes' ceil(n/8) raw words, then
        # one double per pulse for all six cuts, made or, in the dark,
        # advanced over.
        rng = np.random.default_rng(n)
        _simulate_shard(model, None, n, rng)
        expected = np.random.default_rng(n)
        expected.bit_generator.random_raw(-(-n // 8))
        expected.random(n)
        assert rng.random(3).tolist() == expected.random(3).tolist()

    @pytest.mark.parametrize("n", [1, 63, BLOCK + 1, SHARD_SIZE])
    def test_draw_of_no_live_threshold_is_advanced_over(self, n):
        rng = np.random.default_rng(n)
        none, every = _below(rng, n, 0.0, 1.0)
        assert np.array_equal(unpack(none, n), np.zeros(n))
        assert np.array_equal(unpack(every, n), np.ones(n))
        assert np.array_equal(rng.random(n), np.random.default_rng(n).random(2 * n)[n:])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3 * BLOCK),
        p=st.one_of(
            st.sampled_from([2.0**-1074, 2.0**-19, math.nextafter(RARE, 0.0)]),
            st.floats(0.0, RARE, exclude_min=True, exclude_max=True),
        ),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(n=BLOCK + 1, p=math.nextafter(RARE, 0.0), seed=0)
    def test_gap_draw_matches_reference_and_ends_at_its_slot(self, n, p, seed):
        rng = np.random.default_rng(seed)
        (flags,) = _below(rng, n, p)
        (expected,) = reference._below(np.random.default_rng(seed), n, p)
        assert flags.dtype == np.uint64 and flags.shape == (-(-n // 64),)
        assert np.array_equal(unpack(flags, n), unpack(expected, n))
        assert rng.random(5).tolist() == np.random.default_rng(seed).random(n + 5)[n:].tolist()

    @pytest.mark.parametrize("p", [2.0**-19, 1e-3, RARE / 2])
    def test_gap_draws_flag_n_p_pulses_in_all(self, p):
        # 256 shard-sized draws from one stream: the pooled flag count of a
        # Bernoulli(p) plane is within 6 sigma of its mean.
        rng, draws = np.random.default_rng(24), 256
        total = sum(int(np.bitwise_count(_below(rng, SHARD_SIZE, p)).sum()) for _ in range(draws))
        n = draws * SHARD_SIZE
        assert abs(total - n * p) <= 6.0 * math.sqrt(n * p * (1.0 - p))

    def test_gap_draw_reads_at_most_its_slot(self):
        # Gaps of 0 flag every pulse: the draw takes several chunks and
        # reads exactly n doubles, the last gap ending on pulse n - 1.
        n, read = 1000, []

        class ZeroStream:  # its own bit generator: reads and advances are logged
            def __init__(self):
                self.bit_generator = self

            def random(self, m):
                read.append(m)
                return np.zeros(m)

            def advance(self, k):
                read.append(k)

        (flags,) = _below(ZeroStream(), n, 1e-3)
        assert np.array_equal(unpack(flags, n), np.ones(n))
        assert len(read) > 2 and read[-1] == 0 and sum(read) == n

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=FIXED_DRAW_SCENARIOS,
        n_pulses=st.one_of(
            st.integers(1, 200), st.integers(SHARD_SIZE + 1, SHARD_SIZE + BLOCK)
        ).filter(lambda n: n % 64),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(scenario=(CoherentDecoy(mu=100.0, eta=1.0, e_d=0.007), None), n_pulses=97, seed=1)
    @example(
        scenario=(CoherentDecoy(mu=1e300, eta=1.0, e_d=1e-310), None),
        n_pulses=SHARD_SIZE + 65, seed=2,
    )
    def test_skipped_draws_give_the_bits_of_made_ones(self, scenario, n_pulses, seed):
        # The reference makes every draw; the same bits show that each
        # skipped draw's constant planes are the flags the draw would give.
        model, adversary = scenario
        batch = run_trials(model, adversary, n_pulses, seed)
        records = trial_records(model, adversary, n_pulses, seed).tobytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_below", reference._below)
            assert run_trials(model, adversary, n_pulses, seed) == batch
            assert trial_records(model, adversary, n_pulses, seed).tobytes() == records

    @pytest.mark.parametrize("n", [*range(1, 18), 4095, 4096, 4097, BLOCK + 1, SHARD_SIZE])
    def test_fair_bytes_are_rng_bytes(self, n):
        # Plane k holds bit k of every pulse's byte of rng.bytes(n); bit 7 is unused.
        rng = np.random.default_rng(n)
        fair = _fair_planes(rng, n)
        expected = np.random.default_rng(n)
        fair_bytes = np.frombuffer(expected.bytes(n), dtype=np.uint8)
        assert fair.dtype == np.uint64
        assert fair.shape == (7, -(-n // 64))
        for k, plane in enumerate(fair):
            assert np.array_equal(unpack(plane, n), (fair_bytes >> k) & 1)
        # rng.bytes may keep half a 64-bit output that no uniform reads.
        assert rng.random(3).tolist() == expected.random(3).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1, 2**128 + 1])
    def test_shard_seeds_are_the_spawned_children(self, seed):
        children = np.random.SeedSequence(seed).spawn(3)
        specs = list(_shard_specs(3 * SHARD_SIZE, seed))
        assert [n for n, _ in specs] == [SHARD_SIZE] * 3
        for (_, seed_seq), child in zip(specs, children):
            assert np.array_equal(seed_seq.generate_state(4), child.generate_state(4))


#: Weights of the three click kinds, and chances of a 1 bit or a sifted
#: pulse: constant fields come up as often as mixed ones.
KIND_WEIGHTS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.5, 0.5, 0), (0.2, 0.5, 0.3)]
BIT_CHANCES = [0.0, 0.5, 1.0]


class TestTally:
    """``_tally`` over planes gives the counts of the one-pass-per-kind tally
    over int8 arrays that it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 64), st.integers(1, 3 * BLOCK)),
        seed=st.integers(0, 2**32),
        kind_weights=st.sampled_from(KIND_WEIGHTS),
        chances=st.tuples(*[st.sampled_from(BIT_CHANCES)] * 3),
    )
    def test_matches_reference_tally(self, n, seed, kind_weights, chances):
        rng = np.random.default_rng(seed)
        p_assigned, p_alice, p_matched = chances
        a = {
            "kind": rng.choice(3, n, p=kind_weights).astype(np.int8),
            "assigned_bit": (rng.random(n) < p_assigned).astype(np.int8),
            "alice_bit": (rng.random(n) < p_alice).astype(np.int8),
            "matched": rng.random(n) < p_matched,
        }
        planes = {name: pack(a[name]) for name in ("assigned_bit", "alice_bit", "matched")}
        single, double = pack(a["kind"] == 1), pack(a["kind"] == 2)
        expected = reference._tally(a)
        kind = np.stack((single, double))
        assert np.array_equal(_tally({**planes, "n": n, "kind": kind}), expected)
        if not np.any(a["kind"] == 2):
            assert np.array_equal(_tally({**planes, "n": n, "kind": single[None]}), expected)

    @pytest.mark.parametrize("model, adversary", SCENARIOS)
    def test_real_shard_matches_reference_tally(self, model, adversary):
        a = _simulate_shard(model, adversary, SHARD_SIZE, np.random.default_rng(11))
        assert np.array_equal(_tally(a), reference._tally(unpacked_shard(a)))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(
            st.integers(1, 130),
            st.sampled_from([BLOCK - 1, BLOCK + 1, SHARD_SIZE - 1, SHARD_SIZE + 1]),
        ),
        scenario=st.sampled_from(SCENARIOS),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_padding_bits_never_count(self, n, scenario, seed):
        model, adversary = scenario
        a = _simulate_shard(model, adversary, n, np.random.default_rng(seed))
        counts = _tally(a)
        padding = ~np.uint64((1 << n % 64) - 1) if n % 64 else np.uint64(0)
        for plane in (*(a[name] for name in PLANE_FIELDS), *a["kind"]):
            plane[-1] |= padding
        assert np.array_equal(_tally(a), counts)
        assert counts[0].sum() == np.count_nonzero(unpacked_shard(a)["matched"])


class TestPartition:
    @pytest.mark.parametrize("model, adversary", SCENARIOS)
    def test_click_classes_partition_sifted_population(self, model, adversary):
        batch = run_trials(model, adversary, 120_000, seed=3)
        assert batch.n_single + batch.n_double + batch.n_none == batch.n_pulses
        assert 0 < batch.n_pulses < batch.n_generated

    def test_partition_across_shard_boundaries(self):
        for n in (SHARD_SIZE - 1, SHARD_SIZE, SHARD_SIZE + 1, 3 * SHARD_SIZE + 17):
            batch = run_trials(SP_MODEL, None, n, seed=11)
            assert batch.n_single + batch.n_double + batch.n_none == batch.n_pulses
            assert batch.n_generated == n


class TestHonestChannels:
    def test_lossless_errorless_is_exact(self):
        batch = run_trials(SinglePhoton(eta=1.0, e_d=0.0), None, 50_000, seed=9)
        stats = empirical_stats(batch)
        assert stats.q_s == 1.0
        assert stats.e_s == 0.0
        assert batch.n_double == batch.n_none == 0

    def test_single_photon_matches_outcome_tree(self):
        batch = run_trials(SP_MODEL, None, 1_000_000, seed=13)
        stats = empirical_stats(batch)
        assert abs(stats.q_s - 0.7) <= binomial_3sigma(0.7, batch.n_pulses)
        assert abs(stats.e_s - 0.03) <= binomial_3sigma(0.03, batch.n_single)
        assert batch.n_double == 0

    def test_coherent_errorless_has_no_sifted_doubles(self):
        batch = run_trials(CoherentDecoy(mu=0.5, eta=1.0, e_d=0.0), None, 1_000_000, seed=17)
        stats = empirical_stats(batch)
        expected = -math.expm1(-0.5)
        assert abs(stats.q_s - expected) <= binomial_3sigma(expected, batch.n_pulses)
        assert batch.n_double == 0
        assert stats.e_s == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.one_of(st.floats(1e-9, 10.0), st.sampled_from([40.0, 1e3, 1e300])),
        eta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        n_pulses=st.integers(1, 3 * BLOCK),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(mu=1e300, eta=1.0, n_pulses=SHARD_SIZE + 65, seed=3)
    @example(mu=40.0, eta=1.0, n_pulses=BLOCK + 1, seed=5)
    def test_errorless_coherent_has_structural_zeros(self, mu, eta, n_pulses, seed):
        # At e_d = 0 the wrong detector of a matched pulse never fires: no
        # sifted double click and no sifted single-click error, exactly.
        # Where p_c rounds to 1, every matched pulse fires the correct one.
        model = CoherentDecoy(mu=mu, eta=eta, e_d=0.0)
        records = trial_records(model, None, n_pulses, seed)
        matched = records[records["alice_basis"] == records["bob_basis"]]
        singles = matched[matched["kind"] == ClickKind.SINGLE]
        assert np.count_nonzero(matched["kind"] == ClickKind.DOUBLE) == 0
        assert np.array_equal(singles["assigned_bit"], singles["alice_bit"])
        batch = run_trials(model, None, n_pulses, seed)
        assert (batch.n_double, batch.n_single_errors) == (0, 0)
        if coherent_fire_probabilities(mu, eta, 0.0)[0] == 1.0:
            assert len(singles) == len(matched) == batch.n_single

    def test_coherent_matches_poisson_enumeration(self):
        p_none, p_single, p_double, e_s = poisson_click_classes(0.8 * 0.5, 0.02)
        # Enumeration cross-checked against an independent high-precision sum.
        assert p_single == pytest.approx(0.3270959367264081, abs=1e-12)
        assert e_s == pytest.approx(0.0164602103556246, abs=1e-12)
        batch = run_trials(COH_MODEL, None, 1_000_000, seed=19)
        stats = empirical_stats(batch)
        n = batch.n_pulses
        assert abs(stats.q_s - p_single) <= binomial_3sigma(p_single, n)
        assert abs(batch.n_none / n - p_none) <= binomial_3sigma(p_none, n)
        assert abs(batch.n_double / n - p_double) <= binomial_3sigma(p_double, n)
        assert abs(stats.e_s - e_s) <= binomial_3sigma(e_s, batch.n_single)

    def test_fire_probabilities_match_poisson_enumeration(self):
        p_c, p_w, p_h = coherent_fire_probabilities(mu=0.5, eta=0.8, e_d=0.02)
        p_single = p_c * (1.0 - p_w) + p_w * (1.0 - p_c)
        assert p_single == pytest.approx(0.3270959367264081, abs=1e-12)
        assert p_w * (1.0 - p_c) / p_single == pytest.approx(0.0164602103556246, abs=1e-12)
        assert p_h == -math.expm1(-0.2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        mu=st.floats(0.01, 5.0),
        eta=st.floats(0.01, 1.0),
        e_d=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_coherent_click_classes_by_basis(self, mu, eta, e_d, seed):
        records = trial_records(CoherentDecoy(mu=mu, eta=eta, e_d=e_d), None, 1 << 16, seed=seed)
        is_matched = records["alice_basis"] == records["bob_basis"]
        p_none, p_single, p_double, e_s = poisson_click_classes(eta * mu, e_d)
        for rows, expected in (
            (records[is_matched], (p_none, p_single, p_double)),
            (records[~is_matched], mismatched_click_classes(eta * mu)),
        ):
            counts = np.bincount(rows["kind"], minlength=len(ClickKind))
            for count, p in zip(counts, expected):
                assert within_5sigma(count / len(rows), p, len(rows))
        singles = records[is_matched & (records["kind"] == ClickKind.SINGLE)]
        if len(singles):
            errors = np.count_nonzero(singles["assigned_bit"] != singles["alice_bit"])
            assert within_5sigma(errors / len(singles), e_s, len(singles))

    def test_memory_matches_readout_probability(self):
        batch = run_trials(MEM_MODEL, None, 1_000_000, seed=23)
        stats = empirical_stats(batch)
        assert abs(stats.q_s - 0.75) <= binomial_3sigma(0.75, batch.n_pulses)
        assert abs(stats.e_s - 0.01) <= binomial_3sigma(0.01, batch.n_single)
        assert batch.n_double == 0


class TestQberAccounting:
    @pytest.mark.parametrize("model", [SP_MODEL, COH_MODEL, MEM_MODEL])
    def test_delta_reconstruction_matches_qber_formula(self, model):
        batch = run_trials(model, None, 400_000, seed=31)
        total_errors = batch.n_single_errors + batch.n_double_errors + batch.n_none_errors
        delta_counted = total_errors / batch.n_pulses
        delta_formula = key_rate_single_click(empirical_stats(batch)).delta
        # The two differ only by the fluctuation of the random assignments
        # around e_0 = 1/2.
        n_assigned = batch.n_double + batch.n_none
        fluctuation = 3.0 * 0.5 * math.sqrt(n_assigned) / batch.n_pulses
        assert abs(delta_counted - delta_formula) <= fluctuation


class TestAttacks:
    def test_time_shift_halves_clicks_and_kills_rate(self):
        batch = run_trials(SinglePhoton(eta=1.0, e_d=0.0), ExtremeTimeShift(), 200_000, seed=6)
        stats = empirical_stats(batch)
        assert abs(stats.q_s - 0.5) <= binomial_3sigma(0.5, batch.n_pulses)
        assert stats.e_s == 0.0
        assert key_rate_single_click(DetectionStats(*TIME_SHIFT_EXACT)).rate <= 0.0
        rate = key_rate_single_click(stats).rate
        assert rate <= nullified_rate_bound(*TIME_SHIFT_EXACT, batch.n_pulses)
        assert batch.n_double == 0

    def test_time_shift_loss_is_eves_even_for_lossy_channel(self):
        # Channel transmittance is forced to 1 under the attack.
        batch = run_trials(SinglePhoton(eta=0.3, e_d=0.0), ExtremeTimeShift(), 200_000, seed=6)
        stats = empirical_stats(batch)
        assert abs(stats.q_s - 0.5) <= binomial_3sigma(0.5, batch.n_pulses)

    def test_strong_pulse_statistics(self):
        q_exact, e_exact = STRONG_PULSE_EXACT
        batch = run_trials(SinglePhoton(eta=1.0, e_d=0.0), StrongPulse(20), 1_000_000, seed=6)
        stats = empirical_stats(batch)
        assert abs(stats.q_s - q_exact) <= binomial_3sigma(q_exact, batch.n_pulses)
        # About 0.24 single-click errors are expected, too few for a normal
        # approximation: the count is checked against the exact binomial tail.
        assert batch.n_single_errors <= binomial_upper_bound(batch.n_single, e_exact)
        assert key_rate_single_click(DetectionStats(q_exact, e_exact)).rate <= 0.0
        rate = key_rate_single_click(stats).rate
        assert rate <= nullified_rate_bound(q_exact, e_exact, batch.n_pulses)
        assert batch.n_none == 0

    @pytest.mark.parametrize("n_pulses", [100_000, 200_000])
    def test_attacks_nullify_rate_from_1e5_pulses(self, n_pulses):
        for adversary, exact in (
            (ExtremeTimeShift(), TIME_SHIFT_EXACT), (StrongPulse(20), STRONG_PULSE_EXACT),
        ):
            batch = run_trials(SinglePhoton(eta=1.0, e_d=0.0), adversary, n_pulses, seed=6)
            assert key_rate_single_click(DetectionStats(*exact)).rate <= 0.0
            rate = key_rate_single_click(empirical_stats(batch)).rate
            assert rate <= nullified_rate_bound(*exact, batch.n_pulses)


class TestScalarAttackOps:
    """Per-pulse behaviour of each attack, read off run_trials and trial_records."""

    def test_time_shift_click_iff_active_matches_destination(self):
        records = trial_records(PERFECT, ExtremeTimeShift(), 40_000, seed=101)
        sifted = records[records["alice_basis"] == records["bob_basis"]]
        singles = sifted[sifted["kind"] == ClickKind.SINGLE]
        # Eve's active-detector choice identifies the bit exactly.
        assert np.array_equal(singles["assigned_bit"], singles["alice_bit"])
        assert not np.any(records["kind"] == ClickKind.DOUBLE)
        n = len(records)
        clicks = np.count_nonzero(records["kind"] == ClickKind.SINGLE)
        assert abs(clicks / n - 0.5) <= binomial_3sigma(0.5, n)

    def test_strong_pulse_single_photon_never_double_clicks(self):
        batch = run_trials(PERFECT, StrongPulse(1), 20_000, seed=7)
        assert batch.n_double == 0

    def test_strong_pulse_many_photons_matched_bases(self):
        # With a huge replacement pulse a conjugate Bob basis double-clicks
        # (probability 2**-59 otherwise), so matched-basis singles always
        # carry Eve's (= Alice's) bit, and doubles occur half the time.
        batch = run_trials(PERFECT, StrongPulse(60), 40_000, seed=11)
        assert batch.n_single_errors == 0
        assert abs(batch.n_double / batch.n_pulses - 0.5) <= binomial_3sigma(
            0.5, batch.n_pulses
        )

    def test_strong_pulse_defaults_to_twenty_photons(self):
        assert StrongPulse().n_photons == 20
        with pytest.raises(ValueError):
            StrongPulse(n_photons=0)

    @pytest.mark.parametrize("n_photons", [2.5, math.nan, "3", True])
    def test_strong_pulse_photon_count_is_an_integer(self, n_photons):
        with pytest.raises(TypeError, match="n_photons"):
            StrongPulse(n_photons=n_photons)
        assert StrongPulse(n_photons=np.int64(3)).n_photons == 3


class TestEmpiricalStats:
    def test_ratios(self):
        batch = TrialBatch(
            n_pulses=100, n_single=80, n_single_errors=8, n_double=12, n_none=8,
            seed=0, scenario_tag="honest", model_tag="single-photon",
            n_generated=200, n_double_errors=5, n_none_errors=4,
        )
        stats = empirical_stats(batch)
        assert stats.q_s == 0.8
        assert stats.e_s == 0.1
        assert not batch.is_degenerate
        # Traditional post-processing keeps the 92 clicks, with 13 errors.
        assert traditional_stats(batch) == (0.92, 13 / 92)

    def test_degenerate_batch_flagged(self):
        batch = TrialBatch(
            n_pulses=100, n_single=0, n_single_errors=0, n_double=0, n_none=100,
            seed=0, scenario_tag="honest", model_tag="single-photon",
            n_generated=200, n_double_errors=0, n_none_errors=52,
        )
        stats = empirical_stats(batch)
        assert batch.is_degenerate
        assert stats.q_s == 0.0
        assert stats.e_s == 0.0
        assert traditional_stats(batch) == (0.0, 0.0)

    def test_summary_schema(self):
        batch = run_trials(SP_MODEL, None, 10_000, seed=1)
        summary = batch.summary()
        assert list(summary) == [
            "scenario", "model", "n_pulses", "seed", "n_single", "n_double",
            "n_none", "n_single_errors", "q_s", "e_s", "rate",
        ]
        assert summary["scenario"] == "honest"
        assert summary["model"] == "single-photon"
        assert summary["q_s"] == batch.n_single / batch.n_pulses
        assert summary["rate"] == key_rate_single_click(empirical_stats(batch)).rate


class TestCompareToAnalytic:
    def test_exact_channel_gives_zero_scores(self):
        model = SinglePhoton(eta=1.0, e_d=0.0)
        batch = run_trials(model, None, 50_000, seed=3)
        report = compare_to_analytic(model, batch)
        assert report.q_s_z_score == 0.0
        assert report.e_s_z_score == 0.0
        assert report.rate_gap == 0.0
        assert report.passed

    def test_single_photon_within_three_sigma(self):
        batch = run_trials(SP_MODEL, None, 1_000_000, seed=37)
        report = compare_to_analytic(SP_MODEL, batch)
        assert abs(report.q_s_z_score) < 3.0
        assert abs(report.e_s_z_score) < 3.0
        assert report.q_s_offset_budget == 0.0
        assert report.passed

    def test_rejects_a_batch_of_another_source(self):
        batch = run_trials(COH_MODEL, None, 10**4, seed=1)
        with pytest.raises(ValueError, match="'coherent' compared to model 'single-photon'"):
            compare_to_analytic(SP_MODEL, batch)

    def test_coherent_offset_within_budget(self):
        batch = run_trials(COH_MODEL, None, 1_000_000, seed=41)
        report = compare_to_analytic(COH_MODEL, batch)
        lam = 0.8 * 0.5
        assert report.q_s_offset_budget == pytest.approx(
            1.0 - math.exp(-lam) - lam * math.exp(-lam), abs=1e-12
        )
        # The closed form neglects multi-photon coincidences, so the offset
        # is systematic; it must stay inside the analytic budget.
        stats = empirical_stats(batch)
        analytic_q = -math.expm1(-lam)
        assert abs(stats.q_s - analytic_q) <= report.q_s_offset_budget
        assert report.passed

    def test_rate_gap_small_for_memory_model(self):
        batch = run_trials(MEM_MODEL, None, 1_000_000, seed=43)
        report = compare_to_analytic(MEM_MODEL, batch)
        assert report.passed
        assert report.rate_gap < 0.01
        assert key_rate(MEM_MODEL).rate > 0.0

    def test_rejects_adversarial_batches(self):
        batch = run_trials(SP_MODEL, ExtremeTimeShift(), 10_000, seed=0)
        with pytest.raises(ValueError, match="honest"):
            compare_to_analytic(SP_MODEL, batch)

    def test_degenerate_batch_fails_error_check(self):
        batch = TrialBatch(
            n_pulses=100, n_single=0, n_single_errors=0, n_double=0, n_none=100,
            seed=0, scenario_tag="honest", model_tag="single-photon",
            n_generated=200, n_double_errors=0, n_none_errors=50,
        )
        report = compare_to_analytic(SinglePhoton(eta=0.7, e_d=0.0), batch)
        assert not report.e_s_pass
        assert math.isnan(report.e_s_z_score)


def _kind_fractions(records):
    return np.bincount(records["kind"], minlength=len(ClickKind)) / len(records)


def _two_sample_se(p1, n1, p2, n2):
    pooled = (p1 + p2) / 2.0
    return np.sqrt(np.maximum(pooled * (1.0 - pooled), 1e-12) * (1.0 / n1 + 1.0 / n2))


class TestTrialRecords:
    @pytest.mark.parametrize(
        "scenario, name",
        zip(SCENARIOS + FLAGGING_STRONG_PULSES, TRIAL_RECORDS_SHA256, strict=True),
        ids=list(TRIAL_RECORDS_SHA256),
    )
    def test_record_bytes_pinned(self, scenario, name):
        model, adversary = scenario
        records = trial_records(model, adversary, 300_001, seed=2026)
        assert hashlib.sha256(records.tobytes()).hexdigest() == TRIAL_RECORDS_SHA256[name]

    def test_pinned_strong_pulse_flags_add_single_clicks(self):
        # A flag makes a single click of a pulse Bob and Eve measure in
        # different bases; 20 photons flag almost none of them, 6 and 4
        # photons about 1/32 and 1/8.
        def n_single(n_photons):
            records = trial_records(PERFECT, StrongPulse(n_photons), 300_001, seed=2026)
            return np.count_nonzero(records["kind"] == ClickKind.SINGLE)

        n_unflagged = n_single(20)
        for n_photons in (6, 4):
            p, n_other = 2.0 ** (1 - n_photons), 300_001 - n_unflagged
            flagged = n_single(n_photons) - n_unflagged
            assert flagged > 0
            assert abs(flagged / n_other - p) <= binomial_3sigma(p, n_other)

    def test_random_assignment_marks_non_single_outcomes(self):
        records = trial_records(COH_MODEL, None, 30_000, seed=7)
        assert records.dtype.names == (
            "alice_bit", "alice_basis", "bob_basis", "kind", "assigned_bit"
        )
        assert set(np.unique(records["kind"])) == set(ClickKind)
        # An opaque channel never clicks: every bit is assigned at random.
        opaque = trial_records(SinglePhoton(eta=0.0, e_d=0.0), None, 30_000, seed=7)
        assert np.all(opaque["kind"] == ClickKind.NO_CLICK)
        errors = np.count_nonzero(opaque["assigned_bit"] != opaque["alice_bit"])
        assert abs(errors / len(opaque) - 0.5) <= binomial_3sigma(0.5, len(opaque))
        # A lossless, errorless channel always single-clicks on Alice's bit.
        perfect = trial_records(PERFECT, None, 30_000, seed=7)
        sifted = perfect[perfect["alice_basis"] == perfect["bob_basis"]]
        assert np.all(perfect["kind"] == ClickKind.SINGLE)
        assert np.array_equal(sifted["assigned_bit"], sifted["alice_bit"])

    @settings(max_examples=6, deadline=None)
    @given(
        scenario=st.sampled_from(SCENARIOS),
        n_pulses=st.integers(SHARD_SIZE - 1, 2 * SHARD_SIZE + 17),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_records_reproduce_batch_tallies(self, scenario, n_pulses, seed):
        model, adversary = scenario
        batch = run_trials(model, adversary, n_pulses, seed=seed)
        records = trial_records(model, adversary, n_pulses, seed=seed)
        assert len(records) == batch.n_generated == n_pulses
        sifted = records[records["alice_basis"] == records["bob_basis"]]
        errors = sifted["assigned_bit"] != sifted["alice_bit"]
        tallies = {
            "n_pulses": len(sifted),
            "n_single": np.count_nonzero(sifted["kind"] == ClickKind.SINGLE),
            "n_double": np.count_nonzero(sifted["kind"] == ClickKind.DOUBLE),
            "n_none": np.count_nonzero(sifted["kind"] == ClickKind.NO_CLICK),
            "n_single_errors": np.count_nonzero(errors & (sifted["kind"] == ClickKind.SINGLE)),
            "n_double_errors": np.count_nonzero(errors & (sifted["kind"] == ClickKind.DOUBLE)),
            "n_none_errors": np.count_nonzero(errors & (sifted["kind"] == ClickKind.NO_CLICK)),
        }
        assert tallies == {key: getattr(batch, key) for key in tallies}

    def test_sifting_neutrality_for_single_photon_and_memory(self):
        for model in (SP_MODEL, MEM_MODEL):
            records = trial_records(model, None, 200_000, seed=47)
            is_matched = records["alice_basis"] == records["bob_basis"]
            matched, mismatched = records[is_matched], records[~is_matched]
            p1, p2 = _kind_fractions(matched), _kind_fractions(mismatched)
            se = _two_sample_se(p1, len(matched), p2, len(mismatched))
            assert np.all(np.abs(p1 - p2) <= 4.0 * se)

    def test_sifting_neutrality_of_coherent_no_click_rate(self):
        # Only the no-click flag is basis-independent for a multi-photon
        # source; the single/double split is not.
        records = trial_records(COH_MODEL, None, 200_000, seed=53)
        is_matched = records["alice_basis"] == records["bob_basis"]
        matched, mismatched = records[is_matched], records[~is_matched]
        p1 = _kind_fractions(matched)[ClickKind.NO_CLICK]
        p2 = _kind_fractions(mismatched)[ClickKind.NO_CLICK]
        assert abs(p1 - p2) <= 4.0 * _two_sample_se(p1, len(matched), p2, len(mismatched))


class TestInputValidation:
    def test_n_pulses_positive(self):
        with pytest.raises(ValueError):
            run_trials(SP_MODEL, None, 0, seed=0)

    def test_seed_non_negative(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            run_trials(SP_MODEL, None, 100, seed=-1)

    def test_unknown_model(self):
        with pytest.raises(TypeError):
            run_trials("single-photon", None, 100, seed=0)

    def test_unknown_adversary(self):
        with pytest.raises(TypeError):
            run_trials(SP_MODEL, "time-shift", 100, seed=0)

    def test_unknown_adversary_rejected_before_any_shard(self, monkeypatch):
        def no_shard(*args):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(simulate, "_simulate_shard", no_shard)
        for entry in (run_trials, trial_records):
            with pytest.raises(TypeError, match="unknown adversary strategy"):
                entry(SP_MODEL, "time-shift", 2 * SHARD_SIZE + 1, seed=0)

    @pytest.mark.parametrize("name", ["n_pulses", "seed"])
    @pytest.mark.parametrize("value", [1.5, True, "3"])
    def test_non_integer_rejected(self, name, value):
        args = {"n_pulses": 100, "seed": 0, name: value}
        with pytest.raises(TypeError, match=f"{name} must be an integer, got {value!r}"):
            run_trials(SP_MODEL, None, **args)

    def test_compare_unknown_model(self):
        batch = run_trials(SP_MODEL, None, 100, seed=0)
        with pytest.raises(TypeError, match="unknown source model"):
            compare_to_analytic("single-photon", batch)

    @pytest.mark.parametrize(
        "model, n_pulses, seed, error",
        [
            # The ids of the rows from before the seed column.
            pytest.param(SP_MODEL, 0, 0, ValueError, id="model0-0-ValueError"),
            pytest.param(SP_MODEL, -5, 0, ValueError, id="model1--5-ValueError"),
            pytest.param("single-photon", 100, 0, TypeError, id="single-photon-100-TypeError"),
            *(
                pytest.param(SP_MODEL, *args, TypeError, id=f"{name}-{value!r}")
                for value in (1.5, True, "3")
                for name, args in (("n_pulses", (value, 0)), ("seed", (100, value)))
            ),
        ],
    )
    def test_trial_records_shares_the_input_check(self, model, n_pulses, seed, error):
        with pytest.raises(error) as batch_error:
            run_trials(model, None, n_pulses, seed=seed)
        with pytest.raises(error) as records_error:
            trial_records(model, None, n_pulses, seed=seed)
        assert str(records_error.value) == str(batch_error.value)
