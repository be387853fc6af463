"""Tests for the closed-form channel models and key-rate formulas."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lfqkd.numerics import binary_entropy
from lfqkd.rates import (
    CoherentDecoy,
    CoherentDecoyMemory,
    DetectionStats,
    RANDOM_ASSIGNMENT_ERROR_RATE,
    SinglePhoton,
    SystemParams,
    channel_terms,
    key_rate,
    key_rate_single_click,
    model_terms,
    rate_terms,
)
from lfqkd.threshold import sweep_curve
import reference
from reference import baseline_rate, reference_rate

# High-precision reference values (mpmath, 40 digits).
BASELINE_011 = 1.680836709440087e-4          # 1 - 2*H2(0.11)
RATE_08_001 = 0.2785711232217594             # 0.8*(1 - H2(0.01) - H2(0.135))
Q_MU_HALF = 0.3934693402873666               # 1 - exp(-0.5)
P1_MU_HALF = 0.3032653298563167              # 0.5*exp(-0.5)
P1_MEMORY = 0.6080482499669296               # 0.01*0.5*exp(-0.5)/(1 - exp(-0.005))


def qber(q_s, e_s):
    """The overall QBER delta that the single-click breakdown reports."""
    return key_rate_single_click(DetectionStats(q_s=q_s, e_s=e_s)).delta


class TestQber:
    def test_no_random_assignment_at_full_clicks(self):
        assert qber(1.0, 0.11) == pytest.approx(0.11, abs=1e-15)

    def test_all_random_at_zero_clicks(self):
        assert qber(0.0, 0.3) == 0.5

    def test_mixed(self):
        assert qber(0.8, 0.01) == pytest.approx(0.108, abs=1e-15)

    def test_convex_combination_bounds(self):
        grid = [i / 20 for i in range(21)]
        for q_s in grid:
            for e_s in grid:
                delta = qber(q_s, e_s)
                assert min(e_s, 0.5) - 1e-12 <= delta <= max(e_s, 0.5) + 1e-12


def full_click_rate(e_s):
    """The single-click rate at Q_s = 1, where it is the baseline 1 - 2*H2(E_s)."""
    return key_rate_single_click(DetectionStats(q_s=1.0, e_s=e_s)).rate


class TestBaselineRate:
    """The basis-independent baseline 1 - 2*H2(delta): ``reference.baseline_rate``,
    and the single-click rate at Q_s = 1 where they agree."""

    def test_perfect_channel(self):
        assert baseline_rate(0.0) == full_click_rate(0.0) == 1.0

    def test_maximal_noise(self):
        assert baseline_rate(0.5) == full_click_rate(0.5) == -1.0

    def test_near_ceiling(self):
        assert baseline_rate(0.11) == pytest.approx(BASELINE_011, abs=1e-14)
        assert full_click_rate(0.11) == pytest.approx(BASELINE_011, abs=1e-14)

    def test_clamped_beyond_half(self):
        assert baseline_rate(0.8) == -1.0
        # The single-click phase bound is clamped the same way: all of Q_s.
        assert key_rate_single_click(DetectionStats(q_s=1.0, e_s=0.8)).pa_cost == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            DetectionStats(q_s=1.0, e_s=1.2)


def single_click_terms(q_s, e_s):
    """``rate_terms`` of the single-click formula at one point, as floats."""
    terms = rate_terms(np.array([q_s]), np.array([e_s]), 1.0, np.array([q_s]))
    return [t.item() for t in terms]


class TestPhaseBound:
    """The kernel's phase-error bound delta/Q_s and its clamp at 1/2."""

    def test_plain_quotient(self):
        _, _, _, bound, delta = single_click_terms(0.8, 0.01)
        assert bound == pytest.approx(0.135, abs=1e-15)
        assert delta == pytest.approx(0.108, abs=1e-15)

    def test_zero_errors(self):
        # delta = 0 only at Q_s = 1, E_s = 0.
        _, _, pa_cost, bound, _ = single_click_terms(1.0, 0.0)
        assert bound == 0.0 and pa_cost == 0.0

    def test_clamped_at_half(self):
        # delta/Q_s = 0.3/0.4 = 0.75 is clamped to 1/2: the PA cost is all of Q_s.
        rate, _, pa_cost, bound, _ = single_click_terms(0.4, 0.0)
        assert bound == pytest.approx(0.75, abs=1e-15)
        assert pa_cost == 0.4 and rate == 0.0

    def test_degenerate_no_clicks(self):
        # Q_s = 0: the bound is vacuous (inf) and every term 0, with no branch.
        rate, ec_cost, pa_cost, bound, delta = single_click_terms(0.0, 0.3)
        assert bound == math.inf
        assert (rate, ec_cost, pa_cost, delta) == (0.0, 0.0, 0.0, 0.5)


class TestKeyRateSingleClick:
    def test_lossless_errorless(self):
        assert key_rate_single_click(DetectionStats(q_s=1.0, e_s=0.0)).rate == 1.0

    def test_fifty_percent_floor(self):
        assert key_rate_single_click(DetectionStats(q_s=0.5, e_s=0.0)).rate == 0.0

    def test_reference_value(self):
        breakdown = key_rate_single_click(DetectionStats(q_s=0.8, e_s=0.01))
        assert breakdown.rate == pytest.approx(RATE_08_001, abs=1e-14)
        assert breakdown.phase_bound == pytest.approx(0.135, abs=1e-15)
        assert breakdown.delta == pytest.approx(0.108, abs=1e-15)

    def test_degenerate_no_single_clicks(self):
        breakdown = key_rate_single_click(DetectionStats(q_s=0.0, e_s=0.0))
        assert breakdown.rate == 0.0
        assert breakdown.phase_bound == math.inf
        assert breakdown.ec_cost == 0.0 and breakdown.pa_cost == 0.0
        assert breakdown.delta == 0.5

    def test_phase_bound_reported_unclamped(self):
        breakdown = key_rate_single_click(DetectionStats(q_s=0.4, e_s=0.0))
        assert breakdown.phase_bound == pytest.approx(0.3 / 0.4, abs=1e-15)
        assert breakdown.phase_bound > 0.5

    def test_terms_recombine(self):
        grid = [i / 10 for i in range(11)]
        for q_s in grid:
            for e_s in grid:
                b = key_rate_single_click(DetectionStats(q_s=q_s, e_s=e_s))
                assert b.rate == pytest.approx(q_s - b.ec_cost - b.pa_cost, abs=1e-12)

    def test_reduces_to_baseline_at_full_clicks(self):
        for i in range(101):
            e_s = 0.5 * i / 100
            single = key_rate_single_click(DetectionStats(q_s=1.0, e_s=e_s)).rate
            baseline = baseline_rate(e_s)
            assert abs(single - baseline) <= 1e-12


def terms(family, eta, mu=math.nan, eta_c=math.nan):
    """``channel_terms`` at one eta, as floats."""
    q_s, p_1, y_1 = channel_terms(family, np.array([eta]), mu, eta_c)
    return q_s.item(), p_1, y_1.item()


class TestChannelModels:
    def test_single_photon_passthrough(self):
        assert terms("single-photon", 0.7) == (0.7, 1.0, 0.7)

    def test_single_photon_boundary_point(self):
        assert terms("single-photon", 1.0) == (1.0, 1.0, 1.0)

    def test_single_photon_opaque(self):
        assert terms("single-photon", 0.0) == (0.0, 1.0, 0.0)

    def test_coherent_reference_point(self):
        q_s, p_1, y_1 = terms("coherent", 1.0, mu=0.5)
        assert q_s == pytest.approx(Q_MU_HALF, abs=1e-15)
        assert p_1 == pytest.approx(P1_MU_HALF, abs=1e-15)
        assert y_1 == 1.0
        assert key_rate(CoherentDecoy(mu=0.5, eta=1.0, e_d=0.0)).delta_1 == 0.0

    def test_coherent_click_rate_linear_in_small_mu(self):
        mu = 1e-8
        q_s, _, _ = terms("coherent", 0.73, mu=mu)
        assert q_s / mu == pytest.approx(0.73, rel=1e-7)

    def test_coherent_single_photon_error(self):
        delta_1 = key_rate(CoherentDecoy(mu=0.5, eta=0.6, e_d=0.01)).delta_1
        assert delta_1 == pytest.approx(0.206, abs=1e-15)

    def test_coherent_requires_positive_mu(self):
        with pytest.raises(ValueError):
            CoherentDecoy(mu=0.0, eta=0.5, e_d=0.0)

    def test_memory_reference_point(self):
        _, p_1, _ = terms("coherent-memory", 1.0, mu=0.5, eta_c=0.01)
        assert p_1 == pytest.approx(P1_MEMORY, abs=1e-14)

    def test_memory_perfect_readout(self):
        assert terms("coherent-memory", 1.0, mu=0.5, eta_c=0.01)[::2] == (1.0, 1.0)
        b = key_rate(CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=1.0, e_d=0.0))
        assert b.y_1 == 1.0 and b.delta_1 == 0.0

    def test_memory_half_readout(self):
        b = key_rate(CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=0.5, e_d=0.0))
        assert b.delta_1 == 0.25

    def test_memory_degenerate_channel(self):
        # The model rejects eta_c = 0, where the trigger never fires and P1 is 0/0.
        with pytest.raises(ValueError, match="eta_c = 0"):
            CoherentDecoyMemory(mu=0.5, eta_c=0.0, eta_m=0.5, e_d=0.0)

    @pytest.mark.parametrize("mu, eta_c", [(1e-300, 1e-300), (0.4, 5e-324)])
    def test_memory_trigger_underflow_takes_limit(self, mu, eta_c):
        # eta_c * mu rounds to 0, so 1 - exp(-eta_c*mu) does too: P1 -> exp(-mu).
        assert eta_c * mu == 0.0
        _, p_1, _ = terms("coherent-memory", 1.0, mu=mu, eta_c=eta_c)
        assert p_1 == math.exp(-mu)


class TestKeyRateCoherent:
    def test_errorless_rate_is_single_photon_fraction(self):
        rate = key_rate(CoherentDecoy(mu=0.5, eta=1.0, e_d=0.0)).rate
        assert rate == pytest.approx(P1_MU_HALF, abs=1e-15)

    def test_fifty_percent_floor(self):
        assert key_rate(CoherentDecoy(mu=0.5, eta=0.5, e_d=0.0)).rate <= 0.0

    def test_zero_yield_degenerate_path(self):
        # Y1 = 0: the signal vanishes and the rate is -ec_cost, with no branch.
        rate, ec_cost, pa_cost, bound, _ = (
            t.item() for t in rate_terms(np.array([0.3]), np.array([0.1]), 0.3, np.array([0.0]))
        )
        assert rate == -ec_cost < 0.0
        assert pa_cost == 0.0
        assert bound == math.inf

    def test_terms_recombine(self):
        for eta in (0.55, 0.7, 0.85, 1.0):
            for e_d in (0.0, 0.01, 0.05):
                b = key_rate(CoherentDecoy(mu=0.5, eta=eta, e_d=e_d))
                assert b.rate == pytest.approx(b.p_1 * b.y_1 - b.ec_cost - b.pa_cost, abs=1e-12)
                q_s = -math.expm1(-eta * 0.5)
                assert b.ec_cost == pytest.approx(q_s * binary_entropy(e_d), abs=1e-15)


class TestRateKernel:
    """The array kernel against the tests' own scalar formula."""

    ETAS = (0.0, 5e-324, 0.3, 0.5, 0.55, 0.7, 0.85, 1.0)
    E_DS = (0.0, 0.01, 0.05, 0.11, 0.3, 0.5)

    @pytest.mark.parametrize("family", ["single-photon", "coherent", "coherent-memory"])
    def test_matches_scalar_rate(self, family):
        etas, e_ds = (np.array(v) for v in zip(*itertools.product(self.ETAS, self.E_DS)))
        q_s, p_1, y_1 = channel_terms(family, etas, 0.5, 0.01)
        values = rate_terms(q_s, e_ds, p_1, y_1)[0]
        # The reference sums the terms in the paper's order, and numpy's log2
        # may differ from math.log2 in the last ulp; every term is at most 1.
        for eta, e_d, value in zip(etas.tolist(), e_ds.tolist(), values.tolist()):
            assert value == pytest.approx(reference_rate(family, eta, e_d), abs=4 * 2.0**-52)


#: Probabilities where the entropies and the phase bound meet their edges.
EDGES = [0.0, 5e-324, 2.0**-1022, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]


def _probabilities(shape):
    """A float array of ``shape`` with entries in [0, 1], edges included."""
    p = st.sampled_from(EDGES) | st.floats(0.0, 1.0)
    n = math.prod(shape)
    return st.lists(p, min_size=n, max_size=n).map(lambda v: np.array(v).reshape(shape))


@st.composite
def rate_inputs(draw):
    """``rate_terms`` arguments in the shapes its callers use: one point
    (``key_rate``), two points with ``e_1`` (``compare``), a grid (the
    threshold sweep) and a ``(k, n)`` broadcast of e_s against a grid."""
    n = draw(st.integers(1, 5))
    caller = draw(st.sampled_from(["point", "compare", "grid", "broadcast"]))
    p_1 = draw(st.sampled_from([1.0, 0.3032653298563167]) | st.floats(0.0, 1.0))
    size = {"point": 1, "compare": 2}.get(caller, n)
    q_s, y_1 = draw(_probabilities((size,))), draw(_probabilities((size,)))
    e_s_shape = (draw(st.integers(1, 3)), 1) if caller == "broadcast" else (size,)
    e_s = draw(_probabilities(e_s_shape))
    e_1 = draw(_probabilities((2,))) if caller == "compare" else None
    return q_s, e_s, p_1, y_1, e_1


class TestMatchesTheTwoCallKernel:
    """``rate_terms`` gives the bits and shapes of the kernel with two
    entropy calls that it replaced (``tests/reference.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(rate_inputs())
    @example((np.ones(2), np.array([0.0, 1.0]), 1.0, np.ones(2), None))
    @example((np.array([0.5, 0.5]), np.array([0.05, 0.05]), 1.0, np.array([0.0, 5e-324]), None))
    @example((np.array([0.3]), np.array([0.1]), 0.3, np.array([0.0]), np.array([0.1])))
    @example((np.array([0.6, 0.7]), np.array([[0.0], [1.0]]), 0.5, np.array([5e-324, 1.0]), None))
    def test_same_bits_in_all_five_outputs(self, inputs):
        new = rate_terms(*inputs)
        old = reference.rate_terms(*inputs)
        assert [t.shape for t in new] == [t.shape for t in old]
        assert [t.view(np.int64).tolist() for t in new] == [t.view(np.int64).tolist() for t in old]


class TestKeyRateDispatch:
    def test_single_photon_perfect(self):
        assert key_rate(SinglePhoton(eta=1.0, e_d=0.0)).rate == 1.0

    def test_single_photon_floor(self):
        assert key_rate(SinglePhoton(eta=0.5, e_d=0.0)).rate == 0.0

    def test_memory_reference(self):
        b = key_rate(CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=1.0, e_d=0.0))
        assert b.rate == pytest.approx(P1_MEMORY, abs=1e-14)

    def test_unknown_model_rejected(self):
        with pytest.raises(TypeError):
            key_rate("single-photon")

    def test_below_floor_is_nonpositive(self):
        # With the 1/2 clamp active the errorless rate sits exactly at zero
        # below the floor; any e_d > 0 pushes it strictly negative.
        for eta in (0.2, 0.35, 0.49):
            assert key_rate(SinglePhoton(eta=eta, e_d=0.0)).rate == 0.0
            assert key_rate(SinglePhoton(eta=eta, e_d=0.05)).rate < 0.0

    def test_nonincreasing_in_error_rate(self):
        for eta in (0.3, 0.55, 0.75, 1.0):
            rates = [
                key_rate(SinglePhoton(eta=eta, e_d=i / 100)).rate for i in range(51)
            ]
            assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(rates, rates[1:]))

    def test_nondecreasing_in_eta_where_rate_nonnegative(self):
        for e_d in (0.0, 0.02, 0.05, 0.1):
            rates = [
                key_rate(SinglePhoton(eta=0.5 + i / 200, e_d=e_d)).rate
                for i in range(101)
            ]
            positive = [r for r in rates if r >= 0.0]
            assert all(r1 <= r2 + 1e-12 for r1, r2 in zip(positive, positive[1:]))

    def test_small_mu_converges_to_single_photon(self):
        mu = 1e-4
        scale = mu * math.exp(-mu)
        for eta in (0.6, 0.7, 0.8, 0.9, 1.0):
            for e_d in (0.0, 0.01, 0.02, 0.05):
                reference = key_rate(SinglePhoton(eta=eta, e_d=e_d)).rate
                if reference <= 1e-3:
                    continue
                scaled = key_rate(CoherentDecoy(mu=mu, eta=eta, e_d=e_d)).rate / scale
                assert abs(scaled - reference) / reference <= 1e-3


class TestValidation:
    def test_probability_ranges(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SystemParams(eta=1.2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SystemParams(e_d=-0.01)
        with pytest.raises(ValueError):
            SystemParams(mu=-1.0)

    def test_random_assignment_rate_is_pinned(self):
        assert RANDOM_ASSIGNMENT_ERROR_RATE == 0.5

    def test_detection_stats_ranges(self):
        with pytest.raises(ValueError):
            DetectionStats(q_s=-0.1, e_s=0.0)
        with pytest.raises(ValueError):
            DetectionStats(q_s=0.5, e_s=1.01)

    def test_negative_zero_is_no_probability(self):
        # -0.0 passes 0.0 <= x <= 1.0; its sign bit does not.
        with pytest.raises(ValueError, match=r"q_s must be in \[0, 1\], got -0.0"):
            DetectionStats(q_s=-0.0, e_s=0.0)

    def test_model_constructors_validate(self):
        with pytest.raises(ValueError):
            SinglePhoton(eta=1.5, e_d=0.0)
        with pytest.raises(ValueError):
            CoherentDecoy(mu=0.0, eta=0.5, e_d=0.0)
        for mu in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mu must be positive and finite"):
                CoherentDecoy(mu=mu, eta=0.5, e_d=0.0)
            with pytest.raises(ValueError, match="mu must be positive and finite"):
                CoherentDecoyMemory(mu=mu, eta_c=0.01, eta_m=0.5, e_d=0.0)
        with pytest.raises(ValueError):
            CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=2.0, e_d=0.0)

    def test_operational_rate_floors_at_zero(self):
        breakdown = key_rate(SinglePhoton(eta=0.4, e_d=0.1))
        assert breakdown.rate < 0.0
        assert breakdown.operational_rate == 0.0


PROBABILITY = st.floats(0.0, 1.0)
MU = st.floats(1e-300, 20.0)
SOURCE_MODELS = st.one_of(
    st.builds(SinglePhoton, eta=PROBABILITY, e_d=PROBABILITY),
    st.builds(CoherentDecoy, mu=MU, eta=PROBABILITY, e_d=PROBABILITY),
    st.builds(
        CoherentDecoyMemory,
        mu=MU,
        eta_c=st.floats(0.0, 1.0, exclude_min=True),
        eta_m=PROBABILITY,
        e_d=PROBABILITY,
    ),
)


MODELS = [
    SinglePhoton(eta=0.7, e_d=0.03),
    CoherentDecoy(mu=0.5, eta=0.8, e_d=0.02),
    CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=0.75, e_d=0.01),
]


class TestModelShape:
    """Every source model reads as ``(tag, eta, e_d, mu, eta_c)``."""

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tag)
    def test_model_terms_are_channel_terms(self, model):
        expected = channel_terms(model.tag, np.float64(model.eta), model.mu, model.eta_c)
        assert _bits(model_terms(model)) == _bits([float(t) for t in expected])

    def test_memory_eta_is_readout_probability(self):
        assert MODELS[2].eta == 0.75 == MODELS[2].eta_m

    def test_unused_inputs_are_nan(self):
        single, coherent, memory = MODELS
        assert math.isnan(single.mu) and math.isnan(single.eta_c)
        assert math.isnan(coherent.eta_c)
        assert (coherent.mu, memory.mu, memory.eta_c) == (0.5, 0.5, 0.01)


class TestRateIdentity:
    @settings(max_examples=300, deadline=None)
    @given(model=SOURCE_MODELS)
    def test_rate_is_signal_minus_costs(self, model):
        breakdown = key_rate(model)
        if model.tag == "single-photon":
            signal = model.eta
        else:
            signal = breakdown.p_1 * breakdown.y_1
        expected = signal - breakdown.ec_cost - breakdown.pa_cost
        assert abs(breakdown.rate - expected) <= 1e-12


# Probabilities with their edges drawn often, and coherent sources up to
# mu = 700, where mu*exp(-mu) is near the bottom of the normal range.
EDGE_PROBABILITY = PROBABILITY | st.sampled_from(
    [0.0, 5e-324, 2.0**-1022, 0.5, 1.0 - 2.0**-53, 1.0]
)
ONE_POINT_MU = st.floats(1e-300, 700.0)
ONE_POINT_MODELS = st.one_of(
    st.builds(SinglePhoton, eta=EDGE_PROBABILITY, e_d=EDGE_PROBABILITY),
    st.builds(CoherentDecoy, mu=ONE_POINT_MU, eta=EDGE_PROBABILITY, e_d=EDGE_PROBABILITY),
    st.builds(
        CoherentDecoyMemory,
        mu=ONE_POINT_MU,
        eta_c=st.sampled_from([5e-324, 1.0]) | st.floats(0.0, 1.0, exclude_min=True),
        eta_m=EDGE_PROBABILITY,
        e_d=EDGE_PROBABILITY,
    ),
)


def _float_fields(breakdown):
    """The fields of ``breakdown`` that are set, each a Python float."""
    fields = [v for v in vars(breakdown).values() if v is not None]
    assert all(type(v) is float for v in fields)
    return fields


def _bits(values):
    return np.hstack(values).view(np.int64).tolist()


class TestOnePointMatchesTheGrid:
    """A one-point rate runs the kernel on float64 scalars; every float it
    reports has the bits of ``rate_terms`` over one-element arrays."""

    @settings(max_examples=300, deadline=None)
    @given(model=ONE_POINT_MODELS)
    def test_key_rate(self, model):
        q_s, p_1, y_1 = channel_terms(model.tag, np.array([model.eta]), model.mu, model.eta_c)
        e_d = np.array([model.e_d])
        rate, ec_cost, pa_cost, phase_bound, delta_1 = rate_terms(q_s, e_d, p_1, y_1)
        # The overall QBER is delta_1 of the single-click formula.
        expected = [rate, rate_terms(q_s, e_d, 1.0, q_s)[4], phase_bound, ec_cost, pa_cost]
        if model.tag != "single-photon":
            expected += [p_1, y_1, delta_1]
        assert _bits(_float_fields(key_rate(model))) == _bits(expected)

    @settings(max_examples=300, deadline=None)
    @given(q_s=EDGE_PROBABILITY, e_s=EDGE_PROBABILITY)
    def test_key_rate_single_click(self, q_s, e_s):
        q, e = np.array([q_s]), np.array([e_s])
        rate, ec_cost, pa_cost, phase_bound, delta = rate_terms(q, e, 1.0, q)
        breakdown = key_rate_single_click(DetectionStats(q_s=q_s, e_s=e_s))
        expected = [rate, delta, phase_bound, ec_cost, pa_cost]
        assert _bits(_float_fields(breakdown)) == _bits(expected)


class TestQuietAtEdges:
    """Inputs where numpy warns unless the rate kernel's one ``np.errstate``
    covers every term, run with each RuntimeWarning an error."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    def test_rate_terms_at_error_rates_zero_and_one(self):
        rate, ec_cost, pa_cost, phase_bound, delta_1 = rate_terms(
            np.ones(2), np.array([0.0, 1.0]), 1.0, np.ones(2)
        )
        assert ec_cost.tolist() == [0.0, 0.0]
        assert delta_1.tolist() == phase_bound.tolist() == [0.0, 1.0]
        assert pa_cost.tolist() == [0.0, 1.0]
        assert rate.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("y_1", [0.0, 5e-324])
    def test_rate_terms_at_zero_and_subnormal_yield(self, y_1):
        rate, ec_cost, pa_cost, phase_bound, _ = rate_terms(
            np.array([0.5]), np.array([0.05]), 1.0, np.array([y_1])
        )
        assert phase_bound.tolist() == [math.inf]
        assert pa_cost.tolist() == [y_1]
        assert rate.tolist() == [y_1 - ec_cost.item() - y_1]

    @pytest.mark.parametrize(
        "model",
        [
            SinglePhoton(eta=0.0, e_d=0.05),
            CoherentDecoy(mu=0.5, eta=0.0, e_d=0.05),
            CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=0.0, e_d=0.05),
        ],
    )
    def test_key_rate_at_zero_transmittance(self, model):
        b = key_rate(model)
        assert (b.rate, b.ec_cost, b.pa_cost, b.phase_bound) == (0.0, 0.0, 0.0, math.inf)

    def test_sweep_with_underflowing_trigger(self):
        # eta_c * mu rounds to 0: P1 = exp(-mu) = 1, the single-photon terms.
        memory = sweep_curve("coherent-memory", mu=1e-300, eta_c=1e-300)
        single = sweep_curve("single-photon")
        assert memory.e_d_max.tolist() == single.e_d_max.tolist()
