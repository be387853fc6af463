"""Tests for the closed-form channel models and key-rate formulas."""

import math

import numpy as np
import pytest

from lfqkd.numerics import binary_entropy
from lfqkd.rates import (
    CoherentDecoy,
    CoherentDecoyMemory,
    DegenerateInputError,
    DetectionStats,
    RANDOM_ASSIGNMENT_ERROR_RATE,
    SinglePhoton,
    SystemParams,
    coherent_memory_stats,
    coherent_stats,
    key_rate,
    key_rate_coherent,
    key_rate_single_click,
    phase_error_single_bound,
    qber,
    rate_basis_independent_baseline,
    rate_kernel,
    single_photon_stats,
)

# High-precision reference values (mpmath, 40 digits).
BASELINE_011 = 1.680836709440087e-4          # 1 - 2*H2(0.11)
RATE_08_001 = 0.2785711232217594             # 0.8*(1 - H2(0.01) - H2(0.135))
Q_MU_HALF = 0.3934693402873666               # 1 - exp(-0.5)
P1_MU_HALF = 0.3032653298563167              # 0.5*exp(-0.5)
P1_MEMORY = 0.6080482499669296               # 0.01*0.5*exp(-0.5)/(1 - exp(-0.005))


class TestQber:
    def test_no_random_assignment_at_full_clicks(self):
        assert qber(DetectionStats(q_s=1.0, e_s=0.11)) == pytest.approx(0.11, abs=1e-15)

    def test_all_random_at_zero_clicks(self):
        assert qber(DetectionStats(q_s=0.0, e_s=0.3)) == 0.5

    def test_mixed(self):
        assert qber(DetectionStats(q_s=0.8, e_s=0.01)) == pytest.approx(0.108, abs=1e-15)

    def test_convex_combination_bounds(self):
        grid = [i / 20 for i in range(21)]
        for q_s in grid:
            for e_s in grid:
                delta = qber(DetectionStats(q_s=q_s, e_s=e_s))
                assert min(e_s, 0.5) - 1e-12 <= delta <= max(e_s, 0.5) + 1e-12


class TestBaselineRate:
    def test_perfect_channel(self):
        assert rate_basis_independent_baseline(0.0) == 1.0

    def test_maximal_noise(self):
        assert rate_basis_independent_baseline(0.5) == -1.0

    def test_near_ceiling(self):
        assert rate_basis_independent_baseline(0.11) == pytest.approx(
            BASELINE_011, abs=1e-14
        )

    def test_clamped_beyond_half(self):
        assert rate_basis_independent_baseline(0.8) == -1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            rate_basis_independent_baseline(1.2)


class TestPhaseBound:
    def test_plain_quotient(self):
        assert phase_error_single_bound(0.108, 0.8) == pytest.approx(0.135, abs=1e-15)

    def test_zero_errors(self):
        assert phase_error_single_bound(0.0, 0.5) == 0.0

    def test_clamped_at_half(self):
        # Extreme time-shift operating point: Q_s = 1/2, E_s = 0, delta = 1/4.
        assert phase_error_single_bound(0.25, 0.5) == 0.5

    def test_degenerate_no_clicks(self):
        with pytest.raises(DegenerateInputError):
            phase_error_single_bound(0.5, 0.0)


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
            baseline = rate_basis_independent_baseline(e_s)
            assert abs(single - baseline) <= 1e-12


class TestChannelModels:
    def test_single_photon_passthrough(self):
        stats = single_photon_stats(SystemParams(eta=0.7, e_d=0.02))
        assert (stats.q_s, stats.e_s) == (0.7, 0.02)

    def test_single_photon_boundary_point(self):
        stats = single_photon_stats(SystemParams(eta=1.0, e_d=0.11))
        assert (stats.q_s, stats.e_s) == (1.0, 0.11)

    def test_single_photon_opaque(self):
        stats = single_photon_stats(SystemParams(eta=0.0, e_d=0.0))
        assert (stats.q_s, stats.e_s) == (0.0, 0.0)

    def test_coherent_reference_point(self):
        stats, p_1, y_1, delta_1 = coherent_stats(SystemParams(eta=1.0, e_d=0.0, mu=0.5))
        assert stats.q_s == pytest.approx(Q_MU_HALF, abs=1e-15)
        assert stats.e_s == 0.0
        assert p_1 == pytest.approx(P1_MU_HALF, abs=1e-15)
        assert y_1 == 1.0
        assert delta_1 == 0.0

    def test_coherent_click_rate_linear_in_small_mu(self):
        mu = 1e-8
        stats, _, _, _ = coherent_stats(SystemParams(eta=0.73, e_d=0.0, mu=mu))
        assert stats.q_s / mu == pytest.approx(0.73, rel=1e-7)

    def test_coherent_single_photon_error(self):
        _, _, _, delta_1 = coherent_stats(SystemParams(eta=0.6, e_d=0.01, mu=0.5))
        assert delta_1 == pytest.approx(0.206, abs=1e-15)

    def test_coherent_requires_positive_mu(self):
        with pytest.raises(ValueError):
            coherent_stats(SystemParams(eta=0.5, e_d=0.0, mu=0.0))

    def test_memory_reference_point(self):
        _, p_1, _, _ = coherent_memory_stats(
            SystemParams(e_d=0.0, mu=0.5, eta_c=0.01, eta_m=1.0)
        )
        assert p_1 == pytest.approx(P1_MEMORY, abs=1e-14)

    def test_memory_perfect_readout(self):
        stats, _, y_1, delta_1 = coherent_memory_stats(
            SystemParams(e_d=0.0, mu=0.5, eta_c=0.01, eta_m=1.0)
        )
        assert stats.q_s == 1.0 and y_1 == 1.0 and delta_1 == 0.0

    def test_memory_half_readout(self):
        _, _, _, delta_1 = coherent_memory_stats(
            SystemParams(e_d=0.0, mu=0.5, eta_c=0.01, eta_m=0.5)
        )
        assert delta_1 == 0.25

    def test_memory_degenerate_channel(self):
        with pytest.raises(DegenerateInputError):
            coherent_memory_stats(SystemParams(e_d=0.0, mu=0.5, eta_c=0.0, eta_m=0.5))

    @pytest.mark.parametrize("mu, eta_c", [(1e-300, 1e-300), (0.4, 5e-324)])
    def test_memory_trigger_underflow_takes_limit(self, mu, eta_c):
        # eta_c * mu rounds to 0, so 1 - exp(-eta_c*mu) does too: P1 -> exp(-mu).
        assert eta_c * mu == 0.0
        _, p_1, _, _ = coherent_memory_stats(
            SystemParams(e_d=0.0, mu=mu, eta_c=eta_c, eta_m=1.0)
        )
        assert p_1 == math.exp(-mu)


class TestKeyRateCoherent:
    def test_errorless_rate_is_single_photon_fraction(self):
        stats, p_1, y_1, delta_1 = coherent_stats(SystemParams(eta=1.0, e_d=0.0, mu=0.5))
        assert key_rate_coherent(stats, p_1, y_1, delta_1).rate == pytest.approx(
            P1_MU_HALF, abs=1e-15
        )

    def test_fifty_percent_floor(self):
        stats, p_1, y_1, delta_1 = coherent_stats(SystemParams(eta=0.5, e_d=0.0, mu=0.5))
        assert key_rate_coherent(stats, p_1, y_1, delta_1).rate <= 0.0

    def test_zero_yield_degenerate_path(self):
        b = key_rate_coherent(DetectionStats(q_s=0.3, e_s=0.1), 0.3, 0.0, 0.5)
        assert b.rate == pytest.approx(-b.ec_cost, abs=1e-15)
        assert b.rate < 0.0
        assert b.phase_bound == math.inf

    def test_terms_recombine(self):
        for eta in (0.55, 0.7, 0.85, 1.0):
            for e_d in (0.0, 0.01, 0.05):
                stats, p_1, y_1, delta_1 = coherent_stats(
                    SystemParams(eta=eta, e_d=e_d, mu=0.5)
                )
                b = key_rate_coherent(stats, p_1, y_1, delta_1)
                assert b.rate == pytest.approx(
                    p_1 * y_1 - b.ec_cost - b.pa_cost, abs=1e-12
                )
                assert b.ec_cost == pytest.approx(
                    stats.q_s * binary_entropy(e_d), abs=1e-15
                )


class TestRateKernel:
    """The array kernel against the scalar formulas it restates."""

    ETAS = (0.3, 0.5, 0.55, 0.7, 0.85, 1.0)
    E_DS = (0.0, 0.01, 0.05, 0.11, 0.3, 0.5)

    @staticmethod
    def terms(model):
        if isinstance(model, SinglePhoton):
            stats = single_photon_stats(model.system_params())
            return stats.q_s, 1.0, stats.q_s
        stats_of = coherent_stats if isinstance(model, CoherentDecoy) else coherent_memory_stats
        stats, p_1, y_1, _ = stats_of(model.system_params())
        return stats.q_s, p_1, y_1

    @pytest.mark.parametrize("make", [
        lambda eta, e_d: SinglePhoton(eta=eta, e_d=e_d),
        lambda eta, e_d: CoherentDecoy(mu=0.5, eta=eta, e_d=e_d),
        lambda eta, e_d: CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=eta, e_d=e_d),
    ], ids=["single-photon", "coherent", "coherent-memory"])
    def test_matches_scalar_rate(self, make):
        models = [make(eta, e_d) for eta in self.ETAS for e_d in self.E_DS]
        q_s, p_1, y_1 = zip(*(self.terms(m) for m in models))
        assert len(set(p_1)) == 1
        rate = rate_kernel(np.array(q_s), p_1[0], np.array(y_1))
        values = rate(np.array([m.e_d for m in models]))
        # Same operations in the same order; numpy's log2 may differ from
        # math.log2 in the last ulp, and every term is at most 1.
        for model, value in zip(models, values.tolist()):
            assert value == pytest.approx(key_rate(model).rate, abs=4 * 2.0**-52)


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

    def test_model_constructors_validate(self):
        with pytest.raises(ValueError):
            SinglePhoton(eta=1.5, e_d=0.0)
        with pytest.raises(ValueError):
            CoherentDecoy(mu=0.0, eta=0.5, e_d=0.0)
        with pytest.raises(ValueError):
            CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=2.0, e_d=0.0)

    def test_operational_rate_floors_at_zero(self):
        breakdown = key_rate(SinglePhoton(eta=0.4, e_d=0.1))
        assert breakdown.rate < 0.0
        assert breakdown.operational_rate == 0.0
