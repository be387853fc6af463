"""Tests for the tolerance-boundary solver and curve sweep."""

import pytest
from hypothesis import given, settings, strategies as st

from lfqkd.threshold import (
    CSV_HEADER,
    EmptyCurveError,
    GridSpec,
    MAX_GRID_POINTS,
    MODEL_FAMILIES,
    ThresholdPoint,
    curve_to_csv,
    rate_at,
    solve_threshold_ed,
    sweep_curve,
)
from reference import reference_rate

# Root of 1 - 2*H2(x) on (0, 1/2); mpmath, 40 digits.
SINGLE_PHOTON_CEILING = 0.1100278644383596


def scan_threshold(family, eta, step=1e-5):
    """Independent fine-grid oracle: largest e_d on the grid with rate >= 0."""
    best = None
    n = int(round(0.5 / step))
    for i in range(n + 1):
        e_d = i * step
        if rate_at(family, eta, e_d) >= 0.0:
            best = e_d
        else:
            break
    return best


class TestSolveThreshold:
    def test_single_photon_ceiling(self):
        root = solve_threshold_ed("single-photon", 1.0)
        assert root == pytest.approx(SINGLE_PHOTON_CEILING, abs=2e-9)
        assert abs(root - 0.110) < 0.001

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    @pytest.mark.parametrize("eta", [0.5, 0.4, 0.25])
    def test_none_at_or_below_floor(self, family, eta):
        assert solve_threshold_ed(family, eta) is None

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_sign_bracketing(self, family):
        tol = 1e-9
        for eta in (0.6, 0.8, 1.0):
            e_d_max = solve_threshold_ed(family, eta, tol=tol)
            assert e_d_max is not None
            assert rate_at(family, eta, max(e_d_max - 2 * tol, 0.0)) >= 0.0
            assert rate_at(family, eta, min(e_d_max + 2 * tol, 0.5)) < 0.0

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    @pytest.mark.parametrize("eta", [0.7, 1.0])
    def test_agrees_with_fine_scan(self, family, eta):
        step = 1e-5
        scanned = scan_threshold(family, eta, step=step)
        solved = solve_threshold_ed(family, eta)
        assert scanned is not None and solved is not None
        assert abs(solved - scanned) <= step

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            solve_threshold_ed("single-photon", 0.0)
        with pytest.raises(ValueError):
            solve_threshold_ed("single-photon", 1.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            solve_threshold_ed("entangled", 1.0)


# At the low ends eta_c * mu underflows to 0, where the memory model's P1
# takes its limit exp(-mu).
FAMILY = st.sampled_from(MODEL_FAMILIES)
ETA = st.floats(0.0, 1.0, exclude_min=True)
MU = st.floats(1e-300, 20.0)
ETA_C = st.floats(1e-300, 1.0)
E_D = st.floats(0.0, 0.5)


class TestRateProperties:
    """Invariants that solve_threshold_ed relies on, over the whole domain."""

    @settings(max_examples=300, deadline=None)
    @given(family=FAMILY, eta=ETA, mu=MU, eta_c=ETA_C)
    def test_rate_nonpositive_at_half(self, family, eta, mu, eta_c):
        # The bisection bracket [0, 1/2] holds the sign change only if so.
        assert rate_at(family, eta, 0.5, mu=mu, eta_c=eta_c) <= 0.0

    @settings(max_examples=300, deadline=None)
    @given(family=FAMILY, eta=ETA, mu=MU, eta_c=ETA_C, e_a=E_D, e_b=E_D)
    def test_rate_nonincreasing_in_ed(self, family, eta, mu, eta_c, e_a, e_b):
        lo, hi = sorted((e_a, e_b))
        rate_lo = rate_at(family, eta, lo, mu=mu, eta_c=eta_c)
        rate_hi = rate_at(family, eta, hi, mu=mu, eta_c=eta_c)
        assert rate_hi <= rate_lo + 1e-12


@st.composite
def grids(draw):
    ends = sorted(draw(st.lists(ETA, min_size=2, max_size=2)))
    return GridSpec(eta_min=ends[0], eta_max=ends[1], step=draw(st.floats(0.01, 0.5)))


class TestSweepAgainstScalarReference:
    """The array sweep against the tests' own scalar rate formula."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=FAMILY,
        mu=st.floats(1e-3, 5.0),
        eta_c=st.floats(0.0, 1.0, exclude_min=True),
        grid=grids(),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
    )
    def test_sweep_matches_scalar_rate(self, family, mu, eta_c, grid, tol):
        try:
            points = sweep_curve(family, grid=grid, tol=tol, mu=mu, eta_c=eta_c).points
        except EmptyCurveError:
            points = ()
        swept = {p.eta: p.e_d_max for p in points}
        for eta in grid.values():
            e_d_max = swept.get(eta)
            if e_d_max is None:
                assert reference_rate(family, eta, 0.0, mu, eta_c) <= 0.0
            else:
                below = reference_rate(family, eta, max(e_d_max - 2 * tol, 0.0), mu, eta_c)
                above = reference_rate(family, eta, min(e_d_max + 2 * tol, 0.5), mu, eta_c)
                assert below >= 0.0 > above
            assert solve_threshold_ed(family, eta, tol=tol, mu=mu, eta_c=eta_c) == e_d_max


class TestSweepCurve:
    def test_points_sorted_and_above_floor(self):
        curve = sweep_curve("single-photon")
        etas = [p.eta for p in curve.points]
        assert etas == sorted(etas)
        assert len(set(etas)) == len(etas)
        assert all(eta > 0.5 for eta in etas)

    def test_curve_ends_at_ceiling(self):
        curve = sweep_curve("single-photon")
        last = curve.points[-1]
        assert last.eta == 1.0
        assert abs(last.e_d_max - 0.110) < 0.001

    def test_single_photon_curve_nondecreasing(self):
        curve = sweep_curve("single-photon")
        values = [p.e_d_max for p in curve.points]
        assert all(v1 <= v2 + 1e-9 for v1, v2 in zip(values, values[1:]))

    def test_memory_curve_matches_single_photon(self):
        sp = sweep_curve("single-photon")
        mem = sweep_curve("single-photon-memory")
        assert len(sp.points) == len(mem.points)
        for a, b in zip(sp.points, mem.points):
            assert a.eta == b.eta
            assert abs(a.e_d_max - b.e_d_max) <= 1e-6
        assert mem.points[0].model_tag == "single-photon-memory"

    @pytest.mark.parametrize("family", ["coherent", "coherent-memory"])
    def test_coherent_families_have_curves(self, family):
        curve = sweep_curve(family)
        assert curve.points[0].eta <= 0.55
        assert curve.points[-1].e_d_max > 0.0

    def test_empty_curve_raises(self):
        with pytest.raises(EmptyCurveError):
            sweep_curve("single-photon", grid=GridSpec(eta_min=0.3, eta_max=0.5, step=0.05))

    def test_every_point_passes_bracketing_reevaluation(self):
        tol = 1e-9
        curve = sweep_curve("coherent", grid=GridSpec(eta_min=0.6, eta_max=1.0, step=0.05))
        for p in curve.points:
            assert rate_at("coherent", p.eta, max(p.e_d_max - 2 * tol, 0.0)) >= 0.0
            assert rate_at("coherent", p.eta, p.e_d_max + 2 * tol) < 0.0


class TestGridSpec:
    def test_default_grid(self):
        values = GridSpec().values()
        assert len(values) == 101
        assert values[0] == 0.5
        assert values[-1] == 1.0

    def test_endpoint_included_for_uneven_span(self):
        values = GridSpec(eta_min=0.5, eta_max=0.9925, step=0.005).values()
        assert values[-1] == 0.9925
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(eta_min=0.0, eta_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(eta_min=0.9, eta_max=0.5)
        with pytest.raises(ValueError):
            GridSpec(eta_min=0.5, eta_max=1.1)
        with pytest.raises(ValueError):
            GridSpec(step=0.0)

    @pytest.mark.parametrize("steps", [MAX_GRID_POINTS - 1.6, MAX_GRID_POINTS - 1.4])
    def test_largest_grids_stay_within_the_cap(self, steps):
        # Rounding the step count up or down, with the endpoint appended.
        assert len(GridSpec(eta_min=0.5, eta_max=1.0, step=0.5 / steps).values()) == MAX_GRID_POINTS

    @pytest.mark.parametrize("step", [0.5 / (MAX_GRID_POINTS - 1), 1e-7, 5e-324])
    def test_grid_beyond_the_cap_names_step(self, step):
        with pytest.raises(ValueError, match=f"step {step} is too small"):
            GridSpec(eta_min=0.5, eta_max=1.0, step=step)


class TestCsv:
    def test_format(self):
        curve = sweep_curve("single-photon", grid=GridSpec(eta_min=0.9, eta_max=1.0, step=0.05))
        text = curve_to_csv(curve)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(curve.points) + 1
        assert text.endswith("\n")
        model, eta, e_d = lines[-1].split(",")
        assert model == "single-photon"
        assert len(eta.split(".")[1]) == 9
        assert len(e_d.split(".")[1]) == 9

    def test_round_trip_within_quantization(self):
        curve = sweep_curve("coherent", grid=GridSpec(eta_min=0.8, eta_max=1.0, step=0.1))
        rows = curve_to_csv(curve).splitlines()[1:]
        for row, point in zip(rows, curve.points):
            _, eta, e_d = row.split(",")
            assert abs(float(eta) - point.eta) <= 5e-10
            assert abs(float(e_d) - point.e_d_max) <= 5e-10

    def test_point_fields(self):
        p = ThresholdPoint(eta=0.75, e_d_max=0.05, model_tag="single-photon")
        assert (p.eta, p.e_d_max, p.model_tag) == (0.75, 0.05, "single-photon")
