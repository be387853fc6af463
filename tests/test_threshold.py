"""Tests for the tolerance-boundary solver and curve sweep."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from lfqkd import threshold
from lfqkd.rates import channel_terms, rate_terms
from lfqkd.threshold import (
    CSV_HEADER,
    EmptyCurveError,
    GridSpec,
    MAX_GRID_POINTS,
    MODEL_FAMILIES,
    SOLVE_CHUNK,
    ThresholdCurve,
    curve_to_csv,
    solve_threshold_ed,
    sweep_curve,
)
from reference import model_rate, reference_rate

# Root of 1 - 2*H2(x) on (0, 1/2); mpmath, 40 digits.
SINGLE_PHOTON_CEILING = 0.1100278644383596


def scan_threshold(family, eta, step=1e-5):
    """Independent fine-grid oracle: largest e_d on the grid with rate >= 0."""
    best = None
    n = int(round(0.5 / step))
    for i in range(n + 1):
        e_d = i * step
        if model_rate(family, eta, e_d) >= 0.0:
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
            assert model_rate(family, eta, max(e_d_max - 2 * tol, 0.0)) >= 0.0
            assert model_rate(family, eta, min(e_d_max + 2 * tol, 0.5)) < 0.0

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
        assert model_rate(family, eta, 0.5, mu=mu, eta_c=eta_c) <= 0.0

    @settings(max_examples=300, deadline=None)
    @given(family=FAMILY, eta=ETA, mu=MU, eta_c=ETA_C)
    def test_kernel_negative_at_half_where_kept(self, family, eta, mu, eta_c):
        # find_root_bisect evaluates neither end: it needs f(0) > 0 > f(1/2)
        # of the kernel call _solve_grid makes, wherever its kept test holds.
        q_s, p_1, y_1 = channel_terms(family, np.array([eta]), mu, eta_c)
        f = threshold._ed_rate(q_s, p_1, y_1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            (at_zero,), (at_half,) = f(np.zeros(1)), f(np.full(1, 0.5))
        (kept,) = rate_terms(q_s, np.zeros(1), p_1, y_1)[0] > 0.0
        assert kept == (at_zero > 0.0)
        assert not at_zero > 0.0 or at_half < 0.0

    @settings(max_examples=300, deadline=None)
    @given(family=FAMILY, etas=st.lists(ETA, min_size=1, max_size=8), mu=MU, eta_c=ETA_C)
    def test_start_call_keeps_what_rate_terms_keeps(self, family, etas, mu, eta_c):
        # The kept test, and with it the 50% floor, reads row 0 of the solve's
        # first rate call: it must have the bits of the rate formula at e_d = 0.
        etas, starts, ed_rate = np.array(etas), [], threshold._ed_rate

        def recorded_ed_rate(*terms):
            f = ed_rate(*terms)
            return lambda x: starts.append((x.copy(), f(x))) or starts[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(threshold, "_ed_rate", recorded_ed_rate)
            e_d_max = threshold._solve_grid(family, etas, 1e-9, mu, eta_c)
        x_start, f_start = starts[0]
        q_s, p_1, y_1 = channel_terms(family, etas, mu, eta_c)
        at_zero = rate_terms(q_s, np.zeros(etas.shape), p_1, y_1)[0]
        assert x_start.tolist() == [[0.0] * len(etas), [threshold.SECANT_START] * len(etas)]
        assert f_start[0].view(np.int64).tolist() == at_zero.view(np.int64).tolist()
        assert np.isnan(e_d_max).tolist() == (~(at_zero > 0.0)).tolist()

    @settings(max_examples=300, deadline=None)
    @given(family=FAMILY, eta=ETA, mu=MU, eta_c=ETA_C, e_a=E_D, e_b=E_D)
    def test_rate_nonincreasing_in_ed(self, family, eta, mu, eta_c, e_a, e_b):
        lo, hi = sorted((e_a, e_b))
        rate_lo = model_rate(family, eta, lo, mu=mu, eta_c=eta_c)
        rate_hi = model_rate(family, eta, hi, mu=mu, eta_c=eta_c)
        assert rate_hi <= rate_lo + 1e-12


@st.composite
def grids(draw):
    ends = sorted(draw(st.lists(ETA, min_size=2, max_size=2)))
    return GridSpec(eta_min=ends[0], eta_max=ends[1], step=draw(st.floats(0.01, 0.5)))


@st.composite
def valid_grids(draw):
    """Any grid GridSpec accepts, with at most 10^4 steps to keep examples quick."""
    ends = sorted(draw(st.lists(ETA, min_size=2, max_size=2)))
    step = draw(st.floats(max((ends[1] - ends[0]) / 10**4, 5e-324), 1.0))
    return GridSpec(eta_min=ends[0], eta_max=ends[1], step=step)


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
            curve = sweep_curve(family, grid=grid, tol=tol, mu=mu, eta_c=eta_c)
            swept = dict(zip(curve.eta.tolist(), curve.e_d_max.tolist()))
        except EmptyCurveError:
            swept = {}
        for eta in grid.values().tolist():
            e_d_max = swept.get(eta)
            if e_d_max is None:
                assert reference_rate(family, eta, 0.0, mu, eta_c) <= 0.0
            else:
                below = reference_rate(family, eta, max(e_d_max - 2 * tol, 0.0), mu, eta_c)
                above = reference_rate(family, eta, min(e_d_max + 2 * tol, 0.5), mu, eta_c)
                assert below >= 0.0 > above
            assert solve_threshold_ed(family, eta, tol=tol, mu=mu, eta_c=eta_c) == e_d_max


def general_sweep(family, grid, tol, mu, eta_c):
    """``e_d_max`` at each point of ``grid`` by the general bisection of
    ``tests/reference.py`` on the rate a solve bisects, ``_ed_rate``; NaN
    where the rate at e_d = 0 is not positive."""
    q_s, p_1, y_1 = channel_terms(family, grid.values(), mu, eta_c)
    e_d_max = np.full(q_s.shape, np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kept = threshold._ed_rate(q_s, p_1, y_1)(np.zeros(q_s.shape)) > 0.0
        if kept.any():
            f = threshold._ed_rate(q_s[kept], p_1, y_1[kept])
            hi = np.full(np.count_nonzero(kept), 0.5)
            e_d_max[kept] = reference.find_root_bisect(f, 0.0, hi, tol=tol)
    return e_d_max


class TestSweepAgainstGeneralBisection:
    """Whole curves give the bits of the general bisection they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        family=FAMILY,
        grid=valid_grids(),
        mu=MU,
        eta_c=ETA_C,
        tol=st.floats(5e-324, 0.5, exclude_max=True)
        | st.integers(2, 1074).map(lambda k: 2.0**-k)
        | st.sampled_from([1e-9, 1e-12]),
    )
    @example(family="coherent", grid=GridSpec(), mu=0.5, eta_c=0.01, tol=1e-9)
    @example(family="single-photon", grid=GridSpec(0.01, 1.0, 1e-3), mu=0.5, eta_c=0.01, tol=2.0**-50)
    # The largest tol that is bisected whole, the cell as wide as the secant's
    # start point and wider, a grid at the floor, and mu at both ends.
    @example(
        family="coherent-memory",
        grid=GridSpec(0.01, 1.0, 1e-3),
        mu=0.5,
        eta_c=0.01,
        tol=float(np.nextafter(2.0**-50, 0.0)),
    )
    @example(family="single-photon", grid=GridSpec(), mu=0.5, eta_c=0.01, tol=0.125)
    @example(family="coherent", grid=GridSpec(), mu=0.5, eta_c=0.01, tol=0.3)
    @example(family="single-photon-memory", grid=GridSpec(0.5, 0.51, 1e-4), mu=0.5, eta_c=0.01, tol=1e-9)
    @example(family="coherent", grid=GridSpec(0.5, 0.51, 1e-4), mu=0.5, eta_c=0.01, tol=1e-12)
    @example(family="coherent", grid=GridSpec(0.01, 1.0, 1e-3), mu=1e-6, eta_c=0.01, tol=1e-9)
    @example(family="coherent-memory", grid=GridSpec(0.01, 1.0, 1e-3), mu=30.0, eta_c=0.01, tol=1e-12)
    def test_same_bits_as_the_general_bisection(self, family, grid, mu, eta_c, tol):
        expected = general_sweep(family, grid, tol, mu, eta_c)
        kept = ~np.isnan(expected)
        if not kept.any():
            with pytest.raises(EmptyCurveError):
                sweep_curve(family, grid=grid, tol=tol, mu=mu, eta_c=eta_c)
            return
        curve = sweep_curve(family, grid=grid, tol=tol, mu=mu, eta_c=eta_c)
        assert curve.eta.tolist() == grid.values()[kept].tolist()
        assert curve.e_d_max.view(np.int64).tolist() == expected[kept].view(np.int64).tolist()


class TestSweepCurve:
    def test_points_sorted_and_above_floor(self):
        curve = sweep_curve("single-photon")
        etas = curve.eta.tolist()
        assert etas == sorted(etas)
        assert len(set(etas)) == len(etas)
        assert all(eta > 0.5 for eta in etas)

    def test_curve_ends_at_ceiling(self):
        curve = sweep_curve("single-photon")
        assert curve.eta[-1] == 1.0
        assert abs(curve.e_d_max[-1] - 0.110) < 0.001

    def test_single_photon_curve_nondecreasing(self):
        curve = sweep_curve("single-photon")
        values = curve.e_d_max.tolist()
        assert all(v1 <= v2 + 1e-9 for v1, v2 in zip(values, values[1:]))

    def test_memory_curve_matches_single_photon(self):
        sp = sweep_curve("single-photon")
        mem = sweep_curve("single-photon-memory")
        assert sp.eta.tolist() == mem.eta.tolist()
        for a, b in zip(sp.e_d_max.tolist(), mem.e_d_max.tolist()):
            assert abs(a - b) <= 1e-6
        assert mem.model_tag == "single-photon-memory"

    @pytest.mark.parametrize("family", ["coherent", "coherent-memory"])
    def test_coherent_families_have_curves(self, family):
        curve = sweep_curve(family)
        assert curve.eta[0] <= 0.55
        assert curve.e_d_max[-1] > 0.0

    def test_empty_curve_raises(self):
        with pytest.raises(EmptyCurveError):
            sweep_curve("single-photon", grid=GridSpec(eta_min=0.3, eta_max=0.5, step=0.05))

    def test_every_point_passes_bracketing_reevaluation(self):
        tol = 1e-9
        curve = sweep_curve("coherent", grid=GridSpec(eta_min=0.6, eta_max=1.0, step=0.05))
        for eta, e_d_max in zip(curve.eta.tolist(), curve.e_d_max.tolist()):
            assert model_rate("coherent", eta, max(e_d_max - 2 * tol, 0.0)) >= 0.0
            assert model_rate("coherent", eta, e_d_max + 2 * tol) < 0.0


class TestSolveCost:
    """What the solve of one default-grid curve costs."""

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_one_solve_of_8_calls_in_one_errstate(self, family, monkeypatch):
        entries, calls, bisected, ed_rate = [], [], [], threshold._ed_rate
        enter = np.errstate.__enter__

        def counting_enter(self):
            entries.append(self)
            return enter(self)

        def counted_ed_rate(*terms):
            f = ed_rate(*terms)
            return lambda x: calls.append(x.shape) or f(x)

        monkeypatch.setattr(np.errstate, "__enter__", counting_enter)
        monkeypatch.setattr(threshold, "_ed_rate", counted_ed_rate)
        monkeypatch.setattr(threshold, "find_root_bisect", lambda f, n, tol: bisected.append(n))
        curve = sweep_curve(family)
        # At tol 1e-9: e_d = 0 and 1/8 on every grid point, six secant steps
        # on the kept points, and a seventh whose call on the iterate and its
        # cell's ends confirms every cell; one errstate, no point bisected.
        n, n_kept = len(GridSpec().values()), len(curve.eta)
        assert calls == [(2, n)] + [(n_kept,)] * 6 + [(3, n_kept)]
        assert len(entries) == 1
        assert bisected == []

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    @pytest.mark.parametrize(
        "grid, chunk", [(GridSpec(), SOLVE_CHUNK), (GridSpec(0.1, 1.0, 0.005), 7)]
    )
    def test_failed_checks_are_bisected_to_the_same_bits(self, family, grid, chunk, monkeypatch):
        expected, bisected, solve = sweep_curve(family, grid), [], threshold.find_root_bisect

        def counted_solve(f, n, tol):
            bisected.append(n)
            return solve(f, n, tol=tol)

        monkeypatch.setattr(threshold, "SOLVE_CHUNK", chunk)
        monkeypatch.setattr(threshold, "SECANT_CAP", 0)
        monkeypatch.setattr(threshold, "find_root_bisect", counted_solve)
        curve = sweep_curve(family, grid)
        assert curve.eta.tolist() == expected.eta.tolist()
        assert curve.e_d_max.view(np.int64).tolist() == expected.e_d_max.view(np.int64).tolist()
        # With no secant step no cell is checked (and every root here lies
        # below the start point 1/8): each point is bisected once.
        assert expected.e_d_max.max() < threshold.SECANT_START
        assert sum(bisected) == len(curve.eta)

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    @pytest.mark.parametrize(
        "grid, chunk", [(GridSpec(), SOLVE_CHUNK), (GridSpec(0.1, 1.0, 0.005), 7)]
    )
    @pytest.mark.parametrize("check_every_step", [True, False])
    def test_checks_on_every_step_or_only_the_last_give_the_same_bits(
        self, family, grid, chunk, check_every_step, monkeypatch
    ):
        expected, calls, solves = sweep_curve(family, grid), [], []
        ed_rate, solve = threshold._ed_rate, threshold._solve_kept

        def counted_ed_rate(*terms):
            f = ed_rate(*terms)
            return lambda x: calls.append(x.shape[:-1]) or f(x)

        monkeypatch.setattr(threshold, "SOLVE_CHUNK", chunk)
        # A step spans at most inf cells, and more than -1 cells.
        monkeypatch.setattr(threshold, "SECANT_CHECK", math.inf if check_every_step else -1.0)
        monkeypatch.setattr(threshold, "_ed_rate", counted_ed_rate)
        monkeypatch.setattr(threshold, "_solve_kept", lambda *a: solves.append(1) or solve(*a))
        curve = sweep_curve(family, grid)
        assert curve.eta.tolist() == expected.eta.tolist()
        assert curve.e_d_max.view(np.int64).tolist() == expected.e_d_max.view(np.int64).tolist()
        # Every rate call of a step checks, or only the last of SECANT_CAP.
        if check_every_step:
            assert () not in calls
        else:
            assert calls.count(()) == (threshold.SECANT_CAP - 1) * len(solves)
            assert calls.count((3,)) == len(solves)

    @pytest.mark.parametrize("offset", [-0.5, 0.5])
    def test_a_zero_at_either_cell_end_is_bisected(self, offset, monkeypatch):
        # The rate r - e_d is exactly 0 at its root r, a multiple of the cell
        # width w = 2^-30 of tol 1e-9. A step onto half a width below r
        # gives a cell that ends at that zero, one onto half a width above a
        # cell that starts at it: no check passes, and the bisection stops at r.
        tol, width, calls, bisected, solve = 1e-9, 2.0**-30, [], [], threshold.find_root_bisect
        r = np.array([1 / 16, 3 / 32, 0.1 // width * width, 0.5 - width])

        def counted_solve(f, n, tol):
            bisected.append(n)
            return solve(f, n, tol=tol)

        def step_onto(x_0, f_0, x_1, f_1, out):
            return np.subtract(r + offset * width, x_1, out=out)

        def rate(q_s, p_1, y_1):
            return lambda e_d: calls.append(e_d.shape) or q_s - e_d

        monkeypatch.setattr(threshold, "_ed_rate", rate)
        monkeypatch.setattr(threshold, "_secant_step", step_onto)
        monkeypatch.setattr(threshold, "find_root_bisect", counted_solve)
        f_start = np.stack((r, r - threshold.SECANT_START))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            assert threshold._solve_kept(r, 1.0, r, f_start, tol).tolist() == r.tolist()
        # The step onto the cells, then one check: the next steps are 0, so
        # a check that confirms no cell ends the steps.
        assert calls[:2] == [(len(r),), (3, len(r))] and (3, len(r)) not in calls[2:]
        assert bisected == [len(r)]

    def test_tol_2_to_the_minus_50_stops_on_its_check(self, monkeypatch):
        # At tol 2^-50 the secant steps end at the float spacing of e_d; the
        # solve that froze a point only after a step of at most w/64 took
        # SECANT_CAP steps here (18 rate calls). The check stops it early.
        grid, kwargs = GridSpec(0.9, 1.0, 0.01), dict(tol=2.0**-50, mu=0.01, eta_c=1e-6)
        expected = general_sweep("coherent-memory", grid, kwargs["tol"], 0.01, 1e-6)
        calls, bisected, ed_rate = [], [], threshold._ed_rate

        def counted_ed_rate(*terms):
            f = ed_rate(*terms)
            return lambda x: calls.append(x.shape) or f(x)

        monkeypatch.setattr(threshold, "_ed_rate", counted_ed_rate)
        monkeypatch.setattr(threshold, "find_root_bisect", lambda f, n, tol: bisected.append(n))
        curve = sweep_curve("coherent-memory", grid, **kwargs)
        assert curve.e_d_max.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert hashlib.sha256(curve.e_d_max.tobytes()).hexdigest() == (
            "166bc2393305fdb8398365236291406e0252720d3db53a84505fde42a66b24f7"
        )
        assert len(calls) <= 10 and calls[-1] == (3, len(curve.eta))
        assert bisected == []

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_chunks_do_not_change_a_bit(self, family, monkeypatch):
        # 0.1 to 1: some chunks lie wholly below the floor, one straddles it.
        grid = GridSpec(eta_min=0.1, eta_max=1.0, step=0.005)
        whole = sweep_curve(family, grid)
        monkeypatch.setattr(threshold, "SOLVE_CHUNK", 7)
        chunked = sweep_curve(family, grid)
        assert chunked.eta.tolist() == whole.eta.tolist()
        assert chunked.e_d_max.view(np.int64).tolist() == whole.e_d_max.view(np.int64).tolist()


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

    @settings(max_examples=200, deadline=None)
    @given(grid=valid_grids())
    @example(grid=GridSpec(eta_min=0.5, eta_max=1.0, step=0.5 / (MAX_GRID_POINTS - 1.6)))
    @example(grid=GridSpec(eta_min=0.5, eta_max=1.0, step=0.5 / (MAX_GRID_POINTS - 1.4)))
    @example(grid=GridSpec(eta_min=5e-324, eta_max=0.0301, step=0.01))
    def test_values_match_the_scalar_formula(self, grid):
        n_steps = int(round((grid.eta_max - grid.eta_min) / grid.step))
        expected = [min(grid.eta_min + i * grid.step, grid.eta_max) for i in range(n_steps + 1)]
        if expected[-1] < grid.eta_max:
            expected.append(grid.eta_max)
        values = grid.values()
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.tolist() == expected

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
        assert len(lines) == len(curve.eta) + 1
        assert text.endswith("\n")
        model, eta, e_d = lines[-1].split(",")
        assert model == "single-photon"
        assert len(eta.split(".")[1]) == 9
        assert len(e_d.split(".")[1]) == 9

    def test_round_trip_within_quantization(self):
        curve = sweep_curve("coherent", grid=GridSpec(eta_min=0.8, eta_max=1.0, step=0.1))
        rows = curve_to_csv(curve).splitlines()[1:]
        for row, want_eta, want_ed in zip(rows, curve.eta.tolist(), curve.e_d_max.tolist()):
            _, eta, e_d = row.split(",")
            assert abs(float(eta) - want_eta) <= 5e-10
            assert abs(float(e_d) - want_ed) <= 5e-10

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(max_size=8) | st.sampled_from(["%", "%s", "%%", "a%.9fb"]),
        st.lists(st.tuples(st.floats(), st.floats()), max_size=6),
    )
    def test_same_text_as_one_format_per_row(self, tag, points):
        eta = np.array([a for a, _ in points], dtype=float)
        e_d = np.array([b for _, b in points], dtype=float)
        curve = ThresholdCurve(model_tag=tag, eta=eta, e_d_max=e_d)
        rows = "".join(f"{tag},{a:.9f},{b:.9f}\n" for a, b in zip(eta.tolist(), e_d.tolist()))
        assert curve_to_csv(curve) == f"{CSV_HEADER}\n{rows}"
