"""Tests for binary entropy and the bisection solver."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference
from lfqkd.numerics import (
    DEFAULT_BISECT_TOL,
    NoSignChangeError,
    _binary_entropy_kernel,
    binary_entropy,
    find_root_bisect,
)

# High-precision reference values (mpmath, 40 digits).
H2_011 = 0.4999159581645280
H2_001 = 0.0807931358959112
SQRT2 = 1.4142135623730951


class TestBinaryEntropy:
    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    @pytest.mark.parametrize(
        "x, expected",
        [(0.11, H2_011), (0.01, H2_001), (0.89, H2_011)],
    )
    def test_reference_values(self, x, expected):
        assert binary_entropy(x) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("x", [-0.1, 1.1, -1e-12 - 1e-13, 2.0])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)

    def test_symmetry(self):
        xs = [i / 997 for i in range(998)]
        for x in xs:
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_concavity(self):
        xs = [i / 53 for i in range(54)]
        for a in xs:
            for b in xs:
                mid = binary_entropy((a + b) / 2.0)
                chord = (binary_entropy(a) + binary_entropy(b)) / 2.0
                assert mid >= chord - 1e-12

    def test_monotone_on_lower_half(self):
        xs = [i / 1000 for i in range(501)]
        values = [binary_entropy(x) for x in xs]
        assert all(v1 <= v2 + 1e-15 for v1, v2 in zip(values, values[1:]))

    def test_array_form_matches_scalar(self):
        xs = [0.0, 5e-324, 1e-300, 0.11, 0.5, 0.89, 1.0 - 2.0**-53, 1.0]
        xs += [i / 997 for i in range(998)]
        with np.errstate(all="ignore"):
            values = _binary_entropy_kernel(np.array(xs)).tolist()
        assert values[:2] == [0.0, binary_entropy(5e-324)]
        assert values[-998] == 0.0 and values[-1] == 0.0
        # numpy's log2 may differ from math.log2 in the last ulp; H2 <= 1.
        for x, value in zip(xs, values):
            assert value == pytest.approx(binary_entropy(x), abs=2 * 2.0**-52)


def solve_one(f, lo, hi, **kwargs):
    """Root of the one bracket [lo, hi], solved as a one-element array."""
    (root,) = find_root_bisect(f, np.array([lo]), np.array([hi]), **kwargs).tolist()
    return root


class TestFindRootBisect:
    def test_linear_root(self):
        assert solve_one(lambda x: x - 0.5, 0.0, 1.0, tol=1e-9) == 0.5

    def test_sqrt_two(self):
        root = solve_one(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-9)
        assert root == pytest.approx(SQRT2, abs=1e-9)

    def test_interior_root(self):
        assert solve_one(lambda x: x, -1.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "f, lo, hi, reference",
        [
            (lambda x: x**3 - 5.0, 0.0, 3.0, 5.0 ** (1.0 / 3.0)),
            (lambda x: np.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
            (lambda x: np.exp(x) - 2.0, 0.0, 1.0, math.log(2.0)),
        ],
    )
    def test_analytic_roots_within_tol(self, f, lo, hi, reference):
        for tol in (1e-6, 1e-9, 1e-12):
            assert abs(solve_one(f, lo, hi, tol=tol) - reference) <= tol

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            solve_one(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_roots_returned_directly(self):
        assert solve_one(lambda x: x, 0.0, 1.0) == 0.0
        assert solve_one(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            solve_one(lambda x: x, -1.0, 1.0, tol=0.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            solve_one(lambda x: x, -1.0, 1.0, tol=math.nan)

    def test_inf_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            solve_one(lambda x: x, -1.0, 1.0, tol=math.inf)

    def test_tol_below_float_spacing_stops_at_adjacent_floats(self):
        root = solve_one(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-300)
        assert abs(root - SQRT2) <= math.ulp(SQRT2)

    def test_root_far_below_bracket_scale(self):
        # About 1,000 halvings: more than any fixed cap below that allows.
        root = solve_one(lambda x: x - 1e-200, 0.0, 1.0, tol=1e-300)
        assert abs(root - 1e-200) <= 1e-300

    def test_bracket_wider_than_float_range(self):
        # hi - lo overflows to inf: the width test must not warn or stop early.
        assert abs(solve_one(lambda x: x, -1e308, 1.7e308)) <= DEFAULT_BISECT_TOL

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_midpoint_sum_beyond_float_range(self, sign):
        # lo + hi overflows to +-inf: the midpoint is 0.5*lo + 0.5*hi instead.
        lo, hi = sorted([sign * 1e308, sign * 1.7e308])
        root = solve_one(lambda x: x - sign * 1.5e308, lo, hi)
        assert abs(root - sign * 1.5e308) <= DEFAULT_BISECT_TOL

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            solve_one(lambda x: x, 1.0, -1.0)

    def test_deterministic(self):
        f = lambda x: x * x - 2.0  # noqa: E731
        assert solve_one(f, 0.0, 2.0) == solve_one(f, 0.0, 2.0)

    def test_default_tol(self):
        assert DEFAULT_BISECT_TOL == 1e-9


class TestFindRootBisectArrays:
    """Each bracket of an array solve gives what it gives solved alone."""

    # x*x - c on [lo, hi]: roots inside, at lo (c = 0), at hi (c = 4), at
    # an exact midpoint (c = 1) and far below the bracket's scale.
    C = np.array([2.0, 0.0, 4.0, 1.0, 0.3, 1e-200])
    LO = np.array([0.0, 0.0, 0.0, 0.0, -1.0, 0.0])
    HI = np.array([2.0, 2.0, 2.0, 2.0, 0.0, 1.0])

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-300])
    def test_matches_scalar_brackets(self, tol):
        roots = find_root_bisect(lambda x: x * x - self.C, self.LO, self.HI, tol=tol)
        expected = [
            solve_one(lambda x, c=c: x * x - c, lo, hi, tol=tol)
            for c, lo, hi in zip(self.C.tolist(), self.LO.tolist(), self.HI.tolist())
        ]
        assert roots.tolist() == expected
        assert expected[1:4] == [0.0, 2.0, 1.0]

    def test_brackets_broadcast(self):
        roots = find_root_bisect(lambda x: x - np.array([0.25, 0.5]), 0.0, np.ones(2))
        assert roots.tolist() == [0.25, 0.5]

    def test_one_bracket_without_sign_change_raises(self):
        with pytest.raises(NoSignChangeError, match="f\\(1.0\\)"):
            find_root_bisect(lambda x: x * x - self.C[:2], np.array([0.0, 1.0]), 2.0)

    def test_one_invalid_bracket_raises(self):
        with pytest.raises(ValueError, match="invalid bracket \\[3.0, 2.0\\]"):
            find_root_bisect(lambda x: x, np.array([0.0, 3.0]), 2.0)


def _recorded(f):
    """``f`` and the list of copies of the points it is called on."""
    calls = []

    def recording(x):
        calls.append(x.copy())
        return f(x)

    return recording, calls


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def _half_difference(x, c):
    """0.5*x - 0.5*c: exactly zero at x = c, and finite for any finite x and c."""
    return 0.5 * x - 0.5 * c


@st.composite
def brackets_and_functions(draw):
    """Brackets, a tol from subnormal up to their width, and an ``f`` whose
    exact zeros sit at ``lo``, ``hi``, a midpoint, inside or outside."""
    n = draw(st.integers(1, 4))
    finite = st.floats(-1.7e308, 1.7e308, allow_nan=False)
    lo, hi, zeros = [], [], []
    for _ in range(n):
        a, b = draw(finite), draw(finite)
        assume(a != b)
        a, b = min(a, b), max(a, b)
        mid = 0.5 * a + 0.5 * b
        lo.append(a)
        hi.append(b)
        zeros.append(draw(st.sampled_from([a, b, mid, 0.5 * a + 0.5 * mid]) | finite))
    lo, hi, c = np.array(lo), np.array(hi), np.array(zeros)
    # Python floats: a width beyond the float range is inf, without a warning.
    width = min(min(b - a for a, b in zip(lo.tolist(), hi.tolist())), 1.7e308)
    tol = draw(st.floats(5e-324, width) | st.sampled_from([5e-324, 1e-300, 1e-9, width]))
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["linear", "steps", "cosine"]))
    if kind == "linear":  # monotone, one exact zero at c
        f = lambda x: sign * _half_difference(x, c)  # noqa: E731
    elif kind == "steps":  # non-monotone, exact zeros at c, lo and hi's midpoint
        f = lambda x: (  # noqa: E731
            sign * np.sign(_half_difference(x, c)) * np.sign(_half_difference(x, 0.5 * lo + 0.5 * hi))
        )
    else:  # non-monotone, many sign changes
        f = lambda x: sign * (np.cos(x) - 0.5)  # noqa: E731
    return f, lo, hi, tol


def _outcome(solver, f, lo, hi, tol):
    """(root bits or the exception, the points ``f`` was called on, and
    whether a midpoint sum ``lo + hi`` overflowed)."""
    recording, calls = _recorded(f)
    try:
        # As inside ``find_root_bisect``: f at an overflowed midpoint warns.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            roots = solver(recording, lo, hi, tol=tol)
        result = _bits(roots)
    except ValueError as exc:
        roots, result = np.zeros(0), (type(exc), str(exc))
    # The brackets are finite, so an infinite midpoint or root is an overflow.
    overflowed = any(np.isinf(x).any() for x in [roots, *calls])
    return result, [_bits(x) for x in calls], overflowed


#: A point strictly inside [0, 1] whose bisection never lands on it exactly.
THIRD = 1.0 / 3.0


class TestMatchesTheMaskedForms:
    """The entropy kernel and the in-place bisection give the bits of the
    masked forms they replaced (``tests/reference.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(brackets_and_functions())
    @example((lambda x: x, np.array([-1e308]), np.array([1e308]), DEFAULT_BISECT_TOL))
    @example((lambda x: x, np.array([-1e308]), np.array([1.7e308]), 5e-324))
    @example((lambda x: x - 0.25, np.array([0.0]), np.array([0.5]), 1e-300))
    @example((lambda x: x - 0.5, np.array([0.0, 0.5]), np.array([1.0, 0.75]), 0.1))
    # The edges of the halvings without a stop test (``_safe_halvings``):
    # w/tol at and just above a power of two,
    @example((lambda x: x - THIRD, np.array([0.0]), np.array([1.0]), 2.0**-20))
    @example((lambda x: x - THIRD, np.array([0.0]), np.array([1.0]), math.nextafter(2.0**-20, 0)))
    @example((lambda x: x - THIRD, np.array([0.0, 0.0]), np.array([1.0, 2.0**-3]), 2.0**-30))
    # M = 2^1022 and the next float above it,
    @example((lambda x: x - 3e307, np.array([2.0**1021]), np.array([2.0**1022]), 1e-9))
    @example((lambda x: x, np.array([-(2.0**1022)]), np.array([2.0**1022]), 5e-324))
    @example(
        (lambda x: x - 3e307, np.array([2.0**1021]), np.array([math.nextafter(2.0**1022, math.inf)]), 1e-9)
    )
    # subnormal brackets,
    @example((lambda x: x - 333 * 5e-324, np.array([0.0]), np.array([1000 * 5e-324]), 5e-324))
    @example((lambda x: x, np.array([-7 * 5e-324]), np.array([9 * 5e-324]), 2 * 5e-324))
    # and tol at float spacing.
    @example((lambda x: x * x - 2.0, np.array([1.0]), np.array([2.0]), 2.0**-52))
    @example((lambda x: x - 1.0 - THIRD, np.array([1.0]), np.array([2.0]), 2.0**-53))
    def test_bisection_same_roots_and_calls(self, case):
        f, lo, hi, tol = case
        old = _outcome(reference.find_root_bisect, f, lo, hi, tol)
        # There the reference's midpoint is +-inf, and its root too.
        assume(not old[2])
        new = _outcome(find_root_bisect, f, lo, hi, tol)
        assert new[0] == old[0]
        assert len(new[1]) == len(old[1])
        assert new[1] == old[1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @example([0.0, -0.0, 1.0, 0.5, 5e-324, -5e-324, 1.0 - 2.0**-53, 1.0 + 2.0**-52])
    @example([math.nan, math.inf, -math.inf, 1e308, -1e308, 2.0, -1.0, 0.11])
    def test_entropy_same_bits(self, xs):
        x = np.array(xs)
        with np.errstate(all="ignore"):
            new = _binary_entropy_kernel(x)
        assert _bits(new) == _bits(reference.binary_entropy_array(x))
