"""Tests for binary entropy and the bisection solver."""

import math

import pytest

from lfqkd.numerics import (
    DEFAULT_BISECT_TOL,
    NoSignChangeError,
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


class TestFindRootBisect:
    def test_linear_root(self):
        assert find_root_bisect(lambda x: x - 0.5, 0.0, 1.0, tol=1e-9) == 0.5

    def test_sqrt_two(self):
        root = find_root_bisect(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-9)
        assert root == pytest.approx(SQRT2, abs=1e-9)

    def test_interior_root(self):
        assert find_root_bisect(lambda x: x, -1.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "f, lo, hi, reference",
        [
            (lambda x: x**3 - 5.0, 0.0, 3.0, 5.0 ** (1.0 / 3.0)),
            (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
            (lambda x: math.exp(x) - 2.0, 0.0, 1.0, math.log(2.0)),
        ],
    )
    def test_analytic_roots_within_tol(self, f, lo, hi, reference):
        for tol in (1e-6, 1e-9, 1e-12):
            assert abs(find_root_bisect(f, lo, hi, tol=tol) - reference) <= tol

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            find_root_bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_roots_returned_directly(self):
        assert find_root_bisect(lambda x: x, 0.0, 1.0) == 0.0
        assert find_root_bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            find_root_bisect(lambda x: x, -1.0, 1.0, tol=0.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            find_root_bisect(lambda x: x, -1.0, 1.0, tol=math.nan)

    def test_tol_below_float_spacing_stops_at_adjacent_floats(self):
        root = find_root_bisect(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-300)
        assert abs(root - SQRT2) <= math.ulp(SQRT2)

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            find_root_bisect(lambda x: x, 1.0, -1.0)

    def test_deterministic(self):
        f = lambda x: x * x - 2.0  # noqa: E731
        assert find_root_bisect(f, 0.0, 2.0) == find_root_bisect(f, 0.0, 2.0)

    def test_default_tol(self):
        assert DEFAULT_BISECT_TOL == 1e-9
