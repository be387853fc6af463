"""Tests for binary entropy and the threshold bisection solver."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference
from lfqkd.numerics import _binary_entropy_kernel, binary_entropy
from lfqkd.rates import MODEL_FAMILIES, channel_terms
from lfqkd.threshold import (
    DEFAULT_BISECT_TOL,
    DEFAULT_ETA_C,
    DEFAULT_MU,
    _ed_rate,
    find_root_bisect,
    solve_threshold_ed,
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


def solve_one(f, **kwargs):
    """Root of ``f`` on the one bracket [0, 1/2]."""
    (root,) = find_root_bisect(f, 1, **kwargs).tolist()
    return root


class TestFindRootBisect:
    """The threshold solver on its one bracket, e_d in [0, 1/2]."""

    def test_linear_root(self):
        assert solve_one(lambda x: 0.25 - x, tol=1e-9) == 0.25

    def test_sqrt_two(self):
        root = solve_one(lambda x: 0.125 - x * x, tol=1e-9)
        assert root == pytest.approx(SQRT2 / 4, abs=1e-9)

    def test_interior_root(self):
        assert abs(solve_one(lambda x: THIRD - x) - THIRD) <= DEFAULT_BISECT_TOL

    def test_invalid_tol(self):
        # The sweep checks tol once, for every solve: the solver does not.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_threshold_ed("single-photon", 1.0, tol=0.0)
        with pytest.raises(ValueError, match="tol must be below the e_d bracket width"):
            solve_threshold_ed("single-photon", 1.0, tol=0.5)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_threshold_ed("single-photon", 1.0, tol=math.nan)

    def test_inf_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_threshold_ed("single-photon", 1.0, tol=math.inf)

    def test_tol_below_float_spacing_stops_at_adjacent_floats(self):
        root = solve_one(lambda x: 0.125 - x * x, tol=1e-300)
        assert abs(root - SQRT2 / 4) <= math.ulp(SQRT2 / 4)

    def test_root_far_below_bracket_scale(self):
        # 714 halvings: more than any fixed cap below that allows.
        root = solve_one(lambda x: 1e-200 - x, tol=1e-300)
        assert abs(root - 1e-200) <= 1e-300

    def test_deterministic(self):
        f = lambda x: 0.125 - x * x  # noqa: E731
        assert solve_one(f) == solve_one(f)

    def test_default_tol(self):
        assert DEFAULT_BISECT_TOL == 1e-9


class TestFindRootBisectArrays:
    """Each bracket of an array solve gives what it gives solved alone."""

    # c - x*x: roots inside, at an exact midpoint (c = 1/16, 1/64), far
    # below the bracket's scale and next to its upper end.
    C = np.array([0.125, 1 / 16, 1 / 64, 0.09, 1e-200, 0.2499])

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-300])
    def test_matches_scalar_brackets(self, tol):
        roots = find_root_bisect(lambda x: self.C - x * x, len(self.C), tol=tol)
        expected = [solve_one(lambda x, c=c: c - x * x, tol=tol) for c in self.C.tolist()]
        assert roots.tolist() == expected
        assert expected[1:3] == [0.25, 0.125]

    def test_no_points(self):
        assert find_root_bisect(lambda x: 0.25 - x, 0).tolist() == []


def _recorded(f):
    """``f`` and the list of copies of the points it is called on."""
    calls = []

    def recording(x):
        calls.append(x.copy())
        return f(x)

    return recording, calls


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


#: A point strictly inside [0, 1/2] whose bisection never lands on it exactly.
THIRD = 1.0 / 3.0

#: Zeros the bisection of [0, 1/2] reaches exactly: k*2^-(j+1), k odd.
DYADIC = st.integers(1, 1020).flatmap(
    lambda j: st.integers(0, min(2 ** (j - 1), 2**52) - 1).map(lambda k: (2 * k + 1) * 2.0 ** -(j + 1))
)

#: Zeros strictly inside (0, 1/2).
INSIDE = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)


def _steps(zeros):
    """Product of sign(z - x) over an odd count of zeros: +1 at 0, -1 at 1/2,
    and exactly zero at each z."""
    return lambda x: np.prod([np.sign(z - x) for z in zeros], axis=0)


@st.composite
def solves(draw):
    """(f, n, tol) with f(0) > 0 > f(1/2) at each of n points; ``f``'s exact
    zeros sit at midpoints the bisection reaches, or anywhere inside."""
    n = draw(st.integers(1, 4))
    tol = draw(
        st.floats(5e-324, 0.5, exclude_max=True)
        | st.sampled_from([5e-324, 1e-300, 2.0**-53, 2.0**-52, 2.0**-50, 1e-9, 0.125, 0.49])
    )
    kind = draw(st.sampled_from(["linear", "steps", "cosine", "rate"]))
    if kind == "linear":  # monotone, one exact zero at c
        c = np.array(draw(st.lists(DYADIC | INSIDE, min_size=n, max_size=n)))
        f = lambda x: 0.5 * c - 0.5 * x  # noqa: E731
    elif kind == "steps":  # non-monotone where 3 zeros, flat between them
        count = draw(st.sampled_from([1, 3]))
        zeros = [np.array(draw(st.lists(DYADIC | INSIDE, min_size=n, max_size=n))) for _ in range(count)]
        f = _steps(zeros)
    elif kind == "cosine":  # non-monotone, one or more sign changes
        a = np.pi * (4 * np.array(draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))) + 1.5)
        f = lambda x: np.cos(a * x)  # noqa: E731
    else:  # the rate a threshold solve bisects
        family = draw(st.sampled_from(MODEL_FAMILIES))
        eta = np.array(draw(st.lists(st.floats(0.5, 1.0, exclude_min=True), min_size=n, max_size=n)))
        f = _ed_rate(*channel_terms(family, eta, DEFAULT_MU, DEFAULT_ETA_C))
    with np.errstate(divide="ignore", invalid="ignore"):
        assume(np.all(f(np.zeros(n)) > 0.0) and np.all(f(np.full(n, 0.5)) < 0.0))
    return f, n, tol


def _outcome(solve):
    """Root bits of ``solve()`` and the points it called ``f`` on."""
    with np.errstate(divide="ignore", invalid="ignore"):  # as the solver's own errstate
        roots, calls = solve()
    return _bits(roots), [_bits(x) for x in calls]


def _dyadic_next_to_third(j):
    """The odd multiple of 2^-j next to 1/3: the bisection of [0, 1/2] reaches
    it exactly, as the midpoint of its halving of width 2^-(j-1)."""
    return (2 * int(THIRD * 2 ** (j - 1)) + 1) * 2.0**-j


def _edge_examples(test):
    """``test`` with an example per edge tol and root kind (see its comment)."""
    for k in (3, 20, 49, 50, 51):
        c = np.array([_dyadic_next_to_third(k), _dyadic_next_to_third(k + 1)])
        for tol in (math.nextafter(2.0**-k, 0), 2.0**-k, math.nextafter(2.0**-k, 1)):
            test = example((lambda x: THIRD - x, 1, tol))(test)
            test = example((lambda x, c=c: c - x, 2, tol))(test)
    return test


class TestMatchesTheMaskedForms:
    """The threshold solver and the entropy kernel give the bits of the
    general bisection and the masked entropy they replaced
    (``tests/reference.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(solves())
    @example((lambda x: 0.25 - x, 1, 1e-300))  # f == 0 at the first midpoint
    @example((lambda x: THIRD - x, 2, 5e-324))
    # The edges where the count of halvings changes: tol at and next to a
    # power of two, down to and below 2^-50, with a root at no midpoint and
    # two at the midpoints of the last halving that calls f and of the one
    # at which the brackets stop.
    @_edge_examples
    @example((lambda x: 0.125 - x * x, 1, 2.0**-52))
    @example((lambda x: 0.5 - THIRD - x, 1, 2.0**-53))
    @example((lambda x: 1e-310 - x, 1, 5e-324))  # a subnormal root
    def test_bisection_same_roots_and_calls(self, case):
        f, n, tol = case
        lo, hi = np.zeros(n), np.full(n, 0.5)

        def solve(solver, *args):
            recording, calls = _recorded(f)
            return solver(recording, *args, tol=tol), calls

        old_roots, old_calls = _outcome(lambda: solve(reference.find_root_bisect, lo, hi))
        new_roots, new_calls = _outcome(lambda: solve(find_root_bisect, n))
        assert new_roots == old_roots
        assert old_calls[:2] == [_bits(lo), _bits(hi)]
        assert new_calls == old_calls[2:]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @example([0.0, -0.0, 1.0, 0.5, 5e-324, -5e-324, 1.0 - 2.0**-53, 1.0 + 2.0**-52])
    @example([math.nan, math.inf, -math.inf, 1e308, -1e308, 2.0, -1.0, 0.11])
    def test_entropy_same_bits(self, xs):
        x = np.array(xs)
        with np.errstate(all="ignore"):
            new = _binary_entropy_kernel(x)
        assert _bits(new) == _bits(reference.binary_entropy_array(x))
