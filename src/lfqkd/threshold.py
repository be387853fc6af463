"""Zero-rate boundary mapping in the (transmittance, detector-error) plane.

For each source family this module finds, at fixed transmittance eta (or
readout probability eta_m), the largest intrinsic error probability e_d with
a nonnegative key rate. Sweeping eta produces the tolerance curves of the
four standard configurations:

    single-photon           perfect single-photon source, x-axis eta
    coherent                coherent + decoy, mu fixed, x-axis eta
    coherent-memory         coherent + decoy + memory, x-axis eta_m
    single-photon-memory    basis-independent source + memory, x-axis eta_m

The last family evaluates the single-photon formula with eta_m in the role
of the transmittance, so its curve coincides with the single-photon one; it
is still emitted under its own tag so downstream consumers see all four
configurations.

Each solve returns the root that bisecting e_d in [0, 1/2] to within ``tol``
gives, bit for bit: a point is kept only where its rate at e_d = 0 is
positive, and at e_d = 1/2 the rate of every family is -Q_s < 0. The bisection
ends on a cell of the dyadic grid of width ``w``, the power of two that
``tol`` fixes. Secant steps on the rate find that cell, and a rate call checks
that its lower end is positive and its upper end negative. The rate does not
increase with e_d (``test_rate_nonincreasing_in_ed``), so the bisection, which
evaluates only points of that grid, ends on the same cell. At ``tol`` 1e-9 a
default-grid solve calls the rate 8 times: on e_d = 0 and 1/8, six secant
steps, and a seventh stacked with its cells' ends, the check.
``find_root_bisect``, one plain halving loop on every bracket, solves the
points no check confirms, and all at ``tol`` < 2^-50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rates import MODEL_FAMILIES, _assigned, _rate_kernel, channel_terms, check_inputs
from .rates import key_rate  # noqa: F401  -- not called here; bench/tracing.py patches it

DEFAULT_MU = 0.5
DEFAULT_ETA_C = 0.01
DEFAULT_BISECT_TOL = 1e-9

#: Bracket cap for e_d: a binary error probability beyond 1/2 is meaningless.
E_D_MAX = 0.5

CSV_HEADER = "model,eta,e_d_max"

#: Most points a grid may have: a step whose grid would reach this many is
#: rejected. A sweep and its CSV cost about 2 us and 60 bytes per point, so
#: one curve stays within seconds and a hundred MB.
MAX_GRID_POINTS = 10**6

#: Points bisected together, which bounds the solver's temporaries.
SOLVE_CHUNK = 2**14

#: Second start point of the secant steps that propose each root's cell.
SECANT_START = 0.125

#: Most secant steps a solve takes; the rate call of the last checks its cells.
SECANT_CAP = 16

#: Once no secant step spans more final cells than this, each rate call checks.
SECANT_CHECK = 16


class EmptyCurveError(ValueError):
    """Raised when no grid point admits a tolerable error probability."""


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced eta grid, endpoints included."""

    eta_min: float = 0.5
    eta_max: float = 1.0
    step: float = 0.005

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_min <= self.eta_max <= 1.0:
            raise ValueError(
                f"grid must satisfy 0 < eta_min <= eta_max <= 1, "
                f"got [{self.eta_min}, {self.eta_max}]"
            )
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        # Fewer than MAX_GRID_POINTS - 1 steps: values() then gives at most
        # MAX_GRID_POINTS points, the endpoint included.
        if not (self.eta_max - self.eta_min) / self.step < MAX_GRID_POINTS - 1:
            raise ValueError(
                f"step {self.step} is too small: the grid on "
                f"[{self.eta_min}, {self.eta_max}] would reach {MAX_GRID_POINTS} points"
            )

    def values(self) -> np.ndarray:
        """The grid as a float64 array: ``min(eta_min + i*step, eta_max)`` for
        each step i, then ``eta_max`` when the last of those falls short."""
        n_steps = int(round((self.eta_max - self.eta_min) / self.step))
        values = np.minimum(self.eta_min + np.arange(n_steps + 1) * self.step, self.eta_max)
        if values[-1] < self.eta_max:
            values = np.append(values, self.eta_max)
        return values


@dataclass(frozen=True, eq=False)
class ThresholdCurve:
    """Tolerance boundary of one source family: ``e_d_max[i]`` is the largest
    tolerable e_d at ``eta[i]``, in strictly increasing eta. Curves compare
    by identity: a field-wise ``==`` on arrays would raise."""

    model_tag: str
    eta: np.ndarray
    e_d_max: np.ndarray


def find_root_bisect(f, n: int, tol: float = DEFAULT_BISECT_TOL) -> np.ndarray:
    """Bisect ``f`` over e_d in [0, 1/2] at each of ``n`` points; return the roots.

    Precondition, not checked: ``f(0) > 0 > f(1/2)`` at every point and
    ``0 < tol < 1/2``. So neither end is evaluated, only the midpoints
    ``0.5*(lo + hi)``, once per halving. A bracket stops when its width is at
    most ``tol``, its midpoint is not strictly inside it, or ``f`` is exactly
    zero there; that midpoint is its root. Brackets already stopped keep
    halving, so all share one width, a power of two while midpoints are
    exact. For ``tol`` >= 2^-50 each root is the first midpoint where ``f`` is
    exactly zero, or else ``lo + w/2`` on a cell ``[lo, lo + w]`` of width
    ``w = 2^(e-1)``, ``e = frexp(tol)[1]``. The solve runs in one ``np.errstate``.
    """
    lo, hi = np.zeros(n), np.full(n, E_D_MAX)
    root, active = np.full(n, np.nan), np.ones(n, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            np.copyto(root, mid, where=active)  # so a root is the midpoint it stops at
            active &= (hi - lo > tol) & (lo < mid) & (mid < hi)
            if not active.any():
                return root
            f_mid = f(mid)
            active &= f_mid != 0.0
            to_lo = f_mid > 0.0
            np.copyto(lo, mid, where=to_lo)
            np.copyto(hi, mid, where=~to_lo)


def _ed_rate(q_s: np.ndarray, p_1, y_1: np.ndarray):
    """The rate as a function of e_d, as a solve evaluates it; call it in an
    ``np.errstate``. An e_d of shape ``(n,)`` or ``(k, n)`` gives a rate of its shape."""
    signal, assigned = p_1 * y_1, _assigned(y_1)
    return lambda e_d: _rate_kernel(q_s, e_d, e_d, y_1, signal, assigned, e_d.shape)[0]


def _secant_step(x_0, f_0, x_1, f_1, out: np.ndarray) -> np.ndarray:
    """The secant step from ``x_1``, through ``(x_0, f_0)``, in ``out``: 0 where
    ``f_0 == f_1``, so a point whose steps have stopped stays where it is."""
    slope = f_0 - f_1
    slope[slope == 0.0] = np.inf
    np.multiply(f_1, np.subtract(x_1, x_0, out=out), out=out)
    return np.divide(out, slope, out=out)


def _solve_kept(q_s: np.ndarray, p_1, y_1: np.ndarray, f_start, tol: float) -> np.ndarray:
    """Roots in e_d, with the bits of ``find_root_bisect``, at points whose
    rate is ``f_start[0] > 0`` at e_d = 0 and ``f_start[1]`` at
    ``SECANT_START``; call it in an ``np.errstate``.

    For ``tol`` >= 2^-50 the bisection ends on a cell of width
    ``w = 2^(e-1)``, ``e = frexp(tol)[1]``, and returns ``lo + w/2``, where
    ``lo`` is the last multiple of ``w`` with a positive rate. Secant steps
    move every point together, clipped to [0, 1/2]. Once no step spans more
    than ``SECANT_CHECK`` cells, and at the last of ``SECANT_CAP`` steps, the
    rate call is on the iterate b stacked with ``lo = floor(b/w)*w`` and
    ``lo + w``: it confirms the cell where ``f(lo) > 0 > f(lo + w)``, which,
    as the rate does not increase with e_d and the bisection evaluates both
    ends (or knows f(1/2) < 0), is the bisection's. The solve returns once
    every point has one. Points left unconfirmed at the cap, or when a check
    adds none after steps of at most a cell, are bisected, as is every point
    at a smaller ``tol``.
    """
    (f_0, f_1), f, n = f_start, _ed_rate(q_s, p_1, y_1), len(q_s)
    if tol < 2.0**-50:
        return find_root_bisect(f, n, tol=tol)
    width = math.ldexp(1.0, math.frexp(tol)[1] - 1)
    x_0, x_1, step = np.zeros(n), np.full(n, SECANT_START), np.empty(n)
    cells, root = np.empty((3, n)), np.full(n, np.nan)
    lo, hi, n_left = cells[1], cells[2], n
    for steps_left in reversed(range(SECANT_CAP)):
        x_next = np.add(x_1, _secant_step(x_0, f_0, x_1, f_1, out=step), out=x_0)
        np.minimum(np.maximum(x_next, 0.0, out=x_next), E_D_MAX, out=x_next)
        x_0, x_1, f_0 = x_1, x_next, f_1
        if steps_left and np.count_nonzero(np.abs(step, out=step) > SECANT_CHECK * width):
            f_1 = f(x_1)
            continue
        np.copyto(cells[0], x_1)
        np.multiply(np.floor(np.divide(x_1, width, out=lo), out=lo), width, out=lo)
        np.add(lo, width, out=hi)
        f_1, f_lo, f_hi = f(cells)
        np.copyto(root, lo + 0.5 * width, where=(f_lo > 0.0) & (f_hi < 0.0))
        n_left, n_before = np.count_nonzero(np.isnan(root)), n_left
        if not n_left:
            return root
        if n_left == n_before and not np.count_nonzero(step > width):
            break  # no new cell, and no step spans a cell: more would not help
    failed = np.isnan(root)
    root[failed] = find_root_bisect(_ed_rate(q_s[failed], p_1, y_1[failed]), n_left, tol=tol)
    return root


def _solve_grid(
    family: str, etas: np.ndarray, tol: float, mu: float, eta_c: float
) -> np.ndarray:
    """Largest e_d with a nonnegative rate at each eta, NaN where there is none.

    ``etas`` must lie in (0, 1], as ``GridSpec`` guarantees. Validates the
    other inputs once. Per ``SOLVE_CHUNK`` points (elementwise, so the same
    bits), in one ``np.errstate``: drops the points whose rate at e_d = 0,
    of one call at 0 and ``SECANT_START``, is nonpositive; solves the rest.
    """
    check_inputs(
        eta_c=eta_c if family == "coherent-memory" else None,
        mu=mu if family in ("coherent", "coherent-memory") else None,
    )
    q_s, p_1, y_1 = channel_terms(family, etas, mu, eta_c)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if tol >= E_D_MAX:  # every bisection would stop at its first midpoint
        raise ValueError(f"tol must be below the e_d bracket width {E_D_MAX}, got {tol}")

    e_d_max = np.full(etas.shape, np.nan)
    for start in range(0, len(etas), SOLVE_CHUNK):
        chunk = slice(start, start + SOLVE_CHUNK)
        q_c, y_c = q_s[chunk], y_1[chunk]
        x_start = np.zeros((2,) + q_c.shape)
        x_start[1] = SECANT_START
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f_start = _ed_rate(q_c, p_1, y_c)(x_start)
            kept = f_start[0] > 0.0
            if kept.any():
                e_d_max[chunk][kept] = _solve_kept(q_c[kept], p_1, y_c[kept], f_start[:, kept], tol)
    return e_d_max


def solve_threshold_ed(
    family: str,
    eta: float,
    tol: float = DEFAULT_BISECT_TOL,
    mu: float = DEFAULT_MU,
    eta_c: float = DEFAULT_ETA_C,
) -> float | None:
    """Largest e_d with a nonnegative rate at fixed ``eta``, or None.

    The root a bisection of the rate over e_d in [0, 1/2] to within ``tol``
    gives: the sweep of a one-point grid. Returns None when the rate is already
    nonpositive at e_d = 0 (at or below the transmittance floor, where no
    positive-error operating point exists).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    (e_d_max,) = _solve_grid(family, np.array([eta], dtype=float), tol, mu, eta_c).tolist()
    return None if math.isnan(e_d_max) else e_d_max


def sweep_curve(
    family: str,
    grid: GridSpec | None = None,
    tol: float = DEFAULT_BISECT_TOL,
    mu: float = DEFAULT_MU,
    eta_c: float = DEFAULT_ETA_C,
) -> ThresholdCurve:
    """Threshold curve of ``family`` over an eta grid.

    Every grid point is solved at once, on arrays, with ``channel_terms``
    and the kernel of ``rate_terms`` in ``lfqkd.rates``. Grid points
    without a tolerable e_d are omitted. Points are emitted in grid order
    (strictly increasing eta), so the result is deterministic. Raises
    EmptyCurveError when every grid point is below the floor.
    """
    if grid is None:
        grid = GridSpec()
    eta = grid.values()
    e_d_max = _solve_grid(family, eta, tol, mu, eta_c)
    kept = ~np.isnan(e_d_max)
    if not kept.any():
        raise EmptyCurveError(
            f"no tolerable e_d for {family} on eta in [{grid.eta_min}, {grid.eta_max}]"
        )
    return ThresholdCurve(model_tag=family, eta=eta[kept], e_d_max=e_d_max[kept])


def curve_to_csv(curve: ThresholdCurve) -> str:
    """Render a curve as CSV: ``model,eta,e_d_max``, 9-decimal fixed format."""
    row = curve.model_tag.replace("%", "%%") + ",%.9f,%.9f\n"
    values = np.column_stack((curve.eta, curve.e_d_max)).ravel().tolist()
    return f"{CSV_HEADER}\n" + (row * len(curve.eta)) % tuple(values)
