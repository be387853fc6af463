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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import DEFAULT_BISECT_TOL, find_root_bisect
from .rates import (
    CoherentDecoy,
    CoherentDecoyMemory,
    SinglePhoton,
    check_probability,
    heralded_single_photon_probability,
    key_rate,
    rate_kernel,
    single_photon_probability,
)

MODEL_FAMILIES = (
    "single-photon",
    "coherent",
    "coherent-memory",
    "single-photon-memory",
)

DEFAULT_MU = 0.5
DEFAULT_ETA_C = 0.01

#: Bracket cap for e_d: a binary error probability beyond 1/2 is meaningless.
E_D_MAX = 0.5

CSV_HEADER = "model,eta,e_d_max"

#: Most points a grid may have: a step whose grid would reach this many is
#: rejected. A sweep costs about 4 us and 200 bytes per point, so one curve
#: stays within seconds and a few hundred MB.
MAX_GRID_POINTS = 10**6


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

    def values(self) -> list[float]:
        n_steps = int(round((self.eta_max - self.eta_min) / self.step))
        values = [min(self.eta_min + i * self.step, self.eta_max) for i in range(n_steps + 1)]
        if values[-1] < self.eta_max:
            values.append(self.eta_max)
        return values


@dataclass(frozen=True)
class ThresholdPoint:
    """Largest tolerable e_d at one grid transmittance."""

    eta: float
    e_d_max: float
    model_tag: str


@dataclass(frozen=True)
class ThresholdCurve:
    """Ordered tolerance boundary for one source family."""

    model_tag: str
    points: tuple[ThresholdPoint, ...]
    grid_spec: GridSpec = field(default_factory=GridSpec)


def rate_at(
    family: str,
    eta: float,
    e_d: float,
    mu: float = DEFAULT_MU,
    eta_c: float = DEFAULT_ETA_C,
) -> float:
    """Raw key rate of ``family`` at transmittance ``eta`` and error ``e_d``.

    ``eta`` plays the role of the memory readout probability for the two
    memory families.
    """
    if family == "single-photon" or family == "single-photon-memory":
        return key_rate(SinglePhoton(eta=eta, e_d=e_d)).rate
    if family == "coherent":
        return key_rate(CoherentDecoy(mu=mu, eta=eta, e_d=e_d)).rate
    if family == "coherent-memory":
        return key_rate(CoherentDecoyMemory(mu=mu, eta_c=eta_c, eta_m=eta, e_d=e_d)).rate
    raise ValueError(f"unknown model family {family!r}; expected one of {MODEL_FAMILIES}")


def _channel_terms(family: str, etas: np.ndarray, mu: float, eta_c: float):
    """Q_s, P1 and Y1 of ``family`` over the eta grid: the e_d-independent terms.

    Checks ``mu`` and ``eta_c`` where the family uses them, with the same
    rules and messages as the source models.
    """
    if family == "single-photon" or family == "single-photon-memory":
        return etas, 1.0, etas
    if family == "coherent":
        p_1 = single_photon_probability(mu)
        q_s = -np.expm1(-etas * mu)
    elif family == "coherent-memory":
        check_probability("eta_c", eta_c)
        p_1 = heralded_single_photon_probability(mu, eta_c)
        q_s = etas
    else:
        raise ValueError(f"unknown model family {family!r}; expected one of {MODEL_FAMILIES}")
    check_probability("p_1", p_1)
    return q_s, p_1, etas


def _solve_grid(
    family: str, etas: np.ndarray, tol: float, mu: float, eta_c: float
) -> np.ndarray:
    """Largest e_d with a nonnegative rate at each eta, NaN where there is none.

    Validates every input once, drops the points whose rate at e_d = 0 is
    already nonpositive, and bisects the rest together over e_d in [0, 1/2].
    """
    outside = ~((etas > 0.0) & (etas <= 1.0))
    if outside.any():
        raise ValueError(f"eta must be in (0, 1], got {etas[outside][0]}")
    q_s, p_1, y_1 = _channel_terms(family, etas, mu, eta_c)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    e_d_max = np.full(etas.shape, np.nan)
    kept = rate_kernel(q_s, p_1, y_1)(np.zeros(etas.shape)) > 0.0
    if kept.any():
        n = int(kept.sum())
        e_d_max[kept] = find_root_bisect(
            rate_kernel(q_s[kept], p_1, y_1[kept]), np.zeros(n), np.full(n, E_D_MAX), tol=tol
        )
    return e_d_max


def solve_threshold_ed(
    family: str,
    eta: float,
    tol: float = DEFAULT_BISECT_TOL,
    mu: float = DEFAULT_MU,
    eta_c: float = DEFAULT_ETA_C,
) -> float | None:
    """Largest e_d with a nonnegative rate at fixed ``eta``, or None.

    Bisects the rate's sign change over e_d in [0, 1/2]: the sweep of a
    one-point grid. Returns None when the rate is already nonpositive at
    e_d = 0 (at or below the transmittance floor, where no positive-error
    operating point exists). At e_d = 1/2 the rate of every family is
    -Q_s <= 0, so the bracket holds the sign change; the returned value
    brackets the zero crossing to within ``tol``.
    """
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

    Every grid point is solved at once, on arrays, with the rate kernel of
    ``lfqkd.rates``; ``rate_at`` is the scalar reference it is tested
    against. Grid points without a tolerable e_d are omitted. Points are
    emitted in grid order (strictly increasing eta), so the result is
    deterministic. Raises EmptyCurveError when every grid point is below the
    floor.
    """
    if grid is None:
        grid = GridSpec()
    etas = grid.values()
    e_d_max = _solve_grid(family, np.array(etas), tol, mu, eta_c).tolist()
    points = tuple(
        ThresholdPoint(eta=eta, e_d_max=e_d, model_tag=family)
        for eta, e_d in zip(etas, e_d_max)
        if not math.isnan(e_d)
    )
    if not points:
        raise EmptyCurveError(
            f"no tolerable e_d for {family} on eta in [{grid.eta_min}, {grid.eta_max}]"
        )
    return ThresholdCurve(model_tag=family, points=points, grid_spec=grid)


def curve_to_csv(curve: ThresholdCurve) -> str:
    """Render a curve as CSV: ``model,eta,e_d_max``, 9-decimal fixed format."""
    lines = [CSV_HEADER]
    lines.extend(
        f"{p.model_tag},{p.eta:.9f},{p.e_d_max:.9f}" for p in curve.points
    )
    return "\n".join(lines) + "\n"
