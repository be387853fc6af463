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

from dataclasses import dataclass, field

from .numerics import DEFAULT_BISECT_TOL, find_root_bisect
from .rates import CoherentDecoy, CoherentDecoyMemory, SinglePhoton, key_rate

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
        if self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step}")

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


def solve_threshold_ed(
    family: str,
    eta: float,
    tol: float = DEFAULT_BISECT_TOL,
    mu: float = DEFAULT_MU,
    eta_c: float = DEFAULT_ETA_C,
) -> float | None:
    """Largest e_d with a nonnegative rate at fixed ``eta``, or None.

    Bisects the rate's sign change over e_d in [0, 1/2]. Returns None when
    the rate is already nonpositive at e_d = 0 (at or below the transmittance
    floor, where no positive-error operating point exists). At e_d = 1/2 the
    rate of every family is -Q_s <= 0, so the bracket holds the sign change;
    the returned value brackets the zero crossing to within ``tol``.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")

    def rate_of_ed(e_d: float) -> float:
        return rate_at(family, eta, e_d, mu=mu, eta_c=eta_c)

    rate_floor = rate_of_ed(0.0)
    if rate_floor <= 0.0:
        return None
    return find_root_bisect(rate_of_ed, 0.0, E_D_MAX, tol=tol)


def sweep_curve(
    family: str,
    grid: GridSpec | None = None,
    tol: float = DEFAULT_BISECT_TOL,
    mu: float = DEFAULT_MU,
    eta_c: float = DEFAULT_ETA_C,
) -> ThresholdCurve:
    """Threshold curve of ``family`` over an eta grid.

    Grid points without a tolerable e_d are omitted. Points are emitted in
    grid order (strictly increasing eta), so the result is deterministic.
    Raises EmptyCurveError when every grid point is below the floor.
    """
    if grid is None:
        grid = GridSpec()
    points = []
    for eta in grid.values():
        e_d_max = solve_threshold_ed(family, eta, tol=tol, mu=mu, eta_c=eta_c)
        if e_d_max is not None:
            points.append(ThresholdPoint(eta=eta, e_d_max=e_d_max, model_tag=family))
    if not points:
        raise EmptyCurveError(
            f"no tolerable e_d for {family} on eta in [{grid.eta_min}, {grid.eta_max}]"
        )
    return ThresholdCurve(model_tag=family, points=tuple(points), grid_spec=grid)


def curve_to_csv(curve: ThresholdCurve) -> str:
    """Render a curve as CSV: ``model,eta,e_d_max``, 9-decimal fixed format."""
    lines = [CSV_HEADER]
    lines.extend(
        f"{p.model_tag},{p.eta:.9f},{p.e_d_max:.9f}" for p in curve.points
    )
    return "\n".join(lines) + "\n"
