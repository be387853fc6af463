"""Command-line front end: rate evaluation, threshold sweeps, simulations.

Subcommands
-----------
rate        print a key-rate breakdown for one source model
threshold   write the tolerable-(eta, e_d) boundary curve as CSV/JSON
simulate    run a seeded Monte Carlo batch and print its summary
compare     check an honest Monte Carlo batch against the closed form

Each option is declared once, with its real default, on its subcommand's
parser. A JSON config file (``--config``) may set any of them: keys are the
flag names with underscores, and each value must have the flag's type and be
one of its choices. Explicit flags win over the config. ``compare`` always
runs an honest channel. Outputs are deterministic for identical invocations
and written atomically when ``--out`` is given.

Exit status: 0 success, 2 invalid configuration, 3 empty threshold curve,
4 degenerate simulation (no single clicks).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .numerics import DEFAULT_BISECT_TOL
from .rates import CoherentDecoy, CoherentDecoyMemory, SinglePhoton, SourceModel, key_rate
from .simulate import (
    DEFAULT_STRONG_PULSE_PHOTONS,
    ExtremeTimeShift,
    StrongPulse,
    compare_to_analytic,
    run_trials,
)
from .threshold import (
    DEFAULT_ETA_C,
    DEFAULT_MU,
    EmptyCurveError,
    GridSpec,
    MODEL_FAMILIES,
    curve_to_csv,
    sweep_curve,
)

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_EMPTY_CURVE = 3
EXIT_DEGENERATE = 4

DEFAULT_SEED = 1
DEFAULT_N_PULSES = 1_000_000

SOURCE_MODELS = ("single-photon", "coherent", "coherent-memory")
ADVERSARIES = ("none", "time-shift", "strong-pulse")


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def _emit(text: str, out: str | None) -> None:
    """Print to stdout, or write atomically (temp file + rename) to ``out``."""
    if out is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(out)
    directory = os.path.dirname(target)
    if directory:
        os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp_path, target)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _render_json(payload: dict) -> str:
    return json.dumps({k: _json_safe(v) for k, v in payload.items()}, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return "inf" if not math.isfinite(value) else f"{value:.9f}"
    return str(value)


def _render_csv_row(payload: dict) -> str:
    header = ",".join(payload)
    row = ",".join(_csv_cell(v) for v in payload.values())
    return f"{header}\n{row}\n"


def _render(payload: dict, fmt: str) -> str:
    return _render_csv_row(payload) if fmt == "csv" else _render_json(payload)


def _apply_config(subparser: argparse.ArgumentParser, path: str) -> None:
    """Make the JSON object in ``path`` the defaults of ``subparser``'s flags.

    Each key must be the dest of one of the subcommand's flags, and each
    value must have that flag's type and be one of its choices.
    """
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ConfigError("config file must contain a JSON object")
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in config.items():
        action = actions[key]
        flag_type = action.type or str
        accepted = {float: (int, float), int: (int,)}.get(flag_type, (str,))
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(
                f"config key {key!r} must be of type {flag_type.__name__}, got {value!r}"
            )
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"config key {key!r} must be one of {action.choices}, got {value!r}")
        if flag_type is float and isinstance(value, int):
            # As the flag reads its digits: 1 is 1.0 and 10**400 is inf.
            config[key] = float(str(value))
    subparser.set_defaults(**config)


def _require(args: argparse.Namespace, key: str) -> None:
    if getattr(args, key) is None:
        flag = "--" + key.replace("_", "-")
        raise ConfigError(f"{flag} is required for model {args.model!r}")


def _build_model(args: argparse.Namespace) -> SourceModel:
    if args.model is None:
        raise ConfigError("--model is required")
    if args.model == "single-photon":
        _require(args, "eta")
        return SinglePhoton(eta=args.eta, e_d=args.ed)
    if args.model == "coherent":
        _require(args, "eta")
        return CoherentDecoy(mu=args.mu, eta=args.eta, e_d=args.ed)
    _require(args, "eta_m")
    return CoherentDecoyMemory(mu=args.mu, eta_c=args.eta_c, eta_m=args.eta_m, e_d=args.ed)


def _build_adversary(args: argparse.Namespace):
    if args.adversary == "time-shift":
        return ExtremeTimeShift()
    if args.adversary == "strong-pulse":
        return StrongPulse(n_photons=args.n_photons)
    return None


def _add_coherent_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, default=DEFAULT_MU,
                        help="coherent intensity (default: %(default)s)")
    parser.add_argument("--eta-c", type=float, default=DEFAULT_ETA_C,
                        help="channel transmittance to the memory (default: %(default)s)")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=SOURCE_MODELS)
    parser.add_argument("--eta", type=float, help="overall transmittance")
    parser.add_argument("--ed", type=float, default=0.0,
                        help="intrinsic detection error (default: %(default)s)")
    _add_coherent_flags(parser)
    parser.add_argument("--eta-m", type=float, help="memory readout probability")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-pulses", type=int, default=DEFAULT_N_PULSES,
                        help="pulses to generate (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="RNG seed (default: %(default)s)")


def _add_common_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--config", help="JSON config file; flags win")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=default_format,
                        help="output format (default: %(default)s)")


def cmd_rate(args: argparse.Namespace) -> int:
    breakdown = key_rate(_build_model(args))
    payload = {
        "model": args.model,
        "rate": breakdown.rate,
        "operational_rate": breakdown.operational_rate,
        "delta": breakdown.delta,
        "phase_bound": breakdown.phase_bound,
        "ec_cost": breakdown.ec_cost,
        "pa_cost": breakdown.pa_cost,
        "p_1": breakdown.p_1,
        "y_1": breakdown.y_1,
        "delta_1": breakdown.delta_1,
    }
    _emit(_render(payload, args.format), args.out)
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    if args.model is None:
        raise ConfigError("--model is required")
    grid = GridSpec(eta_min=args.eta_min, eta_max=args.eta_max, step=args.step)
    curve = sweep_curve(args.model, grid=grid, tol=args.tol, mu=args.mu, eta_c=args.eta_c)
    if args.format == "json":
        payload = {
            "model": curve.model_tag,
            "grid": {"eta_min": grid.eta_min, "eta_max": grid.eta_max, "step": grid.step},
            "points": [{"eta": p.eta, "e_d_max": p.e_d_max} for p in curve.points],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = curve_to_csv(curve)
    _emit(text, args.out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    batch = run_trials(
        _build_model(args),
        adversary=_build_adversary(args),
        n_pulses=args.n_pulses,
        seed=args.seed,
    )
    _emit(_render(batch.summary(), args.format), args.out)
    return EXIT_DEGENERATE if batch.is_degenerate else EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    model = _build_model(args)
    batch = run_trials(model, adversary=None, n_pulses=args.n_pulses, seed=args.seed)
    report = compare_to_analytic(model, batch)
    payload = {
        "model": args.model,
        "n_pulses": batch.n_pulses,
        "seed": batch.seed,
        **report.to_dict(),
    }
    _emit(_render(payload, args.format), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfqkd",
        description="Key rates, tolerance thresholds, and detection Monte Carlo "
        "for loophole-free QKD post-processing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="key-rate breakdown for one source model")
    _add_model_flags(p_rate)
    _add_common_flags(p_rate, "json")
    p_rate.set_defaults(handler=cmd_rate)

    p_thr = sub.add_parser("threshold", help="tolerable (eta, e_d) boundary curve")
    p_thr.add_argument("--model", choices=MODEL_FAMILIES)
    _add_coherent_flags(p_thr)
    p_thr.add_argument("--eta-min", type=float, default=GridSpec.eta_min,
                       help="first grid point (default: %(default)s)")
    p_thr.add_argument("--eta-max", type=float, default=GridSpec.eta_max,
                       help="last grid point (default: %(default)s)")
    p_thr.add_argument("--step", type=float, default=GridSpec.step,
                       help="grid spacing (default: %(default)s)")
    p_thr.add_argument("--tol", type=float, default=DEFAULT_BISECT_TOL,
                       help="bisection bracket width (default: %(default)s)")
    _add_common_flags(p_thr, "csv")
    p_thr.set_defaults(handler=cmd_threshold)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo batch summary")
    _add_model_flags(p_sim)
    p_sim.add_argument("--adversary", choices=ADVERSARIES, default="none",
                       help="attack on the channel (default: %(default)s)")
    p_sim.add_argument("--n-photons", type=int, default=DEFAULT_STRONG_PULSE_PHOTONS,
                       help="strong-pulse photon count (default: %(default)s)")
    _add_run_flags(p_sim)
    _add_common_flags(p_sim, "json")
    p_sim.set_defaults(handler=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="honest Monte Carlo vs closed-form agreement")
    _add_model_flags(p_cmp)
    _add_run_flags(p_cmp)
    _add_common_flags(p_cmp, "json")
    p_cmp.set_defaults(handler=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Config values become defaults, so explicit flags still win.
            _apply_config(parser._subparsers._group_actions[0].choices[args.command], args.config)
            args = parser.parse_args(argv)
        return args.handler(args)
    except EmptyCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_CURVE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
