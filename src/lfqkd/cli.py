"""Command-line front end: rate evaluation, threshold sweeps, simulations.

Subcommands
-----------
rate        print a key-rate breakdown for one source model
threshold   write the tolerable-(eta, e_d) boundary curve as CSV/JSON
simulate    run a seeded Monte Carlo batch and print its summary
compare     check an honest Monte Carlo batch against the closed form

All parameters can also come from a JSON config file (``--config``) whose
keys mirror the flag names with underscores and whose values must have the
flag's type; explicit flags win. Outputs are deterministic for identical
invocations and written atomically when ``--out`` is given.

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


def _check_config_type(key: str, value, flag_type) -> None:
    """Reject a config value that its flag's type would not produce."""
    accepted = {float: (int, float), int: (int,)}.get(flag_type, (str,))
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(
            f"config key {key!r} must be of type {flag_type.__name__}, got {value!r}"
        )


def _merged_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve each option as: explicit flag > config-file value > default."""
    config = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = sorted(set(config) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in config.items():
            _check_config_type(key, value, args.flag_types[key])
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, default)
        resolved[key] = value
    return resolved


def _require(cfg: dict, key: str) -> None:
    if cfg.get(key) is None:
        flag = "--" + key.replace("_", "-")
        raise ConfigError(f"{flag} is required for model {cfg.get('model')!r}")


def _build_model(cfg: dict) -> SourceModel:
    model = cfg.get("model")
    if model is None:
        raise ConfigError("--model is required")
    if model == "single-photon":
        _require(cfg, "eta")
        return SinglePhoton(eta=cfg["eta"], e_d=cfg["ed"])
    if model == "coherent":
        _require(cfg, "eta")
        return CoherentDecoy(mu=cfg["mu"], eta=cfg["eta"], e_d=cfg["ed"])
    if model == "coherent-memory":
        _require(cfg, "eta_m")
        return CoherentDecoyMemory(
            mu=cfg["mu"], eta_c=cfg["eta_c"], eta_m=cfg["eta_m"], e_d=cfg["ed"]
        )
    raise ConfigError(f"unknown model {model!r}; expected one of {SOURCE_MODELS}")


def _build_adversary(cfg: dict):
    adversary = cfg["adversary"]
    if adversary == "none":
        return None
    if adversary == "time-shift":
        return ExtremeTimeShift()
    if adversary == "strong-pulse":
        return StrongPulse(n_photons=cfg["n_photons"])
    raise ConfigError(f"unknown adversary {adversary!r}; expected one of {ADVERSARIES}")


def _add_model_flags(parser: argparse.ArgumentParser, models=SOURCE_MODELS) -> None:
    parser.add_argument("--model", choices=models, default=None)
    parser.add_argument("--eta", type=float, default=None, help="overall transmittance")
    parser.add_argument("--ed", type=float, default=None, help="intrinsic detection error")
    parser.add_argument("--mu", type=float, default=None, help="coherent intensity")
    parser.add_argument("--eta-c", type=float, default=None, dest="eta_c",
                        help="channel transmittance to the memory")
    parser.add_argument("--eta-m", type=float, default=None, dest="eta_m",
                        help="memory readout probability")


def _add_common_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--config", default=None, help="JSON config file; flags win")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help=f"output format (default: {default_format})")


_MODEL_DEFAULTS = {
    "model": None,
    "eta": None,
    "ed": 0.0,
    "mu": DEFAULT_MU,
    "eta_c": DEFAULT_ETA_C,
    "eta_m": None,
}


def cmd_rate(args: argparse.Namespace) -> int:
    cfg = _merged_config(args, {**_MODEL_DEFAULTS, "out": None, "format": "json"})
    breakdown = key_rate(_build_model(cfg))
    payload = {
        "model": cfg["model"],
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
    _emit(_render(payload, cfg["format"]), cfg["out"])
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    defaults = {
        "model": None,
        "mu": DEFAULT_MU,
        "eta_c": DEFAULT_ETA_C,
        "eta_min": 0.5,
        "eta_max": 1.0,
        "step": 0.005,
        "tol": 1e-9,
        "out": None,
        "format": "csv",
    }
    cfg = _merged_config(args, defaults)
    if cfg["model"] is None:
        raise ConfigError("--model is required")
    grid = GridSpec(eta_min=cfg["eta_min"], eta_max=cfg["eta_max"], step=cfg["step"])
    curve = sweep_curve(cfg["model"], grid=grid, tol=cfg["tol"], mu=cfg["mu"],
                        eta_c=cfg["eta_c"])
    if cfg["format"] == "json":
        payload = {
            "model": curve.model_tag,
            "grid": {"eta_min": grid.eta_min, "eta_max": grid.eta_max, "step": grid.step},
            "points": [{"eta": p.eta, "e_d_max": p.e_d_max} for p in curve.points],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = curve_to_csv(curve)
    _emit(text, cfg["out"])
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    defaults = {
        **_MODEL_DEFAULTS,
        "adversary": "none",
        "n_photons": DEFAULT_STRONG_PULSE_PHOTONS,
        "n_pulses": DEFAULT_N_PULSES,
        "seed": DEFAULT_SEED,
        "out": None,
        "format": "json",
    }
    cfg = _merged_config(args, defaults)
    batch = run_trials(
        _build_model(cfg),
        adversary=_build_adversary(cfg),
        n_pulses=cfg["n_pulses"],
        seed=cfg["seed"],
    )
    _emit(_render(batch.summary(), cfg["format"]), cfg["out"])
    return EXIT_DEGENERATE if batch.is_degenerate else EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    defaults = {
        **_MODEL_DEFAULTS,
        "adversary": "none",
        "n_pulses": DEFAULT_N_PULSES,
        "seed": DEFAULT_SEED,
        "out": None,
        "format": "json",
    }
    cfg = _merged_config(args, defaults)
    if cfg["adversary"] != "none":
        raise ConfigError(
            "compare needs an honest channel; there is no analytic prediction "
            f"for adversary {cfg['adversary']!r}"
        )
    model = _build_model(cfg)
    batch = run_trials(model, adversary=None, n_pulses=cfg["n_pulses"], seed=cfg["seed"])
    report = compare_to_analytic(model, batch)
    payload = {
        "model": cfg["model"],
        "n_pulses": batch.n_pulses,
        "seed": batch.seed,
        **report.to_dict(),
    }
    _emit(_render(payload, cfg["format"]), cfg["out"])
    return EXIT_OK


def _flag_types(parser: argparse.ArgumentParser) -> dict:
    """Value type of each of ``parser``'s flags, keyed by config-file name."""
    return {action.dest: action.type or str for action in parser._actions}


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
    p_thr.add_argument("--model", choices=MODEL_FAMILIES, default=None)
    p_thr.add_argument("--mu", type=float, default=None)
    p_thr.add_argument("--eta-c", type=float, default=None, dest="eta_c")
    p_thr.add_argument("--eta-min", type=float, default=None, dest="eta_min")
    p_thr.add_argument("--eta-max", type=float, default=None, dest="eta_max")
    p_thr.add_argument("--step", type=float, default=None)
    p_thr.add_argument("--tol", type=float, default=None)
    _add_common_flags(p_thr, "csv")
    p_thr.set_defaults(handler=cmd_threshold)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo batch summary")
    _add_model_flags(p_sim)
    p_sim.add_argument("--adversary", choices=ADVERSARIES, default=None)
    p_sim.add_argument("--n-photons", type=int, default=None, dest="n_photons",
                       help="strong-pulse photon count")
    p_sim.add_argument("--n-pulses", type=int, default=None, dest="n_pulses")
    p_sim.add_argument("--seed", type=int, default=None)
    _add_common_flags(p_sim, "json")
    p_sim.set_defaults(handler=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="Monte Carlo vs closed-form agreement")
    _add_model_flags(p_cmp)
    p_cmp.add_argument("--adversary", choices=ADVERSARIES, default=None)
    p_cmp.add_argument("--n-pulses", type=int, default=None, dest="n_pulses")
    p_cmp.add_argument("--seed", type=int, default=None)
    _add_common_flags(p_cmp, "json")
    p_cmp.set_defaults(handler=cmd_compare)

    for subparser in sub.choices.values():
        subparser.set_defaults(flag_types=_flag_types(subparser))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except EmptyCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_CURVE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
