"""Acceptance suite: one test per headline criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is pinned here; the Monte Carlo checks run at
fixed seeds so the whole suite is deterministic. ``test_readme_claims_table``
renders README's table of the paper's claims from computed values, and
``-k claims_table -s`` prints it.
"""

import contextlib
import io
import itertools
import json
import math
import shlex
import time
from pathlib import Path

from lfqkd.cli import main
from lfqkd.rates import (
    CoherentDecoy,
    CoherentDecoyMemory,
    DetectionStats,
    SinglePhoton,
    key_rate,
    key_rate_single_click,
    rate_terms,
)
from lfqkd.simulate import (
    ExtremeTimeShift,
    StrongPulse,
    compare_to_analytic,
    empirical_stats,
    run_trials,
    traditional_stats,
)
from lfqkd.threshold import MODEL_FAMILIES, solve_threshold_ed, sweep_curve
from reference import (
    baseline_rate,
    binomial_upper_bound,
    find_root_bisect,
    model_rate,
    single_click_rate_sd,
)

README = Path(__file__).resolve().parents[1] / "README.md"
ATTACK_SEED = 6
HONEST_SEEDS = range(100)

# The simulator against the single-photon curves: batches of CURVE_PULSES
# generated pulses (about half of them sifted) at e_d_max -/+ CURVE_OFFSET,
# CURVE_SEEDS seeds per point. At these points the empirical rate has an sd
# of at most 2.7e-3 (``single_click_rate_sd``) and the expected |rate| is at
# least 0.022, so CURVE_OFFSET keeps it more than CURVE_SIGMAS sd from 0.
CURVE_ETAS = (0.6, 0.8, 1.0)
CURVE_OFFSET = 0.005
CURVE_PULSES = 1_000_000
CURVE_SEEDS = 5
CURVE_SIGMAS = 6.0
#: Chance that a batch misses, bounded by the normal tail beyond CURVE_SIGMAS.
CURVE_MISS_RATE = 0.5 * math.erfc(CURVE_SIGMAS / math.sqrt(2.0))
#: Chance that a point fails its gate, as in the benchmark's allowed_misses.
FALSE_ALARM = 1e-6


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_single_photon_qber_ceiling():
    start = time.perf_counter()
    ceiling = solve_threshold_ed("single-photon", 1.0)
    elapsed = time.perf_counter() - start
    check(
        "single-photon QBER ceiling at eta=1 is 0.110 +/- 0.001",
        ceiling is not None and abs(ceiling - 0.110) <= 0.001,
        f"e_d* = {ceiling:.6f}",
    )
    check("ceiling solve runs in < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")


def test_fifty_percent_transmittance_floor():
    start = time.perf_counter()
    models = {
        "single-photon": lambda eta: SinglePhoton(eta=eta, e_d=0.0),
        "coherent": lambda eta: CoherentDecoy(mu=0.5, eta=eta, e_d=0.0),
        "coherent-memory": lambda eta: CoherentDecoyMemory(
            mu=0.5, eta_c=0.01, eta_m=eta, e_d=0.0
        ),
    }
    ok = True
    for build in models.values():
        ok = ok and key_rate(build(0.51)).rate > 0.0
        ok = ok and key_rate(build(0.50)).rate <= 0.0
        ok = ok and key_rate(build(0.49)).rate <= 0.0
    elapsed = time.perf_counter() - start
    check(
        "50% floor: rate > 0 at eta 0.51 and <= 0 at 0.50/0.49 for all three models",
        ok,
    )
    check("floor checks run in < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")


def bell_threshold(tol: float = 1e-12) -> float:
    """The least detector efficiency of an efficiency-loophole-free Bell test.

    A no-click assigned to a fixed outcome gives the CHSH value
    S(eta) = 2*sqrt(2)*eta^2 + 2*(1 - eta)^2, which beats the local bound
    S = 2 only above its root in (1/2, 1), 2/(1 + sqrt(2)).
    """
    (bell,) = find_root_bisect(
        lambda eta: 2 * math.sqrt(2) * eta**2 + 2 * (1 - eta) ** 2 - 2, 0.5, 1.0, tol=tol
    ).tolist()
    return bell


def test_bell_test_efficiency_is_derived():
    tol = 1e-12
    bell = bell_threshold(tol)
    check(
        "an efficiency-loophole-free Bell test needs eta > 2/(1 + sqrt(2)), against "
        "the 50% floor of this scheme",
        abs(bell - 2 / (1 + math.sqrt(2))) <= tol,
        f"Bell threshold {bell:.1%}, QKD floor 50.0%",
    )


def test_single_click_rate_reduces_to_baseline():
    worst = 0.0
    for i in range(100):
        e_s = 0.5 * i / 99
        single = key_rate_single_click(DetectionStats(q_s=1.0, e_s=e_s)).rate
        baseline = baseline_rate(e_s)
        worst = max(worst, abs(single - baseline))
    check(
        "at Q_s = 1 the single-click rate equals 1 - 2*H2(E_s) for 100 samples "
        "(tol 1e-12)",
        worst <= 1e-12,
        f"worst gap = {worst:.2e}",
    )


def test_coherent_rate_converges_to_single_photon():
    mu = 1e-4
    scale = mu * math.exp(-mu)
    checked = 0
    worst = 0.0
    for eta in (0.6, 0.7, 0.8, 0.9, 1.0):
        for e_d in (0.0, 0.01, 0.02, 0.05):
            reference = key_rate(SinglePhoton(eta=eta, e_d=e_d)).rate
            if reference <= 1e-3:
                continue
            scaled = key_rate(CoherentDecoy(mu=mu, eta=eta, e_d=e_d)).rate / scale
            worst = max(worst, abs(scaled - reference) / reference)
            checked += 1
    check(
        "coherent rate / (mu*exp(-mu)) matches the single-photon rate at mu=1e-4 "
        "(rel tol 1e-3) on the positive-rate grid",
        checked >= 10 and worst <= 1e-3,
        f"{checked} grid points, worst rel gap = {worst:.2e}",
    )


def test_threshold_curve_shapes():
    start = time.perf_counter()
    curves = {family: sweep_curve(family) for family in MODEL_FAMILIES}
    elapsed = time.perf_counter() - start

    ok_floor = all(
        all(eta > 0.5 for eta in curve.eta.tolist()) for curve in curves.values()
    )
    ok_onset = all(curve.eta[0] <= 0.55 for curve in curves.values())
    check(
        "all four curves are empty for eta <= 0.5 and populated by eta = 0.55",
        ok_floor and ok_onset,
    )

    sp = curves["single-photon"]
    mem = curves["single-photon-memory"]
    ok_same = len(sp.eta) == len(mem.eta) and all(
        a_eta == b_eta and abs(a_ed - b_ed) <= 1e-6
        for a_eta, a_ed, b_eta, b_ed in zip(sp.eta, sp.e_d_max, mem.eta, mem.e_d_max)
    )
    check(
        "memory basis-independent curve is identical to the single-photon curve "
        "(point-for-point, tol 1e-6)",
        ok_same,
    )

    tol = 1e-9
    ok_bracket = True
    for family, curve in curves.items():
        for eta, e_d_max in zip(curve.eta.tolist(), curve.e_d_max.tolist()):
            lo = model_rate(family, eta, max(e_d_max - 2 * tol, 0.0))
            hi = model_rate(family, eta, min(e_d_max + 2 * tol, 0.5))
            ok_bracket = ok_bracket and lo >= 0.0 and hi < 0.0
    check("every emitted point sign-brackets the zero crossing", ok_bracket)
    check("full four-curve sweep runs in < 10 s", elapsed < 10.0, f"{elapsed:.2f} s")


def traditional_rate(batch) -> float:
    """The rate traditional post-processing claims: no-clicks discarded,
    fair sampling (Y1 = 1) on the clicks it keeps."""
    q_c, e_c = traditional_stats(batch)
    return float(rate_terms(q_c, e_c, q_c, 1.0)[0])


def time_shift_batch():
    """The extreme time-shift attack on lossless, errorless single photons:
    10^6 pulses at ATTACK_SEED."""
    source = SinglePhoton(eta=1.0, e_d=0.0)
    return run_trials(source, ExtremeTimeShift(), 1_000_000, seed=ATTACK_SEED)


def test_attack_nullification():
    source = SinglePhoton(eta=1.0, e_d=0.0)

    start = time.perf_counter()
    ts = time_shift_batch()
    ts_elapsed = time.perf_counter() - start
    ts_stats = empirical_stats(ts)
    sigma_q = math.sqrt(0.25 / ts.n_pulses)
    check(
        "extreme time-shift: Q_s within 3 sigma of 1/2",
        abs(ts_stats.q_s - 0.5) <= 3 * sigma_q,
        f"Q_s = {ts_stats.q_s:.6f}",
    )
    check(
        "extreme time-shift: E_s equals its exact value 0",
        ts_stats.e_s == 0.0,
    )
    ts_exact_rate = key_rate_single_click(DetectionStats(q_s=0.5, e_s=0.0)).rate
    check(
        "extreme time-shift: single-click rate at the exact (Q_s, E_s) = (1/2, 0) <= 0",
        ts_exact_rate <= 0.0,
        f"rate = {ts_exact_rate:.3e}",
    )
    # A finite batch leaves Q_s above 1/2, and its rate a hair above 0, in
    # about half of all seeds; the rate grows with Q_s.
    ts_rate = key_rate_single_click(ts_stats).rate
    ts_bound = key_rate_single_click(DetectionStats(q_s=0.5 + 3 * sigma_q, e_s=0.0)).rate
    check(
        "extreme time-shift: empirical single-click rate <= its value at "
        "Q_s = 1/2 + 3 sigma, E_s = 0",
        ts_rate <= ts_bound,
        f"rate = {ts_rate:.3e}, bound = {ts_bound:.3e}",
    )
    ts_traditional = traditional_rate(ts)
    check(
        "extreme time-shift: the traditional rate, no-clicks discarded, is at "
        "least 1/2 - 3 sigma",
        ts_traditional >= 0.5 - 3 * sigma_q,
        f"rate = {ts_traditional:.6f}",
    )
    check(
        "extreme time-shift scenario runs in < 30 s", ts_elapsed < 30.0,
        f"{ts_elapsed:.2f} s",
    )

    n_photons = 20
    q_exact = 0.5 + 2.0**-n_photons
    e_exact = 2.0 ** -(n_photons + 1) / q_exact
    start = time.perf_counter()
    sp = run_trials(source, StrongPulse(n_photons), 1_000_000, seed=ATTACK_SEED)
    sp_elapsed = time.perf_counter() - start
    sp_stats = empirical_stats(sp)
    sigma_q = math.sqrt(q_exact * (1 - q_exact) / sp.n_pulses)
    max_errors = binomial_upper_bound(sp.n_single, e_exact)
    check(
        "strong pulse: Q_s within 3 sigma of 1/2 + 2^-20",
        abs(sp_stats.q_s - q_exact) <= 3 * sigma_q,
        f"Q_s = {sp_stats.q_s:.6f}",
    )
    check(
        "strong pulse: single-click errors within the exact binomial tail of its "
        "E_s at the one-sided 3 sigma level",
        sp.n_single_errors <= max_errors,
        f"{sp.n_single_errors} errors, at most {max_errors}; E_s = {sp_stats.e_s:.3e}, "
        f"exact = {e_exact:.3e}",
    )
    sp_exact_rate = key_rate_single_click(DetectionStats(q_s=q_exact, e_s=e_exact)).rate
    check(
        "strong pulse: single-click rate at the exact (Q_s, E_s) <= 0",
        sp_exact_rate <= 0.0,
        f"rate = {sp_exact_rate:.3e}",
    )
    sp_rate = key_rate_single_click(sp_stats).rate
    sp_bound = key_rate_single_click(DetectionStats(q_s=q_exact + 3 * sigma_q, e_s=e_exact)).rate
    check(
        "strong pulse: empirical single-click rate <= its value at "
        "Q_s = exact + 3 sigma, E_s exact",
        sp_rate <= sp_bound,
        f"rate = {sp_rate:.3e}, bound = {sp_bound:.3e}",
    )
    sp_traditional = traditional_rate(sp)
    check(
        "strong pulse: the traditional rate <= 0, from the random bits of its double clicks",
        sp_traditional <= 0.0,
        f"rate = {sp_traditional:.3f}",
    )
    check(
        "strong-pulse scenario runs in < 30 s", sp_elapsed < 30.0,
        f"{sp_elapsed:.2f} s",
    )


def test_monte_carlo_matches_analytic_across_seeds():
    families = {
        "single-photon": SinglePhoton(eta=0.7, e_d=0.03),
        "coherent": CoherentDecoy(mu=0.5, eta=0.8, e_d=0.02),
        "coherent-memory": CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=0.75, e_d=0.01),
    }
    for name, model in families.items():
        passes = 0
        q_s_sum = 0.0
        budget = 0.0
        for seed in HONEST_SEEDS:
            batch = run_trials(model, None, 1_000_000, seed=seed)
            report = compare_to_analytic(model, batch)
            if report.passed:
                passes += 1
            q_s_sum += empirical_stats(batch).q_s
            budget = report.q_s_offset_budget
        check(
            f"{name}: honest batches agree at 3 sigma for >= 99/100 seeds",
            passes >= 99,
            f"{passes}/100",
        )
        if isinstance(model, CoherentDecoy):
            lam = model.eta * model.mu
            analytic = -math.expm1(-lam)
            mean_offset = abs(q_s_sum / 100 - analytic)
            check(
                "coherent: mean Q_s offset stays inside the double-click "
                "neglect budget",
                mean_offset <= budget,
                f"offset = {mean_offset:.5f}, budget = {budget:.5f}",
            )


def test_monte_carlo_rate_changes_sign_at_the_single_photon_curves():
    # single-photon-memory is the single-photon source at eta_m.
    seeds = itertools.count(2000)  # a seed of its own per batch
    allowed = binomial_upper_bound(CURVE_SEEDS, CURVE_MISS_RATE, level=FALSE_ALARM)
    for family in ("single-photon", "single-photon-memory"):
        for eta in CURVE_ETAS:
            e_d_max = solve_threshold_ed(family, eta)
            for sign in (-1.0, 1.0):
                model = SinglePhoton(eta=eta, e_d=e_d_max + sign * CURVE_OFFSET)
                expected = key_rate(model).rate
                sd = single_click_rate_sd(eta, model.e_d, CURVE_PULSES // 2)
                side = "below" if sign < 0 else "above"
                check(
                    f"{family} at eta {eta}, {side} the curve: the expected rate is "
                    f"at least {CURVE_SIGMAS:g} sd from 0 with the sign of the side",
                    -sign * expected >= CURVE_SIGMAS * sd,
                    f"e_d = {model.e_d:.5f}, rate = {expected:+.4f}, sd = {sd:.1e}",
                )
                rates = [
                    key_rate_single_click(
                        empirical_stats(run_trials(model, None, CURVE_PULSES, seed=next(seeds)))
                    ).rate
                    for _ in range(CURVE_SEEDS)
                ]
                misses = sum(-sign * rate <= 0.0 for rate in rates)
                check(
                    f"{family} at eta {eta}, {side} the curve: empirical single-click "
                    f"rates of the wrong sign within the binomial allowance",
                    misses <= allowed,
                    f"{misses}/{CURVE_SEEDS} missed, {allowed} allowed; "
                    f"rates {min(rates):+.4f} to {max(rates):+.4f}",
                )


def test_cli_outputs_are_byte_identical(tmp_path):
    curve_args = [
        "threshold", "--model", "single-photon",
        "--eta-min", "0.9", "--eta-max", "1.0", "--step", "0.01",
    ]
    out_a = tmp_path / "curve_a.csv"
    out_b = tmp_path / "curve_b.csv"
    assert main(curve_args + ["--out", str(out_a)]) == 0
    assert main(curve_args + ["--out", str(out_b)]) == 0
    ok_curve = out_a.read_bytes() == out_b.read_bytes()

    sim_args = [
        "simulate", "--model", "coherent", "--eta", "0.8", "--ed", "0.02",
        "--n-pulses", "100000", "--seed", "12",
    ]
    out_c = tmp_path / "batch_a.json"
    out_d = tmp_path / "batch_b.json"
    assert main(sim_args + ["--out", str(out_c)]) == 0
    assert main(sim_args + ["--out", str(out_d)]) == 0
    ok_sim = out_c.read_bytes() == out_d.read_bytes()
    json.loads(out_c.read_text())

    check(
        "identical CLI invocations produce byte-identical outputs",
        ok_curve and ok_sim,
    )


def floor_cell(families) -> str:
    """The floor of ``families`` as this repo shows it: the largest errorless
    rate at 1/2 and the first point of each default curve."""
    at_half = max(model_rate(family, 0.5, 0.0) for family in families)
    firsts = sorted({f"{sweep_curve(family).eta[0]:.3f}" for family in families})
    return f"rate {at_half:g} at 1/2; curves start at {', '.join(firsts)}"


def claims_rows() -> list[tuple]:
    """README's claims: (claim, paper, this repo, command, tests), every
    value in the third column computed here. A command or test of None is
    shown as a dash."""
    ts = time_shift_batch()
    return [
        (
            "QBER ceiling, single photon at η = 1", "11.0%",
            f"{solve_threshold_ed('single-photon', 1.0):.6f}",
            "lfqkd threshold --model single-photon --eta-min 1",
            ["test_single_photon_qber_ceiling"],
        ),
        (
            "Lowest tolerable transmittance η (single photon; coherent, μ 0.5)", "50%",
            floor_cell(("single-photon", "coherent")),
            "lfqkd threshold --model coherent",
            ["test_fifty_percent_transmittance_floor", "test_errorless_rate_changes_sign_at_half"],
        ),
        (
            "Lowest tolerable readout probability η_m (memory)", "50%",
            floor_cell(("coherent-memory", "single-photon-memory")),
            "lfqkd threshold --model coherent-memory",
            ["test_fifty_percent_transmittance_floor", "test_errorless_rate_changes_sign_at_half"],
        ),
        (
            "Detector efficiency an efficiency-loophole-free Bell test needs", "82.8%",
            f"{bell_threshold():.6f}, 2/(1 + √2)",
            None,
            ["test_bell_test_efficiency_is_derived"],
        ),
        (
            "Time-shift attack at η 1, e_d 0: traditional rate against this scheme's, "
            "bits per sifted pulse", "1/2 against 0",
            f"{traditional_rate(ts):.6f} against "
            f"{key_rate_single_click(empirical_stats(ts)).rate:+.1e}",
            "lfqkd simulate --model single-photon --eta 1 --ed 0 --adversary time-shift "
            f"--n-pulses 1000000 --seed {ATTACK_SEED}",
            ["test_attack_nullification"],
        ),
        (
            "Coherent ceiling with double clicks counted", "neglected",
            "pending: the exact click expectations of the coherent channel",
            None, None,
        ),
        (
            "Floor and ceiling at a finite number of pulses", "asymptotic",
            "pending: a finite-key sampling bound on Q_s and E_s",
            None, None,
        ),
    ]


def claims_table(rows) -> str:
    """README's claims table of ``rows``, as Markdown."""
    lines = ["| claim | paper | this repo | shown by | checked by |", "|---|---|---|---|---|"]
    for claim, paper, value, command, tests in rows:
        shown = f"`{command}`" if command else "—"
        checked = ", ".join(f"`{test}`" for test in tests) if tests else "—"
        lines.append(f"| {claim} | {paper} | {value} | {shown} | {checked} |")
    return "\n".join(lines) + "\n"


def test_readme_claims_table():
    rows = claims_rows()
    table = claims_table(rows)
    print(table, end="")
    readme = README.read_text(encoding="utf-8")
    check("README holds the claims table rendered from computed values", table in readme)
    tests = "".join(path.read_text(encoding="utf-8") for path in README.parent.glob("tests/test_*.py"))
    for _, _, _, command, names in rows:
        if command:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(shlex.split(command)[1:])
            check(f"`{command}` exits 0", code == 0)
        for name in names or ():
            check(f"the test {name} exists", f"def {name}(" in tests)
