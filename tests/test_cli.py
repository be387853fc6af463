"""Tests for the command-line interface."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shlex
import stat
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lfqkd import cli, threshold
from lfqkd.cli import (
    ADVERSARIES,
    EXIT_DEGENERATE,
    EXIT_EMPTY_CURVE,
    EXIT_INVALID_CONFIG,
    EXIT_OK,
    SOURCE_MODELS,
    main,
)
from lfqkd.rates import (
    CoherentDecoyMemory,
    DetectionStats,
    SinglePhoton,
    key_rate,
    key_rate_single_click,
)
from lfqkd.simulate import run_trials, trial_records
from lfqkd.threshold import MODEL_FAMILIES

P1_MEMORY = 0.6080482499669296

# sha256 of the default-grid threshold CSVs, as pinned by the benchmark's
# threshold-curves workload.
THRESHOLD_SHA256 = {
    "single-photon": "b052aeaba646b006c076c61def7305bcb7528a6759ec1148368167246c1a8a8b",
    "coherent": "153371aa32270fab654c950174034c94115f514373965ee06ff441fc48fcb95f",
    "coherent-memory": "f00ba3f9f0f8610e54e9894ce7bb00be34878c6d94ba91e2c0b18d96a5bce1a4",
    "single-photon-memory": "e1b0c888f3971642858de6685472ec68f41f2d45f92149fc71d3e3e793992944",
}
# sha256 of the default-grid threshold JSON: pins every value and its float
# formatting.
THRESHOLD_JSON_SHA256 = {
    "single-photon": "a4fbdc68031d5af0567ea8d7456e5c6ec58eec56462c9fa773ee3e5a2a2c7248",
    "coherent": "12d69f49daaaf9c229d3cef2acb5479b332e72310062be9e4200bee70cf92120",
    "coherent-memory": "1fa635942446b0d59a410051aacc044cc8d5ea23b831c5111e4f53aaad2e26a2",
    "single-photon-memory": "583432f294acd075558800e8a6a69fff4b97ec35896903bdf02f01daf50453f6",
}
# sha256 of threshold CSV and JSON where the solve bisects some points: by
# family at tol 2^-50 (1-2 default-grid points each, among them cell ends
# where the rate is exactly 0), and single-photon at tol 1e-300 on eta 0.9.
TOL_2_TO_THE_MINUS_50 = ("--tol", "8.881784197001252e-16")
TOL_1E_300 = ("--tol", "1e-300", "--eta-min", "0.9", "--eta-max", "0.9")
BISECTED_SHA256 = {
    ("single-photon", TOL_2_TO_THE_MINUS_50): (
        "914c3d4736347f5fb675d07258b8e1631a15072c138cce367f404624ea0abf64",
        "ef9b35e1b3a8836fa43f5a066a8f4ce622e69b92ab59c9c33ad9ec732b9f0af7",
    ),
    ("coherent", TOL_2_TO_THE_MINUS_50): (
        "e864fb2c63a01cda01abeccec702009c462f8e3bf3af06f650c2ad9f09c2057e",
        "57d8706cc9284cc07c41382d5590deb812db861740d5b5ab7b08b5810944323e",
    ),
    ("coherent-memory", TOL_2_TO_THE_MINUS_50): (
        "e4163f26ebe6f31f42e701828e42eb48a2d9263d3628b4797b7905a4e1662a48",
        "6c68af0f6f9d18f7254733008c866a642ceabe6ee406c01f1121bc67174253dc",
    ),
    ("single-photon-memory", TOL_2_TO_THE_MINUS_50): (
        "f0391e60915659efa87f0ad951a80eb3bf0ae03748d7900a61a9d55aa7672962",
        "cc13976d0d37d123a63e31001ce3f0627f74957a6e59e521b62985f4265e53c5",
    ),
    ("single-photon", TOL_1E_300): (
        "bcd0010ceed49a6cdff46522fd34a3c888f970e7d3bd068cde405e777b926266",
        "9e518fbebcb9ba72c8878bf842247fecc90625bb075be15e0c83fde98c64a95f",
    ),
}

# Flags of the benchmark's five mc-batches scenarios.
SCENARIO_FLAGS = {
    "single-photon": ("--model", "single-photon", "--eta", "0.7", "--ed", "0.03"),
    "coherent": ("--model", "coherent", "--mu", "0.5", "--eta", "0.8", "--ed", "0.02"),
    "coherent-memory": ("--model", "coherent-memory", "--eta-m", "0.75", "--ed", "0.01"),
    "time-shift": (
        "--model", "single-photon", "--eta", "1", "--ed", "0", "--adversary", "time-shift",
    ),
    "strong-pulse": (
        "--model", "single-photon", "--eta", "1", "--ed", "0", "--adversary", "strong-pulse",
    ),
}
# sha256 of simulate stdout at --n-pulses 300000 (two shards), by scenario and
# seed, and of compare stdout at --n-pulses 16384, by honest model and seed.
# They pin the RNG stream: a change that announces a new stream updates them.
# Strong-pulse seed 2 was re-recorded when a one-threshold draw below
# simulate.RARE moved to geometric gaps; seed 1 kept its bytes, as the one
# pulse its old stream flagged was in no sifted tally and the new one flags none.
# Coherent seeds 1 and 2 of both were re-recorded when the coherent channel
# moved from two uniforms per pulse to one, cut into its four joint outcomes,
# and again when that uniform became 32 bits, half a raw output, not a double.
SIMULATE_SHA256 = {
    ("coherent", "1"): "c35aac64fb675cfbfa801a3c7a27d5cd47478adfcab4f46327fe6b2ec9f01e0e",
    ("coherent", "2"): "8c0d7a6f4360ec19e2b475281a839d79ff4eef08c4b78430d0ba9a4c0ce061bf",
    ("coherent-memory", "1"): "8508ada00d2f532e0418b836c42888caedf05fb805a25ae1994cbb37e68d9180",
    ("coherent-memory", "2"): "7cdbb0775d18281300a0d2e9939e4f00bf2fe02b232b945bc1b445796cce2174",
    ("single-photon", "1"): "b19df70812bf1765b50030a26121888f3f3c0639ad24151895e12d70fd04286c",
    ("single-photon", "2"): "5302ce79d944be7db342516303f2854348a3771a9a7fcb04aa0f93250764b5f2",
    ("strong-pulse", "1"): "06717850a86ca357ad7abee93b8207dc2041076ac45d8a1e0ab98403cad129d1",
    ("strong-pulse", "2"): "bc8a30018114f16c20ada741cb09221ce75dff888bc8696fd91861c9e8ae522f",
    ("time-shift", "1"): "420807312081d869bfe0bba5c78acc8d386c9e3abf5439da16d3e78a1e6fc660",
    ("time-shift", "2"): "1c2aa62b14033fb6e7365fe008e1330ea4a864f150c5de04ff838cec9f727cce",
}
COMPARE_SHA256 = {
    ("coherent", "1"): "c22bfe5d13207130b14b1efd077e44f1fbbf2db4c95abeff9fddc8baabdbc0df",
    ("coherent", "2"): "4e764c7d5ba7ab334b042589c5f1a93a9c5f6002444ad671462445951b428270",
    ("coherent-memory", "1"): "3fc31bb3bb9ac899fd1fb6226aa2cb14e24e67f63b6c44b8bd7f878570ae93c0",
    ("coherent-memory", "2"): "67dcd135f9e2ee20fc2840670b1d0fb69ebfbe71c853d0ee78bbfef52987b638",
    ("single-photon", "1"): "bb8f71b0abb282fe78935c842b7d7d7c7f204d470f931ed145c3bd5deec20ad6",
    ("single-photon", "2"): "50ff98ecd6bfea6eaf6555ce6187292e54cf2b2bf942ba5255374f524824d267",
}


def run_cli(*argv):
    return main(list(argv))


def captured_main(argv):
    """(exit code, stdout, stderr) of one ``main`` call; an argparse exit
    gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def zero_sifted_seed(nth):
    """The ``nth`` seed, counting from 1, whose one-pulse batch is
    basis-mismatched, so that the batch has no sifted pulse."""

    def mismatched(seed):
        pulse = trial_records(SinglePhoton(eta=1.0, e_d=0.0), n_pulses=1, seed=seed)[0]
        return pulse["alice_basis"] != pulse["bob_basis"]

    return str(next(itertools.islice(filter(mismatched, itertools.count()), nth - 1, None)))


def check_nullified(payload, q_exact, e_exact):
    """The attack's rate is <= 0 at its closed-form (Q_s, E_s), and the
    batch's rate is at most the rate at Q_s = q_exact + 3 sigma: a finite
    batch leaves Q_s above q_exact, and its rate a hair above 0, about half
    the time."""
    assert key_rate_single_click(DetectionStats(q_s=q_exact, e_s=e_exact)).rate <= 0.0
    q_s = q_exact + 3.0 * math.sqrt(q_exact * (1.0 - q_exact) / payload["n_pulses"])
    assert payload["rate"] <= key_rate_single_click(DetectionStats(q_s=q_s, e_s=e_exact)).rate


class TestRateCommand:
    def test_perfect_single_photon(self, capsys):
        assert run_cli("rate", "--model", "single-photon", "--eta", "1", "--ed", "0") == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == 1.0
        assert payload["operational_rate"] == 1.0
        assert payload["model"] == "single-photon"

    def test_floor_point_shows_raw_and_operational(self, capsys):
        assert run_cli("rate", "--model", "single-photon", "--eta", "0.5", "--ed", "0") == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == 0.0
        assert payload["operational_rate"] == 0.0

    def test_negative_rate_floored_in_operational(self, capsys):
        run_cli("rate", "--model", "single-photon", "--eta", "0.4", "--ed", "0.1")
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] < 0.0
        assert payload["operational_rate"] == 0.0

    def test_memory_reference_point(self, capsys):
        assert run_cli(
            "rate", "--model", "coherent-memory", "--mu", "0.5",
            "--eta-c", "0.01", "--eta-m", "1", "--ed", "0",
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == pytest.approx(P1_MEMORY, abs=1e-12)

    def test_csv_format(self, capsys):
        run_cli("rate", "--model", "single-photon", "--eta", "0.8", "--ed", "0.01",
                "--format", "csv")
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert header[0] == "model" and "rate" in header
        breakdown = key_rate(SinglePhoton(eta=0.8, e_d=0.01))
        assert float(row[header.index("rate")]) == pytest.approx(breakdown.rate, abs=5e-10)

    def test_missing_eta_is_invalid_config(self, capsys):
        assert run_cli("rate", "--model", "single-photon") == EXIT_INVALID_CONFIG
        assert "--eta" in capsys.readouterr().err

    def test_out_of_range_parameter_names_range(self, capsys):
        assert run_cli("rate", "--model", "single-photon", "--eta", "1.2") == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert "eta" in err and "[0, 1]" in err

    def test_memory_trigger_underflow(self, capsys):
        assert run_cli(
            "rate", "--model", "coherent-memory", "--mu", "1e-300", "--eta-c", "1e-300",
            "--eta-m", "1",
        ) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["p_1"] == 1.0

    def test_invalid_model_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("rate", "--model", "entangled")
        assert exc.value.code == EXIT_INVALID_CONFIG
        capsys.readouterr()


class TestThresholdCommand:
    def test_csv_output_endpoint(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "threshold", "--model", "single-photon",
            "--eta-min", "0.9", "--eta-max", "1.0", "--step", "0.05",
            "--out", str(out),
        ) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "model,eta,e_d_max"
        model, eta, e_d = lines[-1].split(",")
        assert model == "single-photon"
        assert float(eta) == 1.0
        assert abs(float(e_d) - 0.110) < 0.001

    def test_empty_curve_exit_code(self, capsys):
        assert run_cli(
            "threshold", "--model", "coherent",
            "--eta-min", "0.3", "--eta-max", "0.5", "--step", "0.1",
        ) == EXIT_EMPTY_CURVE
        assert "no tolerable" in capsys.readouterr().err

    def test_json_format_round_trips(self, capsys):
        assert run_cli(
            "threshold", "--model", "coherent-memory",
            "--eta-min", "0.8", "--eta-max", "1.0", "--step", "0.1",
            "--format", "json",
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "coherent-memory"
        assert payload["points"][-1]["eta"] == 1.0

    def test_csv_and_json_agree_with_an_appended_endpoint(self, capsys):
        grid = ("--model", "coherent", "--eta-min", "0.5", "--eta-max", "0.9925", "--step", "0.005")
        assert run_cli("threshold", *grid) == EXIT_OK
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert run_cli("threshold", *grid, "--format", "json") == EXIT_OK
        points = json.loads(capsys.readouterr().out)["points"]
        assert len(rows) == len(points) > 1
        for (model, eta, e_d), point in zip(rows, points):
            assert model == "coherent"
            assert eta == f"{point['eta']:.9f}"
            assert e_d == f"{point['e_d_max']:.9f}"
        assert points[-1]["eta"] == 0.9925
        assert rows[-1][1] == "0.992500000"

    def test_invalid_grid_exits_2(self, capsys):
        assert run_cli(
            "threshold", "--model", "single-photon", "--eta-min", "0.9",
            "--eta-max", "0.5",
        ) == EXIT_INVALID_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("family", sorted(THRESHOLD_SHA256))
    def test_default_curve_bytes_pinned(self, capsys, family):
        assert run_cli("threshold", "--model", family) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == THRESHOLD_SHA256[family]
        assert run_cli("threshold", "--model", family, "--format", "json") == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == THRESHOLD_JSON_SHA256[family]

    @pytest.mark.parametrize("family, tol_flags", sorted(BISECTED_SHA256))
    def test_bisected_curve_bytes_pinned(self, capsys, monkeypatch, family, tol_flags):
        bisected, solve = [], threshold.find_root_bisect

        def counted_solve(f, n, tol):
            roots = solve(f, n, tol)
            bisected.append(roots.tolist())
            return roots

        monkeypatch.setattr(threshold, "find_root_bisect", counted_solve)
        csv_sha256, json_sha256 = BISECTED_SHA256[family, tol_flags]
        assert run_cli("threshold", "--model", family, *tol_flags) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == csv_sha256
        assert run_cli("threshold", "--model", family, *tol_flags, "--format", "json") == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == json_sha256
        assert len(bisected) == 2 and bisected[0] == bisected[1] != []
        if tol_flags == TOL_2_TO_THE_MINUS_50:
            # The CSV's 9 decimals hide the bits past 1e-10; the JSON shows
            # them on every bisected point.
            tight = {p["e_d_max"]: p["eta"] for p in json.loads(out)["points"]}
            assert run_cli("threshold", "--model", family, "--format", "json") == EXIT_OK
            points = json.loads(capsys.readouterr().out)["points"]
            default = {p["eta"]: p["e_d_max"] for p in points}
            for root in bisected[0]:
                assert default[tight[root]] != root

    def test_tol_below_float_spacing_converges(self, capsys):
        grid = ("--model", "coherent", "--eta-min", "0.6", "--step", "0.1", "--format", "json")
        assert run_cli("threshold", *grid) == EXIT_OK
        default = json.loads(capsys.readouterr().out)["points"]
        assert run_cli("threshold", *grid, "--tol", "1e-300") == EXIT_OK
        tight = json.loads(capsys.readouterr().out)["points"]
        assert [p["eta"] for p in tight] == [p["eta"] for p in default]
        for p, q in zip(tight, default):
            assert abs(p["e_d_max"] - q["e_d_max"]) <= 1e-9

    def test_nan_tol_exits_2(self, capsys):
        assert run_cli("threshold", "--model", "single-photon", "--tol", "nan") == EXIT_INVALID_CONFIG
        assert "tol" in capsys.readouterr().err

    def test_nan_tol_exits_2_when_no_point_is_tolerable(self, capsys):
        # The grid lies below the floor, so no bisection runs at all.
        assert run_cli(
            "threshold", "--model", "coherent",
            "--eta-min", "0.3", "--eta-max", "0.5", "--step", "0.1", "--tol", "nan",
        ) == EXIT_INVALID_CONFIG
        assert "tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_exits_2(self, capsys, step):
        assert run_cli("threshold", "--model", "coherent", "--step", step) == EXIT_INVALID_CONFIG
        assert f"step must be positive and finite, got {step}" in capsys.readouterr().err

    def test_step_beyond_grid_cap_exits_2(self, capsys):
        assert run_cli("threshold", "--model", "coherent", "--step", "1e-7") == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "step 1e-07 is too small" in err

    def test_inf_tol_exits_2(self, capsys):
        # An infinite tol would stop every bracket at its first midpoint.
        assert run_cli(
            "threshold", "--model", "coherent", "--eta-min", "0.9", "--step", "0.05",
            "--tol", "inf",
        ) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "tol must be positive and finite, got inf" in err

    @pytest.mark.parametrize("tol", ["0.5", "0.6", "1e300"])
    def test_tol_as_wide_as_the_bracket_exits_2(self, capsys, tol):
        # Every bracket would stop at its first midpoint, e_d = 1/4.
        assert run_cli("threshold", "--model", "single-photon", "--tol", tol) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert f"tol must be below the e_d bracket width 0.5, got {float(tol)}" in err

    def test_tol_just_below_the_bracket_width_runs(self, capsys):
        assert run_cli("threshold", "--model", "single-photon", "--tol", "0.49") == EXIT_OK
        assert capsys.readouterr().out.startswith("model,eta,e_d_max\n")

    def test_memory_trigger_underflow(self, capsys):
        # eta_c * mu underflows to 0: P1 takes its limit exp(-mu) = 1.
        assert run_cli(
            "threshold", "--model", "coherent-memory", "--mu", "1e-300", "--eta-c", "1e-300",
        ) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert run_cli("threshold", "--model", "single-photon") == EXIT_OK
        assert out == capsys.readouterr().out.replace("single-photon", "coherent-memory")


class TestSimulateCommand:
    def test_summary_schema_and_values(self, capsys):
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "1", "--ed", "0",
            "--n-pulses", "20000", "--seed", "3",
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "scenario", "model", "n_pulses", "seed", "n_single", "n_double",
            "n_none", "n_single_errors", "q_s", "e_s", "rate",
        ]
        assert payload["scenario"] == "honest"
        assert payload["q_s"] == 1.0
        assert payload["e_s"] == 0.0
        assert payload["rate"] == 1.0

    def test_matches_library_run(self, capsys):
        assert run_cli(
            "simulate", "--model", "coherent", "--eta", "0.8", "--ed", "0.02",
            "--n-pulses", "50000", "--seed", "9",
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        from lfqkd.rates import CoherentDecoy

        batch = run_trials(CoherentDecoy(mu=0.5, eta=0.8, e_d=0.02), None, 50000, seed=9)
        assert payload == batch.summary()

    def test_time_shift_adversary(self, capsys):
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "1", "--ed", "0",
            "--adversary", "time-shift", "--n-pulses", "200000", "--seed", "6",
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "time_shift"
        assert abs(payload["q_s"] - 0.5) < 0.01
        check_nullified(payload, 0.5, 0.0)

    def test_strong_pulse_adversary(self, capsys):
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "1", "--ed", "0",
            "--adversary", "strong-pulse", "--n-pulses", "200000", "--seed", "6",
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "strong_pulse"
        assert abs(payload["q_s"] - 0.5) < 0.01
        q_exact = 0.5 + 2.0**-20
        check_nullified(payload, q_exact, 2.0**-21 / q_exact)

    def test_huge_photon_count_exits_0(self, capsys):
        # 2**(1 - n) underflows to 0: the strong pulse always double-clicks
        # on a conjugate basis, where a float power raised OverflowError.
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "1", "--adversary", "strong-pulse",
            "--n-photons", "1" + "0" * 400, "--n-pulses", "16",
        ) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["scenario"] == "strong_pulse"

    @pytest.mark.parametrize("flags", [
        ("--adversary", "strong-pulse", "--n-photons", "1075"),
        ("--adversary", "time-shift", "--ed", "5e-324"),
    ])
    def test_subnormal_flag_chance_exits_0(self, capsys, flags):
        # A flag chance of 2**-1074 makes every gap of the gap draw inf.
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "1", *flags, "--n-pulses", "300000",
        ) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["n_pulses"] > 0

    def test_memory_that_never_triggers_exits_2(self, capsys):
        assert run_cli(
            "simulate", "--model", "coherent-memory", "--eta-m", "0.5", "--eta-c", "0",
        ) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "eta_c = 0: the memory never triggers" in err

    def test_degenerate_simulation_exit_code(self, capsys):
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "0", "--ed", "0",
            "--n-pulses", "5000", "--seed", "1",
        ) == EXIT_DEGENERATE
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_single"] == 0

    @pytest.mark.parametrize("nth", [1, 2])
    def test_zero_sifted_batch_is_degenerate(self, capsys, nth):
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "1",
            "--n-pulses", "1", "--seed", zero_sifted_seed(nth),
        ) == EXIT_DEGENERATE
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_pulses"] == 0
        assert payload["q_s"] == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = [
            "simulate", "--model", "coherent-memory", "--eta-m", "0.75",
            "--ed", "0.01", "--n-pulses", "30000", "--seed", "17",
        ]
        assert run_cli(*argv, "--out", str(out1)) == EXIT_OK
        assert run_cli(*argv, "--out", str(out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_creates_parent_directories(self, tmp_path):
        out = tmp_path / "nested" / "dir" / "batch.json"
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "0.7",
            "--n-pulses", "1000", "--seed", "2", "--out", str(out),
        ) == EXIT_OK
        assert json.loads(out.read_text())["n_pulses"] > 0

    @pytest.mark.parametrize("name", ["newdir" + os.sep, "existing", "fifo"])
    def test_out_naming_a_directory_exits_2(self, tmp_path, monkeypatch, name):
        # A FIFO, like a device, is no regular file: it is not replaced.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing").mkdir()
        os.mkfifo(tmp_path / "fifo")
        code, out, err = captured_main(
            ["simulate", "--model", "single-photon", "--eta", "0.5", "--n-pulses", "16",
             "--out", name]
        )
        assert (code, out) == (EXIT_INVALID_CONFIG, "")
        assert err.startswith("error: --out ") and repr(name) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "fifo"]
        assert not any((tmp_path / "existing").iterdir())
        assert stat.S_ISFIFO((tmp_path / "fifo").stat().st_mode)

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_out_gets_the_mode_open_gives(self, tmp_path, umask):
        # A new file gets 0666 less the umask, and a replaced one keeps its mode.
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("{}")
        old.chmod(0o640)
        previous = os.umask(umask)
        try:
            for out in (new, old):
                argv = ["rate", "--model", "single-photon", "--eta", "1", "--ed", "0"]
                assert run_cli(*argv, "--out", str(out)) == EXIT_OK
        finally:
            os.umask(previous)
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert json.loads(old.read_text())["rate"] == 1.0

    @pytest.mark.parametrize(
        "module, name, errno", [(tempfile, "mkstemp", 2), (os, "replace", 13)]
    )
    def test_out_that_cannot_be_written_names_out(self, tmp_path, monkeypatch, module, name, errno):
        # OSError(2, ...) is a FileNotFoundError, OSError(13, ...) a
        # PermissionError. Each names a temp file; the message names --out.
        def refuse(*args, **kwargs):
            raise OSError(errno, os.strerror(errno), str(tmp_path / "tmpabc123.tmp"))

        monkeypatch.setattr(module, name, refuse)
        out = str(tmp_path / "batch.json")
        code, stdout, err = captured_main(
            ["simulate", "--model", "single-photon", "--eta", "0.5", "--n-pulses", "16",
             "--out", out]
        )
        assert (code, stdout) == (EXIT_INVALID_CONFIG, "")
        assert err == f"error: cannot write --out {out!r}: {os.strerror(errno)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_seed_exits_2_naming_seed(self, command):
        code, out, err = captured_main(
            [command, "--model", "single-photon", "--eta", "0.5", "--seed", "-1"]
        )
        assert (code, out) == (EXIT_INVALID_CONFIG, "")
        assert err == "error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("scenario, seed", sorted(SIMULATE_SHA256))
    def test_output_bytes_pinned(self, capsys, scenario, seed):
        assert run_cli(
            "simulate", *SCENARIO_FLAGS[scenario], "--n-pulses", "300000", "--seed", seed,
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_SHA256[scenario, seed]


class TestCompareCommand:
    def test_honest_comparison_passes(self, capsys):
        assert run_cli(
            "compare", "--model", "single-photon", "--eta", "0.7", "--ed", "0.03",
            "--n-pulses", "200000", "--seed", "13",
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert abs(payload["q_s_z_score"]) < 3.0

    def test_exact_point_zero_scores(self, capsys):
        assert run_cli(
            "compare", "--model", "single-photon", "--eta", "1", "--ed", "0",
            "--n-pulses", "20000", "--seed", "1",
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["q_s_z_score"] == 0.0
        assert payload["e_s_z_score"] == 0.0
        assert payload["rate_gap"] == 0.0

    def test_coherent_reports_budget(self, capsys):
        assert run_cli(
            "compare", "--model", "coherent", "--eta", "0.8", "--ed", "0.02",
            "--n-pulses", "100000", "--seed", "19",
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["q_s_offset_budget"] > 0.0
        assert payload["passed"] is True

    @pytest.mark.parametrize("nth", [1, 2])
    def test_zero_sifted_batch_fails(self, capsys, nth):
        assert run_cli(
            "compare", "--model", "single-photon", "--eta", "1",
            "--n-pulses", "1", "--seed", zero_sifted_seed(nth),
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_pulses"] == 0
        assert payload["passed"] is False

    def test_rejects_adversarial_scenario(self, tmp_path, capsys):
        # compare always runs honest: it has no --adversary flag or config key.
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "compare", "--model", "single-photon", "--eta", "1",
                "--adversary", "time-shift",
            )
        assert exc.value.code == EXIT_INVALID_CONFIG
        capsys.readouterr()
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"model": "single-photon", "eta": 1.0, "adversary": "time-shift"}
        ))
        assert run_cli("compare", "--config", str(config)) == EXIT_INVALID_CONFIG
        assert "unknown config keys: adversary" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, column, cell",
        [
            (["--model", "coherent", "--eta", "1", "--mu", "50", "--ed", "0.02",
              "--n-pulses", "16384"], "q_s_z_score", "-inf"),
            (["--model", "single-photon", "--eta", "0", "--ed", "0", "--n-pulses", "1000"],
             "e_s_z_score", "nan"),
        ],
    )
    def test_csv_keeps_nan_and_negative_inf(self, capsys, flags, column, cell):
        # JSON has null for both; CSV spells the value as Python does.
        assert run_cli("compare", *flags) == EXIT_OK
        assert json.loads(capsys.readouterr().out)[column] is None
        assert run_cli("compare", *flags, "--format", "csv") == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))[column] == cell

    @pytest.mark.parametrize("model, seed", sorted(COMPARE_SHA256))
    def test_output_bytes_pinned(self, capsys, model, seed):
        assert run_cli(
            "compare", *SCENARIO_FLAGS[model], "--n-pulses", "16384", "--seed", seed,
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == COMPARE_SHA256[model, seed]


class TestNonFiniteMu:
    @pytest.mark.parametrize("command", ["rate", "threshold", "simulate", "compare"])
    @pytest.mark.parametrize("model", ["coherent", "coherent-memory"])
    @pytest.mark.parametrize("mu", ["nan", "inf"])
    def test_exits_2_naming_mu(self, capsys, command, model, mu):
        argv = [command, "--model", model, "--mu", mu]
        if command != "threshold":
            argv += ["--eta" if model == "coherent" else "--eta-m", "0.8"]
        if command in ("simulate", "compare"):
            argv += ["--n-pulses", "100"]
        assert run_cli(*argv) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert f"mu must be positive and finite for a coherent source, got {mu}" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("rate", "--model", "single-photon", "--eta", "-0.0"), "eta"),
        (("rate", "--model", "coherent", "--eta", "-0.0"), "eta"),
        (("rate", "--model", "single-photon", "--eta", "0.8", "--ed", "-0.0"), "e_d"),
        (("rate", "--model", "coherent-memory", "--eta-m", "-0.0"), "eta_m"),
        (("rate", "--model", "coherent-memory", "--eta-m", "0.8", "--eta-c", "-0.0"), "eta_c"),
        (("threshold", "--model", "coherent-memory", "--eta-c", "-0.0"), "eta_c"),
    ],
)
def test_negative_zero_probability_exits_2(capsys, argv, name):
    # -0.0 passes 0.0 <= x <= 1.0; accepted, it gives `rate` a phase bound of -inf.
    assert run_cli(*argv) == EXIT_INVALID_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{name} must be in [0, 1], got -0.0" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "single-photon", "eta": 1.0, "ed": 0.0}))
        assert run_cli("rate", "--config", str(config)) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rate"] == 1.0

    def test_flags_win_over_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "single-photon", "eta": 1.0, "ed": 0.1}))
        assert run_cli("rate", "--config", str(config), "--ed", "0") == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rate"] == 1.0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "single-photon", "eta": 1.0, "gamma": 2}))
        assert run_cli("rate", "--config", str(config)) == EXIT_INVALID_CONFIG
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("rate", "eta", "0.5"),
            ("rate", "ed", True),
            ("simulate", "n_pulses", 1000.0),
            ("simulate", "adversary", 1),
            ("rate", "format", "xml"),
            ("threshold", "model", "foo"),
            ("simulate", "adversary", "evil"),
        ],
    )
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, command, key, value):
        values = {"model": "single-photon", key: value}
        if command != "threshold":
            values = {"eta": 1.0, **values}
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        assert run_cli(command, "--config", str(config)) == EXIT_INVALID_CONFIG
        assert repr(key) in capsys.readouterr().err

    def test_threshold_config_matches_flags(self, tmp_path, capsys):
        grid = ["--model", "coherent", "--eta-min", "0.8", "--step", "0.05"]
        assert run_cli("threshold", *grid, "--mu", "0.3") == EXIT_OK
        mu_low = capsys.readouterr().out
        assert run_cli("threshold", *grid, "--mu", "0.5") == EXIT_OK
        mu_default = capsys.readouterr().out
        assert mu_low != mu_default

        config = tmp_path / "curve.json"
        config.write_text(json.dumps(
            {"model": "coherent", "mu": 0.3, "eta_min": 0.8, "step": 0.05}
        ))
        assert run_cli("threshold", "--config", str(config)) == EXIT_OK
        assert capsys.readouterr().out == mu_low
        assert run_cli("threshold", "--config", str(config), "--mu", "0.5") == EXIT_OK
        assert capsys.readouterr().out == mu_default

    def test_integer_for_float_flag_reads_as_the_flag(self, tmp_path, capsys):
        # A JSON integer too large for a float is inf, as --mu 1e400 is.
        assert run_cli("rate", "--model", "coherent", "--eta", "1", "--mu", "1") == EXIT_OK
        from_flags = capsys.readouterr().out
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "coherent", "eta": 1, "mu": 1}))
        assert run_cli("rate", "--config", str(config)) == EXIT_OK
        assert capsys.readouterr().out == from_flags
        config.write_text(json.dumps({"model": "coherent", "eta": 1, "mu": 10**400}))
        assert run_cli("rate", "--config", str(config)) == EXIT_INVALID_CONFIG
        assert "mu must be positive and finite for a coherent source, got inf" in (
            capsys.readouterr().err
        )

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        assert run_cli("rate", "--config", str(config)) == EXIT_INVALID_CONFIG
        assert capsys.readouterr() == ("", "error: config file is nested too deeply to read\n")

    def test_missing_config_file(self, capsys):
        assert run_cli("rate", "--model", "single-photon", "--eta", "1",
                       "--config", "/nonexistent/x.json") == EXIT_INVALID_CONFIG
        capsys.readouterr()

    def test_simulate_config_round_trip(self, tmp_path, capsys):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "model": "coherent-memory", "eta_m": 0.75, "ed": 0.01,
            "n_pulses": 20000, "seed": 21,
        }))
        assert run_cli("simulate", "--config", str(config)) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        batch = run_trials(
            CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=0.75, e_d=0.01),
            None, 20000, seed=21,
        )
        assert payload == batch.summary()


# A config for each subcommand that moves defaults its plain call relies on,
# the plain call, and a flag that overrides a config value.
SHARED_PARSER_CASES = {
    "rate": (
        {"model": "coherent", "eta": 0.9, "ed": 0.05, "mu": 0.3, "format": "csv"},
        ["--model", "single-photon", "--eta", "0.8"],
        ["--ed", "0.01"],
    ),
    "threshold": (
        {"model": "coherent", "mu": 0.3, "eta_min": 0.8, "step": 0.05, "format": "json"},
        ["--model", "single-photon", "--eta-min", "0.9", "--step", "0.05"],
        ["--eta-c", "0.02"],
    ),
    "simulate": (
        {"model": "single-photon", "eta": 1.0, "adversary": "strong-pulse",
         "n_pulses": 4000, "seed": 9},
        ["--model", "single-photon", "--eta", "0.8", "--n-pulses", "4000"],
        ["--ed", "0.01"],
    ),
    "compare": (
        {"model": "coherent-memory", "eta_m": 0.75, "n_pulses": 4000, "seed": 9,
         "format": "csv"},
        ["--model", "single-photon", "--eta", "0.8", "--n-pulses", "4000"],
        ["--ed", "0.01"],
    ),
}


def write_config(tmp_path, command):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(SHARED_PARSER_CASES[command][0]))
    return str(path)


class TestSharedParser:
    """``main`` reuses one parser; no call may leave a trace on it."""

    def test_calls_match_a_fresh_parser(self, tmp_path, monkeypatch):
        bad_config = tmp_path / "bad.json"
        bad_config.write_text(json.dumps({"model": "single-photon", "gamma": 1}))
        corpus = []
        for command, (_, plain, override) in SHARED_PARSER_CASES.items():
            config = write_config(tmp_path, command)
            # Each config call is followed by calls that would read a leaked default.
            corpus += [
                [command, "--config", config],
                [command, *plain],
                [command, "--config", config, *override],
                [command],
                [command, "--config", str(bad_config)],
                [command, *plain, "--format", "nope"],
                [command, "--help"],
            ]
        shared = [captured_main(argv) for argv in corpus]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        for argv, result in zip(corpus, shared):
            assert result == captured_main(argv), argv

    def test_help_unchanged_by_a_config_call(self, tmp_path):
        before = captured_main(["rate", "--help"])
        # Defaults the help shows, unlike those of SHARED_PARSER_CASES.
        config = tmp_path / "help.json"
        config.write_text(json.dumps({"model": "coherent", "eta": 0.5, "ed": 0.125, "mu": 0.75}))
        assert captured_main(["rate", "--config", str(config)])[0] == EXIT_OK
        assert captured_main(["rate", "--help"]) == before

    def test_call_inside_a_config_parse_sees_the_real_defaults(self, tmp_path, monkeypatch):
        # A plain call made while a config call is being parsed again must not
        # read the config's values (csv, e_d 0.3) as its defaults.
        config = tmp_path / "leak.json"
        config.write_text(json.dumps({"format": "csv", "ed": 0.3}))
        parse, calls, nested = cli._parse, [], []

        def probe(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:  # the config call's second parse
                nested.append(captured_main(["rate", "--model", "single-photon", "--eta", "1"]))
            return parse(*args, **kwargs)

        monkeypatch.setattr(cli, "_parse", probe)
        code, out, _ = captured_main(
            ["rate", "--config", str(config), "--model", "single-photon", "--eta", "1"]
        )
        header, row = out.splitlines()
        assert (code, dict(zip(header.split(","), row.split(",")))["delta"]) == (
            EXIT_OK, "0.300000000"
        )
        [(nested_code, nested_out, nested_err)] = nested
        assert (nested_code, nested_err) == (EXIT_OK, "")
        assert json.loads(nested_out)["delta"] == 0.0

    def test_no_call_changes_a_default(self, tmp_path):
        def defaults(parser):
            return {
                (name, action.dest): action.default
                for name, sub in cli._subparsers(parser).items()
                for action in sub._actions
            }

        fresh = defaults(cli.build_parser.__wrapped__())
        bad_config = tmp_path / "bad.json"
        bad_config.write_text(json.dumps({"model": "single-photon", "eta": 2.0}))
        for command, (_, plain, override) in SHARED_PARSER_CASES.items():
            config = write_config(tmp_path, command)
            for argv in ([command, "--config", config], [command, "--config", config, *override],
                         [command, "--config", str(bad_config)], [command, *plain]):
                captured_main(argv)
                assert defaults(cli.build_parser()) == fresh, argv

    @pytest.mark.parametrize("command", sorted(SHARED_PARSER_CASES))
    def test_same_argv_twice_gives_identical_bytes(self, tmp_path, command):
        override = SHARED_PARSER_CASES[command][2]
        argv = [command, "--config", write_config(tmp_path, command), *override]
        first = captured_main(argv)
        assert first[0] == EXIT_OK
        assert captured_main(argv) == first


# Calls whose exit code, last stderr line and sha256 of stdout + "\0" + stderr
# are pinned: usage and parse errors, unrecognized arguments after each
# subcommand, and flag spellings argparse accepts. Recorded with Python 3.11's
# argparse at 80 columns; ``CONFIG`` stands for the path of a valid config.
CONFIG = "<config>"
PINNED_PARSES = [
    ([], 2,
     "lfqkd: error: the following arguments are required: command",
     "7b6d288f89212efcb676d0b18983d378df0393ae6ea3a746e60eab77e5948f9a"),
    (["-h"], 0,
     "",
     "2fb88c24c935e99f000c9e09a9857a1d90dda70e3499ad889be5e14a92053e4a"),
    (["--he"], 0,
     "",
     "2fb88c24c935e99f000c9e09a9857a1d90dda70e3499ad889be5e14a92053e4a"),
    (["bogus"], 2,
     "lfqkd: error: argument command: invalid choice: 'bogus' (choose from 'rate',"
     " 'threshold', 'simulate', 'compare')",
     "7391f5c8efbcdb8e3f37fe0c20f9bf67362053bb2ab4f376634a7ef43c6dad19"),
    (["-x", "compare"], 2,
     "lfqkd: error: unrecognized arguments: -x",
     "4f5e0db06c8b7c0fc2a1446f4cc665ca1afb45a552113c9a48348fc1c4651738"),
    (["rate", "--model", "single-photon", "--bogus"], 2,
     "lfqkd: error: unrecognized arguments: --bogus",
     "6ad5f211510a29db3da0e1c66f53731b865e413d46085b9f8f317d41f2487c54"),
    (["rate", "--model", "single-photon", "stray"], 2,
     "lfqkd: error: unrecognized arguments: stray",
     "62e3d4a2a76ca1fcb7e1701156a6f80ae9c1a22ff804d5883b4abb4676f5332d"),
    (["threshold", "--model", "coherent", "--bogus"], 2,
     "lfqkd: error: unrecognized arguments: --bogus",
     "6ad5f211510a29db3da0e1c66f53731b865e413d46085b9f8f317d41f2487c54"),
    (["threshold", "--model", "coherent", "stray"], 2,
     "lfqkd: error: unrecognized arguments: stray",
     "62e3d4a2a76ca1fcb7e1701156a6f80ae9c1a22ff804d5883b4abb4676f5332d"),
    (["simulate", "--model", "single-photon", "--bogus"], 2,
     "lfqkd: error: unrecognized arguments: --bogus",
     "6ad5f211510a29db3da0e1c66f53731b865e413d46085b9f8f317d41f2487c54"),
    (["simulate", "--model", "single-photon", "stray"], 2,
     "lfqkd: error: unrecognized arguments: stray",
     "62e3d4a2a76ca1fcb7e1701156a6f80ae9c1a22ff804d5883b4abb4676f5332d"),
    (["compare", "--model", "single-photon", "--bogus"], 2,
     "lfqkd: error: unrecognized arguments: --bogus",
     "6ad5f211510a29db3da0e1c66f53731b865e413d46085b9f8f317d41f2487c54"),
    (["compare", "--model", "single-photon", "stray"], 2,
     "lfqkd: error: unrecognized arguments: stray",
     "62e3d4a2a76ca1fcb7e1701156a6f80ae9c1a22ff804d5883b4abb4676f5332d"),
    (["rate", "--model=single-photon", "--eta=0.5"], 0,
     "",
     "e95c03441e7d221bcd534b46cebfcb0f781363076b8cd988c5300efa97d3b9a2"),
    (["rate", "--mod", "single-photon", "--eta", "0.5"], 0,
     "",
     "e95c03441e7d221bcd534b46cebfcb0f781363076b8cd988c5300efa97d3b9a2"),
    (["rate", "--model", "coherent", "--model", "single-photon", "--eta", "0.5"], 0,
     "",
     "e95c03441e7d221bcd534b46cebfcb0f781363076b8cd988c5300efa97d3b9a2"),
    (["rate", "--model", "single-photon", "--eta", "0.5", "--", "x"], 2,
     "lfqkd: error: unrecognized arguments: -- x",
     "a74bde2842ba05ecf08c49b23e392ece7453d1ebdbcc16ea0805f2862afadfed"),
    (["rate", "--config", CONFIG, "--bogus"], 2,
     "lfqkd: error: unrecognized arguments: --bogus",
     "6ad5f211510a29db3da0e1c66f53731b865e413d46085b9f8f317d41f2487c54"),
    (["compare", "--he"], 0,
     "",
     "d33e9ae788c205b3a57cccfb976a2de599de478880a1af1434ddda644b44e1e5"),
    (["compare", "--eta"], 2,
     "lfqkd compare: error: argument --eta: expected one argument",
     "936107e6814093e1231441f12da4bd82f2bee487f4c2b5bce64919616cb3bc3f"),
    (["simulate", "--n-pulses", "abc"], 2,
     "lfqkd simulate: error: argument --n-pulses: invalid int value: 'abc'",
     "01a5255736b477ce41d55503828d6d4096916e1bcd1815a871894669b2227e22"),
    (["threshold", "--format", "xml"], 2,
     "lfqkd threshold: error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')",
     "82240ca2964803431f6853ae9b0b4c9225a1587f3ca5970d0a9edc9dbdf41683"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's wording varies by version")
@pytest.mark.parametrize(
    "argv, code, last_line, digest", PINNED_PARSES,
    ids=[" ".join(map(str, case[0])) or "(none)" for case in PINNED_PARSES],
)
def test_parse_bytes_pinned(tmp_path, monkeypatch, argv, code, last_line, digest):
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "rate.json"
    config.write_text(json.dumps({"model": "single-photon", "eta": 0.5}))
    got_code, out, err = captured_main([str(config) if a == CONFIG else a for a in argv])
    assert (got_code, err.rstrip("\n").rsplit("\n", 1)[-1]) == (code, last_line)
    assert hashlib.sha256((out + "\0" + err).encode()).hexdigest() == digest


# Any float, with the edge values drawn often: NaN, infinities, zeros,
# subnormals and values outside every flag's range.
ANY_FLOAT = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, 1.5, -1.0]),
    st.floats(),
)


# Any int, with the edge values drawn often: zero, negatives and 400 digits.
ANY_INT = st.one_of(
    st.sampled_from([0, 1, -1, 10**400, -(10**400)]),
    st.integers(),
)
# Text with quotes, backslashes, control and non-ASCII characters drawn often.
ANY_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\n\x1f\x7f\u2028\U0001f600')))


@given(st.dictionaries(ANY_TEXT, st.one_of(
    ANY_TEXT, ANY_INT, ANY_FLOAT, st.sampled_from([1e308, -1e308, 2**63, -(2**63) - 1, 2**64 + 1]),
    st.booleans(), st.none(),
)))
@example({})
def test_render_json_is_json_dumps(payload):
    expected = json.dumps({k: cli._json_safe(v) for k, v in payload.items()}, indent=2) + "\n"
    assert cli._render_json(payload) == expected


# --n-pulses stays small: see TestExitCodeProperties.test_simulate.
N_PULSES = st.integers(-2, 64)
# ANY_FLOAT, with probabilities drawn often enough that batches also run.
FLAG_FLOAT = st.one_of(ANY_FLOAT, st.floats(0.0, 1.0))
MODEL_FLAGS = {
    "--eta": FLAG_FLOAT, "--ed": FLAG_FLOAT, "--mu": FLAG_FLOAT,
    "--eta-c": FLAG_FLOAT, "--eta-m": FLAG_FLOAT, "--seed": ANY_INT,
}
# Any JSON value, the flags' own choices among them.
JSON_VALUE = st.recursive(
    st.one_of(
        st.none(), st.booleans(), FLAG_FLOAT, ANY_INT, st.text(max_size=8),
        st.sampled_from([*SOURCE_MODELS, *MODEL_FAMILIES, *ADVERSARIES, "csv", "json"]),
    ),
    lambda children: (
        st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3)
    ),
    max_leaves=6,
)
# Config keys of each command with the exit codes it may give; ``out`` is
# left out, as it writes a file. ``n_pulses`` is always drawn, from N_PULSES
# or a value that is not an int, so no config runs the default 10**6 pulses.
CONFIG_KEYS = {
    "rate": (
        ("model", "eta", "ed", "mu", "eta_c", "eta_m", "format"),
        (EXIT_OK, EXIT_INVALID_CONFIG),
    ),
    "threshold": (
        ("model", "mu", "eta_c", "eta_min", "eta_max", "step", "tol", "format"),
        (EXIT_OK, EXIT_INVALID_CONFIG, EXIT_EMPTY_CURVE),
    ),
    "simulate": (
        ("model", "eta", "ed", "mu", "eta_c", "eta_m", "adversary", "n_photons", "seed", "format"),
        (EXIT_OK, EXIT_INVALID_CONFIG, EXIT_DEGENERATE),
    ),
    "compare": (
        ("model", "eta", "ed", "mu", "eta_c", "eta_m", "seed", "format"),
        (EXIT_OK, EXIT_INVALID_CONFIG),
    ),
}


@st.composite
def flag_values(draw, flags):
    """Flags drawn from ``flags`` (name -> value strategy), each one optional.

    Each is passed as ``--flag=value``: argparse would read a separate
    ``-inf`` or ``-1e-05`` as a flag name.
    """
    return [
        f"{flag}={draw(values)!r}" for flag, values in flags.items() if draw(st.booleans())
    ]


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestExitCodeProperties:
    """Whatever a flag or a config key holds, the CLI exits with a documented
    code and raises nothing."""

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(SOURCE_MODELS),
        flags=flag_values({
            "--eta": ANY_FLOAT, "--ed": ANY_FLOAT, "--mu": ANY_FLOAT,
            "--eta-c": ANY_FLOAT, "--eta-m": ANY_FLOAT,
        }),
    )
    def test_rate(self, model, flags):
        assert quiet_main(["rate", "--model", model, *flags]) in (
            EXIT_OK, EXIT_INVALID_CONFIG,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(MODEL_FAMILIES),
        flags=flag_values({
            "--eta-min": ANY_FLOAT, "--eta-max": ANY_FLOAT, "--step": ANY_FLOAT,
            "--tol": ANY_FLOAT, "--mu": ANY_FLOAT, "--eta-c": ANY_FLOAT,
        }),
    )
    def test_threshold(self, model, flags):
        assert quiet_main(["threshold", "--model", model, *flags]) in (
            EXIT_OK, EXIT_INVALID_CONFIG, EXIT_EMPTY_CURVE,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(SOURCE_MODELS),
        adversary=st.sampled_from(ADVERSARIES),
        n_pulses=N_PULSES,
        flags=flag_values({**MODEL_FLAGS, "--n-photons": ANY_INT}),
    )
    @example("single-photon", "strong-pulse", 16, ["--eta=1.0", "--n-photons=1" + "0" * 400])
    @example("single-photon", "strong-pulse", 16, ["--eta=1.0", "--n-photons=1075"])
    @example("single-photon", "time-shift", 16, ["--eta=1.0", "--ed=5e-324"])
    def test_simulate(self, model, adversary, n_pulses, flags):
        """Any float or int flag; ``--n-pulses`` only in [-2, 64], because each
        shard allocates per pulse, so a huge count is a long run, not an error."""
        argv = ["simulate", "--model", model, "--adversary", adversary]
        argv.append(f"--n-pulses={n_pulses}")
        assert quiet_main([*argv, *flags]) in (
            EXIT_OK, EXIT_INVALID_CONFIG, EXIT_DEGENERATE,
        )

    @settings(max_examples=200, deadline=None)
    @given(model=st.sampled_from(SOURCE_MODELS), n_pulses=N_PULSES, flags=flag_values(MODEL_FLAGS))
    def test_compare(self, model, n_pulses, flags):
        argv = ["compare", "--model", model, f"--n-pulses={n_pulses}", *flags]
        assert quiet_main(argv) in (EXIT_OK, EXIT_INVALID_CONFIG)

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data(), command=st.sampled_from(sorted(CONFIG_KEYS)))
    def test_config_file(self, tmp_path, data, command):
        keys, exit_codes = CONFIG_KEYS[command]
        config = {key: data.draw(JSON_VALUE, label=key) for key in keys if data.draw(st.booleans())}
        if command in ("simulate", "compare"):
            config["n_pulses"] = data.draw(
                N_PULSES | JSON_VALUE.filter(lambda v: not isinstance(v, int) or isinstance(v, bool)),
                label="n_pulses",
            )
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert quiet_main([command, "--config", str(path)]) in exit_codes


# Values float() or int() reads in odd spellings, which argparse passes on.
ODD_FLOATS = ["1e0", " 0.5", "0.5 ", "+0.5", ".5", "5.", "1_0", "1e400", "inf", "NaN", "00",
              "\u0661", "\uff11"]
ODD_INTS = [" 7", "+3", "1_000", "00", "\u0661\u0662", "\uff11"]
# Junk, and values led by "-", which argparse may read as a flag.
JUNK_VALUES = ["0x10", "0x1p-1", "nan(1)", "", " ", "abc", "1 2", "x=y",
               "-0", "-1", "-1.5", "-inf", "-", "--", "--eta", "-x"]


def flag_value(action, junk):
    """Strings for one flag's value: values it takes, in odd spellings too,
    and with ``junk`` also any number of its type, junk and ``-``-led values."""
    if action.choices:
        valid = st.sampled_from(action.choices)
    elif action.type is float:
        valid = st.floats(0, 1).map(repr) | st.sampled_from(ODD_FLOATS)
    elif action.type is int:
        valid = st.integers(0, 2**64).map(str) | st.sampled_from(ODD_INTS)
    else:
        valid = st.text(min_size=1).filter(lambda text: not text.startswith("-"))
    if not junk:
        return valid
    numbers = {float: ANY_FLOAT.map(repr), int: ANY_INT.map(str)}.get(action.type, ANY_TEXT)
    return valid | numbers | st.sampled_from(JUNK_VALUES)


@st.composite
def flag_tokens(draw, subparser):
    """Tokens after a subcommand: ``--flag value`` pairs of exact flags, with
    repeats. A third of the draws are plain: each value one its flag takes.
    A third also draw junk values. The rest also abbreviate flags (to ``-``
    or ``--`` among others) or give them in ``=`` form, and add lone flags
    and stray values."""
    actions = [a for a in subparser._actions if a.option_strings and a.dest != "help"]
    mode = draw(st.sampled_from(["plain", "values", "any"]))
    tokens = []
    for _ in range(draw(st.integers(0, 6))):
        action = draw(st.sampled_from(actions))
        flag = action.option_strings[0]
        value = draw(flag_value(action, junk=mode != "plain"))
        if mode != "any":
            tokens += [flag, value]
            continue
        flag = draw(st.sampled_from([flag, flag, flag[:draw(st.integers(1, len(flag)))]]))
        form = draw(st.sampled_from(["pair", "pair", "equals", "flag", "stray"]))
        tokens += {
            "pair": [flag, value], "equals": [f"{flag}={value}"], "flag": [flag], "stray": [value],
        }[form]
    return tokens


@st.composite
def config_values(draw, subparser):
    """None, or values as ``_load_config`` passes them: some of the
    subcommand's dests, each of its flag's type and choices."""
    if draw(st.booleans()):
        return None
    config = {}
    for action in subparser._actions:
        if action.dest in ("help", "config") or not draw(st.booleans()):
            continue
        if action.choices:
            config[action.dest] = draw(st.sampled_from(action.choices))
        else:
            config[action.dest] = draw({float: ANY_FLOAT, int: ANY_INT}.get(action.type, ANY_TEXT))
    return config


def parse_outcome(parse):
    """``parse()``'s namespace as the repr of its sorted items, or its exit
    code; with what it wrote to stdout and stderr either way."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(sorted(vars(parse()).items()))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def argparse_parse(parser, argv, namespace):
    """``cli._parse`` by argparse alone: the subparser's ``parse_known_args``,
    then the main parser's error for any token it leaves."""
    args, extras = cli._subparsers(parser)[argv[0]].parse_known_args(argv[1:], namespace)
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


@settings(max_examples=500, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(CONFIG_KEYS)))
def test_parse_matches_argparse(data, command):
    """Plain or not, a call parses to what argparse gives, or exits with
    argparse's code and bytes; into a config's namespace too."""
    parser = cli.build_parser()
    subparser = cli._subparsers(parser)[command]
    tokens = data.draw(flag_tokens(subparser), label="tokens")
    config = data.draw(config_values(subparser), label="config")

    def namespace():
        return None if config is None else argparse.Namespace(**config)

    argv = [command, *tokens]
    expected = parse_outcome(lambda: argparse_parse(parser, argv, namespace()))
    assert parse_outcome(lambda: cli._parse(parser, argv, namespace())) == expected


# Calls of the benchmark's workloads and of CI's console-script step; each
# is plain, so argparse parses none of them.
PLAIN_CALLS = [
    *(["threshold", "--model", family] for family in MODEL_FAMILIES),
    *(["simulate", *flags, "--seed", "7"] for flags in SCENARIO_FLAGS.values()),
    *(
        ["compare", *SCENARIO_FLAGS[model], "--n-pulses", "16384", "--seed", "7"]
        for model in SOURCE_MODELS
    ),
    ["rate", "--model", "single-photon", "--eta", "1", "--ed", "0"],
    ["rate", "--model", "single-photon", "--eta", "0.5"],
    *(["threshold", "--model", family, *TOL_2_TO_THE_MINUS_50] for family in MODEL_FAMILIES),
    ["threshold", "--model", "coherent", "--tol", "1e-12"],
    ["threshold", "--model", "single-photon", *TOL_1E_300],
    *(
        ["simulate", "--model", "single-photon", "--eta", "1", "--adversary", *attack]
        for attack in (
            ("strong-pulse", "--n-photons", "20"),
            ("strong-pulse", "--n-photons", "1075"),
            ("time-shift", "--ed", "0.01"),
        )
    ),
    ["compare", "--model", "single-photon", "--eta", "0.7", "--ed", "0.03", "--n-pulses", "16384"],
    ["compare", "--model", "coherent", "--eta", "0.8", "--ed", "0.02", "--n-pulses", "16384"],
    ["compare", "--model", "coherent-memory", "--eta-m", "0.75", "--ed", "0.01",
     "--n-pulses", "16384"],
    ["threshold", "--model", "coherent", "--format", "json"],
]
# The one plain call among PINNED_PARSES: a repeated flag.
PLAIN_PINNED = [["rate", "--model", "coherent", "--model", "single-photon", "--eta", "0.5"]]


def test_plain_calls_skip_argparse(monkeypatch):
    subparsers = list(cli._subparsers(cli.build_parser()).values())
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def refuse(self, *args, **kwargs):
        if self in subparsers:
            raise AssertionError(f"{self.prog}: parsed by argparse")
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv in [*PLAIN_CALLS, *PLAIN_PINNED]:
        assert captured_main(argv)[::2] == (EXIT_OK, ""), argv
    # The main parser still reads what names no subcommand.
    assert captured_main(["--help"])[::2] == (EXIT_OK, "")


@pytest.mark.parametrize(
    "argv", [case[0] for case in PINNED_PARSES],
    ids=[" ".join(map(str, case[0])) or "(none)" for case in PINNED_PARSES],
)
def test_pinned_parses_reach_argparse_unless_plain(tmp_path, monkeypatch, argv):
    config = tmp_path / "rate.json"
    config.write_text(json.dumps({"model": "single-photon", "eta": 0.5}))
    parsers, parse_known_args = [], argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        parsers.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    captured_main([str(config) if a == CONFIG else a for a in argv])
    assert bool(parsers) == (argv not in PLAIN_PINNED), parsers


def readme_cli_lines():
    """Each ``lfqkd ...`` line of README's CLI block, ``\\`` continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_block_is_read():
    # An empty parametrization would skip the examples, not fail them.
    assert readme_cli_lines()


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_cli_examples_run(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "lfqkd"
    code, _, err = captured_main(argv[1:])
    assert code == EXIT_OK, err
