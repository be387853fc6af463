"""Tests for the command-line interface."""

import contextlib
import hashlib
import io
import itertools
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
SIMULATE_SHA256 = {
    ("coherent", "1"): "32224b4fa59fd2598d9114fb2d1543efd7bfa57a652defb37ac8d4867982d014",
    ("coherent", "2"): "d42d070557578288658ad875cfe884eb286c46e9c44266371aee7940029fc912",
    ("coherent-memory", "1"): "8508ada00d2f532e0418b836c42888caedf05fb805a25ae1994cbb37e68d9180",
    ("coherent-memory", "2"): "7cdbb0775d18281300a0d2e9939e4f00bf2fe02b232b945bc1b445796cce2174",
    ("single-photon", "1"): "b19df70812bf1765b50030a26121888f3f3c0639ad24151895e12d70fd04286c",
    ("single-photon", "2"): "5302ce79d944be7db342516303f2854348a3771a9a7fcb04aa0f93250764b5f2",
    ("strong-pulse", "1"): "06717850a86ca357ad7abee93b8207dc2041076ac45d8a1e0ab98403cad129d1",
    ("strong-pulse", "2"): "1807ed91f305ab667ca0e5ef08b95524e5bb7b8b87377e04b5396fce6980f2ac",
    ("time-shift", "1"): "420807312081d869bfe0bba5c78acc8d386c9e3abf5439da16d3e78a1e6fc660",
    ("time-shift", "2"): "1c2aa62b14033fb6e7365fe008e1330ea4a864f150c5de04ff838cec9f727cce",
}
COMPARE_SHA256 = {
    ("coherent", "1"): "70d8d710518704d88258f547a65751e7428165f5886de61b3814e5643e0dd5cb",
    ("coherent", "2"): "07fa0039457481664e8c5146b6e9f70983acf04a1f2cdfefa245f8c310879f71",
    ("coherent-memory", "1"): "3fc31bb3bb9ac899fd1fb6226aa2cb14e24e67f63b6c44b8bd7f878570ae93c0",
    ("coherent-memory", "2"): "67dcd135f9e2ee20fc2840670b1d0fb69ebfbe71c853d0ee78bbfef52987b638",
    ("single-photon", "1"): "bb8f71b0abb282fe78935c842b7d7d7c7f204d470f931ed145c3bd5deec20ad6",
    ("single-photon", "2"): "50ff98ecd6bfea6eaf6555ce6187292e54cf2b2bf942ba5255374f524824d267",
}


def run_cli(*argv):
    return main(list(argv))


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
