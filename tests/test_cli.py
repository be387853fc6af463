"""Tests for the command-line interface."""

import hashlib
import json

import pytest

from lfqkd.cli import (
    EXIT_DEGENERATE,
    EXIT_EMPTY_CURVE,
    EXIT_INVALID_CONFIG,
    EXIT_OK,
    main,
)
from lfqkd.rates import CoherentDecoyMemory, SinglePhoton, key_rate
from lfqkd.simulate import run_trials

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


def run_cli(*argv):
    return main(list(argv))


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
        assert payload["rate"] <= 0.0

    def test_strong_pulse_adversary(self, capsys):
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "1", "--ed", "0",
            "--adversary", "strong-pulse", "--n-pulses", "200000", "--seed", "6",
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "strong_pulse"
        assert abs(payload["q_s"] - 0.5) < 0.01
        assert payload["rate"] <= 0.0

    def test_degenerate_simulation_exit_code(self, capsys):
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "0", "--ed", "0",
            "--n-pulses", "5000", "--seed", "1",
        ) == EXIT_DEGENERATE
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_single"] == 0

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_zero_sifted_batch_is_degenerate(self, capsys, seed):
        # The one generated pulse is basis-mismatched for these seeds.
        assert run_cli(
            "simulate", "--model", "single-photon", "--eta", "1",
            "--n-pulses", "1", "--seed", seed,
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

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_zero_sifted_batch_fails(self, capsys, seed):
        assert run_cli(
            "compare", "--model", "single-photon", "--eta", "1",
            "--n-pulses", "1", "--seed", seed,
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
