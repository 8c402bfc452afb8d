"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from grouprisk.cli import main, primitive_set_max_gap
from grouprisk.harness import CSV_COLUMNS
from grouprisk.model import ModelConfig, e1_mean, sample_dataset
from grouprisk.primitives import _LAYOUT, PRIMITIVE_NAMES, compute_primitives


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run([], capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "verify-primitives" in out

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(["wishart", "--draws", "many"], capsys)
        assert code == 2


class TestSampleAndFit:
    def test_sample_writes_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "ds.bin")
        code, stdout, _ = run(
            ["sample", "-n", "20", "-d", "400", "--seed", "3", "--out", out], capsys
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["n"] == 20
        assert doc["n_minus"] == 4
        from grouprisk.model import load_dataset

        ds = load_dataset(out)
        assert ds.config.seed == 3

    def test_sample_requires_out(self, capsys):
        code, _, err = run(["sample", "-n", "20", "-d", "400"], capsys)
        assert code == 2
        assert "--out" in err

    def test_sample_rejects_missing_out_before_sampling(self, monkeypatch, capsys):
        from grouprisk import cli

        def never(*args, **kwargs):
            raise AssertionError("sample_dataset called without --out")

        monkeypatch.setattr(cli, "sample_dataset", never)
        code, _, err = run(["sample", "-n", "200", "-d", "200000"], capsys)
        assert code == 2
        assert "--out" in err

    def test_fit_from_saved_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "ds.bin")
        assert run(["sample", "-n", "20", "-d", "400", "--out", out], capsys)[0] == 0
        code, stdout, _ = run(["fit", "--data", out, "--method", "cmni"], capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["method"] == "cmni"
        assert doc["interpolation_residual"] <= 1e-8

    def test_fit_sampled_inline_with_ridge(self, capsys):
        code, stdout, _ = run(
            ["fit", "-n", "20", "-d", "400", "--method", "ridge", "--tau", "50"], capsys
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["tau"] == 50.0

    @pytest.mark.parametrize("step", ["nan", "inf", "0", "-1"])
    def test_fit_gd_bad_step_is_usage_error(self, step, capsys):
        code, stdout, err = run(
            ["fit", "-n", "20", "-d", "400", "--method", "gd", "--step", step], capsys
        )
        assert code == 2
        assert stdout == ""
        assert "step must be finite and positive" in err

    def test_fit_missing_data_file(self, capsys):
        code, _, err = run(["fit", "--data", "/nonexistent/ds.bin"], capsys)
        assert code == 2

    def test_config_file_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"

        def e1(scale, length):
            v = np.zeros(length)
            v[0] = scale
            return v

        cfg = ModelConfig(
            d_core=200,
            d_spur=200,
            mu_core=e1(10.0, 200),
            mu_spur=e1(5.0, 200),
            n_plus=16,
            n_minus=4,
            seed=8,
        )
        cfg_path.write_text(cfg.to_json())
        code, stdout, _ = run(["fit", "--config", str(cfg_path)], capsys)
        assert code == 0
        assert len(json.loads(stdout)["c"]) == 20


class TestRiskAndBounds:
    def test_risk_report(self, capsys):
        code, stdout, _ = run(["risk", "-n", "20", "-d", "400", "--seed", "4"], capsys)
        assert code == 0
        doc = json.loads(stdout)
        for key in ("risk_plus", "risk_minus", "worst_risk", "avg_risk"):
            assert key in doc
        assert 0.0 <= doc["worst_risk"] <= 1.0

    def test_risk_with_monte_carlo(self, capsys):
        code, stdout, _ = run(
            ["risk", "-n", "20", "-d", "400", "--mc-draws", "2000"], capsys
        )
        assert code == 0
        doc = json.loads(stdout)
        assert "mc_risk_plus" in doc

    def test_bounds_reference_config(self, capsys):
        code, stdout, _ = run(
            [
                "bounds",
                "-n", "200", "--n-minus", "10",
                "-d", "100000",
                "--mu-core-sq", "125", "--mu-spur-sq", "125",
                "--delta-plus", "0.95", "--delta-minus", "0.05",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(stdout)
        np.testing.assert_allclose(doc["exponent_plus"], 5.9375, rtol=1e-9)
        np.testing.assert_allclose(doc["upper_plus"], np.exp(-5.9375), rtol=1e-9)
        assert doc["consistency_plus"]["applicable"]

    @pytest.mark.parametrize(
        "flag, value",
        [("--c1", "nan"), ("--c2", "0"), ("--c3", "inf"), ("--c-const", "nan"), ("--c-const", "-1")],
    )
    def test_bounds_bad_constant_is_usage_error(self, flag, value, capsys):
        # equal mean norms, so the vanishing condition applies
        code, stdout, err = run(
            ["bounds", "-n", "20", "-d", "400", "--mu-core-sq", "40", "--mu-spur-sq", "40",
             flag, value],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert "finite and positive" in err

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "risk.json")
        code, stdout, _ = run(["risk", "-n", "20", "-d", "400", "--out", out], capsys)
        assert code == 0
        assert stdout == ""
        assert "risk_plus" in json.loads(Path(out).read_text())


class TestVerification:
    def test_verify_primitives_passes(self, capsys):
        code, stdout, _ = run(
            ["verify-primitives", "--seed", "7", "-n", "20", "-d", "400"], capsys
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["passed"]
        assert doc["mode_equivalence_max_gap"] <= 1e-8
        assert doc["adjugate_identity_gap"] <= 1e-10
        assert max(float(v) for v in doc["risk_identity_gap"].values()) <= 1e-8

    def test_verify_primitives_band_flag(self, capsys):
        code, stdout, _ = run(
            ["verify-primitives", "-n", "20", "-d", "400", "--band", "0.01,100"],
            capsys,
        )
        assert code == 0
        assert json.loads(stdout)["bands_all_pass"]

    def test_verify_primitives_bad_band(self, capsys):
        code, _, _ = run(
            ["verify-primitives", "-n", "20", "-d", "400", "--band", "2,0.5"], capsys
        )
        assert code == 2

    def test_wishart_pass_and_fail_exit_codes(self, capsys):
        code, stdout, _ = run(
            ["wishart", "-d", "1000", "-n", "10", "-t", "4.6", "--draws", "200"], capsys
        )
        assert code == 0
        assert json.loads(stdout)["passed"]
        # tiny t makes the band so wide the test trivially passes; a huge
        # draw count with a shifted dimension argument cannot fail it, so
        # instead force failure with an out-of-regime configuration
        code, stdout, _ = run(
            ["wishart", "-d", "30", "-n", "10", "-t", "1.0", "--draws", "300"], capsys
        )
        assert code in (0, 1)
        doc = json.loads(stdout)
        assert (code == 0) == doc["passed"]


class TestWishartCommand:
    @pytest.mark.parametrize(
        "argv, message",
        [(["-n", "0"], "n must be at least 1"), (["-t", "nan"], "t must be finite")],
    )
    def test_bad_input_is_usage_error(self, argv, message, capsys):
        code, stdout, err = run(["wishart", "--draws", "10", *argv], capsys)
        assert code == 2
        assert not stdout
        assert message in err


class TestSweepCommand:
    def spec_file(self, tmp_path):
        def e1(scale, length):
            v = np.zeros(length)
            v[0] = scale
            return v

        cfg = ModelConfig(
            d_core=400,
            d_spur=400,
            mu_core=e1(10.0, 400),
            mu_spur=e1(5.0, 400),
            n_plus=32,
            n_minus=8,
            delta_plus=0.95,
            delta_minus=0.5,
            seed=11,
        )
        spec = {
            "name": "clitest",
            "base": cfg.to_dict(),
            "axis": {"name": "delta_minus", "values": [0.5, 0.25]},
            "methods": [{"method": "cmni"}],
            "trials": 2,
            "outputs": ["risk", "bounds"],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_sweep_from_spec_file(self, tmp_path, capsys):
        out = str(tmp_path / "rows.csv")
        code, stdout, err = run(
            ["sweep", "--spec", self.spec_file(tmp_path), "--out", out], capsys
        )
        assert code == 0
        assert "wrote 2 rows" in stdout
        with open(out, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == CSV_COLUMNS
        assert len(parsed) == 3

    def test_sweep_skips_logged_as_json_lines(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        doc = json.loads(Path(spec_path).read_text())
        doc["axis"]["values"] = [0.5, 0.99]  # 0.99 > delta_plus, skipped
        Path(spec_path).write_text(json.dumps(doc))
        out = str(tmp_path / "rows.csv")
        code, _, err = run(["sweep", "--spec", spec_path, "--out", out], capsys)
        assert code == 0
        skip_lines = [ln for ln in err.splitlines() if ln.startswith("{")]
        assert len(skip_lines) == 1
        skip = json.loads(skip_lines[0])
        assert skip["stage"] == "config"
        assert skip["value"] == 0.99

    def test_sweep_skip_lines_are_strict_json(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        with open(spec_path) as fh:
            doc = json.load(fh)
        doc["axis"]["values"] = [0.5, float("nan")]
        with open(spec_path, "w") as fh:
            json.dump(doc, fh)
        out = str(tmp_path / "rows.csv")
        code, _, err = run(["sweep", "--spec", spec_path, "--out", out], capsys)
        assert code == 0
        skip_lines = [ln for ln in err.splitlines() if ln.startswith("{")]
        assert len(skip_lines) == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        skip = json.loads(skip_lines[0], parse_constant=reject)
        assert skip["stage"] == "config"
        assert skip["value"] is None

    def test_sweep_spec_overrides_seed_and_trials(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        out = str(tmp_path / "rows.json")
        code, _, _ = run(
            ["sweep", "--spec", spec_path, "--seed", "5", "--trials", "3",
             "--format", "json", "--out", out],
            capsys,
        )
        assert code == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["meta"]["seed"] == 5
        assert doc["meta"]["trials"] == 3
        assert all(row["trials"] == 3 for row in doc["rows"])

    @pytest.mark.parametrize(
        "tau", [float("nan"), float("inf"), "d/nan", "d/inf", "half", [1.0]]
    )
    def test_sweep_bad_tau_spec_is_usage_error(self, tau, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        with open(spec_path) as fh:
            doc = json.load(fh)
        doc["methods"] = [{"method": "ridge", "tau": tau}]
        with open(spec_path, "w") as fh:
            json.dump(doc, fh)
        out = tmp_path / "rows.csv"
        code, _, err = run(["sweep", "--spec", spec_path, "--out", str(out)], capsys)
        assert code == 2
        assert "tau" in err
        assert not out.exists()

    def test_sweep_bool_tau_spec_is_usage_error(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        with open(spec_path) as fh:
            doc = json.load(fh)
        doc["methods"] = [{"method": "ridge", "tau": True}]
        with open(spec_path, "w") as fh:
            json.dump(doc, fh)
        out = tmp_path / "rows.csv"
        code, _, err = run(["sweep", "--spec", spec_path, "--out", str(out)], capsys)
        assert code == 2
        assert "tau" in err
        assert not out.exists()

    @pytest.mark.parametrize("trials", [2.7, True])
    def test_sweep_non_integer_trials_spec_is_usage_error(self, tmp_path, capsys, trials):
        spec_path = self.spec_file(tmp_path)
        with open(spec_path) as fh:
            doc = json.load(fh)
        doc["trials"] = trials
        with open(spec_path, "w") as fh:
            json.dump(doc, fh)
        out = tmp_path / "rows.csv"
        code, _, err = run(["sweep", "--spec", spec_path, "--out", str(out)], capsys)
        assert code == 2
        assert "trials" in err
        assert not out.exists()

    def test_sweep_all_points_invalid_is_failure(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        doc = json.loads(Path(spec_path).read_text())
        doc["axis"]["values"] = [0.99]
        Path(spec_path).write_text(json.dumps(doc))
        code, _, err = run(
            ["sweep", "--spec", spec_path, "--out", str(tmp_path / "r.csv")], capsys
        )
        assert code == 1

    def test_sweep_requires_preset_or_spec(self, capsys):
        code, _, _ = run(["sweep"], capsys)
        assert code == 2

    def test_sweep_json_format(self, tmp_path, capsys):
        out = str(tmp_path / "rows.json")
        code, _, _ = run(
            ["sweep", "--spec", self.spec_file(tmp_path), "--out", out, "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["meta"]["axis"] == "delta_minus"
        assert len(doc["rows"]) == 2


class TestGapHelper:
    def test_zero_for_identical_sets(self):
        def e1(scale, length):
            v = np.zeros(length)
            v[0] = scale
            return v

        cfg = ModelConfig(
            d_core=200,
            d_spur=200,
            mu_core=e1(10.0, 200),
            mu_spur=e1(5.0, 200),
            n_plus=16,
            n_minus=4,
            seed=1,
        )
        ds = sample_dataset(cfg)
        prims = compute_primitives(ds, mode="direct")
        assert primitive_set_max_gap(prims, prims) == 0.0

    @pytest.mark.parametrize("name", PRIMITIVE_NAMES)
    def test_every_primitive_is_compared(self, name):
        cfg = ModelConfig(
            d_core=200,
            d_spur=200,
            mu_core=e1_mean(10.0, 200),
            mu_spur=e1_mean(5.0, 200),
            n_plus=16,
            n_minus=4,
            seed=1,
        )
        prims = compute_primitives(sample_dataset(cfg), mode="direct")
        if name in _LAYOUT:
            tables = prims.tables.copy()
            tables[_LAYOUT[name]] += 1e-6
            other = dataclasses.replace(prims, tables=tables)
        else:
            other = dataclasses.replace(prims, **{name: getattr(prims, name) + 1e-6})
        assert primitive_set_max_gap(prims, other) > 0.0
        assert primitive_set_max_gap(other, prims) > 0.0
