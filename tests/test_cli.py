"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from grouprisk import cli, model
from grouprisk.cli import build_parser, config_from_args, main
from grouprisk.estimators import accumulate_gram
from grouprisk.harness import CSV_COLUMNS
from grouprisk.model import ModelConfig, e1_mean, sample_dataset, save_dataset
from grouprisk.primitives import (
    _LAYOUT,
    PRIMITIVE_NAMES,
    compute_primitives,
    primitive_set_max_gap,
    verify_primitives,
)

from conftest import write_x_then_q_file


def never_stream(*args, **kwargs):
    raise AssertionError("noise streamed")


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


TAU_COMMANDS = ("fit", "risk", "verify-primitives")

# sha256 prefixes of each subcommand's --help at 80 columns, with every
# "--tau TAU" removed and whitespace collapsed: a flag that is added,
# dropped or reworded changes a digest, and --tau is checked on its own
HELP_DIGESTS = {
    "sample": "13e417262bbc1bda",
    "fit": "33c4645cdaf8fb22",
    "risk": "839081d1eaead466",
    "bounds": "71d2dc808c7e25a2",
    "verify-primitives": "d11c500368cfdc8a",
    "wishart": "3b9c4ab312eb58f2",
    "sweep": "055d03efb2c0737a",
}


def small_config(**overrides):
    base = dict(
        d_core=200,
        d_spur=200,
        mu_core=e1_mean(10.0, 200),
        mu_spur=e1_mean(5.0, 200),
        n_plus=16,
        n_minus=4,
        seed=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestTauFlag:
    """tau is an argument of the subcommands that fit or build primitives."""

    @pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
    def test_help_lists_tau_exactly_where_it_is_used(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run([command, "--help"], capsys)
        assert code == 0
        assert ("\n  --tau TAU\n" in out) == (command in TAU_COMMANDS)
        rest = " ".join(out.replace("[--tau TAU]", "").replace("--tau TAU", "").split())
        assert hashlib.sha256(rest.encode()).hexdigest()[:16] == HELP_DIGESTS[command]

    @pytest.mark.parametrize("command", ["sample", "bounds"])
    def test_tau_refused_where_unused(self, command, tmp_path, capsys):
        argv = [command, "-n", "20", "-d", "400", "--tau", "1", "--out", str(tmp_path / "x")]
        code, stdout, err = run(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert "unrecognized arguments: --tau 1" in err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "ten"])
    @pytest.mark.parametrize("command", TAU_COMMANDS)
    def test_bad_tau_exits_before_any_stream(self, command, value, monkeypatch, capsys):
        from grouprisk import cli

        calls = []
        monkeypatch.setattr(cli, "accumulate_gram", lambda *a, **k: calls.append(a))
        code, stdout, err = run([command, "-n", "20", "-d", "400", f"--tau={value}"], capsys)
        assert code == 2
        assert stdout == ""
        assert "--tau" in err
        assert not calls

    def test_config_file_with_tau_is_refused(self, tmp_path, capsys):
        doc = small_config().to_dict()
        doc["tau"] = 0.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["fit", "--config", str(path)], capsys)
        assert code == 2
        assert "unknown ModelConfig fields: ['tau']" in err

    def test_sweep_spec_with_tau_is_refused(self, tmp_path, capsys):
        base = small_config().to_dict()
        base["tau"] = 0.0
        spec = {"base": base, "axis": {"name": "delta_minus", "values": [0.5]}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(["sweep", "--spec", str(path), "--out", str(tmp_path / "rows.csv")], capsys)
        assert code == 2
        assert "unknown ModelConfig fields: ['tau']" in err

    def test_sidecar_with_tau_is_refused(self, tmp_path, capsys):
        out = str(tmp_path / "ds.bin")
        assert run(["sample", "-n", "20", "-d", "400", "--out", out], capsys)[0] == 0
        sidecar = json.loads(Path(out + ".json").read_text())
        assert "tau" not in sidecar["config"]
        sidecar["config"]["tau"] = 0.0
        Path(out + ".json").write_text(json.dumps(sidecar))
        code, _, err = run(["fit", "--data", out], capsys)
        assert code == 2
        assert "unknown ModelConfig fields: ['tau']" in err

    def test_fit_from_saved_dataset_takes_tau(self, tmp_path, capsys):
        out = str(tmp_path / "ds.bin")
        assert run(["sample", "-n", "20", "-d", "400", "--out", out], capsys)[0] == 0
        code, stdout, _ = run(["fit", "--data", out, "--method", "ridge", "--tau", "50"], capsys)
        assert code == 0
        assert json.loads(stdout)["tau"] == 50.0


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

    @pytest.mark.parametrize("doc", [{}, {"n_plus": 16}, [1, 2]])
    def test_incomplete_config_file_exits_before_any_stream(self, doc, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(model, "_noise_windows", never_stream)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code, stdout, err = run(["risk", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert stdout == ""
        assert ("missing ModelConfig fields: ['d_core'" in err) == isinstance(doc, dict)
        assert ("ModelConfig must be a JSON object, got list" in err) == isinstance(doc, list)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mu_core", "dense", "mu_core must be a number, got list"),
            ("mu_spur", "dense", "mu_spur must be a number, got list"),
            ("delta_minus", "0.5", "delta_minus must be finite and positive, got '0.5'"),
            ("delta_minus", None, "delta_minus must be finite and positive, got None"),
            ("delta_plus", True, "delta_plus must be finite and positive, got True"),
            ("pi_plus", [0.5], "pi_plus must be finite and positive, got [0.5]"),
        ],
    )
    def test_bad_config_field_exits_before_any_stream(
        self, field, value, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(model, "_noise_windows", never_stream)
        doc = small_config().to_dict()
        # "dense": a d-long list, as files held each mean before they held its scale
        doc[field] = [1.0] * 200 if value == "dense" else value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code, stdout, err = run(["risk", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert stdout == ""
        assert f"error: {message}\n" == err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "config"},
             "missing sidecar fields: ['config']"),
            (lambda doc: doc["config"].update(mu_spur=[doc["config"]["mu_spur"]] + [0.0] * 199) or doc,
             "mu_spur must be a number, got list"),
            (lambda doc: [doc], "sidecar must be a JSON object, got list"),
        ],
        ids=["no-config", "dense-mean", "array"],
    )
    def test_bad_sidecar_exits_before_any_stream(self, edit, message, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "ds.bin")
        assert run(["sample", "-n", "20", "-d", "400", "--out", out], capsys)[0] == 0
        doc = edit(json.loads(Path(out + ".json").read_text()))
        Path(out + ".json").write_text(json.dumps(doc))
        monkeypatch.setattr(model, "_noise_windows", never_stream)
        code, stdout, err = run(["fit", "--data", out], capsys)
        assert code == 2
        assert stdout == ""
        assert message in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mu_core", "5", "mu_core must be a number, got str"),
            ("mu_core", True, "mu_core must be a number, got bool"),
            ("mu_spur", None, "mu_spur must be a number, got NoneType"),
            ("mu_spur", 10**400, "mu_spur must be finite"),
            ("mu_core", e1_mean(10.0, 200).tolist(), "mu_core must be a number, got list"),
            ("mu_spur", {"0": 5.0}, "mu_spur must be a number, got dict"),
        ],
        ids=["string-entry", "bool-entry", "null", "scalar", "list", "object"],
    )
    def test_mean_that_is_not_a_list_of_reals_exits_before_any_stream(
        self, field, value, message, tmp_path, monkeypatch, capsys
    ):
        # a file holds each mean as its scale, one JSON number ("scalar" is
        # an integer past the float range, "list" the format written before)
        monkeypatch.setattr(model, "_noise_windows", never_stream)
        doc = small_config().to_dict()
        doc[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code, stdout, err = run(["risk", "--config", str(cfg_path)], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(y={"a": 1}), "sidecar y must be a JSON array of n=20 entries, each 1 or -1"),
            (lambda doc: doc.update(y=[str(v) for v in doc["y"]]), "sidecar y must be a JSON array"),
            (lambda doc: doc["a"].__setitem__(3, 0), "sidecar a must be a JSON array"),
            (lambda doc: doc.update(a=[v > 0 for v in doc["a"]]), "sidecar a must be a JSON array"),
            (lambda doc: doc.update(a=doc["a"] + [1]), "sidecar a must be a JSON array of n=20 entries"),
        ],
        ids=["y-object", "y-strings", "a-zero", "a-bools", "a-long"],
    )
    def test_bad_sidecar_labels_exit_before_any_stream(self, edit, message, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "ds.bin")
        assert run(["sample", "-n", "20", "-d", "400", "--out", out], capsys)[0] == 0
        doc = json.loads(Path(out + ".json").read_text())
        edit(doc)
        Path(out + ".json").write_text(json.dumps(doc))
        monkeypatch.setattr(model, "_assemble", never_stream)
        code, stdout, err = run(["fit", "--data", out], capsys)
        assert (code, stdout) == (2, "")
        assert message in err

    def test_file_with_an_x_half_exits_before_any_stream(self, tmp_path, monkeypatch, capsys):
        # X then Q with the n, d, seed, layout and b sidecar fields
        out = str(tmp_path / "ds.bin")
        write_x_then_q_file(sample_dataset(small_config()), out)
        monkeypatch.setattr(model, "_assemble", never_stream)
        code, stdout, err = run(["fit", "--data", out], capsys)
        assert (code, stdout) == (2, "")
        assert err == "error: unknown sidecar fields: ['b', 'd', 'layout', 'n', 'seed']\n"

    def test_config_file_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"

        cfg = ModelConfig(
            d_core=200,
            d_spur=200,
            mu_core=e1_mean(10.0, 200),
            mu_spur=e1_mean(5.0, 200),
            n_plus=16,
            n_minus=4,
            seed=8,
        )
        cfg_path.write_text(json.dumps(cfg.to_dict()))
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

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_mc_draws_below_one_exits_before_any_stream(self, draws, no_stream, capsys):
        code, stdout, err = run(["risk", "-n", "20", "-d", "400", "--mc-draws", draws], capsys)
        assert code == 2
        assert stdout == ""
        assert "--mc-draws: must be at least 1" in err
        assert not no_stream

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


# inline config flags with a value each, as a command line would give them
INLINE_FLAGS = [
    ("-n", "20"), ("--n-plus", "16"), ("--n-minus", "4"), ("-d", "400"),
    ("--mu-core-sq", "40"), ("--mu-spur-sq", "10"), ("--pi-plus", "0.4"),
    ("--delta-plus", "0.9"), ("--delta-minus", "0.5"),
]
CONFIG_COMMANDS = ("sample", "fit", "risk", "bounds", "verify-primitives")


@pytest.fixture
def no_stream(monkeypatch):
    """Record every call that would load or stream noise; none may happen."""
    from grouprisk import cli

    calls = []
    for name in ("accumulate_gram", "sample_dataset", "load_dataset"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
    return calls


class TestIgnoredFlags:
    """A flag that the command would ignore exits 2, naming the flag."""

    def refused(self, argv, flag, calls, capsys):
        code, stdout, err = run(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert f"{flag}: ignored" in err
        assert not calls

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--tau", "50"], "--tau"),
            (["--method", "cmni", "--tau", "50"], "--tau"),
            (["--method", "gd", "--tau", "50"], "--tau"),
            (["--method", "cmni", "--step", "0.1"], "--step"),
            (["--method", "ridge", "--step", "0.1"], "--step"),
            (["--method", "cmni", "--iters", "10"], "--iters"),
            (["--method", "ridge", "--iters", "10"], "--iters"),
        ],
    )
    @pytest.mark.parametrize("command", ["fit", "risk"])
    def test_method_flag_off_its_method(self, command, extra, flag, no_stream, capsys):
        self.refused([command, "-n", "20", "-d", "400", *extra], flag, no_stream, capsys)

    @pytest.mark.parametrize("flag, value", INLINE_FLAGS)
    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_inline_flag_with_config_file(self, command, flag, value, tmp_path, no_stream, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config().to_dict()))
        argv = [command, "--config", str(path), flag, value, "--out", str(tmp_path / "out")]
        self.refused(argv, flag, no_stream, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [*INLINE_FLAGS, ("--seed", "5"), ("--config", "cfg.json")])
    def test_config_flag_with_saved_dataset(self, flag, value, tmp_path, no_stream, capsys):
        data = str(tmp_path / "ds.bin")
        save_dataset(sample_dataset(small_config()), data)
        self.refused(["fit", "--data", data, flag, value], flag, no_stream, capsys)

    @pytest.mark.parametrize("method", ["cmni", "gd"])
    def test_zero_tau_is_taken_by_every_method(self, method, capsys):
        code, stdout, _ = run(["fit", "-n", "20", "-d", "400", "--method", method, "--tau", "0"], capsys)
        assert code == 0
        assert json.loads(stdout)["method"] == method

    def test_config_file_takes_seed(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config().to_dict()))
        assert run(["risk", "--config", str(path), "--seed", "5"], capsys)[0] == 0


BENCH_VERIFY = ["--n-plus", "24", "--n-minus", "6", "-d", "30000", "--mu-core-sq", "72",
                "--mu-spur-sq", "18", "--seed", "3", "--band", "0.5,2.0"]


class TestVerification:
    @pytest.mark.parametrize("argv", [BENCH_VERIFY, ["-n", "40", "-d", "3000", "--tau", "100", "--seed", "3"]])
    def test_library_document_is_the_printed_one(self, argv, capsys):
        args = build_parser().parse_args(["verify-primitives", *argv])
        cfg = config_from_args(args)
        doc = verify_primitives(accumulate_gram(cfg), cfg, tau=args.tau, band=args.band)
        code, stdout, _ = run(["verify-primitives", *argv], capsys)
        assert code == 0
        assert doc["passed"]
        assert json.loads(stdout) == doc

    def test_failed_gate_exits_one(self, monkeypatch, capsys):
        # the risk identity against a ridge fit at another tau
        from grouprisk import primitives

        fit_ridge = primitives.fit_ridge
        monkeypatch.setattr(primitives, "fit_ridge", lambda stats, delta, tau: fit_ridge(stats, delta, tau + 50.0))
        code, stdout, _ = run(["verify-primitives", *BENCH_VERIFY], capsys)
        doc = json.loads(stdout)
        assert code == 1
        assert not doc["passed"]
        assert max(doc["risk_identity_gap"].values()) > 1e-8
        assert doc["mode_equivalence_max_gap"] <= 1e-8 and doc["aux_inequalities"]["count_cap_ok"]

    def test_bands_are_reported_outside_the_exit_code(self, capsys):
        # d = 300 is far from the check_assumptions regime: bands fail, gates hold
        code, stdout, _ = run(["verify-primitives", "-n", "40", "-d", "300", "--seed", "3"], capsys)
        doc = json.loads(stdout)
        assert code == 0
        assert doc["passed"]
        assert not doc["bands_all_pass"] and doc["band_failures"]

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

    @pytest.mark.parametrize("band", ["-3,-1", "0,2", "0.5,inf", "nan,1"])
    def test_non_positive_or_non_finite_band_exits_before_any_stream(self, band, no_stream, capsys):
        code, stdout, err = run(["verify-primitives", "-n", "20", "-d", "400", f"--band={band}"], capsys)
        assert code == 2
        assert stdout == ""
        assert "--band" in err
        assert not no_stream

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

    @pytest.mark.parametrize("command", [["wishart", "--draws", "10"], ["risk", "-n", "20", "-d", "400"]])
    @pytest.mark.parametrize("seed", ["-5", str(2**64), str(2**64 + 5)])
    def test_bad_seed_is_usage_error(self, command, seed, capsys):
        # wishart refuses the seeds every config-building command refuses
        code, stdout, err = run([*command, "--seed", seed], capsys)
        assert code == 2
        assert not stdout
        assert "seed must be a 64-bit unsigned integer" in err

    def test_top_seed_is_echoed(self, capsys):
        code, stdout, _ = run(["wishart", "--draws", "10", "--seed", str(2**64 - 1)], capsys)
        assert code == 0
        assert json.loads(stdout)["seed"] == 2**64 - 1


class TestParserReuse:
    @staticmethod
    def fresh(argv, capsys):
        """What `main` prints with a parser built for this call alone."""
        cli._parser.cache_clear()
        return run(argv, capsys)

    @pytest.mark.parametrize(
        "first, second",
        [
            # --method falls back to cmni
            (["fit", "-n", "20", "-d", "400", "--method", "gd"], ["fit", "-n", "20", "-d", "400"]),
            # no mc fields without --mc-draws
            (["risk", "-n", "20", "-d", "400", "--mc-draws", "10"], ["risk", "-n", "20", "-d", "400"]),
            # a usage error, then a good call
            (["fit", "--method", "lasso"], ["fit", "-n", "20", "-d", "400"]),
        ],
    )
    def test_main_builds_one_parser_and_prints_what_a_fresh_one_does(
        self, first, second, monkeypatch, capsys
    ):
        want = [self.fresh(first, capsys), self.fresh(second, capsys)]
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        got = [run(argv, capsys) for argv in (first, second, first, second)]
        assert len(built) == 1
        assert got == want + want
        assert [code for code, _, _ in got[:2]] == [2 if "lasso" in first else 0, 0]
        doc = json.loads(got[1][1])
        assert doc.get("method", "cmni") == "cmni"
        assert "mc_risk_plus" not in doc


class TestSweepCommand:
    def spec_file(self, tmp_path):
        cfg = ModelConfig(
            d_core=400,
            d_spur=400,
            mu_core=e1_mean(10.0, 400),
            mu_spur=e1_mean(5.0, 400),
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

    @pytest.mark.parametrize("where, key", [("top", "trails"), ("axis", "valeus"), ("method", "Tau")])
    def test_sweep_spec_unknown_key_exits_before_any_stream(self, where, key, tmp_path, monkeypatch, capsys):
        from grouprisk import harness

        calls = []
        monkeypatch.setattr(harness, "noise_stats_many", lambda *a, **k: calls.append(a))
        spec_path = self.spec_file(tmp_path)
        doc = json.loads(Path(spec_path).read_text())
        doc["methods"] = [{"method": "ridge", "tau": 3.0}]
        {"top": doc, "axis": doc["axis"], "method": doc["methods"][0]}[where][key] = 5
        Path(spec_path).write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        code, stdout, err = run(["sweep", "--spec", spec_path, "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert f"['{key}']" in err
        assert not calls
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, key",
        [("top", "base"), ("top", "axis"), ("axis", "values"), ("method", "method"),
         ("base", "n_plus")],
    )
    def test_sweep_spec_missing_key_exits_before_any_stream(self, where, key, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(model, "_noise_windows", never_stream)
        spec_path = self.spec_file(tmp_path)
        doc = json.loads(Path(spec_path).read_text())
        del {"top": doc, "axis": doc["axis"], "method": doc["methods"][0], "base": doc["base"]}[where][key]
        Path(spec_path).write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        code, stdout, err = run(["sweep", "--spec", spec_path, "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert f"['{key}']" in err and "missing" in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["top", "axis", "method", "base"])
    def test_sweep_spec_non_object_exits_before_any_stream(self, where, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(model, "_noise_windows", never_stream)
        spec_path = self.spec_file(tmp_path)
        doc = json.loads(Path(spec_path).read_text())
        if where == "top":
            doc = [1, 2]
        elif where == "method":
            doc["methods"] = ["cmni"]
        else:
            doc[where] = [1, 2]
        Path(spec_path).write_text(json.dumps(doc))
        code, stdout, err = run(["sweep", "--spec", spec_path, "--out", str(tmp_path / "r.csv")], capsys)
        assert code == 2
        assert stdout == ""
        assert "must be a JSON object, got" in err

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            ("axis", "values", 5, "values must be a JSON array, got int"),
            ("axis", "values", "0.5", "values must be a JSON array, got str"),
            ("axis", "values", [0.5, None], "axis values must be real numbers, got None"),
            ("axis", "values", [True], "axis values must be real numbers, got True"),
            ("top", "outputs", "risk", "outputs must be a JSON array, got str"),
            ("top", "methods", {"method": "cmni"}, "methods must be a JSON array, got dict"),
        ],
    )
    def test_sweep_spec_non_array_exits_before_any_stream(
        self, where, key, value, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(model, "_noise_windows", never_stream)
        spec_path = self.spec_file(tmp_path)
        doc = json.loads(Path(spec_path).read_text())
        {"top": doc, "axis": doc["axis"]}[where][key] = value
        Path(spec_path).write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        code, stdout, err = run(["sweep", "--spec", spec_path, "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert f"error: {message}\n" == err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("out_path", 1, "out_path must be a string or null, got int"),
            ("out_path", ["a"], "out_path must be a string or null, got list"),
            ("name", 7, "name must be a string, got int"),
            ("name", None, "name must be a string, got NoneType"),
        ],
    )
    def test_sweep_spec_non_string_name_or_out_path_exits_before_any_stream(
        self, key, value, message, tmp_path, monkeypatch, capsys
    ):
        # an int out_path would be opened as a file descriptor and a bad name
        # would go into every run_id; no --out, so the spec's out_path is the one read
        monkeypatch.setattr(model, "_noise_windows", never_stream)
        spec_path = self.spec_file(tmp_path)
        doc = json.loads(Path(spec_path).read_text())
        doc[key] = value
        Path(spec_path).write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(["sweep", "--spec", spec_path], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

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
        cfg = ModelConfig(
            d_core=200,
            d_spur=200,
            mu_core=e1_mean(10.0, 200),
            mu_spur=e1_mean(5.0, 200),
            n_plus=16,
            n_minus=4,
            seed=1,
        )
        prims = compute_primitives(accumulate_gram(cfg), mode="direct")
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
        prims = compute_primitives(accumulate_gram(cfg), mode="direct")
        if name in _LAYOUT:
            tables = prims.tables.copy()
            tables[_LAYOUT[name]] += 1e-6
            other = dataclasses.replace(prims, tables=tables)
        else:
            other = dataclasses.replace(prims, **{name: getattr(prims, name) + 1e-6})
        assert primitive_set_max_gap(prims, other) > 0.0
        assert primitive_set_max_gap(other, prims) > 0.0
