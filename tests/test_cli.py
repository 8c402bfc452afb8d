"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import functools
import hashlib
import json
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from grouprisk import cli, model, primitives
from grouprisk.cli import build_parser, config_from_args, main
from grouprisk.harness import CSV_COLUMNS
from grouprisk.model import ModelConfig, e1_mean, noise_stats, sample_dataset, save_dataset
from grouprisk.primitives import (
    _LAYOUT,
    PRIMITIVE_NAMES,
    compute_primitives,
    primitive_set_max_gap,
    verify_primitives,
)

from conftest import write_x_then_q_file


# a d = n config: entries that vanish in exact arithmetic beside ones near 500
D_EQUALS_N = ["-n", "3", "-d", "3"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_arguments_is_usage_error(self, no_stream, capsys):
        code, _, err = run([], capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, no_stream, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "verify-primitives" in out

    def test_bad_flag_value(self, no_stream, capsys):
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


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    """A saved dataset of `small_config` (n = 20, d = 400), sampled once per
    module, before any test's function-scoped fixtures (`no_stream`) are set."""
    path = str(tmp_path_factory.mktemp("saved") / "ds.bin")
    save_dataset(sample_dataset(small_config()), path)
    return path


@pytest.fixture
def saved(dataset_files, tmp_path):
    """A copy of `dataset_files` in the test's own directory, free to edit."""
    out = str(tmp_path / "ds.bin")
    for suffix in ("", ".json"):
        shutil.copyfile(dataset_files + suffix, out + suffix)
    return out


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
    def test_tau_refused_where_unused(self, command, tmp_path, no_stream, capsys):
        argv = [command, "-n", "20", "-d", "400", "--tau", "1", "--out", str(tmp_path / "x")]
        code, stdout, err = run(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert "unrecognized arguments: --tau 1" in err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "ten"])
    @pytest.mark.parametrize("command", TAU_COMMANDS)
    def test_bad_tau_exits_before_any_stream(self, command, value, no_stream, capsys):
        code, stdout, err = run([command, "-n", "20", "-d", "400", f"--tau={value}"], capsys)
        assert code == 2
        assert stdout == ""
        assert "--tau" in err
        assert not no_stream

    def test_config_file_with_tau_is_refused(self, tmp_path, no_stream, capsys):
        doc = small_config().to_dict()
        doc["tau"] = 0.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["fit", "--config", str(path)], capsys)
        assert code == 2
        assert "unknown ModelConfig fields: ['tau']" in err

    def test_sweep_spec_with_tau_is_refused(self, tmp_path, no_stream, capsys):
        base = small_config().to_dict()
        base["tau"] = 0.0
        spec = {"base": base, "axis": {"name": "delta_minus", "values": [0.5]}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(["sweep", "--spec", str(path), "--out", str(tmp_path / "rows.csv")], capsys)
        assert code == 2
        assert "unknown ModelConfig fields: ['tau']" in err

    def test_sidecar_with_tau_is_refused(self, saved, no_stream, capsys):
        out = saved
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

    @pytest.mark.parametrize("bad, method", [("nan", "cmni"), ("inf", "gd"), ("-inf", "ridge")])
    def test_fit_refuses_non_finite_noise_before_streaming(self, bad, method, tmp_path, monkeypatch, capsys):
        # NaN printed NaN for every number, and inf under gd failed as
        # "Eigenvalues did not converge"
        out = str(tmp_path / "d.bin")
        assert run(["sample", "-n", "20", "-d", "100", "--out", out], capsys)[0] == 0
        q = np.fromfile(out, dtype="<f8")
        q[[7, 1000]] = float(bad)
        q.tofile(out)
        monkeypatch.setattr(model, "_assemble", lambda *args: pytest.fail("noise streamed"))
        code, stdout, err = run(["fit", "--data", out, "--method", method], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: Q in {out} must be finite, got {bad} at row 0, column 7\n"

    def test_sample_requires_out(self, no_stream, capsys):
        code, _, err = run(["sample", "-n", "20", "-d", "400"], capsys)
        assert code == 2
        assert "--out" in err

    def test_sample_rejects_missing_out_before_sampling(self, no_stream, capsys):
        code, _, err = run(["sample", "-n", "200", "-d", "200000"], capsys)
        assert code == 2
        assert "--out" in err
        assert not no_stream

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
    def test_fit_gd_bad_step_is_usage_error(self, step, no_stream, capsys):
        code, stdout, err = run(
            ["fit", "-n", "20", "-d", "400", "--method", "gd", "--step", step], capsys
        )
        assert code == 2
        assert stdout == ""
        assert "--step: must be finite and positive" in err

    def test_fit_missing_data_file(self, no_stream, capsys):
        code, _, err = run(["fit", "--data", "/nonexistent/ds.bin"], capsys)
        assert code == 2

    @pytest.mark.parametrize("doc", [{}, {"n_plus": 16}, [1, 2]])
    def test_incomplete_config_file_exits_before_any_stream(self, doc, tmp_path, no_stream, capsys):
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
            ("delta_minus", "0.5", "delta_minus must be finite and positive, got str"),
            ("delta_minus", None, "delta_minus must be finite and positive, got NoneType"),
            ("delta_plus", True, "delta_plus must be finite and positive, got bool"),
            ("pi_plus", [0.5], "pi_plus must be in (0, 1), got list"),
        ],
    )
    def test_bad_config_field_exits_before_any_stream(
        self, field, value, message, tmp_path, no_stream, capsys
    ):
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
    def test_bad_sidecar_exits_before_any_stream(self, edit, message, saved, no_stream, capsys):
        out = saved
        doc = edit(json.loads(Path(out + ".json").read_text()))
        Path(out + ".json").write_text(json.dumps(doc))
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
            ("mu_spur", 10**400, "mu_spur must be finite, got " + str(10**400)[:37] + "..."),
            ("mu_core", e1_mean(10.0, 200).tolist(), "mu_core must be a number, got list"),
            ("mu_spur", {"0": 5.0}, "mu_spur must be a number, got dict"),
        ],
        ids=["string-entry", "bool-entry", "null", "scalar", "list", "object"],
    )
    def test_mean_that_is_not_a_list_of_reals_exits_before_any_stream(
        self, field, value, message, tmp_path, no_stream, capsys
    ):
        # a file holds each mean as its scale, one JSON number ("scalar" is
        # an integer past the float range, "list" the format written before)
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
    def test_bad_sidecar_labels_exit_before_any_stream(self, edit, message, saved, no_stream, capsys):
        out = saved
        doc = json.loads(Path(out + ".json").read_text())
        edit(doc)
        Path(out + ".json").write_text(json.dumps(doc))
        code, stdout, err = run(["fit", "--data", out], capsys)
        assert (code, stdout) == (2, "")
        assert message in err

    def test_file_with_an_x_half_exits_before_any_stream(self, saved, no_stream, capsys):
        # X then Q with the n, d, seed, layout and b sidecar fields
        out = saved
        write_x_then_q_file(model.load_dataset(out), out)
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


# the keys of the `risk` document without --mc-draws, in their printed order
RISK_KEYS = ["margin_plus", "margin_minus", "exponent_plus", "exponent_minus",
             "risk_plus", "risk_minus", "worst_risk", "avg_risk"]


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

    def test_a_normal_norm_at_a_huge_ridge_keeps_its_margin(self, capsys):
        # |w_hat|^2 = 2.28e-307 at tau = 1e155 is still a normal float
        margins = []
        for tau in ("1e140", "1e155"):
            code, stdout, _ = run(["risk", "-n", "10", "-d", "100", "--method", "ridge", "--tau", tau], capsys)
            assert code == 0
            margins.append(json.loads(stdout)["margin_plus"])
        np.testing.assert_allclose(margins[1], margins[0], rtol=1e-12)

    @pytest.mark.parametrize("tau", ["1e160", "1e200"])
    def test_an_unresolved_norm_exits_2(self, tau, capsys):
        # |w_hat|^2 is subnormal at 1e160 (7 digits lost) and 0.0 at 1e200
        code, stdout, err = run(["risk", "-n", "10", "-d", "100", "--method", "ridge", "--tau", tau], capsys)
        assert code == 2
        assert stdout == ""
        assert "below the smallest normal float 2.225e-308: its margins are not resolved in floating point" in err

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

    def test_bounds_refuses_a_mean_whose_r_plus_sq_overflows(self, no_stream, capsys):
        code, stdout, err = run(["bounds", "-n", "40", "-d", "300", "--mu-core-sq", "1e200"], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: |mu_core|^2 + |mu_spur|^2 must be at most 1.341e+154 ")
        assert "got 1e+200 + 2.5e+199" in err

    def test_bounds_at_the_overflow_edge_prints_its_bounds(self, capsys):
        code, stdout, _ = run(
            ["bounds", "-n", "40", "-d", "300", "--mu-core-sq", "1e154", "--mu-spur-sq", "1e153"], capsys
        )
        assert code == 0
        assert json.loads(stdout)["n_delta"] == 40.0

    @pytest.mark.parametrize("d, core_sq, spur_sq", [("300", "1e154", "1e153"), ("40", "5e153", "5e153")])
    def test_bounds_near_the_overflow_edge_print_finite_strict_json(self, d, core_sq, spur_sq, capsys):
        # alpha_+ R_+^2 n_+ alone overflows here; the true E_b and slacks are finite
        code, stdout, _ = run(
            ["bounds", "-n", "40", "-d", d, "--mu-core-sq", core_sq, "--mu-spur-sq", spur_sq], capsys
        )

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        doc = json.loads(stdout, parse_constant=refuse)
        assert code == 0 and (doc["alpha_plus"], doc["alpha_minus"]) == (0.8, 0.2)
        # -n 40 at unit weights: n_+ = 32, n_- = 8
        w_plus, w_minus = Fraction(4, 5) * 32 / int(d), Fraction(1, 5) * 8 / int(d)
        r_plus, r_minus = Fraction(core_sq) + Fraction(spur_sq), Fraction(core_sq) - Fraction(spur_sq)
        want = {
            ("exponent_plus",): w_plus * r_plus**2 + w_minus * r_minus**2,
            ("exponent_minus",): w_plus * r_minus**2 + w_minus * r_plus**2,
        }
        if r_minus == 0:
            want[("consistency_plus", "slack")] = w_plus * r_plus**2
            want[("consistency_minus", "slack")] = w_minus * r_plus**2
        for keys, value in want.items():
            got = functools.reduce(dict.__getitem__, keys, doc)
            assert abs(got - value) <= 1e-12 * value, (keys, got, float(value))

    @pytest.mark.parametrize(
        "flag, value",
        [("--c1", "nan"), ("--c2", "0"), ("--c3", "inf"), ("--c-const", "nan"), ("--c-const", "-1")],
    )
    def test_bounds_bad_constant_is_usage_error(self, flag, value, no_stream, capsys):
        # equal mean norms, so the vanishing condition applies
        code, stdout, err = run(
            ["bounds", "-n", "20", "-d", "400", "--mu-core-sq", "40", "--mu-spur-sq", "40",
             flag, value],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert "finite and positive" in err

    @pytest.mark.parametrize(
        "argv, nested, keys",
        [
            (["risk"], None, RISK_KEYS),
            (["risk", "--mc-draws", "100"], None,
             [*RISK_KEYS, "mc_risk_plus", "mc_stderr_plus", "mc_risk_minus", "mc_stderr_minus"]),
            (["bounds"], None,
             ["n_delta", "alpha_plus", "alpha_minus", "exponent_plus", "exponent_minus",
              "upper_plus", "upper_minus", "lower_plus", "lower_minus", "c1", "c2", "c3",
              "consistency_plus", "consistency_minus"]),
            (["bounds"], "consistency_plus", ["applicable", "holds", "slack"]),
            (["bounds"], "consistency_minus", ["applicable", "holds", "slack"]),
            (["verify-primitives"], "aux_inequalities",
             ["margin_floor_realized", "margin_floor_reference", "margin_floor_ok",
              "count_cap_lhs", "count_cap_rhs", "count_cap_ok", "c_big", "c_tilde"]),
        ],
        ids=["risk", "risk-mc", "bounds", "consistency-plus", "consistency-minus", "aux-inequalities"],
    )
    def test_document_keys_in_order(self, argv, nested, keys, capsys):
        code, stdout, _ = run([*argv, "-n", "20", "-d", "400"], capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert list(doc if nested is None else doc[nested]) == keys

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
    def test_config_flag_with_saved_dataset(self, flag, value, saved, no_stream, monkeypatch, capsys):
        # refused before the dataset is read, too
        monkeypatch.setattr(cli, "load_dataset", lambda path: no_stream.append("load_dataset"))
        self.refused(["fit", "--data", saved, flag, value], flag, no_stream, capsys)

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
        doc = verify_primitives(noise_stats(cfg), cfg, tau=args.tau, band=args.band)
        code, stdout, _ = run(["verify-primitives", *argv], capsys)
        assert code == 0
        assert doc["passed"]
        assert json.loads(stdout) == doc

    def test_failed_gate_exits_one(self, monkeypatch, capsys):
        # the risk identity against a ridge fit at another tau
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

    def test_rounding_passes_at_d_equal_n(self, capsys):
        # at d = n, t_12 vanishes in exact arithmetic beside entries near 500,
        # and the capacitance of the adjugate check is as badly scaled
        for seed in range(20):
            code, stdout, _ = run(["verify-primitives", *D_EQUALS_N, "--seed", str(seed)], capsys)
            doc = json.loads(stdout)
            assert code == 0, (seed, doc["mode_equivalence_max_gap"], doc["adjugate_identity_gap"])

    def test_a_flipped_adjugate_entry_fails_at_d_equal_n(self, monkeypatch):
        cfg = config_from_args(build_parser().parse_args(["verify-primitives", *D_EQUALS_N, "--seed", "1"]))
        stats = noise_stats(cfg)
        assert verify_primitives(stats, cfg)["adjugate_identity_gap"] <= 1e-10
        det_and_adj = primitives.det_and_adj

        def flipped(prims, k):
            det, adj = det_and_adj(prims, k)
            adj = adj.copy()
            adj[0, 1] = -adj[0, 1]
            return det, adj

        monkeypatch.setattr(primitives, "det_and_adj", flipped)
        doc = verify_primitives(stats, cfg)
        assert doc["adjugate_identity_gap"] > 1e-10 and not doc["passed"]

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

    def test_verify_primitives_bad_band(self, no_stream, capsys):
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
    def test_bad_input_is_usage_error(self, argv, message, no_stream, capsys):
        code, stdout, err = run(["wishart", "--draws", "10", *argv], capsys)
        assert code == 2
        assert not stdout
        assert message in err

    @pytest.mark.parametrize("command", [["wishart", "--draws", "10"], ["risk", "-n", "20", "-d", "400"]])
    @pytest.mark.parametrize("seed", ["-5", str(2**64), str(2**64 + 5)])
    def test_bad_seed_is_usage_error(self, command, seed, no_stream, capsys):
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

    def test_spec_whose_r_plus_sq_overflows_exits_2(self, tmp_path, no_stream, capsys):
        # it died in run_sweep's bound exponents, outside any skip
        path = Path(self.spec_file(tmp_path))
        spec = json.loads(path.read_text())
        spec["base"]["mu_core"] = 1e100
        path.write_text(json.dumps(spec))
        code, stdout, err = run(["sweep", "--spec", str(path), "--out", str(tmp_path / "rows.csv")], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: |mu_core|^2 + |mu_spur|^2 must be at most 1.341e+154 ")
        assert not (tmp_path / "rows.csv").exists()

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_preset_without_out_writes_a_file_named_for_its_format(self, fmt, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run(["sweep", "--preset", "fig1_left", "--trials", "1", "--format", fmt], capsys)
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == [f"fig1_left.{fmt}"]
        text = (tmp_path / f"fig1_left.{fmt}").read_text()
        rows = json.loads(text)["rows"] if fmt == "json" else list(csv.DictReader(text.splitlines()))
        assert len(rows) == 23

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
    def test_sweep_bad_tau_spec_is_usage_error(self, tau, tmp_path, no_stream, capsys):
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
    def test_sweep_spec_unknown_key_exits_before_any_stream(self, where, key, tmp_path, no_stream, capsys):
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
        assert not no_stream
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, key",
        [("top", "base"), ("top", "axis"), ("axis", "values"), ("method", "method"),
         ("base", "n_plus")],
    )
    def test_sweep_spec_missing_key_exits_before_any_stream(self, where, key, tmp_path, no_stream, capsys):
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
    def test_sweep_spec_non_object_exits_before_any_stream(self, where, tmp_path, no_stream, capsys):
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
            ("axis", "values", [0.5, None], "axis values must be real numbers, got NoneType"),
            ("axis", "values", [True], "axis values must be real numbers, got bool"),
            ("top", "outputs", "risk", "outputs must be a JSON array, got str"),
            ("top", "methods", {"method": "cmni"}, "methods must be a JSON array, got dict"),
        ],
    )
    def test_sweep_spec_non_array_exits_before_any_stream(
        self, where, key, value, message, tmp_path, no_stream, capsys
    ):
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

    def test_sweep_spec_with_no_methods_exits_before_any_stream(self, tmp_path, no_stream, capsys):
        spec_path = self.spec_file(tmp_path)
        doc = json.loads(Path(spec_path).read_text())
        doc["methods"] = []
        Path(spec_path).write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        code, stdout, err = run(["sweep", "--spec", spec_path, "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err == "error: methods needs at least one entry\n"
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
        self, key, value, message, tmp_path, no_stream, monkeypatch, capsys
    ):
        # an int out_path would be opened as a file descriptor and a bad name
        # would go into every run_id; no --out, so the spec's out_path is the one read
        spec_path = self.spec_file(tmp_path)
        doc = json.loads(Path(spec_path).read_text())
        doc[key] = value
        Path(spec_path).write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(["sweep", "--spec", spec_path], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_sweep_bool_tau_spec_is_usage_error(self, tmp_path, no_stream, capsys):
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
    def test_sweep_non_integer_trials_spec_is_usage_error(self, tmp_path, no_stream, capsys, trials):
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
        assert not (tmp_path / "r.csv").exists()

    def test_sweep_requires_preset_or_spec(self, no_stream, capsys):
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


class TestOutPath:
    """An --out that cannot be written exits 2 before any noise is drawn,
    and a command that fails leaves no file it created."""

    @pytest.mark.parametrize("argv", [
        ["sample", "-n", "200", "-d", "200000"],
        ["fit", "-n", "20", "-d", "400"],
        ["risk", "-n", "20", "-d", "400", "--mc-draws", "1000"],
        ["verify-primitives", "-n", "20", "-d", "400"],
        ["sweep", "--preset", "fig1_left", "--trials", "2"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_exits_before_any_stream(self, argv, tmp_path, no_stream, capsys):
        out = tmp_path / "missing" / "x.out"
        code, stdout, err = run([*argv, "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not no_stream
        assert list(tmp_path.iterdir()) == []

    def test_sample_sidecar_that_cannot_be_written_leaves_no_data_file(self, tmp_path, no_stream, capsys):
        out = tmp_path / "x.bin"
        Path(f"{out}.json").mkdir()
        code, _, err = run(["sample", "-n", "20", "-d", "400", "--out", str(out)], capsys)
        assert code == 2
        assert "Is a directory" in err
        assert not no_stream
        assert not out.exists()

    @pytest.mark.parametrize("error, exit_code", [(ValueError, 2), (RuntimeError, 1)])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_command_leaves_no_new_file(self, error, exit_code, existing, tmp_path, monkeypatch, capsys):
        out = tmp_path / "fit.json"
        if existing:
            out.write_text("kept\n")

        def failing(source):
            raise error("stream failed")

        monkeypatch.setattr(cli, "noise_stats", failing)
        code, _, err = run(["fit", "-n", "20", "-d", "400", "--out", str(out)], capsys)
        assert code == exit_code
        assert "stream failed" in err
        assert out.read_text() == "kept\n" if existing else not out.exists()

    def test_failed_gate_keeps_its_report(self, tmp_path, monkeypatch, capsys):
        # exit 1 with the verdict written: the report is the command's output
        from grouprisk import primitives

        fit_ridge = primitives.fit_ridge
        monkeypatch.setattr(primitives, "fit_ridge", lambda stats, delta, tau: fit_ridge(stats, delta, tau + 50.0))
        out = tmp_path / "verdict.json"
        code, stdout, _ = run(["verify-primitives", *BENCH_VERIFY, "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert not json.loads(out.read_text())["passed"]


class TestOutputIsAnInput:
    """An output that is one of the command's input files exits 2 before
    any noise is drawn, and the input keeps its bytes."""

    @pytest.fixture
    def inputs(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(small_config().to_dict()))
        data = tmp_path / "d.bin"
        save_dataset(sample_dataset(small_config()), str(data))
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"base": small_config().to_dict(),
                                    "axis": {"name": "delta_minus", "values": [0.5]}}))
        return {"config": config, "data": data, "sidecar": Path(f"{data}.json"), "spec": spec}

    @pytest.mark.parametrize("argv, out, source", [
        (["sample", "--config", "{config}"], "{config}", "config"),
        (["sample", "--config", "{config}"], "{config_stem}", "config"),
        (["fit", "--data", "{data}"], "{data}", "data"),
        (["fit", "--data", "{data}"], "{data}.json", "sidecar"),
        (["fit", "--config", "{config}"], "{config}", "config"),
        (["risk", "--config", "{config}"], "{config}", "config"),
        (["bounds", "--config", "{config}"], "{config}", "config"),
        (["verify-primitives", "--config", "{config}"], "{config}", "config"),
        (["sweep", "--spec", "{spec}"], "{spec}", "spec"),
    ], ids=["sample-config", "sample-sidecar-config", "fit-data", "fit-sidecar", "fit-config",
            "risk-config", "bounds-config", "verify-primitives-config", "sweep-spec"])
    def test_output_naming_an_input_exits_2(self, argv, out, source, inputs, no_stream, capsys):
        names = {name: str(path) for name, path in inputs.items()}
        names["config_stem"] = names["config"].removesuffix(".json")
        before = {name: path.read_bytes() for name, path in inputs.items()}
        out = out.format(**names)
        code, stdout, err = run([*(arg.format(**names) for arg in argv), "--out", out], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: output ") and f"is the input file {inputs[source]}" in err
        assert not no_stream
        assert {name: path.read_bytes() for name, path in inputs.items()} == before
        assert sorted(p.name for p in inputs["config"].parent.iterdir()) == [
            "c.json", "d.bin", "d.bin.json", "s.json"]

    def test_a_link_to_an_input_is_the_input(self, inputs, no_stream, capsys):
        link = inputs["config"].parent / "link.json"
        link.symlink_to(inputs["config"])
        before = inputs["config"].read_bytes()
        code, _, err = run(["risk", "--config", str(inputs["config"]), "--out", str(link)], capsys)
        assert code == 2 and "is the input file" in err
        assert inputs["config"].read_bytes() == before

    def test_spec_out_path_naming_the_spec_exits_2(self, inputs, no_stream, capsys):
        spec = inputs["spec"]
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "out_path": str(spec)}))
        before = spec.read_bytes()
        code, _, err = run(["sweep", "--spec", str(spec)], capsys)
        assert code == 2 and f"is the input file {spec}" in err
        assert spec.read_bytes() == before


def test_commands_build_no_mean_vector(tmp_path, no_mean_vector, capsys):
    data = str(tmp_path / "d.bin")
    for argv in (
        ["sample", "-n", "20", "-d", "400", "--out", data],
        ["fit", "-n", "20", "-d", "400"],
        ["fit", "-n", "20", "-d", "400", "--method", "gd"],
        ["fit", "--data", data, "--method", "ridge", "--tau", "50"],
        ["risk", "-n", "20", "-d", "400", "--mc-draws", "1000"],
        ["bounds", "-n", "20", "-d", "400"],
        ["verify-primitives", *BENCH_VERIFY],
    ):
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)


class TestGapHelper:
    def test_an_exact_zero_entry_is_held_to_its_bound(self):
        # t_12 = m_1 m_2 u_s' u_c = 0 at d = n and tau = 0: rounding passes,
        # a move of 1e-6 of its Cauchy-Schwarz bound fails the mode gate
        cfg = config_from_args(build_parser().parse_args(["verify-primitives", *D_EQUALS_N, "--seed", "1"]))
        stats = noise_stats(cfg)
        direct = compute_primitives(stats, delta=cfg.deltas, mode="direct")
        recursive = compute_primitives(stats, delta=cfg.deltas, mode="recursive")
        assert primitive_set_max_gap(direct, recursive) <= 1e-8
        t = direct.t[..., 0]
        bound = np.sqrt(t[0, 0] * t[1, 1])
        assert abs(t[0, 1]) <= 1e-12 * bound
        tables = direct.tables.copy()
        tables[_LAYOUT["t"]][0, 1, 0] += 1e-6 * bound
        tables[_LAYOUT["t"]][1, 0, 0] += 1e-6 * bound
        moved = dataclasses.replace(direct, tables=tables)
        assert primitive_set_max_gap(moved, recursive) > 1e-8

    def test_nan_or_a_difference_at_zero_scale_is_inf(self):
        # a zero spurious mean makes d_1 = 0, so its row's bound is 0
        cfg = ModelConfig(
            d_core=200,
            d_spur=200,
            mu_core=e1_mean(10.0, 200),
            mu_spur=e1_mean(0.0, 200),
            n_plus=16,
            n_minus=4,
            seed=1,
        )
        prims = compute_primitives(noise_stats(cfg), mode="direct")
        t = prims.t
        assert not t[0].any() and primitive_set_max_gap(prims, prims) == 0.0
        tables = prims.tables.copy()
        tables[_LAYOUT["t"]][0, 1, 2] = tables[_LAYOUT["t"]][1, 0, 2] = 1e-300
        assert primitive_set_max_gap(prims, dataclasses.replace(prims, tables=tables)) == np.inf
        for name in ("tables", "o", "det_a"):
            nan = getattr(prims, name).copy()
            nan.flat[-1] = np.nan
            assert primitive_set_max_gap(prims, dataclasses.replace(prims, **{name: nan})) == np.inf, name

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
        prims = compute_primitives(noise_stats(cfg), mode="direct")
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
        prims = compute_primitives(noise_stats(cfg), mode="direct")
        if name in _LAYOUT:
            tables = prims.tables.copy()
            tables[_LAYOUT[name]] += 1e-6
            other = dataclasses.replace(prims, tables=tables)
        else:
            other = dataclasses.replace(prims, **{name: getattr(prims, name) + 1e-6})
        assert primitive_set_max_gap(prims, other) > 0.0
        assert primitive_set_max_gap(other, prims) > 0.0
