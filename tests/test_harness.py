"""Tests for sweep specification, execution, caching, and persistence."""

import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from grouprisk import cli, harness, primitives
from grouprisk.bounds import bound_exponent
from grouprisk.estimators import fit_cmni, fit_ridge
from grouprisk.harness import (
    CSV_COLUMNS,
    PRESET_NAMES,
    SweepAxis,
    SweepSpec,
    derive_config,
    emit,
    preset,
    resolve_tau,
    run_sweep,
)
from grouprisk.model import ModelConfig, e1_mean, noise_stats, sample_dataset, substream_seed
from grouprisk.primitives import compute_primitives, fit_moments
from grouprisk.risk import group_risk, worst_and_average

from conftest import dense_means


def base_config(**overrides):
    base = dict(
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
    base.update(overrides)
    return ModelConfig(**base)


def tiny_spec(**overrides):
    kwargs = dict(
        base=base_config(),
        axis=SweepAxis("delta_minus", (0.5, 0.25)),
        methods=(("cmni", None),),
        trials=2,
        outputs=("risk", "bounds"),
        name="tiny",
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSpecValidation:
    def test_axis_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            SweepAxis("learning_rate", (0.1,))

    def test_axis_rejects_empty_values(self):
        with pytest.raises(ValueError):
            SweepAxis("delta_minus", ())

    def test_spec_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            tiny_spec(trials=0)

    @pytest.mark.parametrize("trials", [True, np.bool_(True), 1.5, 2.0, "2", None])
    def test_spec_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            tiny_spec(trials=trials)

    def test_spec_accepts_numpy_integer_trials(self):
        spec = tiny_spec(trials=np.int64(3))
        assert spec.trials == 3 and type(spec.trials) is int

    @pytest.mark.parametrize("trials", [2.7, True])
    def test_from_dict_does_not_coerce_trials(self, trials):
        doc = tiny_spec().to_dict()
        doc["trials"] = trials
        with pytest.raises(ValueError, match="trials"):
            SweepSpec.from_dict(doc)

    @pytest.mark.parametrize(
        "where, key",
        [("top", "Tau"), ("top", "trails"), ("axis", "valeus"), ("method", "Tau")],
    )
    def test_from_dict_refuses_unknown_keys(self, where, key):
        # a misspelt key would otherwise be dropped without a word
        doc = tiny_spec(methods=(("ridge", 3.0),)).to_dict()
        target = {"top": doc, "axis": doc["axis"], "method": doc["methods"][0]}[where]
        target[key] = 50
        with pytest.raises(ValueError, match=rf"unknown \w+ fields: \['{key}'\]"):
            SweepSpec.from_dict(doc)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_round_trips_through_json_at_a_size_free_of_d(self, name):
        # each mean is written as its scale, so d = 100000 costs no bytes
        spec = preset(name, seed=2**64 - 1, trials=3)
        text = json.dumps(spec.to_dict())
        assert len(text) < 2048
        back = SweepSpec.from_dict(json.loads(text))
        assert back.base.to_dict() == spec.base.to_dict()
        for mean in ("mu_core", "mu_spur"):
            assert getattr(back.base, mean).tobytes() == getattr(spec.base, mean).tobytes()
        assert back.axis == spec.axis
        assert back.methods == spec.methods
        assert back.to_dict() == spec.to_dict()

    @pytest.mark.parametrize(
        "where, key",
        [("top", "base"), ("top", "axis"), ("axis", "name"), ("axis", "values"),
         ("method", "method"), ("base", "mu_core")],
    )
    def test_from_dict_refuses_missing_keys(self, where, key):
        doc = tiny_spec(methods=(("ridge", 3.0),)).to_dict()
        target = {"top": doc, "axis": doc["axis"], "method": doc["methods"][0], "base": doc["base"]}[where]
        del target[key]
        with pytest.raises(ValueError, match=rf"missing \w+ fields: \['{key}'\]"):
            SweepSpec.from_dict(doc)

    @pytest.mark.parametrize("where", ["top", "axis", "method", "base"])
    @pytest.mark.parametrize("value", [[1, 2], "x", None, 5])
    def test_from_dict_refuses_non_objects(self, where, value):
        doc = tiny_spec().to_dict()
        if where == "top":
            doc = value
        elif where == "method":
            doc["methods"] = [value]
        else:
            doc[where] = value
        with pytest.raises(ValueError, match=r"must be a JSON object, got"):
            SweepSpec.from_dict(doc)

    @pytest.mark.parametrize("where", ["values", "outputs", "methods"])
    @pytest.mark.parametrize("value", [5, "risk", {"method": "cmni"}, None])
    def test_from_dict_refuses_non_arrays(self, where, value):
        # a string would otherwise be split into its characters
        doc = tiny_spec().to_dict()
        (doc["axis"] if where == "values" else doc)[where] = value
        with pytest.raises(ValueError, match=rf"^{where} must be a JSON array, got {type(value).__name__}$"):
            SweepSpec.from_dict(doc)

    @pytest.mark.parametrize("bad", [None, True, np.bool_(False), "0.5", 0.5j])
    def test_axis_rejects_non_real_values(self, bad):
        with pytest.raises(ValueError, match="axis values must be real numbers"):
            SweepAxis("delta_minus", (0.5, bad))

    def test_spec_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            tiny_spec(methods=(("lasso", None),))

    def test_spec_rejects_cmni_with_tau(self):
        with pytest.raises(ValueError):
            tiny_spec(methods=(("cmni", 5.0),))

    def test_spec_rejects_empty_methods(self):
        with pytest.raises(ValueError, match="^methods needs at least one entry$"):
            tiny_spec(methods=())
        doc = tiny_spec().to_dict()
        doc["methods"] = []
        with pytest.raises(ValueError, match="^methods needs at least one entry$"):
            SweepSpec.from_dict(doc)
        # only a missing key reads as the default
        del doc["methods"]
        assert SweepSpec.from_dict(doc).methods == (("cmni", None),)

    @pytest.mark.parametrize("tau", [np.int64(5), np.float32(0.1)], ids=["int64", "float32"])
    def test_numpy_tau_is_stored_as_its_float_and_round_trips(self, tau):
        spec = tiny_spec(methods=(("ridge", tau), ("ridge", "d/10"), ("ridge", None)))
        assert spec.methods == (("ridge", float(tau)), ("ridge", "d/10"), ("ridge", None))
        assert type(spec.methods[0][1]) is float
        back = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back.methods == spec.methods

    def test_spec_rejects_unknown_output(self):
        with pytest.raises(ValueError):
            tiny_spec(outputs=("risk", "calibration"))

    def test_spec_dict_roundtrip(self):
        spec = tiny_spec(
            methods=(("cmni", None), ("ridge", "d/10"), ("ridge", 3.0)),
            outputs=("risk", "bounds", "tightness"),
        )
        back = SweepSpec.from_dict(spec.to_dict())
        assert back.methods == spec.methods
        assert back.axis.values == spec.axis.values
        assert back.outputs == spec.outputs
        assert back.base.seed == spec.base.seed


@pytest.mark.parametrize("axis, values", [
    ("delta_minus", (0.5, 0.25)),
    ("r_plus_sq", (400.0, 900.0)),
    ("n_coupled", (10, 12)),
], ids=["delta_minus", "r_plus_sq", "n_coupled"])
def test_a_sweep_builds_no_mean_vector(axis, values, no_mean_vector):
    spec = SweepSpec(base=base_config(), axis=SweepAxis(axis, values),
                     methods=(("cmni", None), ("ridge", "d/10")), trials=1,
                     outputs=("risk", "bounds", "primitives", "tightness"))
    rows, skips = run_sweep(spec)
    assert len(rows) == 4 and not skips


class TestDeriveConfig:
    def test_delta_minus_axis(self):
        cfg = derive_config(base_config(), "delta_minus", 0.125)
        assert cfg.delta_minus == 0.125
        assert cfg.delta_plus == 0.95

    def test_r_plus_sq_axis_hits_target(self):
        from grouprisk.model import signal_strengths

        cfg = derive_config(base_config(), "r_plus_sq", 1600.0)
        sig = signal_strengths(cfg)
        np.testing.assert_allclose(sig.r_plus**2, 1600.0, rtol=1e-12)
        np.testing.assert_allclose(sig.r_minus, 0.0, atol=1e-12)

    def test_n_coupled_axis_scaling_rule(self):
        # n = 100: d = 2 n^2 = 20000, minority = 4% of n, share weights
        cfg = derive_config(base_config(), "n_coupled", 100)
        assert cfg.n == 100
        assert cfg.n_minus == 4
        assert cfg.d == 20_000
        np.testing.assert_allclose(cfg.delta_plus, 0.96)
        np.testing.assert_allclose(cfg.delta_minus, 0.04)
        from grouprisk.model import signal_strengths

        np.testing.assert_allclose(
            signal_strengths(cfg).r_plus, 20_000**0.6 / 4.0, rtol=1e-12
        )

    def test_n_coupled_rejects_fractional(self):
        with pytest.raises(ValueError):
            derive_config(base_config(), "n_coupled", 50.5)

    @pytest.mark.parametrize(
        "axis, value, message",
        [
            ("n_coupled", float("inf"), "n_coupled axis values must be integers of at least 2, got inf"),
            ("n_coupled", float("nan"), "n_coupled axis values must be integers of at least 2, got nan"),
            ("n_coupled", 1.0, "n_coupled axis values must be integers of at least 2, got 1.0"),
            ("r_plus_sq", float("inf"), "r_plus_sq must be finite and positive, got inf"),
            ("r_plus_sq", float("nan"), "r_plus_sq must be finite and positive, got nan"),
        ],
    )
    def test_non_finite_axis_value_names_no_config(self, axis, value, message):
        # a skip at the config stage, not an OverflowError out of the sweep
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            derive_config(base_config(), axis, value)
        rows, skips = run_sweep(tiny_spec(axis=SweepAxis(axis, (value,))))
        assert rows == [] and [(s["stage"], s["reason"]) for s in skips[:1]] == [("config", message)]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            derive_config(base_config(), "nope", 1.0)


class TestResolveTau:
    def test_values(self):
        cfg = base_config()  # d = 800
        assert resolve_tau(None, cfg) == 0.0
        assert resolve_tau("d", cfg) == 800.0
        assert resolve_tau("d/10", cfg) == 80.0
        assert resolve_tau(2.5, cfg) == 2.5

    def test_rejects_garbage(self):
        cfg = base_config()
        with pytest.raises(ValueError):
            resolve_tau("half of d", cfg)
        with pytest.raises(ValueError):
            resolve_tau(-1.0, cfg)
        with pytest.raises(ValueError):
            resolve_tau("d/0", cfg)

    @pytest.mark.parametrize(
        "spec", [float("nan"), float("inf"), "d/nan", "d/inf", "half", "d/1e-320", [1.0], "d/abc"]
    )
    def test_rejects_non_finite_and_non_numeric(self, spec):
        with pytest.raises(ValueError, match="tau"):
            resolve_tau(spec, base_config())

    @pytest.mark.parametrize(
        "spec", [float("nan"), float("inf"), "d/nan", "d/inf", "half", [1.0]]
    )
    def test_sweep_spec_rejects_bad_ridge_tau(self, spec):
        with pytest.raises(ValueError, match="tau"):
            tiny_spec(methods=(("cmni", None), ("ridge", spec)))

    @pytest.mark.parametrize(
        "spec", [True, False, np.bool_(True), np.bool_(False)], ids=["True", "False", "np_True", "np_False"]
    )
    def test_rejects_bool(self, spec):
        with pytest.raises(ValueError, match="tau"):
            resolve_tau(spec, base_config())

    @pytest.mark.parametrize("entry", [("ridge", True), ("cmni", False)])
    def test_sweep_spec_rejects_bool_tau(self, entry):
        with pytest.raises(ValueError, match="tau"):
            tiny_spec(methods=(entry,))


class TestNoiseStats:
    def test_noise_stats_match_dense_products(self):
        cfg = base_config(seed=23)
        via_noise = noise_stats(cfg)
        ds = sample_dataset(cfg)
        np.testing.assert_allclose(via_noise.gram, ds.X @ ds.X.T, rtol=1e-10)
        mu_bar_c, mu_bar_s = dense_means(cfg)
        sol = fit_cmni(via_noise, cfg.deltas)
        np.testing.assert_allclose(sol.w_dot_mu[0], (ds.X.T @ sol.c) @ (mu_bar_c + mu_bar_s), rtol=1e-10)
        np.testing.assert_allclose(
            via_noise.d_1, ds.Q[:, cfg.d_core :] @ cfg.mu_spur, rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize("tau", [0.0, 80.0])
    @pytest.mark.parametrize(
        "core, spur",
        [(40.0, 3.0), (10.0, 0.0), (0.0, 0.0), (10.0, -1e-160), (1e-160, 1e-161)],
        ids=["scaled", "zero_spur", "zero_means", "spur_below_floor", "means_below_floor"],
    )
    def test_norm_folded_tables_match_each_points_own_stream(self, core, spur, tau):
        # a sweep point reads the trial's one draw through its norm-free
        # order-0 tables, with its own norms and weights folded into the
        # change of basis C: C' T_0 C must be the order-0 table of the
        # point's own stream over direct mode's probes v_1 v_2 d_1 d_2 u w_1
        # w_2, whose d_k = m_k q_k carry the norms
        from grouprisk.model import _MEAN_SQ_FLOOR

        cfg = base_config(seed=23)
        point = cfg.with_updates(mu_core=core, mu_spur=spur, delta_minus=0.25)
        own = noise_stats(point)
        norms = own.mu_norms
        assert norms == tuple(0.0 if m * m < _MEAN_SQ_FLOOR else abs(m) for m in (spur, core))
        change = primitives._change_of_basis(point.deltas, norms)
        probes = primitives._pack(own, point.deltas)
        solved = np.linalg.solve(own.gram_0 + tau * np.eye(own.n), probes)
        wants = (probes.T @ solved, solved.T @ solved)
        for got, want in zip(primitives._order0_solve(noise_stats(cfg), tau), wants):
            got = change.T @ got @ change
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            for k, m in enumerate(norms):
                if m == 0.0:  # the zero-mean path: that direction's rows are exact zeros
                    assert not got[2 + k].any() and not got[:, 2 + k].any()


class TestRunSweep:
    def test_row_shape_and_determinism(self):
        spec = tiny_spec()
        rows_a, skips_a = run_sweep(spec)
        rows_b, skips_b = run_sweep(spec)
        assert len(rows_a) == 2
        assert skips_a == [] and skips_b == []
        assert rows_a == rows_b

    def test_matches_independent_trial_computation(self):
        # trial 0, first axis value, recomputed without the harness
        spec = tiny_spec(trials=1, outputs=("risk",))
        rows, _ = run_sweep(spec)
        cfg = derive_config(spec.base, "delta_minus", 0.5).with_updates(
            seed=substream_seed(spec.base.seed, 0)
        )
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        sol = fit_cmni(stats, cfg.deltas)
        plus, minus = group_risk(sol)
        np.testing.assert_allclose(rows[0].risk_plus_mean, plus.risk, rtol=1e-10)
        np.testing.assert_allclose(rows[0].risk_minus_mean, minus.risk, rtol=1e-10)

    def test_ridge_row_matches_independent_fit(self):
        spec = tiny_spec(trials=1, methods=(("ridge", "d/10"),), outputs=("risk",))
        rows, _ = run_sweep(spec)
        cfg = derive_config(spec.base, "delta_minus", 0.5).with_updates(
            seed=substream_seed(spec.base.seed, 0)
        )
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        sol = fit_ridge(stats, cfg.deltas, tau=cfg.d / 10.0)
        _, minus = group_risk(sol)
        np.testing.assert_allclose(rows[0].risk_minus_mean, minus.risk, rtol=1e-10)
        assert rows[0].tau == cfg.d / 10.0

    def test_exponents_match_per_point_fits(self):
        methods = (("cmni", None), ("ridge", 0.0), ("ridge", "d/10"), ("ridge", "d"))
        values = (0.95, 0.5, 0.1, 0.03)
        spec = tiny_spec(
            axis=SweepAxis("delta_minus", values), methods=methods, trials=1,
            outputs=("risk",),
        )
        rows, skips = run_sweep(spec)
        assert not skips and len(rows) == len(values) * len(methods)
        cfg0 = spec.base.with_updates(seed=substream_seed(spec.base.seed, 0))
        noise = noise_stats(cfg0)
        for row in rows:
            # the points differ only in their weights, so they share noise's norms
            cfg = cfg0.with_updates(delta_minus=row.axis_value)
            if row.method == "cmni":
                sol = fit_cmni(noise, cfg.deltas)
            else:
                sol = fit_ridge(noise, cfg.deltas, row.tau)
            for tag, ref in zip(("plus", "minus"), group_risk(sol)):
                got = getattr(row, f"exponent_{tag}_mean")
                assert abs(got - ref.exponent) <= 1e-10 * abs(ref.exponent), row.run_id
                got = getattr(row, f"risk_{tag}_mean")
                assert abs(got - ref.risk) <= 1e-10 * abs(ref.risk), row.run_id

    def test_bound_outputs_match_bound_exponent(self):
        spec = tiny_spec(trials=2)
        rows, _ = run_sweep(spec)
        for row in rows:
            cfg = derive_config(spec.base, "delta_minus", row.axis_value)
            np.testing.assert_allclose(row.e_plus_mean, bound_exponent(cfg)[0], rtol=1e-12)
            assert row.e_plus_std == 0.0

    @pytest.mark.parametrize("axis", [SweepAxis("delta_minus", (0.5, 0.25)),
                                      SweepAxis("r_plus_sq", (50.0, 400.0)),
                                      SweepAxis("n_coupled", (10, 14))], ids=lambda axis: axis.name)
    def test_every_row_carries_every_output_and_e_b_once_per_point(self, axis):
        # ten trials: numpy's mean and std of ten copies of E_b are not E_b and 0
        methods = (("cmni", None), ("ridge", "d/10"))
        rows, skips = run_sweep(tiny_spec(axis=axis, methods=methods, trials=10, outputs=("risk",)))
        every, _ = run_sweep(tiny_spec(axis=axis, methods=methods, trials=10,
                                       outputs=("risk", "bounds", "tightness", "primitives")))
        assert not skips and len(rows) == len(every) == 4
        for row, other in zip(rows, every):
            assert row.to_csv_values() == other.to_csv_values()
            assert None not in (row.e_plus_mean, row.tightness_plus_mean, row.primitive_pass_frac)
            e_b = bound_exponent(derive_config(base_config(), axis.name, row.axis_value))
            assert (row.e_plus_mean, row.e_minus_mean) == e_b
            assert row.e_plus_std == row.e_minus_std == 0.0

    def test_rows_are_trial_means_and_stds(self):
        # trial i of a sweep is trial 0 of a one-trial sweep at seed XOR i
        outputs = ("risk", "bounds", "tightness", "primitives")
        rows, _ = run_sweep(tiny_spec(trials=3, outputs=outputs))
        seed = base_config().seed
        singles = [
            run_sweep(
                tiny_spec(base=base_config(seed=substream_seed(seed, i)), trials=1, outputs=outputs)
            )[0]
            for i in range(3)
        ]
        for r, row in enumerate(rows):
            assert row.trials == 3
            for col in CSV_COLUMNS[5:]:
                if col.startswith("e_"):
                    # E_b is the point's: every trial's is the same value, written as it is
                    assert {getattr(single[r], col) for single in singles} == {getattr(row, col)}, col
                    continue
                if col.endswith("_std"):
                    per_trial = [getattr(single[r], col[: -len("_std")] + "_mean") for single in singles]
                    expected = np.std(per_trial, ddof=1)
                else:
                    per_trial = [getattr(single[r], col) for single in singles]
                    expected = np.mean(per_trial)
                np.testing.assert_allclose(
                    getattr(row, col), expected, rtol=1e-12, atol=1e-15, err_msg=col
                )

    def test_single_trial_has_zero_std(self):
        spec = tiny_spec(trials=1)
        rows, _ = run_sweep(spec)
        assert rows[0].risk_plus_std == 0.0

    def test_invalid_axis_point_is_skipped_with_reason(self):
        # delta_minus above delta_plus violates the ordering invariant
        spec = tiny_spec(axis=SweepAxis("delta_minus", (0.5, 0.99)))
        rows, skips = run_sweep(spec)
        assert len(rows) == 1
        assert len(skips) == 1
        skip = skips[0]
        assert skip["axis"] == "delta_minus"
        assert skip["value"] == 0.99
        assert skip["stage"] == "config"
        assert "reason" in skip

    def test_primitives_output_fraction_in_range(self):
        spec = tiny_spec(trials=1, outputs=("risk", "primitives"))
        rows, _ = run_sweep(spec)
        for row in rows:
            assert 0.0 <= row.primitive_pass_frac <= 1.0

    @pytest.mark.parametrize("trials", [1, 3])
    def test_tightness_none_when_exponent_zero(self, trials):
        # E_b = 0 at the point: the trials' NaN ratios are written as None
        base = base_config(mu_core=np.zeros(400), mu_spur=np.zeros(400))
        spec = tiny_spec(base=base, trials=trials, outputs=("risk", "bounds", "tightness"))
        rows, skips = run_sweep(spec)
        assert len(rows) == 2 and not skips
        tightness = [col for col in CSV_COLUMNS if col.startswith("tightness_")]
        assert len(tightness) == 4
        for row in rows:
            assert row.trials == trials
            assert (row.e_plus_mean, row.e_minus_mean) == (0.0, 0.0)
            assert [getattr(row, col) for col in tightness] == [None] * 4
            cells = dict(zip(CSV_COLUMNS, row.to_csv_values()))
            assert [col for col, cell in cells.items() if cell == ""] == tightness
            assert "nan" not in cells.values()


class TestTrialReuse:
    """Along delta_minus each trial factors once per tau and reuses it."""

    methods = (("cmni", None), ("ridge", 0.0), ("ridge", "d/10"))
    values = (0.5, 0.25, 0.1)

    def spec(self, values=None):
        return tiny_spec(
            axis=SweepAxis("delta_minus", values or self.values),
            methods=self.methods,
            trials=2,
            outputs=("risk", "bounds", "tightness", "primitives"),
        )

    def test_rows_match_one_value_sweeps_bitwise(self):
        rows, skips = run_sweep(self.spec())
        assert not skips
        assert len(rows) == len(self.values) * len(self.methods)
        for row in rows:
            fresh_rows, _ = run_sweep(self.spec(values=(row.axis_value,)))
            (fresh,) = [
                r for r in fresh_rows if (r.method, r.tau) == (row.method, row.tau)
            ]
            got, ref = row.to_csv_values(), fresh.to_csv_values()
            # run_id names the axis index, the only field that differs
            assert got[0].replace(f"[{self.values.index(row.axis_value)}]", "[0]") == ref[0]
            assert got[1:] == ref[1:]

    def count_factors(self, monkeypatch):
        """Every Cholesky factorization in the fitters and the primitives."""
        from grouprisk import estimators, primitives

        calls = []
        for module in (estimators, primitives):
            real = module._spd_factor

            def counting(*args, _real=real, **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "_spd_factor", counting)
        return calls

    def test_one_factorization_per_distinct_tau_per_trial(self, monkeypatch):
        spec = self.spec()
        taus = {resolve_tau(t, spec.base) for _, t in self.methods}
        assert len(taus) == 2
        calls = self.count_factors(monkeypatch)
        rows, skips = run_sweep(spec)
        assert len(rows) == 9 and not skips
        # one order-0 factor per distinct tau and trial, shared by the fit
        # and the primitives of every point and method
        assert len(calls) == spec.trials * len(taus)

    axes = {
        "delta_minus": SweepAxis("delta_minus", values),
        "r_plus_sq": SweepAxis("r_plus_sq", (50.0, 100.0, 400.0)),
        "n_coupled": SweepAxis("n_coupled", (10, 14, 20)),
    }

    @pytest.mark.parametrize("axis", list(axes))
    def test_one_recursion_per_trial_on_every_axis(self, axis, monkeypatch):
        calls = []
        real = harness._recursive_primitives

        def spy(table, squared, mu_norms, tau, delta):
            calls.append((np.shape(table), np.shape(squared), np.shape(mu_norms), np.shape(tau), np.shape(delta)))
            return real(table, squared, mu_norms, tau, delta)

        monkeypatch.setattr(harness, "_recursive_primitives", spy)
        spec = tiny_spec(axis=self.axes[axis], methods=self.methods, trials=2,
                         outputs=("risk", "bounds", "tightness", "primitives"))
        rows, skips = run_sweep(spec)
        assert len(rows) == 9 and not skips
        # one stack of every (point, method) row: 3 points times 3 methods
        assert calls == [((9, 7, 7), (9, 7, 7), (9, 2), (9,), (9, 2))] * spec.trials

    @pytest.mark.parametrize("axis, per_trial", [("r_plus_sq", 2), ("n_coupled", 6)])
    def test_other_axes_factor_once_per_draw_and_distinct_tau(self, axis, per_trial, monkeypatch):
        # cmni and ("ridge", 0.0) share tau = 0: two distinct taus per draw.
        # The r_plus_sq points share the trial's one draw, whatever their
        # means; each n_coupled point is its own draw
        spec = tiny_spec(axis=self.axes[axis], methods=self.methods, trials=2, outputs=("risk", "primitives"))
        calls = self.count_factors(monkeypatch)
        rows, skips = run_sweep(spec)
        assert len(rows) == 9 and not skips
        assert len(calls) == per_trial * spec.trials


# the per-trial outputs `per_point_run` gives, in its order
REFERENCE_OUTPUTS = ("risk_plus", "risk_minus", "worst", "average", "exponent_plus", "exponent_minus")


def per_point_run(spec):
    """The skips of a per-point run, the reference for a batched sweep's,
    and the per-trial outputs of each (value, method, tau) row over its
    successful trials: at each (trial, point, method) in that order, one
    recursive `compute_primitives` call on the point's own stream, then
    `fit_moments` and `group_risk`; last, one aggregate skip per row with
    no successful trial."""
    skips, outputs = [], {}
    for trial in range(spec.trials):
        for value in spec.axis.values:
            cfg = derive_config(spec.base, spec.axis.name, value)
            cfg = cfg.with_updates(seed=substream_seed(spec.base.seed, trial))
            stats = noise_stats(cfg)
            for mname, tau_spec in spec.methods:
                try:
                    tau = resolve_tau(tau_spec, cfg)
                    plus, minus = group_risk(fit_moments(compute_primitives(stats, tau, cfg.deltas, mode="recursive")))
                except Exception as exc:
                    where = {"value": value, "trial": trial, "method": mname}
                    skips.append({"axis": spec.axis.name, **where, "stage": "fit", "reason": str(exc)})
                else:
                    outputs.setdefault((value, mname, tau), []).append(
                        (plus.risk, minus.risk, *worst_and_average(plus, minus, cfg), plus.exponent, minus.exponent)
                    )
    for value in spec.axis.values:
        cfg = derive_config(spec.base, spec.axis.name, value)
        for mname, tau_spec in spec.methods:
            if (value, mname, resolve_tau(tau_spec, cfg)) not in outputs:
                skips.append({"axis": spec.axis.name, "value": value, "method": mname,
                              "stage": "aggregate", "reason": "no successful trials"})
    return skips, outputs


class TestSkipFidelity:
    """A failing (point, method) of a batch is skipped alone, with the reason
    and in the place a per-point run gives it, and each row is the mean over
    its successful trials alone."""

    methods = (("cmni", None), ("ridge", "d/10"), ("ridge", "d"))

    def spec(self, axis):
        return tiny_spec(axis=axis, methods=self.methods, trials=3,
                         outputs=("risk", "bounds", "tightness", "primitives"))

    @staticmethod
    def check(spec, tmp_path, capsys):
        expected, outputs = per_point_run(spec)
        rows, skips = run_sweep(spec)
        assert skips == expected
        assert any(s["stage"] == "fit" for s in skips) and rows
        assert len(rows) == len(outputs)
        for row in rows:
            trials = outputs[row.axis_value, row.method, row.tau]
            assert row.trials == len(trials), row.run_id
            means = [getattr(row, f"{name}_mean") for name in REFERENCE_OUTPUTS]
            np.testing.assert_allclose(means, np.mean(trials, axis=0), rtol=1e-12, err_msg=row.run_id)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        capsys.readouterr()
        assert cli.main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == [json.dumps(s, sort_keys=True) for s in expected]
        return [len(trials) for trials in outputs.values()]

    def test_singular_det_along_r_plus_sq(self, monkeypatch, tmp_path, capsys):
        # the dets move with the means: a tolerance at their median fails
        # some (trial, point, method) and keeps the rest
        spec = self.spec(SweepAxis("r_plus_sq", (20.0, 60.0, 150.0, 400.0)))
        dets = []
        for trial in range(spec.trials):
            for value in spec.axis.values:
                cfg = derive_config(spec.base, "r_plus_sq", value)
                cfg = cfg.with_updates(seed=substream_seed(spec.base.seed, trial))
                stats = noise_stats(cfg)
                for _, tau_spec in self.methods:
                    prims = compute_primitives(stats, resolve_tau(tau_spec, cfg), cfg.deltas, mode="recursive")
                    dets.append(min(prims.det_a))
        monkeypatch.setattr(primitives, "DET_SINGULAR_TOL", float(np.median(dets)))
        kept = self.check(spec, tmp_path, capsys)
        # some row keeps only part of its trials
        assert 0 < min(kept) < spec.trials

    def test_singular_det_and_zero_norm_inside_a_delta_minus_batch(self, monkeypatch, tmp_path, capsys):
        # det(A_k) does not depend on the weights: a tolerance between the
        # taus' dets fails one method at every point; a subnormal |w_hat|^2
        # is forced at one weight of the batch, which a per-point run reads too
        spec = self.spec(SweepAxis("delta_minus", (0.5, 0.25, 0.1, 0.05)))
        cfg = spec.base.with_updates(seed=substream_seed(spec.base.seed, 0))
        stats = noise_stats(cfg)
        dets = sorted(min(compute_primitives(stats, resolve_tau(t, cfg), mode="recursive").det_a)
                      for _, t in self.methods)
        monkeypatch.setattr(primitives, "DET_SINGULAR_TOL", (dets[0] + dets[1]) / 2)
        real = primitives._fit_moments

        def subnormal_at_quarter(prims):
            w_norm_sq, w_dot_mu = real(prims)
            minus = np.reshape(prims.delta, (-1, 2))[:, 1].reshape(np.shape(w_norm_sq))
            return np.where(minus == 0.25, 1e-310, w_norm_sq), w_dot_mu

        for module in (primitives, harness):
            monkeypatch.setattr(module, "_fit_moments", subnormal_at_quarter)
        self.check(spec, tmp_path, capsys)
        assert {s["reason"] for s in per_point_run(spec)[0]} >= {
            "estimator |w_hat|^2 = 1.000e-310 is below the smallest normal float 2.225e-308: "
            "its margins are not resolved in floating point"}

    def test_failed_order0_solve_skips_its_tau(self, monkeypatch, tmp_path, capsys):
        spec = self.spec(SweepAxis("delta_minus", (0.5, 0.25, 0.1)))
        real = primitives._order0_solve

        def refuse_d_over_10(stats, tau):
            if tau == spec.base.d / 10:
                raise np.linalg.LinAlgError("stage matrix not positive definite (forced)")
            return real(stats, tau)

        for module in (primitives, harness):
            monkeypatch.setattr(module, "_order0_solve", refuse_d_over_10)
        self.check(spec, tmp_path, capsys)


class TestCancelledRecursion:
    """A row whose recursive o = s_id_jd - tau diag(S) has cancelled is
    skipped with the recursion's own refusal; below that it keeps the
    fitter's risks."""

    base = ModelConfig(d_core=50, d_spur=50, mu_core=np.sqrt(10.0), mu_spur=np.sqrt(2.5),
                       n_plus=8, n_minus=2, seed=0)

    def run(self, tau):
        spec = SweepSpec(base=self.base, axis=SweepAxis("delta_minus", (1.0,)), methods=(("ridge", tau),), trials=1)
        point = derive_config(self.base, "delta_minus", 1.0).with_updates(seed=substream_seed(self.base.seed, 0))
        return run_sweep(spec), point, noise_stats(point)

    @pytest.mark.parametrize("tau", [1e12, 1e20, 1e100, 1e200])
    def test_a_cancelled_o_skips_its_row_with_the_recursions_refusal(self, tau):
        # unrefused, these rows read |w_hat|^2 1.7e-6 off at 1e12, a risk of
        # 0.5 at 1e100 and 1e200, and at 1e20 a norm of 0.0, an underflow
        (rows, skips), point, stats = self.run(tau)
        with pytest.raises(np.linalg.LinAlgError) as caught:
            compute_primitives(stats, tau, point.deltas, mode="recursive")
        reason = str(caught.value)
        assert reason.startswith("recursive o_") and "has cancelled" in reason
        assert rows == []
        assert [(s["stage"], s["reason"]) for s in skips] == [("fit", reason), ("aggregate", "no successful trials")]

    @pytest.mark.parametrize("tau", [0.0, 1e3, 1e8])
    def test_a_resolved_o_keeps_the_fitters_norm_and_risks(self, tau):
        (rows, skips), point, stats = self.run(tau)
        sol = fit_ridge(stats, point.deltas, tau)
        plus, minus = group_risk(sol)
        moments = fit_moments(compute_primitives(stats, tau, point.deltas, mode="recursive"))
        assert skips == [] and len(rows) == 1
        np.testing.assert_allclose(moments.w_norm_sq, sol.w_norm_sq, rtol=1e-7)
        np.testing.assert_allclose([rows[0].risk_plus_mean, rows[0].risk_minus_mean], [plus.risk, minus.risk],
                                   rtol=1e-7)

    def test_verify_primitives_refuses_a_tau_where_its_recursive_set_cancels(self, capsys):
        # at tau = 1e10 o_1d keeps s_1d_1d / o_1d = 2.35e7 < 2^26, and passes;
        # the refusal is a LinAlgError, a ValueError, so the exit code is 2
        assert cli.main(["verify-primitives", "-n", "20", "-d", "400", "--tau", "1e10"]) == 0
        capsys.readouterr()
        assert cli.main(["verify-primitives", "-n", "20", "-d", "400", "--tau", "1e11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: recursive o_1d at order 0 = ")


class TestOnePassPerTrial:
    """Each trial streams its noise once, for all of its points."""

    def spec(self, **overrides):
        kwargs = dict(
            axis=SweepAxis("n_coupled", (10, 14, 20)),
            methods=(("ridge", 0.0), ("ridge", "d/10")),
            trials=2,
            outputs=("risk", "bounds", "tightness", "primitives"),
        )
        kwargs.update(overrides)
        return tiny_spec(**kwargs)

    @staticmethod
    def csv_bytes(rows, path):
        emit(rows, str(path))
        return path.read_bytes()

    def test_n_coupled_csv_equals_per_point_streams(self, tmp_path, monkeypatch):
        from grouprisk import harness, model

        monkeypatch.setattr(model, "_BLOCK_COLS", 16)  # many blocks per half
        rows, skips = run_sweep(self.spec())
        assert len(rows) == 6 and not skips
        monkeypatch.setattr(
            harness, "noise_stats_many", lambda configs: tuple(noise_stats(c) for c in configs)
        )
        ref_rows, ref_skips = run_sweep(self.spec())
        assert not ref_skips
        assert self.csv_bytes(rows, tmp_path / "a.csv") == self.csv_bytes(ref_rows, tmp_path / "b.csv")

    @pytest.mark.parametrize(
        "axis, per_call",
        [(SweepAxis("n_coupled", (10, 14, 20)), [10, 14, 20]),
         (SweepAxis("delta_minus", (0.5, 0.25, 0.1)), [40]),
         (SweepAxis("r_plus_sq", (50.0, 100.0)), [40])],
    )
    def test_one_stream_call_per_trial(self, axis, per_call, monkeypatch):
        from grouprisk import harness

        calls = []
        real = harness.noise_stats_many

        def spy(configs):
            calls.append([c.n for c in configs])
            return real(configs)

        monkeypatch.setattr(harness, "noise_stats_many", spy)
        rows, skips = run_sweep(self.spec(axis=axis, outputs=("risk",)))
        assert rows and not skips
        assert calls == [per_call] * 2

    def test_failed_stream_skips_every_point_of_the_trial(self, monkeypatch):
        from grouprisk import harness

        def refuse(configs):
            raise MemoryError("stream refused")

        monkeypatch.setattr(harness, "noise_stats_many", refuse)
        rows, skips = run_sweep(self.spec())
        assert not rows
        sample = [s for s in skips if s["stage"] == "sample"]
        assert [(s["trial"], s["value"]) for s in sample] == [
            (t, v) for t in range(2) for v in (10.0, 14.0, 20.0)
        ]
        assert all(s["reason"] == "stream refused" for s in sample)
        assert len(skips) == len(sample) + 6  # and one aggregate skip per row


class TestTrialSeeds:
    """Each point is derived once; a trial reseeds only the configs it streams."""

    @pytest.mark.parametrize(
        "axis, per_trial",
        [(SweepAxis("n_coupled", (10, 14, 20)), 3),
         (SweepAxis("delta_minus", (0.5, 0.25, 0.1)), 1),
         (SweepAxis("r_plus_sq", (50.0, 100.0)), 1)],
    )
    def test_only_streamed_configs_are_reseeded(self, axis, per_trial, monkeypatch):
        calls = []
        real = ModelConfig.with_updates

        def spy(self, **changes):
            calls.append(sorted(changes))
            return real(self, **changes)

        monkeypatch.setattr(ModelConfig, "with_updates", spy)
        spec = tiny_spec(axis=axis, methods=(("ridge", 0.0), ("ridge", "d/10")))
        rows, skips = run_sweep(spec)
        assert rows and not skips
        derived, reseeds = calls[: len(axis.values)], calls[len(axis.values):]
        assert all(c != ["seed"] for c in derived)
        assert reseeds == [["seed"]] * (per_trial * spec.trials)


class TestEmit:
    def make_rows(self):
        return run_sweep(tiny_spec())[0]

    def test_csv_layout(self, tmp_path):
        rows = self.make_rows()
        path = str(tmp_path / "out.csv")
        emit(rows, path, fmt="csv")
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == CSV_COLUMNS
        assert len(parsed) == 1 + len(rows)
        assert all(len(line) == len(CSV_COLUMNS) for line in parsed)

    def test_csv_header_is_pinned(self, tmp_path):
        path = str(tmp_path / "out.csv")
        emit(self.make_rows(), path, fmt="csv")
        with open(path) as fh:
            header = fh.readline()
        assert header == (
            "run_id,axis_value,method,tau,trials,"
            "risk_plus_mean,risk_plus_std,risk_minus_mean,risk_minus_std,"
            "worst_mean,worst_std,average_mean,average_std,"
            "exponent_plus_mean,exponent_plus_std,exponent_minus_mean,exponent_minus_std,"
            "e_plus_mean,e_plus_std,e_minus_mean,e_minus_std,"
            "tightness_plus_mean,tightness_plus_std,tightness_minus_mean,tightness_minus_std,"
            "primitive_pass_frac\n"
        )

    def test_csv_bytes_deterministic(self, tmp_path):
        rows = self.make_rows()
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit(rows, p1)
        emit(rows, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_json_format(self, tmp_path):
        rows = self.make_rows()
        path = str(tmp_path / "out.json")
        emit(rows, path, fmt="json", meta={"note": "unit"})
        doc = json.loads(Path(path).read_text())
        assert doc["generator"] == "philox"
        assert doc["meta"]["note"] == "unit"
        assert len(doc["rows"]) == len(rows)
        assert doc["rows"][0]["run_id"] == rows[0].run_id

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], str(tmp_path / "x.csv"))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self.make_rows(), str(tmp_path / "x.yaml"), fmt="yaml")


class TestPresets:
    def test_names_and_rejection(self):
        for name in PRESET_NAMES:
            spec = preset(name, seed=3, trials=2)
            assert spec.trials == 2
            assert spec.base.seed == 3
        with pytest.raises(ValueError):
            preset("fig3_left")

    def test_fig1_left_grid(self):
        spec = preset("fig1_left")
        vals = spec.axis.values
        assert spec.axis.name == "delta_minus"
        np.testing.assert_allclose(vals[0], 0.95)
        np.testing.assert_allclose(vals[19], 0.05)
        np.testing.assert_allclose(vals[20:], (0.025, 0.0125, 0.00625))
        assert spec.base.delta_plus == 0.95
        assert spec.base.n == 200
        assert spec.base.d == 100_000

    def test_fig1_right_methods(self):
        spec = preset("fig1_right")
        assert spec.axis.name == "n_coupled"
        assert spec.axis.values == (50.0, 100.0, 150.0, 200.0, 250.0)
        taus = [t for m, t in spec.methods]
        assert taus == [0.0, "d/10", "d"]
        assert all(m == "ridge" for m, _ in spec.methods)

    def test_fig2_axes(self):
        left = preset("fig2_left")
        right = preset("fig2_right")
        for spec in (left, right):
            assert spec.axis.name == "r_plus_sq"
            np.testing.assert_allclose(spec.axis.values[0], 500.0)
            np.testing.assert_allclose(spec.axis.values[-1], 200_000.0)
            assert len(spec.axis.values) == 12
        assert left.base.deltas == (1.0, 1.0)
        assert right.base.deltas == (0.95, 0.05)

    def test_fig_base_signal(self):
        from grouprisk.model import signal_strengths

        spec = preset("fig1_left")
        sig = signal_strengths(spec.base)
        np.testing.assert_allclose(sig.r_plus, 250.0, rtol=1e-12)
        np.testing.assert_allclose(sig.r_minus, 0.0, atol=1e-12)
