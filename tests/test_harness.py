"""Tests for sweep specification, execution, caching, and persistence."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from grouprisk.bounds import bound_exponent
from grouprisk.estimators import GramStats, accumulate_gram, fit_cmni, fit_ridge
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
from grouprisk.risk import group_risk

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


class TestDeriveConfig:
    def test_delta_minus_axis(self):
        cfg = derive_config(base_config(), "delta_minus", 0.125)
        assert cfg.delta_minus == 0.125
        assert cfg.delta_plus == 0.95

    def test_delta_minus_axis_shares_the_base_means(self):
        # a sweep's points hold one copy of each mean, not one per point
        base = base_config()
        for value in (0.125, 0.5, 0.95):
            cfg = derive_config(base, "delta_minus", value)
            assert cfg.mu_core is base.mu_core
            assert cfg.mu_spur is base.mu_spur

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
        "spec", [float("nan"), float("inf"), "d/nan", "d/inf", "half", "d/1e-320", [1.0]]
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
    def test_gram_stats_from_noise_match_dense_products(self):
        cfg = base_config(seed=23)
        via_noise = GramStats.from_noise(cfg, noise_stats(cfg))
        ds = sample_dataset(cfg)
        np.testing.assert_allclose(via_noise.gram, ds.X @ ds.X.T, rtol=1e-10)
        mu_bar_c, mu_bar_s = dense_means(cfg)
        np.testing.assert_allclose(via_noise.x_mu_plus, ds.X @ (mu_bar_c + mu_bar_s), rtol=1e-10)
        np.testing.assert_allclose(
            via_noise.d_1, ds.Q[:, cfg.d_core :] @ cfg.mu_spur, rtol=1e-10, atol=1e-12
        )

    def test_noise_stats_reusable_across_mean_rescalings(self):
        # the streamed gram_0 and unit projections are mean-independent
        cfg = base_config(seed=23)
        noise = noise_stats(cfg)
        scaled = derive_config(cfg, "r_plus_sq", 400.0)
        via_noise = GramStats.from_noise(scaled, noise)
        ds = sample_dataset(scaled)
        np.testing.assert_allclose(via_noise.gram, ds.X @ ds.X.T, rtol=1e-10)
        mu_bar_c, mu_bar_s = dense_means(scaled)
        np.testing.assert_allclose(via_noise.x_mu_minus, ds.X @ (mu_bar_c - mu_bar_s), rtol=1e-9)


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
        stats = accumulate_gram(ds)
        sol = fit_cmni(stats, cfg.deltas)
        np.testing.assert_allclose(
            rows[0].risk_plus_mean, group_risk(sol, +1).risk, rtol=1e-10
        )
        np.testing.assert_allclose(
            rows[0].risk_minus_mean, group_risk(sol, -1).risk, rtol=1e-10
        )

    def test_ridge_row_matches_independent_fit(self):
        spec = tiny_spec(trials=1, methods=(("ridge", "d/10"),), outputs=("risk",))
        rows, _ = run_sweep(spec)
        cfg = derive_config(spec.base, "delta_minus", 0.5).with_updates(
            seed=substream_seed(spec.base.seed, 0)
        )
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        sol = fit_ridge(stats, cfg.deltas, tau=cfg.d / 10.0)
        np.testing.assert_allclose(
            rows[0].risk_minus_mean, group_risk(sol, -1).risk, rtol=1e-10
        )
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
            cfg = cfg0.with_updates(delta_minus=row.axis_value)
            stats = GramStats.from_noise(cfg, noise)
            if row.method == "cmni":
                sol = fit_cmni(stats, cfg.deltas)
            else:
                sol = fit_ridge(stats, cfg.deltas, row.tau)
            for b, tag in ((+1, "plus"), (-1, "minus")):
                ref = group_risk(sol, b)
                got = getattr(row, f"exponent_{tag}_mean")
                assert abs(got - ref.exponent) <= 1e-10 * abs(ref.exponent), row.run_id
                got = getattr(row, f"risk_{tag}_mean")
                assert abs(got - ref.risk) <= 1e-10 * abs(ref.risk), row.run_id

    def test_bound_outputs_match_bound_exponent(self):
        spec = tiny_spec(trials=2)
        rows, _ = run_sweep(spec)
        for row in rows:
            cfg = derive_config(spec.base, "delta_minus", row.axis_value)
            np.testing.assert_allclose(row.e_plus_mean, bound_exponent(cfg, +1), rtol=1e-12)
            assert row.e_plus_std == 0.0

    def test_unrequested_outputs_are_none(self):
        spec = tiny_spec(outputs=("risk",))
        rows, _ = run_sweep(spec)
        assert rows[0].e_plus_mean is None
        assert rows[0].tightness_plus_mean is None
        assert rows[0].primitive_pass_frac is None

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

    def test_tightness_none_when_exponent_zero(self):
        base = base_config(mu_core=np.zeros(400), mu_spur=np.zeros(400))
        spec = tiny_spec(base=base, trials=1, outputs=("risk", "bounds", "tightness"))
        rows, _ = run_sweep(spec)
        assert rows[0].e_plus_mean == 0.0
        assert rows[0].tightness_plus_mean is None


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

    def test_other_axes_rebuild_per_point(self, monkeypatch):
        spec = tiny_spec(
            axis=SweepAxis("r_plus_sq", (50.0, 100.0)),
            methods=self.methods,
            trials=1,
            outputs=("risk", "primitives"),
        )
        calls = self.count_factors(monkeypatch)
        rows, _ = run_sweep(spec)
        assert len(rows) == 6
        assert len(calls) == 4


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
        assert "tightness" in spec.outputs

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
