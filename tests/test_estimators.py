"""Tests for Gram accumulation and the dual-space fitters."""

import numpy as np
import pytest

from grouprisk import estimators
from grouprisk.estimators import (
    GramStats,
    accumulate_gram,
    fit_cmni,
    fit_gd,
    fit_ridge,
    interpolation_residual,
)
from grouprisk.model import ModelConfig, embed_means, group_mean, sample_dataset, sample_labels


def e1(scale, length):
    v = np.zeros(length)
    v[0] = scale
    return v


def make_config(**overrides):
    base = dict(
        d_core=200,
        d_spur=200,
        mu_core=e1(14.0, 200),
        mu_spur=e1(7.0, 200),
        n_plus=16,
        n_minus=4,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def stats_from_rows(X):
    """GramStats of hand-sized zero-mean rows X: G = X X', X mu_b = 0."""
    n = X.shape[0]
    return GramStats(
        y=np.ones(n),
        a=np.ones(n),
        gram_0=X @ X.T,
        d_1=np.zeros(n),
        d_2=np.zeros(n),
        mu_norms=(0.0, 0.0),
    )


class TestAccumulateGram:
    def test_matches_dense_products(self):
        ds = sample_dataset(make_config())
        stats = accumulate_gram(ds)
        np.testing.assert_allclose(stats.gram, ds.X @ ds.X.T, rtol=1e-12)
        np.testing.assert_allclose(
            stats.x_mu_plus, ds.X @ group_mean(ds.config, +1), rtol=1e-12
        )
        mu_bar_c, mu_bar_s = embed_means(ds.config)
        np.testing.assert_allclose(stats.d_1, ds.Q @ mu_bar_s, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(stats.d_2, ds.Q @ mu_bar_c, rtol=1e-12, atol=1e-12)

    def test_block_width_invariance(self):
        cfg = make_config()
        wide = accumulate_gram(cfg, block_cols=4096)
        narrow = accumulate_gram(cfg, block_cols=13)
        np.testing.assert_allclose(narrow.gram, wide.gram, rtol=1e-13)
        np.testing.assert_allclose(narrow.d_2, wide.d_2, rtol=1e-12, atol=1e-13)

    def test_config_source_matches_dataset_source(self):
        cfg = make_config(seed=8)
        from_cfg = accumulate_gram(cfg)
        from_ds = accumulate_gram(sample_dataset(cfg))
        np.testing.assert_allclose(from_cfg.gram, from_ds.gram, rtol=1e-12)

    def test_gram_is_symmetric(self):
        stats = accumulate_gram(make_config())
        np.testing.assert_array_equal(stats.gram, stats.gram.T)

    def test_x_mu_decomposition_identity(self):
        # X mu_b = |mu_c|^2 y + b |mu_s|^2 a + d_2 + b d_1, against dense X mu_b
        cfg = make_config(seed=5)
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        mu_bar_c, mu_bar_s = embed_means(cfg)
        d_1, d_2 = ds.Q @ mu_bar_s, ds.Q @ mu_bar_c
        nc2 = float(cfg.mu_core @ cfg.mu_core)
        ns2 = float(cfg.mu_spur @ cfg.mu_spur)
        for b in (+1, -1):
            via_parts = nc2 * ds.y + b * ns2 * ds.a + d_2 + b * d_1
            direct = stats.x_mu_plus if b == 1 else stats.x_mu_minus
            np.testing.assert_allclose(via_parts, direct, rtol=1e-10)
            np.testing.assert_allclose(ds.X @ group_mean(cfg, b), direct, rtol=1e-10)


class TestClosedFormSolutions:
    def test_single_point_half_weight(self):
        # one sample x = (3, 4), y = +1, delta = 1/2:
        # G = 25, c = 2/25, w = X^T c = (0.24, 0.32)
        X = np.array([[3.0, 4.0]])
        stats = stats_from_rows(X)
        labels = (np.array([1.0]), np.array([1.0]), np.array([1.0]))
        sol = fit_cmni(stats, (0.5, 0.5), labels)
        np.testing.assert_allclose(sol.c, [0.08])
        w = X.T @ sol.c
        np.testing.assert_allclose(w, [0.24, 0.32])
        np.testing.assert_allclose(sol.w_norm_sq, 0.24**2 + 0.32**2)

    def test_two_orthogonal_points(self):
        X = np.array([[2.0, 0.0], [0.0, 1.0]])
        stats = stats_from_rows(X)
        labels = (
            np.array([1.0, -1.0]),
            np.array([1.0, 1.0]),
            np.array([1.0, -1.0]),
        )
        sol = fit_cmni(stats, (1.0, 1.0), labels)
        np.testing.assert_allclose(sol.c, [0.25, -1.0])

    def test_ridge_closed_form_single_point(self):
        # c = z / (|x|^2 + tau) with z = 2
        X = np.array([[3.0, 4.0]])
        stats = stats_from_rows(X)
        labels = (np.array([1.0]), np.array([1.0]), np.array([1.0]))
        sol = fit_ridge(stats, (0.5, 0.5), labels, tau=25.0)
        np.testing.assert_allclose(sol.c, [2.0 / 50.0])


class TestInterpolation:
    def test_cmni_interpolates(self):
        cfg = make_config(delta_plus=0.9, delta_minus=0.2, seed=7)
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        labels = (ds.y, ds.a, ds.b)
        sol = fit_cmni(stats, cfg.deltas, labels)
        assert interpolation_residual(sol, stats, cfg.deltas, labels) <= 1e-10

    def test_ridge_zero_equals_cmni_exactly(self):
        cfg = make_config(seed=11)
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        labels = (ds.y, ds.a, ds.b)
        a = fit_cmni(stats, cfg.deltas, labels)
        b = fit_ridge(stats, cfg.deltas, labels, tau=0.0)
        np.testing.assert_array_equal(a.c, b.c)

    def test_ridge_shrinks_weight_norm(self):
        cfg = make_config(seed=2)
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        labels = (ds.y, ds.a, ds.b)
        norms = [
            fit_ridge(stats, cfg.deltas, labels, tau=t).w_norm_sq
            for t in (0.0, 10.0, 100.0, 1000.0)
        ]
        assert norms == sorted(norms, reverse=True)

    def test_ridge_stationarity(self):
        # (G + tau I) c = z at the reported solution
        cfg = make_config(seed=13, delta_plus=0.8, delta_minus=0.4)
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        labels = (ds.y, ds.a, ds.b)
        tau = 37.0
        sol = fit_ridge(stats, cfg.deltas, labels, tau)
        z = ds.y / np.where(ds.b > 0, 0.8, 0.4)
        residual = (stats.gram + tau * np.eye(cfg.n)) @ sol.c - z
        assert np.abs(residual).max() <= 1e-8 * np.abs(z).max()

    def test_w_dot_mu_matches_dense_weight(self):
        cfg = make_config(seed=4)
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        sol = fit_cmni(stats, cfg.deltas, (ds.y, ds.a, ds.b))
        w = ds.X.T @ sol.c
        from grouprisk.model import group_mean

        np.testing.assert_allclose(sol.w_dot_mu[0], w @ group_mean(cfg, +1), rtol=1e-9)
        np.testing.assert_allclose(sol.w_dot_mu[1], w @ group_mean(cfg, -1), rtol=1e-9)
        np.testing.assert_allclose(sol.w_norm_sq, w @ w, rtol=1e-9)


class TestGradientDescent:
    def test_converges_to_cmni(self):
        cfg = make_config(seed=6)
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        labels = (ds.y, ds.a, ds.b)
        direct = fit_cmni(stats, cfg.deltas, labels)
        gd = fit_gd(stats, cfg.deltas, labels)
        rel = np.linalg.norm(gd.c - direct.c) / np.linalg.norm(direct.c)
        assert rel <= 1e-4
        assert gd.info["iters"] <= 100_000

    def test_respects_iteration_cap(self):
        cfg = make_config(seed=6)
        ds = sample_dataset(cfg)
        gd = fit_gd(accumulate_gram(ds), cfg.deltas, (ds.y, ds.a, ds.b), iters=3, tol=0.0)
        assert gd.info["iters"] == 3
        assert gd.info["converged"] is False

    def test_reports_convergence_when_tolerance_met(self):
        cfg = make_config(seed=6)
        ds = sample_dataset(cfg)
        gd = fit_gd(accumulate_gram(ds), cfg.deltas, (ds.y, ds.a, ds.b), tol=1e-8)
        assert gd.info["converged"] is True
        assert gd.info["iters"] < 100_000
        z_inf = np.max(np.abs(ds.y / cfg.delta_of(ds.b)))
        assert gd.info["residual_inf"] <= 1e-8 * z_inf

    def test_adjusted_weights_change_solution(self):
        cfg = make_config(seed=6, delta_plus=1.0, delta_minus=0.2)
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        labels = (ds.y, ds.a, ds.b)
        flat = fit_cmni(stats, (1.0, 1.0), labels)
        tilted = fit_cmni(stats, (1.0, 0.2), labels)
        assert np.linalg.norm(flat.c - tilted.c) > 1e-3

    def test_divergence_raises(self):
        cfg = make_config(seed=6)
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        lam_max = float(np.linalg.eigvalsh(stats.gram)[-1])
        with pytest.raises(RuntimeError):
            fit_gd(stats, cfg.deltas, (ds.y, ds.a, ds.b), step=2.5 * cfg.n / lam_max, iters=5000)

    @pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_step(self, step):
        cfg = make_config()
        ds = sample_dataset(cfg)
        with pytest.raises(ValueError, match="step must be finite and positive"):
            fit_gd(accumulate_gram(ds), cfg.deltas, (ds.y, ds.a, ds.b), step=step)

    def test_rejects_bad_iters(self):
        cfg = make_config()
        ds = sample_dataset(cfg)
        with pytest.raises(ValueError):
            fit_gd(accumulate_gram(ds), cfg.deltas, (ds.y, ds.a, ds.b), iters=0)


class TestSolutionContainer:
    def test_to_dict_roundtrips_core_fields(self):
        cfg = make_config()
        ds = sample_dataset(cfg)
        stats = accumulate_gram(ds)
        sol = fit_ridge(stats, cfg.deltas, (ds.y, ds.a, ds.b), tau=3.0)
        doc = sol.to_dict()
        assert doc["method"] == "ridge"
        assert doc["tau"] == 3.0
        np.testing.assert_allclose(doc["c"], sol.c)

    def test_singular_gram_reports_conditioning(self):
        # duplicate rows make G (tau = 0) exactly singular
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        stats = stats_from_rows(X)
        labels = (
            np.array([1.0, -1.0]),
            np.array([1.0, 1.0]),
            np.array([1.0, -1.0]),
        )
        with pytest.raises(np.linalg.LinAlgError):
            fit_cmni(stats, (1.0, 1.0), labels)


class TestSpdSolve:
    """The SPD factor and solve pair: scipy's Cholesky at every size."""

    @pytest.mark.parametrize("offset", [0, 1])
    def test_solves_match_dense_solve(self, offset):
        n = 512 + offset  # 512 and 513 take the same scipy path
        q = np.random.default_rng(offset).standard_normal((n, n + 20))
        mat = q @ q.T
        rhs = np.random.default_rng(9).standard_normal((n, 3))
        factor, lower = estimators._spd_factor(mat, "unused")
        assert lower
        np.testing.assert_allclose(np.tril(factor), np.linalg.cholesky(mat), rtol=1e-12, atol=1e-12)
        got = estimators._spd_solve((factor, lower), rhs)
        np.testing.assert_allclose(got, np.linalg.solve(mat, rhs), rtol=1e-8, atol=1e-10)

    def test_not_positive_definite_names_the_system(self):
        mat = np.diag([1.0, -1.0])
        with pytest.raises(np.linalg.LinAlgError, match=r"^stage matrix \(cond ~"):
            estimators._spd_factor(mat, "stage matrix")


class TestFactorMemo:
    def count_factors(self, monkeypatch):
        calls = []
        real = estimators._spd_factor

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "_spd_factor", counting)
        return calls

    def test_one_factor_per_tau_and_fits_match_fresh_stats(self, monkeypatch):
        cfg = make_config(seed=8)
        ds = sample_dataset(cfg)
        labels = (ds.y, ds.a, ds.b)
        shared = accumulate_gram(ds)
        calls = self.count_factors(monkeypatch)
        fits = [
            fit_cmni(shared, (1.0, 0.5), labels),
            fit_cmni(shared, (1.0, 0.1), labels),
            fit_ridge(shared, (1.0, 0.5), labels, 0.0),
            fit_ridge(shared, (1.0, 0.5), labels, 40.0),
            fit_ridge(shared, (1.0, 0.1), labels, 40.0),
        ]
        assert len(calls) == 2  # tau = 0 and tau = 40
        fresh = [
            fit_cmni(accumulate_gram(ds), (1.0, 0.5), labels),
            fit_cmni(accumulate_gram(ds), (1.0, 0.1), labels),
            fit_ridge(accumulate_gram(ds), (1.0, 0.5), labels, 0.0),
            fit_ridge(accumulate_gram(ds), (1.0, 0.5), labels, 40.0),
            fit_ridge(accumulate_gram(ds), (1.0, 0.1), labels, 40.0),
        ]
        for got, ref in zip(fits, fresh):
            np.testing.assert_array_equal(got.c, ref.c)
            assert got.info == ref.info

    @pytest.mark.parametrize("tau", [-1.0, float("nan"), float("inf")])
    def test_ridge_rejects_bad_tau(self, tau):
        cfg = make_config()
        stats = accumulate_gram(cfg)
        with pytest.raises(ValueError, match="tau"):
            fit_ridge(stats, cfg.deltas, sample_labels(cfg), tau)
        assert not stats._memo

    def test_arrays_are_read_only(self):
        stats = accumulate_gram(make_config())
        for name in ("gram", "x_mu_plus", "x_mu_minus", "d_1", "d_2"):
            with pytest.raises(ValueError):
                getattr(stats, name)[0] = 1.0
