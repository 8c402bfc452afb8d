"""Tests for Gram accumulation and the dual-space fitters."""

import re

import numpy as np
import pytest
import scipy.linalg

from grouprisk import estimators, model
from grouprisk.estimators import (
    fit_cmni,
    fit_gd,
    fit_ridge,
    interpolation_residual,
)
from grouprisk.model import GramStats, ModelConfig, e1_mean, noise_stats, sample_dataset

from conftest import dense_means


def make_config(**overrides):
    base = dict(
        d_core=200,
        d_spur=200,
        mu_core=e1_mean(14.0, 200),
        mu_spur=e1_mean(7.0, 200),
        n_plus=16,
        n_minus=4,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def stats_from_rows(X, y=None, a=None):
    """GramStats of hand-sized zero-mean rows X: G = X X', X mu_b = 0.

    y and a default to all +1 (every row in the majority group)."""
    n = X.shape[0]
    return GramStats(
        y=np.ones(n) if y is None else np.asarray(y, dtype=np.float64),
        a=np.ones(n) if a is None else np.asarray(a, dtype=np.float64),
        gram_0=X @ X.T,
        q_core=np.zeros(n),
        q_spur=np.zeros(n),
        mu_norms=(0.0, 0.0),
    )


class TestAccumulateGram:
    def test_matches_dense_products(self):
        ds = sample_dataset(make_config())
        stats = noise_stats(ds)
        np.testing.assert_allclose(stats.gram, ds.X @ ds.X.T, rtol=1e-12)
        mu_bar_c, mu_bar_s = dense_means(ds.config)
        sol = fit_cmni(stats, ds.config.deltas)
        np.testing.assert_allclose(sol.w_dot_mu[0], (ds.X.T @ sol.c) @ (mu_bar_c + mu_bar_s), rtol=1e-12)
        np.testing.assert_allclose(stats.d_1, ds.Q @ mu_bar_s, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(stats.d_2, ds.Q @ mu_bar_c, rtol=1e-12, atol=1e-12)

    def test_block_width_invariance(self, monkeypatch):
        cfg = make_config()
        wide = noise_stats(cfg)
        monkeypatch.setattr(model, "_BLOCK_COLS", 3)
        narrow = noise_stats(cfg)
        np.testing.assert_allclose(narrow.gram, wide.gram, rtol=1e-13)
        np.testing.assert_allclose(narrow.d_2, wide.d_2, rtol=1e-12, atol=1e-13)

    def test_config_source_matches_dataset_source(self):
        cfg = make_config(seed=8)
        from_cfg = noise_stats(cfg)
        from_ds = noise_stats(sample_dataset(cfg))
        np.testing.assert_allclose(from_cfg.gram, from_ds.gram, rtol=1e-12)

    def test_gram_is_symmetric(self):
        stats = noise_stats(make_config())
        np.testing.assert_array_equal(stats.gram, stats.gram.T)

    def test_x_mu_decomposition_identity(self):
        # w_hat' mu_b = c' X mu_b with X mu_b = |mu_c|^2 y + b |mu_s|^2 a + d_2 + b d_1,
        # against the dense c' (X mu_b) and (X' c) . mu_b
        cfg = make_config(seed=5)
        ds = sample_dataset(cfg)
        sol = fit_cmni(noise_stats(ds), cfg.deltas)
        mu_bar_c, mu_bar_s = dense_means(cfg)
        d_1, d_2 = ds.Q @ mu_bar_s, ds.Q @ mu_bar_c
        nc2 = float(cfg.mu_core @ cfg.mu_core)
        ns2 = float(cfg.mu_spur @ cfg.mu_spur)
        w = ds.X.T @ sol.c
        for b, direct in zip((+1, -1), sol.w_dot_mu):
            via_parts = nc2 * ds.y + b * ns2 * ds.a + d_2 + b * d_1
            np.testing.assert_allclose(sol.c @ via_parts, direct, rtol=1e-10)
            np.testing.assert_allclose(w @ (mu_bar_c + b * mu_bar_s), direct, rtol=1e-10)


class TestClosedFormSolutions:
    def test_single_point_half_weight(self):
        # one sample x = (3, 4), y = +1, delta = 1/2:
        # G = 25, c = 2/25, w = X^T c = (0.24, 0.32)
        X = np.array([[3.0, 4.0]])
        stats = stats_from_rows(X)
        sol = fit_cmni(stats, (0.5, 0.5))
        np.testing.assert_allclose(sol.c, [0.08])
        w = X.T @ sol.c
        np.testing.assert_allclose(w, [0.24, 0.32])
        np.testing.assert_allclose(sol.w_norm_sq, 0.24**2 + 0.32**2)

    def test_two_orthogonal_points(self):
        X = np.array([[2.0, 0.0], [0.0, 1.0]])
        stats = stats_from_rows(X, y=[1.0, -1.0], a=[1.0, 1.0])
        sol = fit_cmni(stats, (1.0, 1.0))
        np.testing.assert_allclose(sol.c, [0.25, -1.0])

    def test_ridge_closed_form_single_point(self):
        # c = z / (|x|^2 + tau) with z = 2
        X = np.array([[3.0, 4.0]])
        stats = stats_from_rows(X)
        sol = fit_ridge(stats, (0.5, 0.5), tau=25.0)
        np.testing.assert_allclose(sol.c, [2.0 / 50.0])


class TestInterpolation:
    def test_cmni_interpolates(self):
        cfg = make_config(delta_plus=0.9, delta_minus=0.2, seed=7)
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        sol = fit_cmni(stats, cfg.deltas)
        assert interpolation_residual(sol, stats, cfg.deltas) <= 1e-10

    def test_ridge_zero_equals_cmni_exactly(self):
        # the whole solution, bit for bit, on a cold memo and on one that
        # already holds a ridge factor at another tau
        cfg = make_config(seed=11, delta_plus=0.9, delta_minus=0.3)
        ds = sample_dataset(cfg)
        cold = fit_cmni(noise_stats(ds), cfg.deltas)
        for warm_tau in (None, 40.0):
            stats = noise_stats(ds)
            if warm_tau is not None:
                fit_ridge(stats, cfg.deltas, tau=warm_tau)
            a = fit_cmni(stats, cfg.deltas)
            b = fit_ridge(stats, cfg.deltas, tau=0.0)
            assert (a.method, b.method) == ("cmni", "ridge")
            for sol in (a, b):
                np.testing.assert_array_equal(sol.c, cold.c)
                assert sol.tau == 0.0
                assert sol.w_norm_sq == cold.w_norm_sq
                assert sol.w_dot_mu == cold.w_dot_mu
                assert sol.info == cold.info

    def test_ridge_shrinks_weight_norm(self):
        cfg = make_config(seed=2)
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        norms = [
            fit_ridge(stats, cfg.deltas, tau=t).w_norm_sq
            for t in (0.0, 10.0, 100.0, 1000.0)
        ]
        assert norms == sorted(norms, reverse=True)

    def test_ridge_stationarity(self):
        # (G + tau I) c = z at the reported solution
        cfg = make_config(seed=13, delta_plus=0.8, delta_minus=0.4)
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        tau = 37.0
        sol = fit_ridge(stats, cfg.deltas, tau)
        z = ds.y / np.where(ds.b > 0, 0.8, 0.4)
        residual = (stats.gram + tau * np.eye(cfg.n)) @ sol.c - z
        assert np.abs(residual).max() <= 1e-8 * np.abs(z).max()

    def test_w_dot_mu_matches_dense_weight(self):
        cfg = make_config(seed=4)
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        sol = fit_cmni(stats, cfg.deltas)
        w = ds.X.T @ sol.c
        mu_bar_c, mu_bar_s = dense_means(cfg)
        np.testing.assert_allclose(sol.w_dot_mu[0], w @ (mu_bar_c + mu_bar_s), rtol=1e-9)
        np.testing.assert_allclose(sol.w_dot_mu[1], w @ (mu_bar_c - mu_bar_s), rtol=1e-9)
        np.testing.assert_allclose(sol.w_norm_sq, w @ w, rtol=1e-9)


class TestGradientDescent:
    def test_converges_to_cmni(self):
        cfg = make_config(seed=6)
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        direct = fit_cmni(stats, cfg.deltas)
        gd = fit_gd(stats, cfg.deltas)
        rel = np.linalg.norm(gd.c - direct.c) / np.linalg.norm(direct.c)
        assert rel <= 1e-4
        assert gd.info["iters"] <= 100_000

    def test_respects_iteration_cap(self):
        cfg = make_config(seed=6)
        ds = sample_dataset(cfg)
        gd = fit_gd(noise_stats(ds), cfg.deltas, iters=3)
        assert gd.info["iters"] == 3
        assert gd.info["converged"] is False

    def test_reports_convergence_when_tolerance_met(self):
        cfg = make_config(seed=6)
        ds = sample_dataset(cfg)
        gd = fit_gd(noise_stats(ds), cfg.deltas)
        assert gd.info["converged"] is True
        assert gd.info["iters"] < 100_000
        z_inf = np.max(np.abs(ds.y / np.where(ds.b > 0, cfg.delta_plus, cfg.delta_minus)))
        assert gd.info["residual_inf"] <= 1e-10 * z_inf

    def test_adjusted_weights_change_solution(self):
        cfg = make_config(seed=6, delta_plus=1.0, delta_minus=0.2)
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        flat = fit_cmni(stats, (1.0, 1.0))
        tilted = fit_cmni(stats, (1.0, 0.2))
        assert np.linalg.norm(flat.c - tilted.c) > 1e-3

    def test_divergence_raises(self):
        # a step past n / lambda_max(G) would diverge, so it is refused at
        # the call, naming the limit, before any iteration
        cfg = make_config(seed=6)
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        limit = cfg.n / float(np.linalg.eigvalsh(stats.gram)[-1])
        message = f"step must be below n / lambda_max(G) = {limit:.6e}, got "
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_gd(stats, cfg.deltas, step=2.5 * limit, iters=5000)

    def test_a_step_at_the_limit_is_refused(self):
        # there the top direction of the error flips sign each step
        cfg = make_config(seed=6)
        stats = noise_stats(sample_dataset(cfg))
        limit = cfg.n / float(np.linalg.eigvalsh(stats.gram)[-1])
        with pytest.raises(ValueError, match="step must be below n / lambda_max"):
            fit_gd(stats, cfg.deltas, step=limit)

    def test_a_step_just_below_the_limit_converges(self):
        cfg = make_config(seed=6)
        stats = noise_stats(sample_dataset(cfg))
        step = 0.99 * cfg.n / float(np.linalg.eigvalsh(stats.gram)[-1])
        gd = fit_gd(stats, cfg.deltas, step=step)
        assert gd.info["step"] == step
        assert gd.info["converged"] is True
        direct = fit_cmni(stats, cfg.deltas)
        assert np.linalg.norm(gd.c - direct.c) <= 1e-4 * np.linalg.norm(direct.c)

    @pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -1.0, True, np.bool_(True)])
    def test_rejects_bad_step(self, step):
        cfg = make_config()
        ds = sample_dataset(cfg)
        with pytest.raises(ValueError, match="step must be finite and positive"):
            fit_gd(noise_stats(ds), cfg.deltas, step=step)

    def test_rejects_bad_iters(self):
        cfg = make_config()
        stats = noise_stats(sample_dataset(cfg))
        # True would run one iteration, and 2.5 fail inside range()
        for iters in (0, True, 2.5):
            with pytest.raises(ValueError, match="iters"):
                fit_gd(stats, cfg.deltas, iters=iters)


class TestSolutionContainer:
    def test_to_dict_roundtrips_core_fields(self):
        cfg = make_config()
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        sol = fit_ridge(stats, cfg.deltas, tau=3.0)
        doc = sol.to_dict()
        assert doc["method"] == "ridge"
        assert doc["tau"] == 3.0
        np.testing.assert_allclose(doc["c"], sol.c)

    def test_singular_gram_reports_conditioning(self):
        # duplicate rows make G (tau = 0) exactly singular
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        stats = stats_from_rows(X, y=[1.0, -1.0], a=[1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            fit_cmni(stats, (1.0, 1.0))


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

    def test_an_ill_conditioned_solve_is_refined_once(self, monkeypatch):
        # cond(hilbert(8)) ~ 1.5e10: the first solve misses the 1e-10
        # residual target and one refinement step runs
        n = 8
        stats = GramStats(
            y=np.array([1.0, -1.0] * (n // 2)),
            a=np.ones(n),
            gram_0=scipy.linalg.hilbert(n),
            q_core=np.zeros(n),
            q_spur=np.zeros(n),
            mu_norms=(0.0, 0.0),
        )
        solves = []
        real = estimators._spd_solve

        def recording(factor, rhs):
            solves.append(real(factor, rhs))
            return solves[-1]

        monkeypatch.setattr(estimators, "_spd_solve", recording)
        sol = fit_ridge(stats, (1.0, 1.0), 0.0)
        assert len(solves) == 2
        first = np.linalg.norm(stats.y - stats.gram @ solves[0])
        assert sol.info["solver_residual"] < first


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
        shared = noise_stats(ds)
        calls = self.count_factors(monkeypatch)
        fits = [
            fit_cmni(shared, (1.0, 0.5)),
            fit_cmni(shared, (1.0, 0.1)),
            fit_ridge(shared, (1.0, 0.5), 0.0),
            fit_ridge(shared, (1.0, 0.5), 40.0),
            fit_ridge(shared, (1.0, 0.1), 40.0),
        ]
        assert len(calls) == 2  # tau = 0 and tau = 40
        fresh = [
            fit_cmni(noise_stats(ds), (1.0, 0.5)),
            fit_cmni(noise_stats(ds), (1.0, 0.1)),
            fit_ridge(noise_stats(ds), (1.0, 0.5), 0.0),
            fit_ridge(noise_stats(ds), (1.0, 0.5), 40.0),
            fit_ridge(noise_stats(ds), (1.0, 0.1), 40.0),
        ]
        for got, ref in zip(fits, fresh):
            np.testing.assert_array_equal(got.c, ref.c)
            assert got.info == ref.info

    @pytest.mark.parametrize(
        "tau", [-1.0, float("nan"), float("inf"), True, False, np.bool_(True), "1", [1.0]]
    )
    def test_ridge_rejects_bad_tau(self, tau):
        cfg = make_config()
        stats = noise_stats(cfg)
        with pytest.raises(ValueError, match="tau"):
            fit_ridge(stats, cfg.deltas, tau)
        assert not stats._memo

    @pytest.mark.parametrize("tau", [True, np.bool_(False)])
    def test_per_tau_rejects_bad_tau_and_caches_nothing(self, tau):
        stats = noise_stats(make_config())
        with pytest.raises(ValueError, match="tau"):
            stats.per_tau(estimators._gram_factor, tau)
        assert not stats._memo

    def test_arrays_are_read_only(self):
        stats = noise_stats(make_config())
        for name in ("gram", "d_1", "d_2"):
            with pytest.raises(ValueError):
                getattr(stats, name)[0] = 1.0
