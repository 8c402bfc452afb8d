"""Tests for the Gaussian tail and group risk reports."""

import dataclasses

import numpy as np
import pytest
from scipy.stats import norm

from grouprisk import risk
from grouprisk.estimators import fit_cmni
from grouprisk.model import (
    STREAM_MC,
    ModelConfig,
    e1_mean,
    noise_stats,
    philox_generator,
    sample_dataset,
    substream_seed,
)
from grouprisk.risk import (
    GroupRiskEntry,
    RiskReport,
    build_report,
    group_risk,
    monte_carlo_risk,
    q_function,
    worst_and_average,
)


def make_config(**overrides):
    base = dict(
        d_core=200,
        d_spur=200,
        mu_core=e1_mean(10.0, 200),
        mu_spur=e1_mean(5.0, 200),
        n_plus=16,
        n_minus=4,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def fitted(cfg):
    return fit_cmni(noise_stats(sample_dataset(cfg)), cfg.deltas)


class TestQFunction:
    def test_known_values(self):
        np.testing.assert_allclose(q_function(0.0), 0.5)
        np.testing.assert_allclose(q_function(2.0), 0.0227501319, atol=1e-9)
        np.testing.assert_allclose(q_function(np.array([1.0])), [0.1586552539], atol=1e-9)

    def test_matches_survival_function(self):
        x = np.linspace(0.0, 8.0, 101)
        np.testing.assert_allclose(q_function(x), norm.sf(x), rtol=1e-12)

    def test_symmetry(self):
        np.testing.assert_allclose(q_function(-1.3), 1.0 - q_function(1.3), rtol=1e-12)


class TestGroupRisk:
    def test_exponent_is_half_squared_margin(self):
        cfg = make_config()
        sol = fitted(cfg)
        for entry in group_risk(sol):
            np.testing.assert_allclose(entry.exponent, entry.margin**2 / 2.0, rtol=1e-12)
            np.testing.assert_allclose(entry.risk, q_function(entry.margin), rtol=1e-12)

    def test_majority_beats_minority_with_spurious_signal(self):
        cfg = make_config(seed=1)
        sol = fitted(cfg)
        plus, minus = group_risk(sol)
        assert plus.risk < minus.risk


class TestAggregation:
    def test_average_uses_group_shares(self):
        cfg = make_config(n_plus=190, n_minus=10, d_core=500, d_spur=500,
                          mu_core=e1_mean(10.0, 500), mu_spur=e1_mean(5.0, 500))
        plus = GroupRiskEntry(margin=2.0, exponent=2.0, risk=0.02)
        minus = GroupRiskEntry(margin=1.0, exponent=0.5, risk=0.2)
        worst, average = worst_and_average(plus, minus, cfg)
        np.testing.assert_allclose(worst, 0.2)
        np.testing.assert_allclose(average, 0.95 * 0.02 + 0.05 * 0.2)


class TestMonteCarlo:
    def test_agrees_with_exact_risk(self):
        # pick a config whose risks are large enough to estimate
        cfg = make_config(
            mu_core=e1_mean(3.0, 200), mu_spur=e1_mean(1.0, 200), seed=5
        )
        sol = fitted(cfg)
        for entry, (est, se) in zip(group_risk(sol), monte_carlo_risk(sol, cfg, m=200_000)):
            assert abs(est - entry.risk) <= 4.0 * se + 1e-12

    def test_standard_error_scaling(self):
        cfg = make_config(mu_core=e1_mean(3.0, 200), mu_spur=e1_mean(1.0, 200))
        sol = fitted(cfg)
        (_, se_small), _ = monte_carlo_risk(sol, cfg, m=10_000)
        (_, se_big), _ = monte_carlo_risk(sol, cfg, m=1_000_000)
        np.testing.assert_allclose(se_small / se_big, 10.0, rtol=0.3)

    def test_deterministic_given_seed(self):
        # the draws follow the config's seed, the one the fit was sampled at
        cfg = make_config(mu_core=e1_mean(3.0, 200), mu_spur=e1_mean(1.0, 200))
        sol = fitted(cfg)
        a = monte_carlo_risk(sol, cfg, m=50_000)
        b = monte_carlo_risk(sol, cfg, m=50_000)
        assert a == b
        assert monte_carlo_risk(sol, cfg.with_updates(seed=9), m=50_000) != a

    @pytest.mark.parametrize("chunk", [4096, None], ids=["4096", "default"])
    def test_rates_do_not_depend_on_the_chunk(self, chunk, monkeypatch):
        # m = 2^20 + 3 is a multiple of neither chunk: the rates are the
        # bits of one unchunked draw of m normals per group
        if chunk is not None:
            monkeypatch.setattr(risk, "_MC_CHUNK", chunk)
        cfg = make_config(mu_core=e1_mean(3.0, 200), mu_spur=e1_mean(1.0, 200))
        sol = fitted(cfg)
        m = (1 << 20) + 3
        expected = []
        for substream, entry in enumerate(group_risk(sol)):
            g = philox_generator(substream_seed(cfg.seed, substream), STREAM_MC).standard_normal(m)
            rate = int(np.count_nonzero(entry.margin + g < 0.0)) / m
            expected.append((rate, float(np.sqrt(rate * (1.0 - rate) / m))))
        assert monte_carlo_risk(sol, cfg, m=m) == tuple(expected)

    def test_comparing_with_minus_margin_is_the_sign_of_the_sum(self):
        # z < -m counts the draws fl(z + m) < 0 does, pair by pair
        tiny = 5e-324
        sub = np.array([tiny, -tiny, 3 * tiny, -2.5e-310, 1e-310])
        grid = np.linspace(-40.0, 40.0, 161)
        margins = np.concatenate([[0.0, 1e-300, 1.0, 2.5, 40.0, 1e16, 1e77], -np.logspace(-300, 77, 12)])
        z, m = (np.concatenate(parts) for parts in zip(
            (grid, -grid),  # z = -m exactly
            (np.array([0.0, 0.0, -0.0, -0.0]), np.array([0.0, -0.0, 0.0, -0.0])),
            (sub, np.nextafter(-sub, np.inf)),
            (sub, np.nextafter(-sub, -np.inf)),
            (np.repeat(grid, margins.size), np.tile(margins, grid.size)),
            (np.repeat(grid, margins.size), np.tile(-margins, grid.size)),
            (grid, np.nextafter(-grid, np.inf)),
            (grid, np.nextafter(-grid, -np.inf)),
        ))
        np.testing.assert_array_equal(z < -m, (z + m) < 0.0)
        assert 0 < np.count_nonzero(z < -m) < z.size

    @pytest.mark.parametrize("chunk", [4096, None], ids=["4096", "default"])
    def test_rates_match_the_add_and_mask_loop(self, chunk, monkeypatch):
        # the loop that added the margin into each chunk in place and
        # counted a boolean mask of the sums below zero
        if chunk is not None:
            monkeypatch.setattr(risk, "_MC_CHUNK", chunk)
        cfg = make_config(mu_core=e1_mean(3.0, 200), mu_spur=e1_mean(1.0, 200), seed=7)
        sol = fitted(cfg)
        m = 3 * risk._MC_CHUNK // 2 + 1
        g = np.empty(min(m, risk._MC_CHUNK))
        wrong = np.empty(g.size, dtype=bool)
        expected = []
        for substream, entry in enumerate(group_risk(sol)):
            rng = philox_generator(substream_seed(cfg.seed, substream), STREAM_MC)
            errors = 0
            for start in range(0, m, g.size):
                k = min(g.size, m - start)
                sums = rng.standard_normal(out=g[:k])
                sums += entry.margin
                errors += int(np.count_nonzero(np.less(sums, 0.0, out=wrong[:k])))
            rate = errors / m
            expected.append((rate, float(np.sqrt(rate * (1.0 - rate) / m))))
        assert monte_carlo_risk(sol, cfg, m=m) == tuple(expected)

    def test_rejects_bad_draw_count(self):
        cfg = make_config()
        sol = fitted(cfg)
        with pytest.raises(ValueError):
            monte_carlo_risk(sol, cfg, m=0)

    @pytest.mark.parametrize("m", [1.5, 100.0, True, np.bool_(True), "100"])
    def test_rejects_non_integer_draw_count(self, m):
        cfg = make_config()
        sol = fitted(cfg)
        with pytest.raises(ValueError, match="m must be an integer"):
            monte_carlo_risk(sol, cfg, m=m)

    def test_accepts_numpy_integer_draw_count(self):
        cfg = make_config(mu_core=e1_mean(3.0, 200), mu_spur=e1_mean(1.0, 200))
        sol = fitted(cfg)
        assert monte_carlo_risk(sol, cfg, m=np.int64(5_000)) == monte_carlo_risk(sol, cfg, m=5_000)


class TestRiskReport:
    def test_build_report_consistency(self):
        cfg = make_config(seed=2)
        sol = fitted(cfg)
        report = build_report(sol, cfg)
        assert isinstance(report, RiskReport)
        np.testing.assert_allclose(report.worst_risk, max(report.risk_plus, report.risk_minus))
        expected_avg = 0.8 * report.risk_plus + 0.2 * report.risk_minus
        np.testing.assert_allclose(report.avg_risk, expected_avg, rtol=1e-12)

    def test_report_with_monte_carlo(self):
        cfg = make_config(mu_core=e1_mean(3.0, 200), mu_spur=e1_mean(1.0, 200))
        sol = fitted(cfg)
        report = build_report(sol, cfg, mc_draws=20_000)
        (rate_plus, se_plus), (rate_minus, se_minus) = monte_carlo_risk(sol, cfg, m=20_000)
        assert (report.mc_risk_plus, report.mc_stderr_plus) == (rate_plus, se_plus)
        assert (report.mc_risk_minus, report.mc_stderr_minus) == (rate_minus, se_minus)
        assert build_report(sol, cfg).mc_risk_plus is None

    def test_to_dict_flattens_groups(self):
        cfg = make_config()
        sol = fitted(cfg)
        doc = dataclasses.asdict(build_report(sol, cfg))
        for key in ("risk_plus", "risk_minus", "margin_plus", "exponent_minus", "worst_risk"):
            assert key in doc
