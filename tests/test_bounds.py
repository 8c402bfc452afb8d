"""Tests for the matching bound exponents and their reductions."""

import dataclasses

import numpy as np
import pytest

from grouprisk.bounds import (
    adjusted_quantities,
    bound_exponent,
    consistency_check,
    evaluate_bounds,
    tightness_ratio,
)
from grouprisk.estimators import fit_cmni
from grouprisk.model import ModelConfig, e1_mean, noise_stats, sample_dataset


def imbalanced_config(**overrides):
    """d = 1e5, n = 200 with a 190/10 split and matched-norm means.

    R_plus = 125 + 125 = 250, R_minus = 0, deltas proportional to the
    group shares.  Frozen reference values below are exact fractions:
    n_plus/dp^2 = 200^2/190, n_minus/dm^2 = 200^2/10.
    """
    base = dict(
        d_core=50_000,
        d_spur=50_000,
        mu_core=e1_mean(np.sqrt(125.0), 50_000),
        mu_spur=e1_mean(np.sqrt(125.0), 50_000),
        n_plus=190,
        n_minus=10,
        delta_plus=0.95,
        delta_minus=0.05,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestAdjustedQuantities:
    def test_frozen_reference_values(self):
        n_delta, alpha_plus, alpha_minus = adjusted_quantities(imbalanced_config())
        np.testing.assert_allclose(n_delta, 800_000.0 / 190.0, rtol=1e-12)
        np.testing.assert_allclose(n_delta, 4210.5263158, rtol=1e-9)
        np.testing.assert_allclose(alpha_plus, 0.05, rtol=1e-12)
        np.testing.assert_allclose(alpha_minus, 0.95, rtol=1e-12)

    def test_shares_sum_to_one(self):
        for dm in (0.05, 0.2, 0.95):
            cfg = imbalanced_config(delta_minus=dm)
            _, ap, am = adjusted_quantities(cfg)
            np.testing.assert_allclose(ap + am, 1.0, rtol=1e-14)

    def test_identity_weights_collapse_to_shares(self):
        cfg = imbalanced_config(delta_plus=1.0, delta_minus=1.0)
        _, ap, am = adjusted_quantities(cfg)
        np.testing.assert_allclose(ap, 0.95)
        np.testing.assert_allclose(am, 0.05)

    def test_share_weights_swap_the_shares(self):
        # delta_pm = n_pm/n makes alpha_b the other group's share
        cfg = imbalanced_config(delta_plus=0.95, delta_minus=0.05)
        _, ap, am = adjusted_quantities(cfg)
        np.testing.assert_allclose(ap, 10.0 / 200.0, rtol=1e-12)
        np.testing.assert_allclose(am, 190.0 / 200.0, rtol=1e-12)

    def test_alpha_decreases_in_own_delta(self):
        lo = adjusted_quantities(imbalanced_config(delta_minus=0.05))[2]
        hi = adjusted_quantities(imbalanced_config(delta_minus=0.10))[2]
        assert hi < lo


class TestBoundExponent:
    def test_frozen_reference_exponent(self):
        cfg = imbalanced_config()
        np.testing.assert_allclose(bound_exponent(cfg), (5.9375, 5.9375), rtol=1e-12)

    def test_pure_core_reduction(self):
        # R_minus = 0 collapses E_b to alpha_b R_plus^2 n_b / d
        cfg = imbalanced_config()
        _, ap, am = adjusted_quantities(cfg)
        np.testing.assert_allclose(
            bound_exponent(cfg),
            (ap * 250.0**2 * 190 / 100_000, am * 250.0**2 * 10 / 100_000),
            rtol=1e-12,
        )

    def test_identity_delta_reduction(self):
        cfg = imbalanced_config(delta_plus=1.0, delta_minus=1.0)
        np.testing.assert_allclose(
            bound_exponent(cfg)[0], (190 / 200) * 250.0**2 * 190 / 100_000, rtol=1e-12
        )

    def test_zero_signal_gives_zero(self):
        cfg = imbalanced_config(
            mu_core=np.zeros(50_000), mu_spur=np.zeros(50_000)
        )
        assert bound_exponent(cfg) == (0.0, 0.0)


class TestEvaluateBounds:
    def test_to_dict_has_both_groups(self):
        doc = dataclasses.asdict(evaluate_bounds(imbalanced_config()))
        for key in ("exponent_plus", "exponent_minus", "n_delta"):
            assert key in doc


class TestConsistency:
    def test_share_delta_regime_threshold(self):
        # with delta_pm = n_pm/n, alpha_b n_b = n_plus n_minus / n for both
        # groups, so the two conditions coincide and match R_plus^2 >= c d/n_minus
        # up to the n/n_plus factor
        cfg = imbalanced_config()
        exact = 250.0**2 * (190.0 * 10.0 / 200.0) / 100_000.0
        for res in consistency_check(cfg, c_const=1.0):
            assert res.applicable
            np.testing.assert_allclose(res.slack, exact, rtol=1e-12)
            np.testing.assert_allclose(
                res.slack, 250.0**2 * 10.0 / 100_000.0, rtol=200.0 / 190.0 - 1.0 + 1e-9
            )
            assert res.holds == (res.slack >= 1.0)

    def test_identity_delta_regime_threshold(self):
        # delta = 1: minority condition reads R_plus^2 >= c d n / n_minus^2
        cfg = imbalanced_config(delta_plus=1.0, delta_minus=1.0)
        _, res = consistency_check(cfg, c_const=1.0)
        np.testing.assert_allclose(
            res.slack, 250.0**2 * (10.0 / 200.0) * 10.0 / 100_000.0, rtol=1e-12
        )

    def test_not_applicable_with_spurious_asymmetry(self):
        cfg = imbalanced_config(mu_spur=e1_mean(5.0, 50_000))  # R_minus = 100 != 0
        for res in consistency_check(cfg, c_const=1.0):
            assert not res.applicable
            assert res.holds is None
            assert res.slack is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, True])
    def test_rejects_bad_threshold_constant(self, bad):
        # equal mean norms: the condition applies, so a NaN would reach the slack
        assert consistency_check(imbalanced_config())[0].applicable
        with pytest.raises(ValueError, match="finite and positive"):
            consistency_check(imbalanced_config(), c_const=bad)

    def test_threshold_constant_monotone(self):
        cfg = imbalanced_config()
        weak, _ = consistency_check(cfg, c_const=1.0)
        strong, _ = consistency_check(cfg, c_const=10.0)
        assert weak.holds and not strong.holds


class TestTightness:
    def small_fit(self, cfg):
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        return fit_cmni(stats, cfg.deltas)

    def small_config(self, **overrides):
        base = dict(
            d_core=400,
            d_spur=400,
            mu_core=e1_mean(10.0, 400),
            mu_spur=e1_mean(5.0, 400),
            n_plus=32,
            n_minus=8,
            delta_plus=0.8,
            delta_minus=0.2,
            seed=17,
        )
        base.update(overrides)
        return ModelConfig(**base)

    def test_ratio_positive_and_finite(self):
        cfg = self.small_config()
        sol = self.small_fit(cfg)
        for ratio in tightness_ratio(sol, cfg):
            assert 0.0 < ratio < np.inf

    def test_invariant_under_delta_doubling(self):
        # Delta -> gamma Delta leaves c, and hence the ratio, scaled exactly;
        # gamma = 1/2 is a power of two so the dual solve is bitwise identical
        cfg = self.small_config(delta_plus=0.8, delta_minus=0.4)
        half = self.small_config(delta_plus=0.4, delta_minus=0.2)
        r_full = tightness_ratio(self.small_fit(cfg), cfg)
        r_half = tightness_ratio(self.small_fit(half), half)
        np.testing.assert_allclose(r_half, r_full, rtol=1e-12)

    def test_invariant_under_delta_scaling_by_three(self):
        cfg = self.small_config(delta_plus=0.9, delta_minus=0.3)
        third = self.small_config(delta_plus=0.3, delta_minus=0.1)
        r_full = tightness_ratio(self.small_fit(cfg), cfg)
        r_third = tightness_ratio(self.small_fit(third), third)
        np.testing.assert_allclose(r_third, r_full, rtol=1e-12)

    def test_zero_exponent_reads_none(self):
        cfg = self.small_config(
            mu_core=np.zeros(400), mu_spur=np.zeros(400)
        )
        sol = self.small_fit(cfg)
        assert bound_exponent(cfg) == (0.0, 0.0)
        assert tightness_ratio(sol, cfg) == (None, None)
