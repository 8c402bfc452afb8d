"""Tests for the staged Gram structure, recursive inversion, and primitives.

The dense oracle here recomputes every quadratic form from explicitly
inverted stage matrices with plain numpy, independently of the library's
solve and update paths.
"""

import numpy as np
import pytest

from grouprisk import model, primitives
from grouprisk.estimators import fit_cmni, fit_ridge
from grouprisk.model import (
    STREAM_WISHART,
    GramStats,
    ModelConfig,
    bartlett_factor,
    check_assumptions,
    e1_mean,
    noise_stats,
    philox_generator,
    sample_dataset,
    substream_seed,
)
from grouprisk.primitives import (
    check_aux_inequalities,
    compute_primitives,
    det_and_adj,
    fit_moments,
    risk_identity_check,
    verify_primitive_bounds,
    wishart_coverage,
    wishart_interval,
)

from conftest import dense_means


def make_config(**overrides):
    base = dict(
        d_core=200,
        d_spur=200,
        mu_core=e1_mean(12.0, 200),
        mu_spur=e1_mean(6.0, 200),
        n_plus=16,
        n_minus=4,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def dense_oracle(ds, tau):
    """Every primitive from scratch via explicit dense inverses, at u = e_1."""
    cfg = ds.config
    n = cfg.n
    mu_bar_c, mu_bar_s = dense_means(cfg)
    x_stage = [ds.Q, ds.Q + np.outer(ds.a, mu_bar_s)]
    x_stage.append(x_stage[1] + np.outer(ds.y, mu_bar_c))
    grams = [x @ x.T for x in x_stage]
    invs = [np.linalg.inv(g + tau * np.eye(n)) for g in grams]
    u = e1_mean(1.0, n)
    dvec = np.where(ds.b > 0, cfg.delta_plus, cfg.delta_minus)
    v = [ds.a, ds.y]
    d = [ds.Q @ mu_bar_s, ds.Q @ mu_bar_c]
    w = [ds.a / dvec, ds.y / dvec]
    out = {
        "s": np.empty((2, 2, 3)),
        "t": np.empty((2, 2, 3)),
        "h": np.empty((2, 2, 3)),
        "s_uu": np.empty(3),
        "s_ui": np.empty((2, 3)),
        "h_iu": np.empty((2, 3)),
        "s_id_j": np.empty((2, 2, 3)),
        "s_id_jd": np.empty((2, 2, 3)),
        "h_i_jd": np.empty((2, 2, 3)),
        "o": np.empty((2, 3)),
    }
    for k, m_inv in enumerate(invs):
        out["s_uu"][k] = u @ m_inv @ u
        for i in range(2):
            out["s_ui"][i, k] = u @ m_inv @ v[i]
            out["h_iu"][i, k] = d[i] @ m_inv @ u
            c = m_inv @ w[i]
            out["o"][i, k] = c @ grams[k] @ c
            for j in range(2):
                out["s"][i, j, k] = v[i] @ m_inv @ v[j]
                out["t"][i, j, k] = d[i] @ m_inv @ d[j]
                out["h"][i, j, k] = d[i] @ m_inv @ v[j]
                out["s_id_j"][i, j, k] = w[i] @ m_inv @ v[j]
                out["s_id_jd"][i, j, k] = w[i] @ m_inv @ w[j]
                out["h_i_jd"][i, j, k] = d[i] @ m_inv @ w[j]
    return out, invs


def explicit_update_matrix(stats, k, prev_inv):
    norm = stats.mu_norms[k - 1]
    left, right = stats.update_factors(k)
    a_mat = np.eye(3) + right @ prev_inv @ left
    assert np.allclose(left[:, 0], norm * left[:, 2])
    return a_mat


class TestDecomposition:
    """The stagewise decomposition G = Q Q' + L_1 R_1 + L_2 R_2 of a GramStats."""

    def test_factor_shapes_and_content(self):
        ds = sample_dataset(make_config())
        stats = noise_stats(ds)
        L_1, R_1 = stats.update_factors(1)
        _, R_2 = stats.update_factors(2)
        assert L_1.shape == (20, 3)
        assert R_2.shape == (3, 20)
        m1, m2 = stats.mu_norms
        np.testing.assert_allclose(m1, 6.0)
        np.testing.assert_allclose(m2, 12.0)
        np.testing.assert_array_equal(stats.a, ds.a)
        np.testing.assert_array_equal(stats.y, ds.y)
        np.testing.assert_allclose(L_1[:, 0], 6.0 * ds.a)
        np.testing.assert_array_equal(R_1[2], stats.d_1)

    def test_staged_gram_reconstruction(self):
        # gram_0 + L_1 R_1 + L_2 R_2 must rebuild X X' to high accuracy
        ds = sample_dataset(make_config(seed=9))
        stats = noise_stats(ds)
        g2 = stats.stage_gram(2)
        dense = ds.X @ ds.X.T
        rel = np.linalg.norm(g2 - dense) / np.linalg.norm(dense)
        assert rel <= 1e-10

    def test_stage_zero_is_noise_gram(self):
        ds = sample_dataset(make_config())
        stats = noise_stats(ds)
        np.testing.assert_allclose(stats.stage_gram(0), ds.Q @ ds.Q.T, rtol=1e-12)

    def test_config_route_matches_dense_noise(self):
        cfg = make_config(seed=5)
        ds = sample_dataset(cfg)
        stats = noise_stats(cfg)
        mu_bar_c, mu_bar_s = dense_means(cfg)
        np.testing.assert_allclose(stats.gram_0, ds.Q @ ds.Q.T, rtol=1e-12)
        np.testing.assert_allclose(stats.d_1, ds.Q @ mu_bar_s, rtol=1e-12)
        np.testing.assert_allclose(stats.d_2, ds.Q @ mu_bar_c, rtol=1e-12)
        np.testing.assert_array_equal(stats.a, ds.a)
        np.testing.assert_array_equal(stats.y, ds.y)
        assert stats.mu_norms == pytest.approx((6.0, 12.0), rel=1e-15)

    def test_rejects_negative_tau(self):
        stats = noise_stats(sample_dataset(make_config()))
        with pytest.raises(ValueError):
            compute_primitives(stats, tau=-1.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_rejects_non_finite_tau(self, tau):
        stats = noise_stats(sample_dataset(make_config()))
        for mode in ("direct", "recursive"):
            with pytest.raises(ValueError, match="tau"):
                compute_primitives(stats, tau=tau, mode=mode)

    @pytest.mark.parametrize("tau", [True, np.bool_(False)], ids=["True", "np_False"])
    def test_rejects_bool_tau(self, tau):
        stats = noise_stats(sample_dataset(make_config()))
        for mode in ("direct", "recursive"):
            with pytest.raises(ValueError, match="tau"):
                compute_primitives(stats, tau=tau, mode=mode)
        assert not stats._memo

    @pytest.mark.parametrize(
        "call",
        [
            lambda stats: stats.update_factors(3),
            lambda stats: stats.stage_gram(3),
            lambda stats: det_and_adj(compute_primitives(stats), 3),
        ],
        ids=["update_factors", "stage_gram", "det_and_adj"],
    )
    def test_rejects_a_stage_out_of_range(self, call):
        with pytest.raises(ValueError, match="stage k must be"):
            call(noise_stats(make_config()))


class TestInverseMemo:
    def test_arrays_read_only(self):
        stats = noise_stats(sample_dataset(make_config(seed=2)))
        for name in ("y", "a", "d_1", "d_2", "gram_0", "gram"):
            with pytest.raises(ValueError):
                getattr(stats, name)[0] = 0.0

    def test_direct_mode_never_touches_memo(self):
        stats = noise_stats(sample_dataset(make_config(seed=2)))
        compute_primitives(stats, tau=1.0, mode="direct")
        assert not stats._memo
        compute_primitives(stats, tau=1.0, mode="recursive")
        assert list(stats._memo) == [(primitives._order0_solve, 1.0)]


class TestDenseReference:
    """The dense reference solves for the columns it reads; it forms no inverse."""

    @pytest.mark.parametrize("tau", [0.0, 7.0])
    def test_verify_primitives_solves_at_most_seven_columns(self, tau, monkeypatch):
        widths = []
        real = primitives._spd_solve

        def spy(factor, rhs):
            widths.append(rhs.shape[1] if rhs.ndim == 2 else 1)
            return real(factor, rhs)

        def no_inverse(*args, **kwargs):
            raise AssertionError("an explicit inverse was formed")

        monkeypatch.setattr(primitives, "_spd_solve", spy)
        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        cfg = make_config(seed=4, delta_plus=0.9, delta_minus=0.3)
        doc = primitives.verify_primitives(noise_stats(sample_dataset(cfg)), cfg, tau=tau)
        assert doc["passed"]
        # three direct stages and the order-0 solve (7 probes), two capacitances (L_k)
        assert sorted(widths) == [3, 3, 7, 7, 7, 7]


class TestOrder0Solve:
    """Recursive mode is 7x7 algebra on one memoized order-0 solve per tau."""

    def forbid_factor_and_solve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("n-sized solve on a warm memo")

        monkeypatch.setattr(primitives, "_spd_factor", fail)
        monkeypatch.setattr(primitives, "_spd_solve", fail)

    def test_warm_call_makes_no_factor_or_solve(self, monkeypatch):
        ds = sample_dataset(make_config(seed=2))
        stats = noise_stats(ds)
        compute_primitives(stats, tau=3.0, delta=(1.0, 1.0), mode="recursive")
        self.forbid_factor_and_solve(monkeypatch)
        prims = compute_primitives(stats, tau=3.0, delta=(0.9, 0.2), mode="recursive")
        ref, _ = dense_oracle(sample_dataset(make_config(seed=2, delta_plus=0.9, delta_minus=0.2)), 3.0)
        for name in ("s_id_j", "s_id_jd", "h_i_jd", "o"):
            np.testing.assert_allclose(getattr(prims, name), ref[name], rtol=1e-9, atol=1e-13)

    def test_memo_arrays_are_read_only(self):
        stats = noise_stats(sample_dataset(make_config(seed=2)))
        compute_primitives(stats, tau=1.0, mode="recursive")
        # the memo keeps the two 7x7 tables of the order-0 solve, not its factor
        (tables,) = stats._memo.values()
        assert [arr.shape for arr in tables] == [(7, 7), (7, 7)]
        for arr in tables:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("tau", [0.0, 5.0, 400.0])
    @pytest.mark.parametrize("deltas", [(1.0, 1.0), (0.95, 0.05), (0.3, 0.7)])
    def test_fit_moments_match_the_fitters(self, tau, deltas):
        ds = sample_dataset(make_config(seed=10))
        stats = noise_stats(ds)
        if tau == 0.0:
            sol = fit_cmni(stats, deltas)
        else:
            sol = fit_ridge(stats, deltas, tau)
        moments = fit_moments(compute_primitives(stats, tau=tau, delta=deltas, mode="recursive"))
        np.testing.assert_allclose(moments.w_norm_sq, sol.w_norm_sq, rtol=1e-10)
        np.testing.assert_allclose(moments.w_dot_mu, sol.w_dot_mu, rtol=1e-10)


def stack_of(stats, tau, deltas):
    """The recursion over a stack of weight pairs, as a sweep runs it."""
    table, squared = stats.per_tau(primitives._order0_solve, tau)
    return primitives._recursive_primitives(table, squared, stats.mu_norms, tau, np.asarray(deltas))


class TestRecursionStack:
    """Row i of a stacked recursion is the one-pair call at delta[i], bit for bit."""

    @staticmethod
    def weight_stacks(n):
        rng = np.random.default_rng(4)
        random = np.column_stack([rng.uniform(0.05, 1.0, 9), rng.uniform(1.0 / n, 1.0, 9)])
        return {
            "random": random,
            "delta_minus_one_over_n": [(1.0, 1.0 / n), (0.95, 1.0 / n), (1.0, 0.5)],
            "repeated": [(0.9, 0.2), (1.0, 1.0), (0.9, 0.2), (0.9, 0.2)],
            "one": [(0.95, 0.05)],
        }

    @pytest.mark.parametrize("case", ["random", "delta_minus_one_over_n", "repeated", "one"])
    @pytest.mark.parametrize("tau", [0.0, 40.0, 400.0])
    def test_rows_equal_one_pair_calls_bitwise(self, case, tau):
        cfg = make_config(seed=12)
        stats = noise_stats(cfg)
        deltas = self.weight_stacks(cfg.n)[case]
        stack = stack_of(stats, tau, deltas)
        assert stack.tables.shape == (len(deltas), 7, 7, 3)
        assert stack.o.shape == (len(deltas), 2, 3) and stack.det_a.shape == (len(deltas), 2)
        for i, delta in enumerate(deltas):
            one = compute_primitives(stats, tau=tau, delta=tuple(delta), mode="recursive")
            for name in ("tables", "o", "det_a", *primitives._LAYOUT):
                assert getattr(stack, name)[i].tobytes() == getattr(one, name).tobytes(), (name, i)
            w_norm_sq, w_dot_mu = primitives._fit_moments(stack)
            assert fit_moments(one) == (w_norm_sq[i], tuple(w_dot_mu[i]))

    @pytest.mark.parametrize("tau", [0.0, 40.0])
    def test_band_check_rows_equal_one_point_reports(self, tau):
        cfg = make_config(seed=12)
        stats = noise_stats(cfg)
        deltas = self.weight_stacks(cfg.n)["random"]
        sizes = (cfg.n_plus, cfg.n_minus, cfg.d)
        values, normalized, zero, passed = primitives._band_check(stack_of(stats, tau, deltas), sizes)
        for i, delta in enumerate(deltas):
            one = compute_primitives(stats, tau=tau, delta=tuple(delta), mode="recursive")
            rows = verify_primitive_bounds(one, cfg).rows
            assert [(r.value, r.normalized, r.passed) for r in rows] == list(
                zip(values[i].tolist(), normalized[i].tolist(), passed[i].tolist())
            )
            assert zero[i].tolist() == [r.band_low == r.band_high == 0.0 for r in rows]

    def test_det_and_adj_of_a_stack_round_as_scalars(self):
        # squaring 1 + h with array ** 2 differs from scalar ** 2 in the last
        # bit on ~0.1% of inputs; the stack must give each scalar's bits
        rng = np.random.default_rng(5)
        s, t, h = (rng.standard_normal(4000) * 10.0 ** rng.integers(-3, 4, 4000) for _ in range(3))
        m = 1.7
        det, adj = primitives._det_a(m * m, s, t, h), primitives._adj_a(m, s, t, h)
        for i in range(len(s)):
            one = (np.float64(s[i]), np.float64(t[i]), np.float64(h[i]))
            assert det[i].tobytes() == np.float64(primitives._det_a(m * m, *one)).tobytes()
            assert adj[i].tobytes() == primitives._adj_a(m, *one).tobytes()

    def test_a_singular_stage_reads_as_the_one_pair_error(self, monkeypatch):
        # det(A_k) does not depend on the weights, so a tolerance between the
        # two dets fails the same stage at every pair, and each row's reason
        # is the error of its one-pair call
        cfg = make_config(seed=12)
        stats = noise_stats(cfg)
        deltas = self.weight_stacks(cfg.n)["repeated"]
        det_1, det_2 = compute_primitives(stats, mode="recursive").det_a
        monkeypatch.setattr(primitives, "DET_SINGULAR_TOL", max(det_1, det_2))
        stack = stack_of(stats, 0.0, deltas)
        failing = 2 if det_2 < det_1 else 1
        for i, delta in enumerate(deltas):
            reason = primitives._singular(stack.det_a[i])
            assert reason is not None and reason.startswith(f"rank-3 update singular: det(A_{failing})")
            with pytest.raises(np.linalg.LinAlgError) as caught:
                compute_primitives(stats, delta=tuple(delta), mode="recursive")
            assert str(caught.value) == reason


class TestAdjugateSolve:
    def test_det_and_adj_match_explicit_matrix(self):
        ds = sample_dataset(make_config(seed=6))
        stats = noise_stats(ds)
        for tau in (0.0, 5.0):
            prims = compute_primitives(stats, tau=tau, mode="direct")
            _, dense = dense_oracle(ds, tau)
            for k in (1, 2):
                a_mat = explicit_update_matrix(stats, k, dense[k - 1])
                det, adj = det_and_adj(prims, k)
                np.testing.assert_allclose(det, np.linalg.det(a_mat), rtol=1e-9)
                np.testing.assert_allclose(adj, det * np.linalg.inv(a_mat), rtol=1e-8)
                residual = a_mat @ adj - det * np.eye(3)
                assert np.abs(residual).max() <= 1e-10 * max(1.0, abs(det))

    def test_singular_update_raises(self):
        # M_0 = I, s = a'a = 1, h = d_1'a = 0 and t = |d_1|^2 = m_1^2 + 1 put
        # det(A_1) = s (m_1^2 - t) + (1 + h)^2 at zero: G_1 is singular
        singular = GramStats(
            y=np.array([1.0, -1.0]),
            a=np.array([1.0, 0.0]),
            gram_0=np.eye(2),
            q_core=np.zeros(2),
            q_spur=np.array([0.0, np.sqrt(2.0)]),  # d_1 = m_1 q_spur
            mu_norms=(1.0, 0.0),
        )
        with pytest.raises(np.linalg.LinAlgError, match=r"det\(A_1\)"):
            compute_primitives(singular, mode="recursive")

    def test_stage_map_rows_match_adjugate_product(self):
        # the K rows of E_k are the v and d rows of J_k adj(A_k) [m pa; pa; pb]' / det,
        # J_k = [m e_v, e_d, e_v], so the closed-form adjugate stays tied to the recursion
        stats = noise_stats(sample_dataset(make_config(seed=8)))
        for tau in (0.0, 2.0):
            prims = compute_primitives(stats, tau=tau, mode="direct")
            for k in (1, 2):
                p = prims.tables[..., k - 1]
                det, adj = det_and_adj(prims, k)
                m = prims.mu_norms[k - 1]
                v, d = (0, 2) if k == 1 else (1, 3)
                gain = adj @ np.stack([m * p[v], p[v], p[d]]) / det
                expected = np.eye(7)
                expected[[v, d]] -= np.stack([m * gain[0] + gain[2], gain[1]])
                det_map, stage = primitives._stage_map(p, prims.mu_norms, k)
                assert det_map == det
                assert np.abs(stage - expected).max() <= 1e-12 * np.abs(expected[[v, d]]).max(), (tau, k)


class TestPrimitiveValues:
    @pytest.mark.parametrize("tau", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("mode", ["direct", "recursive"])
    def test_against_dense_oracle(self, tau, mode):
        cfg = make_config(seed=1, delta_plus=0.9, delta_minus=0.25)
        ds = sample_dataset(cfg)
        prims = compute_primitives(noise_stats(ds), tau=tau, delta=cfg.deltas, mode=mode)
        ref, _ = dense_oracle(ds, tau)
        for name, expected in ref.items():
            np.testing.assert_allclose(
                getattr(prims, name), expected, rtol=1e-8, atol=1e-12, err_msg=name
            )

    def test_modes_agree_tightly(self):
        for seed in range(5):
            stats = noise_stats(sample_dataset(make_config(seed=seed)))
            direct = compute_primitives(stats, mode="direct")
            recursive = compute_primitives(stats, mode="recursive")
            for name in ("s", "t", "h", "s_uu", "s_ui", "h_iu", "s_id_j", "s_id_jd", "h_i_jd", "o", "det_a"):
                np.testing.assert_allclose(
                    getattr(recursive, name),
                    getattr(direct, name),
                    rtol=1e-10,
                    atol=1e-14,
                    err_msg=f"{name} seed {seed}",
                )

    def test_symmetry_and_sign_invariants(self):
        ds = sample_dataset(make_config(seed=7, delta_plus=0.8, delta_minus=0.2))
        prims = compute_primitives(noise_stats(ds), delta=ds.config.deltas, mode="direct")
        for k in range(3):
            np.testing.assert_allclose(prims.s[0, 1, k], prims.s[1, 0, k], rtol=1e-10)
            np.testing.assert_allclose(prims.t[0, 1, k], prims.t[1, 0, k], rtol=1e-10)
            np.testing.assert_allclose(
                prims.s_id_jd[0, 1, k], prims.s_id_jd[1, 0, k], rtol=1e-10
            )
            for i in range(2):
                assert prims.s[i, i, k] > 0.0
                assert prims.s_id_jd[i, i, k] > 0.0
                assert prims.o[i, k] >= 0.0

    def test_zero_spurious_mean_zeroes_its_primitives(self):
        cfg = make_config(mu_spur=np.zeros(200))
        stats = noise_stats(sample_dataset(cfg))
        for mode in ("direct", "recursive"):
            prims = compute_primitives(stats, mode=mode)
            assert np.all(prims.t[0, :, :] == 0.0)
            assert np.all(prims.t[:, 0, :] == 0.0)
            assert np.all(prims.h[0, :, :] == 0.0)
            assert np.all(prims.h_iu[0, :] == 0.0)
            assert np.all(prims.h_i_jd[0, :, :] == 0.0)

    def test_rejects_unknown_mode(self):
        ds = sample_dataset(make_config())
        with pytest.raises(ValueError):
            compute_primitives(noise_stats(ds), mode="magic")

    @pytest.mark.parametrize("mode", ["direct", "recursive"])
    def test_named_primitives_are_read_only_table_views(self, mode):
        prims = compute_primitives(noise_stats(sample_dataset(make_config(seed=4))), mode=mode)
        assert prims.tables.shape == (7, 7, 3)
        assert not prims.tables.flags.writeable
        for name in [n for n in primitives.PRIMITIVE_NAMES if n not in ("o", "det_a")]:
            view = getattr(prims, name)
            assert np.shares_memory(view, prims.tables), name
            assert not view.flags.writeable, name
            with pytest.raises(ValueError):
                view.flat[0] = 0.0
        for arr in (prims.o, prims.det_a):
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0


class TestRiskIdentity:
    @pytest.mark.parametrize("tau", [0.0, 5.0])
    @pytest.mark.parametrize("deltas", [(1.0, 1.0), (0.95, 0.05)])
    def test_identity_both_groups(self, tau, deltas):
        cfg = make_config(seed=10, delta_plus=deltas[0], delta_minus=deltas[1])
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        sol = fit_ridge(stats, cfg.deltas, tau)
        prims = compute_primitives(stats, tau=tau, delta=cfg.deltas, mode="direct")
        assert max(risk_identity_check(prims, sol)) <= 1e-10

    def test_identity_in_recursive_mode(self):
        cfg = make_config(seed=12, delta_plus=0.9, delta_minus=0.3)
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        sol = fit_cmni(stats, cfg.deltas)
        prims = compute_primitives(stats, delta=cfg.deltas, mode="recursive")
        assert max(risk_identity_check(prims, sol)) <= 1e-8

    def test_degenerate_reduction(self):
        # mu_s = 0 and identity weights: both groups share one margin
        cfg = make_config(mu_spur=np.zeros(200), seed=4)
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        sol = fit_cmni(stats, cfg.deltas)
        prims = compute_primitives(stats, mode="direct")
        assert max(risk_identity_check(prims, sol)) <= 1e-10
        np.testing.assert_allclose(sol.w_dot_mu[0], sol.w_dot_mu[1], rtol=1e-9)


class TestNoiseMeanProjections:
    def test_d_k_norm_within_three_sigma_rate(self):
        # |Q mu_bar| concentrates at sqrt(n) |mu_bar|; 3x covers 100 seeds
        n, d = 50, 5000
        cfg = ModelConfig(
            d_core=2500,
            d_spur=2500,
            mu_core=e1_mean(10.0, 2500),
            mu_spur=e1_mean(5.0, 2500),
            n_plus=40,
            n_minus=10,
        )
        root_n = np.sqrt(n)
        for seed in range(100):
            ds = sample_dataset(cfg.with_updates(seed=seed))
            stats = noise_stats(ds)
            assert np.linalg.norm(stats.d_1) <= 3.0 * root_n * 5.0
            assert np.linalg.norm(stats.d_2) <= 3.0 * root_n * 10.0


class TestWishart:
    def test_interval_frozen_values(self):
        low, high = wishart_interval(1000, 10, 4.6)
        np.testing.assert_allclose(low, 855.9651896731809, rtol=1e-12)
        np.testing.assert_allclose(high, 1135.2348103268191, rtol=1e-12)

    @pytest.mark.parametrize(
        "d, n, t",
        [(1000, 10, 4.6), (1000, 10, 3.0), (1000, 10, 1.0), (300, 8, 2.0),
         (120, 20, 10.0), (5000, 50, 6.9)],
    )
    def test_interval_tails_within_promise(self, d, n, t):
        # 1/(u'A^{-1}u) ~ chi2(d - n + 1): both exact tails must be <= e^{-t}
        from scipy.stats import chi2

        low, high = wishart_interval(d, n, t)
        dof = d - n + 1
        assert chi2.cdf(low, dof) <= np.exp(-t)
        assert chi2.sf(high, dof) <= np.exp(-t)

    def test_interval_degenerate_t(self):
        low, high = wishart_interval(1000, 10, 0.0)
        assert low == high == 991.0

    def test_interval_precondition(self):
        with pytest.raises(ValueError):
            wishart_interval(20, 15, 4.6)  # d' = 6 < 2 * 4.6

    def test_coverage_report_fields_and_determinism(self):
        a = wishart_coverage(d=300, n=8, t=2.0, draws=100, seed=5)
        b = wishart_coverage(d=300, n=8, t=2.0, draws=100, seed=5)
        assert a == b
        assert a["inside"] <= 100
        assert 0.0 <= a["fraction"] <= 1.0
        assert a["threshold"] < a["coverage_target"]

    def test_coverage_passes_at_reference_point(self):
        rep = wishart_coverage(d=1000, n=10, t=4.6, draws=200, seed=0)
        assert rep["fraction"] >= rep["threshold"]

    @pytest.mark.parametrize(
        "d, n, t, match",
        [(1000, 0, 4.6, "at least 1"), (1000, -3, 4.6, "at least 1"),
         (1000, 2.5, 4.6, "integer"), (1000, True, 4.6, "integer"),
         (1000.0, 10, 4.6, "integer"), (1000, 10, np.nan, "finite"),
         (1000, 10, np.inf, "finite"), (1000, 10, -1.0, "nonnegative")],
    )
    def test_rejects_bad_input_at_the_boundary(self, d, n, t, match):
        with pytest.raises(ValueError, match=match):
            wishart_interval(d, n, t)
        with pytest.raises(ValueError, match=match):
            wishart_coverage(d=d, n=n, t=t, draws=10)

    @pytest.mark.parametrize("draws", [True, 2.5, np.bool_(True), "10"])
    def test_coverage_rejects_non_integer_draws(self, draws):
        with pytest.raises(ValueError, match="draws must be an integer"):
            wishart_coverage(d=300, n=8, t=2.0, draws=draws)

    def test_coverage_reports_numpy_draws_as_int(self):
        rep = wishart_coverage(d=300, n=8, t=2.0, draws=np.int64(5))
        assert type(rep["draws"]) is int
        assert rep == wishart_coverage(d=300, n=8, t=2.0, draws=5)

    @staticmethod
    def dense_draw(d, n, u, seed, trial):
        """The dense reference: A = Q Q' for an n x d standard normal Q."""
        q = philox_generator(substream_seed(seed, trial), STREAM_WISHART).standard_normal((n, d))
        return 1.0 / float(u @ np.linalg.solve(q @ q.T, u))

    @staticmethod
    def draws(d, n, u, seed, draws):
        """Every value of `_wishart_draws` as one array."""
        return np.concatenate(list(primitives._wishart_draws(d, n, u, seed, draws)))

    @pytest.mark.parametrize("route", ["bartlett", "dense"])
    @pytest.mark.parametrize("probe", ["e1", "dense"])
    def test_inverse_quadratic_form_is_chi2(self, route, probe):
        # 1/(u'A^{-1}u) ~ chi2(d - n + 1) for A ~ Wishart_n(d, I) (Muirhead 1982,
        # Thm 3.2.12), on the coverage draws and on the dense Q Q' reference;
        # at n = 30 the 500 coverage draws span seven chunks
        from scipy.stats import chi2, kstest

        for d, n in ((30, 5), (80, 30)):
            u = e1_mean(1.0, n) if probe == "e1" else np.full(n, 1.0 / np.sqrt(n))
            if route == "bartlett":
                values = self.draws(d, n, u, 3, 500)
            else:
                values = [self.dense_draw(d, n, u, 3, trial) for trial in range(500)]
            assert kstest(values, chi2(d - n + 1).cdf).pvalue > 0.01, (d, n)

    @pytest.mark.parametrize("probe", ["e1", "dense"])
    def test_batched_solve_equals_per_draw_triangular_solve(self, probe):
        from scipy.linalg import solve_triangular

        d, n, draws = 40, 12, 1000  # three chunks of at most 455
        u = e1_mean(1.0, n) if probe == "e1" else np.full(n, 1.0 / np.sqrt(n))
        factors = np.concatenate(list(bartlett_factor(n, d, 4, draws)))
        ref = [1.0 / float(np.sum(solve_triangular(f, u, lower=True) ** 2)) for f in factors]
        np.testing.assert_allclose(self.draws(d, n, u, 4, draws), ref, rtol=1e-12, atol=0)

    def test_draw_i_does_not_depend_on_draws(self):
        d, n, t, u = 40, 6, 1.0, e1_mean(1.0, 6)
        low, high = wishart_interval(d, n, t)
        values = self.draws(d, n, u, 4, 6)
        assert self.draws(d, n, u, 4, 3).tobytes() == values[:3].tobytes()
        counts = [wishart_coverage(d=d, n=n, t=t, draws=k, seed=4)["inside"] for k in range(1, 7)]
        assert np.diff([0] + counts).tolist() == [int(low <= v <= high) for v in values]

    @pytest.mark.parametrize("k, m", [(1, 1), (1819, 1), (1820, 1000)])
    def test_draws_k_are_a_prefix_of_draws_k_plus_m(self, k, m):
        # n = 6 gives 1820 draws a chunk: the prefix ends inside a chunk or at its end
        d, n, seed, u = 50, 6, 2**64 - 3, np.full(6, 1.0 / np.sqrt(6.0))
        longer = self.draws(d, n, u, seed, k + m)
        assert self.draws(d, n, u, seed, k).tobytes() == longer[:k].tobytes()

    def test_chunk_size_does_not_change_the_bits(self, monkeypatch):
        d, n, seed, u = 50, 7, 11, np.full(7, 1.0 / np.sqrt(7.0))
        values = self.draws(d, n, u, seed, 300)
        report = wishart_coverage(d=d, n=n, t=1.0, draws=300, seed=seed)
        for chunk_values in (1, 49, 3 * 49 + 1, 7 * 49):  # 1, 1, 3 and 7 draws a chunk
            monkeypatch.setattr(model, "_BARTLETT_CHUNK_VALUES", chunk_values)
            assert self.draws(d, n, u, seed, 300).tobytes() == values.tobytes()
            assert wishart_coverage(d=d, n=n, t=1.0, draws=300, seed=seed) == report

    @pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 5, 1.5, True, np.bool_(False), "1"])
    def test_coverage_refuses_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            wishart_coverage(d=300, n=8, t=2.0, draws=10, seed=seed)

    def test_coverage_reports_numpy_seed_as_int(self):
        rep = wishart_coverage(d=300, n=8, t=2.0, draws=10, seed=np.uint64(2**64 - 1))
        assert type(rep["seed"]) is int and rep["seed"] == 2**64 - 1
        assert rep == wishart_coverage(d=300, n=8, t=2.0, draws=10, seed=2**64 - 1)


def reference_band_rows(prims, config, band, cross_band):
    """Row-by-row reference for `verify_primitive_bounds`, in report order."""
    delta_plus, delta_minus = prims.delta
    n, d = config.n, config.d
    dt = d + prims.tau
    m = prims.mu_norms
    n_delta = config.n_plus / delta_plus**2 + config.n_minus / delta_minus**2
    n_mixed = config.n_plus / delta_plus + config.n_minus / delta_minus
    rows = []

    def add(name, k, value, rate, two_sided):
        lo, hi = band if two_sided else cross_band
        if rate == 0.0:
            rows.append((name, k, float(value), 0.0, 0.0, 0.0, bool(value == 0.0)))
        else:
            normalized = float(value / rate)
            rows.append((name, k, float(value), normalized, lo, hi, bool(lo <= normalized <= hi)))

    for k in range(3):
        for i in range(2):
            for j in range(2):
                diag, tag = i == j, f"{i + 1}{j + 1}"
                add(f"s_{tag}", k, prims.s[i, j, k], n / dt, diag)
                add(f"t_{tag}", k, prims.t[i, j, k], n * m[i] * m[j] / dt, diag)
                add(f"h_{tag}", k, prims.h[i, j, k], n * m[i] / dt, False)
                add(f"s_{i + 1}d_{j + 1}", k, prims.s_id_j[i, j, k], n_mixed / dt, diag)
                add(f"s_{i + 1}d_{j + 1}d", k, prims.s_id_jd[i, j, k], n_delta / dt, diag)
                add(f"h_{i + 1}_{j + 1}d", k, prims.h_i_jd[i, j, k],
                    np.sqrt(n * n_delta) * m[i] / dt, False)
        add("s_uu", k, prims.s_uu[k], 1.0 / dt, True)
        for i in range(2):
            add(f"s_u{i + 1}", k, prims.s_ui[i, k], np.sqrt(n) / dt, False)
            add(f"h_{i + 1}u", k, prims.h_iu[i, k], np.sqrt(n) * m[i] / dt, False)
            add(f"o_{i + 1}d", k, prims.o[i, k], n_delta * d / dt**2, True)
    for k in (1, 2):
        add(f"det_a_{k}", k, prims.det_a[k - 1], 1.0, True)
    return rows


class TestBands:
    @pytest.mark.parametrize("spur_sq", [18.0, 0.0])
    @pytest.mark.parametrize("band, cross_band", [((0.5, 2.0), (-2.0, 2.0)), ((0.9, 1), (-1, 1))])
    def test_rows_equal_the_row_by_row_reference(self, spur_sq, band, cross_band):
        cfg = make_config(mu_spur=e1_mean(np.sqrt(spur_sq), 200), delta_plus=0.9, delta_minus=0.3)
        stats = noise_stats(cfg)
        for tau in (0.0, 40.0):
            prims = compute_primitives(stats, tau=tau, delta=cfg.deltas, mode="recursive")
            report = verify_primitive_bounds(prims, cfg, band=band)
            ref = reference_band_rows(prims, cfg, band, cross_band)
            got = [tuple(row) for row in report.rows]
            assert got == ref
            # same values and the same Python types, so the JSON is the same
            assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in ref]
            assert report.all_pass == all(r[-1] for r in ref)

    def deep_config(self, seed=0):
        # comfortably inside the assumption regime: R_plus n / d ~ 0.1
        return ModelConfig(
            d_core=15_000,
            d_spur=15_000,
            mu_core=e1_mean(np.sqrt(72.0), 15_000),
            mu_spur=e1_mean(np.sqrt(18.0), 15_000),
            n_plus=24,
            n_minus=6,
            seed=seed,
        )

    def test_all_bands_pass_in_regime(self):
        cfg = self.deep_config(seed=0)
        prims = compute_primitives(noise_stats(sample_dataset(cfg)), mode="recursive")
        report = verify_primitive_bounds(prims, cfg)
        failing = [r.name for r in report.failures()]
        assert report.all_pass, failing

    def test_diagonals_near_one_in_regime(self):
        cfg = self.deep_config(seed=1)
        prims = compute_primitives(noise_stats(sample_dataset(cfg)), mode="recursive")
        report = verify_primitive_bounds(prims, cfg, band=(0.8, 1.2))
        diag = [r for r in report.rows if r.name.startswith(("s_11", "s_22"))]
        assert diag and all(r.passed for r in diag)

    def test_det_follows_signal_energy_out_of_regime(self):
        # R_plus n / d = 9 breaks inequality (c); det(A_2) then leaves the
        # order-1 band and tracks 1 + |mu_c|^2 n / (d + tau): 10 and 5.5
        core_sq, half = 9000.0, 15_000
        cfg = ModelConfig(
            d_core=half,
            d_spur=half,
            mu_core=e1_mean(np.sqrt(core_sq), half),
            mu_spur=np.zeros(half),
            n_plus=24,
            n_minus=6,
        )
        assert not check_assumptions(cfg).pass_c
        n, d = cfg.n, cfg.d
        for seed in range(20):
            cfg_s = cfg.with_updates(seed=seed)
            stats = noise_stats(cfg_s)
            for tau in (0.0, float(d)):
                det_2 = compute_primitives(stats, tau=tau, mode="recursive").det_a[1]
                np.testing.assert_allclose(det_2, 1.0 + core_sq * n / (d + tau), rtol=0.05)

    def test_zero_rate_rows_require_exact_zero(self):
        cfg = ModelConfig(
            d_core=15_000,
            d_spur=15_000,
            mu_core=e1_mean(np.sqrt(72.0), 15_000),
            mu_spur=np.zeros(15_000),
            n_plus=24,
            n_minus=6,
        )
        prims = compute_primitives(noise_stats(sample_dataset(cfg)), mode="direct")
        report = verify_primitive_bounds(prims, cfg)
        zero_rows = [r for r in report.rows if r.name.startswith(("t_1", "h_1"))]
        assert zero_rows and all(r.passed and r.value == 0.0 for r in zero_rows)

    def test_report_serializes(self):
        cfg = self.deep_config(seed=2)
        prims = compute_primitives(noise_stats(sample_dataset(cfg)), mode="recursive")
        doc = verify_primitive_bounds(prims, cfg).to_dict()
        assert isinstance(doc["rows"], list)
        assert {"name", "k", "value", "normalized", "band_low", "band_high", "pass"} <= set(
            doc["rows"][0]
        )


class TestAuxInequalities:
    def test_frozen_reference_point(self):
        # n = 10, identity weights: lhs ~ 0.3338, rhs = 5
        cfg = ModelConfig(
            d_core=100,
            d_spur=100,
            mu_core=e1_mean(4.0, 100),
            mu_spur=e1_mean(2.0, 100),
            n_plus=9,
            n_minus=1,
        )
        rep = check_aux_inequalities(cfg)
        np.testing.assert_allclose(rep.count_cap_lhs, 0.3338428290, rtol=1e-9)
        np.testing.assert_allclose(rep.count_cap_rhs, 5.0, rtol=1e-12)
        assert rep.count_cap_ok
        assert rep.all_ok

    def test_margin_floor_half_split_reference(self):
        # n_minus = n/2: reference constant is sqrt(1/2) |mu_c| / 2
        cfg = ModelConfig(
            d_core=200,
            d_spur=200,
            mu_core=e1_mean(8.0, 200),
            mu_spur=e1_mean(2.0, 200),
            n_plus=10,
            n_minus=10,
        )
        rep = check_aux_inequalities(cfg)
        np.testing.assert_allclose(rep.margin_floor_reference, np.sqrt(0.5) * 8.0 / 2.0, rtol=1e-12)
        assert rep.margin_floor_realized >= rep.margin_floor_reference

    def test_holds_across_delta_grid(self):
        cfg = make_config()
        grid = np.linspace(1.0 / cfg.n, 1.0, 8)
        for dp in grid:
            for dm in grid:
                if dm > dp:
                    continue
                rep = check_aux_inequalities(
                    cfg.with_updates(delta_plus=float(dp), delta_minus=float(dm))
                )
                assert rep.count_cap_ok and rep.margin_floor_ok
