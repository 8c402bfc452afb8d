"""Acceptance suite: every release criterion, one test each.

Each test prints one `[PASS]`/`[FAIL]` line (visible under `pytest -s`)
and asserts the criterion at its stated tolerance and runtime budget.
Shared heavy computations are cached at module scope so the band and
determinant criteria reuse one 100-seed ensemble.
"""

import dataclasses
import time

import numpy as np
import pytest

from grouprisk.bounds import bound_exponent, consistency_check
from grouprisk.estimators import fit_cmni, fit_gd, fit_ridge, interpolation_residual
from grouprisk.harness import SweepAxis, SweepSpec, derive_config, preset, run_sweep
from grouprisk.model import ModelConfig, check_assumptions, e1_mean, noise_stats, sample_dataset
from grouprisk.primitives import (
    check_aux_inequalities,
    compute_primitives,
    primitive_set_max_gap,
    risk_identity_check,
    verify_primitive_bounds,
    wishart_coverage,
)

from conftest import dense_means


def grid_config(n, d, seed, **overrides):
    """Canonical test instance at total size (n, d): 4:1 split, block means."""
    half = d // 2
    base = dict(
        d_core=half,
        d_spur=d - half,
        mu_core=e1_mean(np.sqrt(d / 10.0), half),
        mu_spur=e1_mean(np.sqrt(d / 40.0), d - half),
        n_plus=n - max(1, n // 5),
        n_minus=max(1, n // 5),
        delta_plus=0.9,
        delta_minus=0.3,
        seed=seed,
    )
    base.update(overrides)
    return ModelConfig(**base)


def report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {num}: {detail}")
    return ok


GRID = [(20, 400), (50, 2000)]
TAUS = (0.0, 1.0, 100.0)
N_SEEDS = 20

_band_cache = {}


def band_regime_ensemble():
    """100-seed primitive ensemble inside the regime of `check_assumptions` at C = 2.

    n = 60 (48/12), d = 120000 (60000/60000), |mu_c|^2 = 900, mu_s = 0,
    seeds 0-99, tau in {0, d}.  There R_plus n / d = 0.45, so
    det(A_2) ~ 1 + |mu_c|^2 n / (d + tau) stays at most 1.5, and the
    order-2 label-direction diagonals, which carry 1 / det(A_2), stay
    inside the (0.5, 2) band.  The ratio t_22^(0) / (n m^2 / d) follows
    (d/n) Beta(n/2, (d-n)/2) exactly and leaves (0.5, 2) with probability
    0.00042 per seed at n = 60, so P(>= 99/100) = 0.9991 (at n = 30 it
    is 0.011 and 0.69).
    Each seed's noise is streamed once and decomposed at both taus.

    Returns {tau: [(BandReport, det_a), ...]}, the elapsed wall time, and
    the per-seed `AssumptionReport`s at c_const = 2.
    """
    if _band_cache:
        return _band_cache["data"], _band_cache["elapsed"], _band_cache["premises"]
    start = time.time()
    half = 60_000
    taus = (0.0, 2.0 * half)
    data = {tau: [] for tau in taus}
    premises = []
    for seed in range(100):
        cfg = ModelConfig(
            d_core=half,
            d_spur=half,
            mu_core=e1_mean(np.sqrt(900.0), half),
            mu_spur=np.zeros(half),
            n_plus=48,
            n_minus=12,
            seed=seed,
        )
        premises.append(check_assumptions(cfg, c_const=2.0))
        stats = noise_stats(cfg)
        for tau in taus:
            prims = compute_primitives(stats, tau=tau, delta=cfg.deltas, mode="recursive")
            data[tau].append((verify_primitive_bounds(prims, cfg), prims.det_a.copy()))
    elapsed = time.time() - start
    _band_cache.update(data=data, elapsed=elapsed, premises=premises)
    return data, elapsed, premises


def dense_probe_table(ds, tau):
    """x' (X X' + tau I)^{-1} y over the seven probes, in slot order
    v_1 v_2 d_1 d_2 u w_1 w_2, from the dense design matrix."""
    cfg = ds.config
    mu_bar_c, mu_bar_s = dense_means(cfg)
    dvec = np.where(ds.b > 0, cfg.delta_plus, cfg.delta_minus)
    probes = np.column_stack(
        [ds.a, ds.y, ds.Q @ mu_bar_s, ds.Q @ mu_bar_c, e1_mean(1.0, cfg.n), ds.a / dvec, ds.y / dvec]
    )
    return probes.T @ np.linalg.inv(ds.X @ ds.X.T + tau * np.eye(cfg.n)) @ probes


class TestRecursionMachinery:
    def test_criterion_01_woodbury_equivalence(self):
        # the two rank-3 Woodbury steps of recursive mode against the dense
        # inverse of the full X X' + tau I, through the order-2 probe table
        start = time.time()
        worst = 0.0
        for n, d in GRID:
            for tau in TAUS:
                for seed in range(N_SEEDS):
                    ds = sample_dataset(grid_config(n, d, seed))
                    prims = compute_primitives(
                        noise_stats(ds), tau=tau, delta=ds.config.deltas, mode="recursive"
                    )
                    dense = dense_probe_table(ds, tau)
                    # each entry against its Cauchy-Schwarz scale sqrt(x'M^{-1}x y'M^{-1}y)
                    scale = np.sqrt(np.outer(np.diag(dense), np.diag(dense)))
                    rel = np.max(np.abs(prims.tables[..., 2] - dense) / scale)
                    worst = max(worst, rel)
        elapsed = time.time() - start
        ok = worst <= 1e-8 and elapsed < 30.0
        assert report(
            1, ok, f"recursive vs dense inverse, max rel error {worst:.3e}, {elapsed:.1f}s"
        )

    def test_criterion_02_mode_equivalence(self):
        start = time.time()
        worst = 0.0
        for n, d in GRID:
            for tau in TAUS:
                for seed in range(N_SEEDS):
                    ds = sample_dataset(grid_config(n, d, seed))
                    stats = noise_stats(ds)
                    direct = compute_primitives(stats, tau=tau, delta=ds.config.deltas, mode="direct")
                    recursive = compute_primitives(stats, tau=tau, delta=ds.config.deltas, mode="recursive")
                    worst = max(worst, primitive_set_max_gap(direct, recursive))
        elapsed = time.time() - start
        ok = worst <= 1e-8 and elapsed < 60.0
        assert report(
            2, ok, f"direct vs recursive primitives, max rel gap {worst:.3e}, {elapsed:.1f}s"
        )

    def test_criterion_03_risk_identity(self):
        start = time.time()
        worst = 0.0
        for n, d in GRID:
            for tau in (0.0, 5.0):
                for deltas in ((1.0, 1.0), (None, None)):
                    for seed in range(5):
                        if deltas[0] is None:
                            cfg = grid_config(n, d, seed)
                            cfg = cfg.with_updates(
                                delta_plus=cfg.n_plus / cfg.n,
                                delta_minus=cfg.n_minus / cfg.n,
                            )
                        else:
                            cfg = grid_config(
                                n, d, seed, delta_plus=deltas[0], delta_minus=deltas[1]
                            )
                        ds = sample_dataset(cfg)
                        stats = noise_stats(ds)
                        sol = fit_ridge(stats, cfg.deltas, tau)
                        prims = compute_primitives(stats, tau=tau, delta=cfg.deltas, mode="direct")
                        worst = max(worst, *risk_identity_check(prims, sol))
        elapsed = time.time() - start
        ok = worst <= 1e-8 and elapsed < 30.0
        assert report(
            3, ok, f"margin identity via adjusted primitives, max rel error {worst:.3e}, {elapsed:.1f}s"
        )


class TestEstimatorContracts:
    def test_criterion_04_interpolation(self):
        worst_resid = 0.0
        worst_dual = 0.0
        for n, d in GRID:
            for seed in range(N_SEEDS):
                cfg = grid_config(n, d, seed)
                ds = sample_dataset(cfg)
                stats = noise_stats(ds)
                sol = fit_cmni(stats, cfg.deltas)
                worst_resid = max(
                    worst_resid, interpolation_residual(sol, stats, cfg.deltas)
                )
                ridge0 = fit_ridge(stats, cfg.deltas, tau=0.0)
                worst_dual = max(
                    worst_dual,
                    float(np.linalg.norm(ridge0.c - sol.c) / np.linalg.norm(sol.c)),
                )
        ok = worst_resid <= 1e-8 and worst_dual <= 1e-10
        assert report(
            4,
            ok,
            f"constraint residual {worst_resid:.3e}, ridge(0) vs direct dual gap {worst_dual:.3e}",
        )

    def test_criterion_05_gradient_descent_limit(self):
        start = time.time()
        cfg = grid_config(20, 400, seed=0)
        ds = sample_dataset(cfg)
        stats = noise_stats(ds)
        direct = fit_cmni(stats, cfg.deltas)
        gd = fit_gd(stats, cfg.deltas, iters=100_000)
        rel = float(np.linalg.norm(gd.c - direct.c) / np.linalg.norm(direct.c))
        elapsed = time.time() - start
        ok = rel <= 1e-4 and gd.info["iters"] <= 100_000 and elapsed < 60.0
        assert report(
            5,
            ok,
            f"gd dual error {rel:.3e} after {gd.info['iters']} iterations, {elapsed:.1f}s",
        )


class TestConcentration:
    def test_criterion_06_wishart_coverage(self):
        start = time.time()
        rep = wishart_coverage(d=1000, n=10, t=4.6, draws=1000, seed=0)
        elapsed = time.time() - start
        ok = rep["passed"] and elapsed < 60.0
        assert report(
            6,
            ok,
            f"coverage {rep['fraction']:.4f} vs threshold {rep['threshold']:.4f}, {elapsed:.1f}s",
        )

    def test_criterion_07_primitive_rate_bands(self):
        data, elapsed, premises = band_regime_ensemble()
        assert all(r.all_pass for r in premises), [dataclasses.asdict(r) for r in premises if not r.all_pass][:1]
        counts = {}
        for tau, entries in data.items():
            diag_pass = 0
            cross_pass = 0
            for band_report, _ in entries:
                diag_rows = [r for r in band_report.rows if r.band_low == 0.5]
                cross_rows = [r for r in band_report.rows if r.band_low == -2.0]
                diag_pass += all(r.passed for r in diag_rows)
                cross_pass += all(r.passed for r in cross_rows)
            counts[tau] = (diag_pass, cross_pass)
        ok = all(d >= 99 and c >= 99 for d, c in counts.values()) and elapsed < 300.0
        detail = ", ".join(
            f"tau={tau:g}: {d}/100 diagonal, {c}/100 cross" for tau, (d, c) in counts.items()
        )
        assert report(7, ok, f"{detail}, ensemble built in {elapsed:.1f}s")

    def test_criterion_08_det_band(self):
        data, _, premises = band_regime_ensemble()
        assert all(r.all_pass for r in premises), [dataclasses.asdict(r) for r in premises if not r.all_pass][:1]
        in_band = 0
        total = 0
        worst = (np.inf, -np.inf)
        for entries in data.values():
            for _, det_a in entries:
                total += 1
                in_band += bool(np.all((det_a >= 0.5) & (det_a <= 2.0)))
                worst = (min(worst[0], det_a.min()), max(worst[1], det_a.max()))
        ok = in_band == total
        assert report(
            8,
            ok,
            f"{in_band}/{total} seeds with det in [0.5, 2], observed range [{worst[0]:.3f}, {worst[1]:.3f}]",
        )


class TestFigureLevel:
    def test_criterion_09_weight_sweep_trends(self):
        start = time.time()
        rows, skips = run_sweep(preset("fig1_left", seed=0, trials=10))
        elapsed = time.time() - start
        assert not skips
        share = 0.05  # n_minus / n
        ordered = sorted(rows, key=lambda r: -r.axis_value)
        to_share = [r for r in ordered if r.axis_value >= share - 1e-12]
        minority = [r.risk_minus_mean for r in to_share]
        violations = sum(
            1 for prev, cur in zip(minority, minority[1:]) if cur > prev + 1e-12
        )
        monotone_ok = violations <= 1

        argmin_row = min(rows, key=lambda r: r.worst_mean)
        argmin_ok = share / 2.0 <= argmin_row.axis_value <= share * 2.0

        at_share = next(r for r in ordered if abs(r.axis_value - share) < 1e-9)
        below = [r for r in ordered if r.axis_value < share - 1e-12]
        majority_ok = all(r.risk_plus_mean > at_share.risk_plus_mean for r in below)

        ok = monotone_ok and argmin_ok and majority_ok and elapsed <= 900.0
        assert report(
            9,
            ok,
            (
                f"minority monotone violations {violations}, worst argmin at "
                f"{argmin_row.axis_value:.4f} (target 0.05 within 2x), majority blowup "
                f"below share {majority_ok}, {elapsed:.1f}s"
            ),
        )

    def test_criterion_10_signal_thresholds(self):
        start = time.time()
        outcomes = []
        # Each weighting is probed at 10x its reference signal level: d/n
        # for identity weights, d/n_minus for share weights.  The vanishing
        # condition R_plus^2 >= d / (alpha_b n_b) then holds for both groups
        # under share weights (slack 9.5), but under identity weights only
        # for the majority (slack 9.025; the minority's is 0.025).
        probes = (
            ("fig2_left", 5_000.0, "identity weights at 10d/n", (">=", 0.10)),
            ("fig2_right", 100_000.0, "share weights at 10d/n_minus", ("<=", 0.05)),
        )
        for name, r_plus_sq, probe, (minority_op, minority_limit) in probes:
            spec = preset(name, seed=0, trials=10)
            rows, _ = run_sweep(
                SweepSpec(
                    base=spec.base,
                    axis=SweepAxis("r_plus_sq", (r_plus_sq,)),
                    methods=spec.methods,
                    trials=10,
                    outputs=("risk",),
                    name=f"threshold_{name}",
                )
            )
            cfg = derive_config(spec.base, "r_plus_sq", r_plus_sq)
            for group, value, op, limit, cons in zip(
                ("majority", "minority"),
                (rows[0].risk_plus_mean, rows[0].risk_minus_mean),
                ("<=", minority_op),
                (0.05, minority_limit),
                consistency_check(cfg),
            ):
                outcomes.append((f"{probe}: {group}", value, op, limit, cons))

        # premise: a clause asks for vanishing risk exactly where the
        # consistency condition holds
        for label, _, op, _, cons in outcomes:
            assert cons.applicable and cons.holds == (op == "<="), (label, cons)
        elapsed = time.time() - start
        checks = [
            value <= limit if op == "<=" else value >= limit
            for _, value, op, limit, _ in outcomes
        ]
        ok = all(checks) and elapsed <= 1200.0
        detail = "; ".join(
            f"{label} {value:.4f} {op} {limit} (consistency slack {cons.slack:.4g})"
            for (label, value, op, limit, cons) in outcomes
        )
        assert report(10, ok, f"{detail}, {elapsed:.1f}s")

    def test_criterion_11_bound_tightness_band(self):
        start = time.time()
        spec = preset("fig2_right", seed=0, trials=10)
        spec = SweepSpec(
            base=spec.base,
            axis=spec.axis,
            methods=spec.methods,
            trials=10,
            outputs=("risk", "bounds", "tightness"),
            name=spec.name,
        )
        rows, _ = run_sweep(spec)
        ratios = []
        for row in rows:
            for e_mean, t_mean in (
                (row.e_plus_mean, row.tightness_plus_mean),
                (row.e_minus_mean, row.tightness_minus_mean),
            ):
                if e_mean is not None and 1.0 <= e_mean <= 30.0 and t_mean is not None:
                    ratios.append(t_mean)
        elapsed = time.time() - start
        spread = max(ratios) / min(ratios) if ratios else np.inf
        ok = bool(ratios) and spread <= 10.0
        assert report(
            11,
            ok,
            f"{len(ratios)} in-window ratios spanning [{min(ratios):.3f}, {max(ratios):.3f}], "
            f"max/min {spread:.2f}, {elapsed:.1f}s",
        )


class TestFormulaLevel:
    def test_criterion_12_aux_inequalities(self):
        start = time.time()
        count_cap_ok = True
        for n in (10, 100, 1000):
            n_minus = max(1, n // 10)
            cfg = ModelConfig(
                d_core=n,
                d_spur=n,
                mu_core=e1_mean(4.0 * np.sqrt(n), n),
                mu_spur=e1_mean(np.sqrt(n), n),
                n_plus=n - n_minus,
                n_minus=n_minus,
            )
            grid = np.geomspace(1.0 / n, 1.0, 8)
            for dp in grid:
                for dm in grid:
                    if dm > dp:
                        continue
                    rep = check_aux_inequalities(
                        cfg.with_updates(delta_plus=float(dp), delta_minus=float(dm))
                    )
                    count_cap_ok = count_cap_ok and rep.count_cap_ok

        margin_floor_ok = True
        n = 120
        for n_minus in (12, 30, 60):  # alpha = 0.1, 0.25, 0.5
            cfg = ModelConfig(
                d_core=200,
                d_spur=200,
                mu_core=e1_mean(9.0, 200),
                mu_spur=e1_mean(3.0, 200),
                n_plus=n - n_minus,
                n_minus=n_minus,
            )
            rep = check_aux_inequalities(cfg)
            alpha = n_minus / n
            expected_floor = np.sqrt(alpha) * 9.0 / 2.0
            margin_floor_ok = (
                margin_floor_ok
                and rep.margin_floor_ok
                and rep.margin_floor_realized >= expected_floor - 1e-12
            )
        elapsed = time.time() - start
        ok = count_cap_ok and margin_floor_ok and elapsed < 5.0
        assert report(
            12,
            ok,
            f"count cap holds on the weight grid {count_cap_ok}, margin floor holds {margin_floor_ok}, {elapsed:.1f}s",
        )
