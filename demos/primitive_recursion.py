"""Rank-3 update machinery: staged inverses, scalar recursions, bands.

The gram of the signal-plus-noise design is the noise gram plus two rank-3
updates, one per mean direction.  Every statistic the risk formulas need
is a quadratic form in a staged inverse, and each of those scalars can be
advanced through the closed-form 3x3 capacitance instead of refactoring
the matrix.  This script checks that recursion against dense stage
inverses, checks the closed-form adjugate of each capacitance, and then
places the normalized primitives inside their concentration bands.

Run:  python3 demos/primitive_recursion.py
"""

import numpy as np

from grouprisk import (
    ModelConfig,
    accumulate_gram,
    compute_primitives,
    fit_cmni,
    risk_identity_check,
    verify_primitive_bounds,
)
from grouprisk.primitives import det_and_adj

SEED = 3


def e1(scale, length):
    v = np.zeros(length)
    v[0] = scale
    return v


def max_rel_gap(pa, pb):
    gap = 0.0
    for name in ("s", "t", "h", "s_uu", "s_ui", "h_iu",
                 "s_id_j", "s_id_jd", "h_i_jd", "o", "det_a"):
        x, y = getattr(pa, name).ravel(), getattr(pb, name).ravel()
        scale = np.maximum(np.abs(x), np.abs(y))
        ok = scale > 0
        if ok.any():
            gap = max(gap, float(np.max(np.abs(x - y)[ok] / scale[ok])))
    return gap


def main():
    # wide enough that the update determinants stay order one
    cfg = ModelConfig(
        d_core=15_000,
        d_spur=15_000,
        mu_core=e1(np.sqrt(72.0), 15_000),
        mu_spur=e1(np.sqrt(18.0), 15_000),
        n_plus=24,
        n_minus=6,
        seed=SEED,
    )
    stats = accumulate_gram(cfg)
    print(f"d = {cfg.d}, n = {cfg.n}, mean norms m_1 = {stats.mu_norms[0]:.3f}, "
          f"m_2 = {stats.mu_norms[1]:.3f}")

    # the ridge level of the interpolator that fit_cmni fits below
    tau = 0.0

    # dense stage inverses against every scalar advanced through f_A / det(A_k)
    direct = compute_primitives(stats, tau=tau, delta=cfg.deltas, mode="direct")
    recursive = compute_primitives(stats, tau=tau, delta=cfg.deltas, mode="recursive")
    print(f"\nscalar recursion vs dense quadratic forms: "
          f"max relative gap = {max_rel_gap(direct, recursive):.2e}")

    print("\ncapacitance determinants and the adjugate identity:")
    for k in (1, 2):
        det, adj = det_and_adj(direct, k)
        L, R = stats.update_factors(k)
        prev_inv = np.linalg.inv(stats.stage_gram(k - 1) + tau * np.eye(cfg.n))
        a_k = np.eye(3) + R @ prev_inv @ L
        resid = np.max(np.abs(a_k @ adj - det * np.eye(3)))
        print(f"  k = {k}: det(A_{k}) = {det:8.4f}, "
              f"|A adj - det I| = {resid:.2e}")

    # the fitted margin exponent equals its order-2 primitive expression
    sol = fit_cmni(stats, cfg.deltas)
    print("\nrisk identity, fitted exponent vs primitive form:")
    for b in (+1, -1):
        print(f"  b = {b:+d}: relative gap = "
              f"{risk_identity_check(direct, sol, cfg, b):.2e}")

    report = verify_primitive_bounds(recursive, cfg)
    worst = min(
        min(r.normalized - r.band_low, r.band_high - r.normalized)
        for r in report.rows
        if r.band_low != r.band_high
    )
    print(f"\nconcentration bands: {len(report.rows)} normalized primitives, "
          f"all_pass = {report.all_pass}")
    print(f"  tightest margin to a band edge: {worst:.3f}")
    sample = [r for r in report.rows if r.k == 2][:4]
    for r in sample:
        print(f"  {r.name:>10s} @ k=2: normalized = {r.normalized:+.3f} "
              f"in [{r.band_low:g}, {r.band_high:g}]")


if __name__ == "__main__":
    main()
