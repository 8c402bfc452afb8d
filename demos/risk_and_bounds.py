"""Exact group risks, a Monte Carlo cross-check, and the matching bounds.

Fits the cost-sensitive interpolator on a wide mixture whose core and
spurious energies are equal (R_minus = 0), reads off the exact per-group
risks, confirms one of them empirically, and compares them with the
bound exponents built from the adjusted sample sizes.  The bounds'
constants are not known, so no bound value is printed.

Run:  python3 demos/risk_and_bounds.py
"""

import numpy as np

from grouprisk import (
    ModelConfig,
    build_report,
    consistency_check,
    e1_mean,
    evaluate_bounds,
    fit_cmni,
    noise_stats,
    signal_strengths,
    tightness_ratio,
)

SEED = 11
MC_DRAWS = 400_000


def main():
    # d >> n and R_minus = 0: the consistency condition applies verbatim
    cfg = ModelConfig(
        d_core=50_000,
        d_spur=50_000,
        mu_core=e1_mean(np.sqrt(125.0), 50_000),
        mu_spur=e1_mean(np.sqrt(125.0), 50_000),
        n_plus=190,
        n_minus=10,
        delta_plus=0.95,
        delta_minus=0.05,
        seed=SEED,
    )
    sig = signal_strengths(cfg)
    print(f"d = {cfg.d}, n = {cfg.n} ({cfg.n_plus}/{cfg.n_minus}), "
          f"R_plus = {sig.r_plus:.1f}, R_minus = {sig.r_minus:.1f}")

    # the noise streamed once into its Gram statistics; X is never
    # materialized at this width
    stats = noise_stats(cfg)
    sol = fit_cmni(stats, cfg.deltas)

    report = build_report(sol, cfg, mc_draws=MC_DRAWS)
    print("\nexact risks from the fitted margin:")
    for tag, margin, risk in (("majority", report.margin_plus, report.risk_plus),
                              ("minority", report.margin_minus, report.risk_minus)):
        print(f"  {tag}: margin = {margin:8.4f},  risk = {risk:.3e}")
    print(f"  worst = {report.worst_risk:.3e}, "
          f"train-weighted average = {report.avg_risk:.3e}")

    print(f"\nMonte Carlo on {MC_DRAWS} fresh draws per group:")
    for b, rate, se, exact in ((+1, report.mc_risk_plus, report.mc_stderr_plus, report.risk_plus),
                               (-1, report.mc_risk_minus, report.mc_stderr_minus, report.risk_minus)):
        print(f"  b = {b:+d}: rate = {rate:.3e} (se {se:.1e}), "
              f"|rate - exact| = {abs(rate - exact):.1e}")

    bound = evaluate_bounds(cfg)
    print("\nbound exponents from the adjusted counts:")
    print(f"  n_delta = {bound.n_delta:.1f}, alpha_plus = {bound.alpha_plus:.4f}")
    for b, e in ((+1, bound.exponent_plus), (-1, bound.exponent_minus)):
        print(f"  b = {b:+d}: E = {e:.4f}")

    # the realized exponent sits a constant factor from E_b
    print("\nempirical exponent / bound exponent:")
    for b, ratio in zip((+1, -1), tightness_ratio(sol, cfg)):
        print(f"  b = {b:+d}: ratio = {ratio:.3f}")

    _, res = consistency_check(cfg)
    print(f"\nminority consistency condition: applicable = {res.applicable}, "
          f"holds = {res.holds}, slack = {res.slack:.3f}")

if __name__ == "__main__":
    main()
