"""Rank-3 update machinery: staged inverses, scalar recursions, bands.

The gram of the signal-plus-noise design is the noise gram plus two rank-3
updates, one per mean direction.  Every statistic the risk formulas need
is a quadratic form in a staged inverse, and each of those scalars can be
advanced through the closed-form 3x3 capacitance instead of refactoring
the matrix.  This script checks that recursion against dense stage
inverses, checks the closed-form adjugate of each capacitance and the
risk identity, and then places the normalized primitives inside their
concentration bands, all through `verify_primitives`.

Run:  python3 demos/primitive_recursion.py
"""

import numpy as np

from grouprisk import ModelConfig, compute_primitives, e1_mean, noise_stats
from grouprisk.primitives import verify_primitives

SEED = 3


def main():
    # wide enough that the update determinants stay order one
    cfg = ModelConfig(
        d_core=15_000,
        d_spur=15_000,
        mu_core=e1_mean(np.sqrt(72.0), 15_000),
        mu_spur=e1_mean(np.sqrt(18.0), 15_000),
        n_plus=24,
        n_minus=6,
        seed=SEED,
    )
    stats = noise_stats(cfg)
    print(f"d = {cfg.d}, n = {cfg.n}, mean norms m_1 = {stats.mu_norms[0]:.3f}, "
          f"m_2 = {stats.mu_norms[1]:.3f}")

    # every check of `grouprisk verify-primitives`, at the interpolating tau = 0
    doc = verify_primitives(stats, cfg, tau=0.0)

    print(f"\nscalar recursion vs dense quadratic forms: "
          f"max relative gap = {doc['mode_equivalence_max_gap']:.2e}")

    det_a = compute_primitives(stats, tau=0.0, delta=cfg.deltas, mode="recursive").det_a
    print("\ncapacitance determinants and the adjugate identity:")
    for k in (1, 2):
        print(f"  k = {k}: det(A_{k}) = {det_a[k - 1]:8.4f}")
    print(f"  max |A_k adj(A_k) - det(A_k) I| = {doc['adjugate_identity_gap']:.2e}")

    # the fitted margin exponent equals its order-2 primitive expression
    print("\nrisk identity, fitted exponent vs primitive form:")
    for b, gap in doc["risk_identity_gap"].items():
        print(f"  b = {int(b):+d}: relative gap = {gap:.2e}")

    print(f"\nconcentration bands: all_pass = {doc['bands_all_pass']}, "
          f"{len(doc['band_failures'])} normalized primitives outside their band")
    aux = doc["aux_inequalities"]
    print(f"aux inequalities: margin floor {aux['margin_floor_ok']}, "
          f"count cap {aux['count_cap_ok']}")
    print(f"passed = {doc['passed']}")


if __name__ == "__main__":
    main()
