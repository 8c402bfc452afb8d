"""Walk through model configuration and dataset sampling.

Builds a two-group mixture config, checks the regime inequalities, samples
a dataset, and shows that the design matrix decomposes exactly into label
signal, attribute signal, and retained noise.

Run:  python3 demos/sampling_walkthrough.py
"""

import os
import tempfile

import numpy as np

from grouprisk import (
    ModelConfig,
    check_assumptions,
    e1_mean,
    load_dataset,
    sample_dataset,
    save_dataset,
    signal_strengths,
)


def main():
    cfg = ModelConfig(
        d_core=2000,
        d_spur=2000,
        mu_core=e1_mean(np.sqrt(200.0), 2000),
        mu_spur=e1_mean(np.sqrt(50.0), 2000),
        n_plus=48,
        n_minus=12,
        delta_plus=0.8,
        delta_minus=0.2,
        seed=7,
    )
    sig = signal_strengths(cfg)
    print(f"dimension d = {cfg.d}, samples n = {cfg.n} ({cfg.n_plus} majority / {cfg.n_minus} minority)")
    print(f"signal strengths: R_plus = {sig.r_plus:.1f}, R_minus = {sig.r_minus:.1f}")

    rep = check_assumptions(cfg, delta=0.05)
    print("\nregime inequalities at delta = 0.05 (slack = lhs/rhs, want >= 1):")
    for tag in "abcd":
        print(f"  ({tag}) pass = {getattr(rep, 'pass_' + tag)}, slack = {getattr(rep, 'slack_' + tag):.2f}")

    ds = sample_dataset(cfg)
    ds.validate()
    print("\nsampled dataset:")
    print(f"  X shape {ds.X.shape}, minority rows (b = y * a = -1) {int((ds.b < 0).sum())}")

    # the noise block is retained, so X - Q is exactly the rank-2 signal
    signal = ds.X - ds.Q
    print(f"  rank of X - Q: {np.linalg.matrix_rank(signal)} (label + attribute directions)")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "demo.bin")
        save_dataset(ds, path)
        back = load_dataset(path)
        print(f"\nround trip through {os.path.basename(path)} (Q only, labels in the sidecar): "
              f"X bitwise equal = {np.array_equal(back.X, ds.X)}")


if __name__ == "__main__":
    main()
