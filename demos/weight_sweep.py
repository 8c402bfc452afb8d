"""Sweep the minority adjustment weight and watch the risk trade-off.

Builds a small sweep by hand: hold the majority weight fixed, walk
delta_minus down from parity, fit the interpolator a few trials per
point, and tabulate the per-group risks.  Upweighting the minority
(smaller delta_minus) buys minority accuracy at majority expense, and
the worst-group risk bottoms out strictly inside the range.

Run:  python3 demos/weight_sweep.py
"""

import os
import tempfile

import numpy as np

from grouprisk import ModelConfig, SweepAxis, SweepSpec, e1_mean, emit, run_sweep

SEED = 5
TRIALS = 5


def main():
    base = ModelConfig(
        d_core=20_000,
        d_spur=20_000,
        mu_core=e1_mean(np.sqrt(125.0), 20_000),
        mu_spur=e1_mean(np.sqrt(125.0), 20_000),
        n_plus=95,
        n_minus=5,
        delta_plus=0.9,
        delta_minus=0.9,
        seed=SEED,
    )
    spec = SweepSpec(
        base=base,
        axis=SweepAxis("delta_minus", tuple(np.geomspace(0.9, 0.02, 8))),
        methods=(("cmni", None),),
        trials=TRIALS,
        name="delta-minus-demo",
    )
    rows, skips = run_sweep(spec)
    print(f"swept {len(rows)} values of delta_minus, "
          f"{TRIALS} trials each, {len(skips)} skipped")

    print("\n  delta_minus   majority risk   minority risk      worst")
    for r in rows:
        print(f"  {r.axis_value:11.4f}   {r.risk_plus_mean:13.4f}   "
              f"{r.risk_minus_mean:13.4f}   {r.worst_mean:8.4f}")

    best = min(rows, key=lambda r: r.worst_mean)
    ends = {rows[0].axis_value: rows[0].worst_mean,
            rows[-1].axis_value: rows[-1].worst_mean}
    print(f"\nworst-group risk minimized at delta_minus = {best.axis_value:.4f} "
          f"(worst = {best.worst_mean:.4f})")
    for val, worst in ends.items():
        print(f"  endpoint delta_minus = {val:.4f}: worst = {worst:.4f}")

    with tempfile.TemporaryDirectory(prefix="sweep-demo-") as tmp:
        path = os.path.join(tmp, "rows.csv")
        emit(rows, path, fmt="csv", meta=None)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    print(f"\nwrote {os.path.basename(path)} ({len(lines) - 1} data rows)")
    print(f"  header starts: {','.join(lines[0].split(',')[:6])},...")


if __name__ == "__main__":
    main()
