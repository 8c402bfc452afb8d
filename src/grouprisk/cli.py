"""Command-line interface.

Subcommands: sample, fit, risk, bounds, verify-primitives, wishart,
sweep.  Exit codes: 0 success, 1 verification failure, 2 usage error.
Single-value results print JSON to stdout (or --out); sweeps write CSV or
JSON files and log skipped points as one JSON object per line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .bounds import consistency_check, evaluate_bounds
from .estimators import GramStats, fit_cmni, fit_gd, fit_ridge, interpolation_residual
from .harness import PRESET_NAMES, SweepSpec, emit, preset, run_sweep
from .model import ModelConfig, e1_mean, load_dataset, noise_stats, sample_dataset, save_dataset
from .model import _one_blas_thread
from .primitives import (
    PRIMITIVE_NAMES,
    check_aux_inequalities,
    compute_primitives,
    det_and_adj,
    risk_identity_check,
    verify_primitive_bounds,
    wishart_coverage,
)
from .risk import build_report

__all__ = ["main", "config_from_args", "primitive_set_max_gap"]


def config_from_args(args) -> ModelConfig:
    """Build a ModelConfig from CLI flags, or load --config and apply overrides."""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = ModelConfig.from_dict(json.load(fh))
        updates = {}
        if args.seed is not None:
            updates["seed"] = args.seed
        if getattr(args, "tau", None) is not None:
            updates["tau"] = args.tau
        return cfg.with_updates(**updates) if updates else cfg
    if args.n_total is not None:
        n_minus = args.n_minus if args.n_minus is not None else max(1, args.n_total // 5)
        n_plus = args.n_plus if args.n_plus is not None else args.n_total - n_minus
    else:
        n_plus = args.n_plus if args.n_plus is not None else 50
        n_minus = args.n_minus if args.n_minus is not None else 10
    d = args.dim
    d_core = (d + 1) // 2
    mu_core_sq = args.mu_core_sq if args.mu_core_sq is not None else d / 10.0
    mu_spur_sq = args.mu_spur_sq if args.mu_spur_sq is not None else mu_core_sq / 4.0
    return ModelConfig(
        d_core=d_core,
        d_spur=d - d_core,
        mu_core=e1_mean(float(np.sqrt(mu_core_sq)), d_core),
        mu_spur=e1_mean(float(np.sqrt(mu_spur_sq)), d - d_core),
        n_plus=n_plus,
        n_minus=n_minus,
        pi_plus=args.pi_plus,
        delta_plus=args.delta_plus,
        delta_minus=args.delta_minus,
        tau=args.tau if getattr(args, "tau", None) is not None else 0.0,
        seed=args.seed if args.seed is not None else 0,
    )


def _emit_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fit_solution(args, cfg, stats, labels):
    if args.method == "cmni":
        return fit_cmni(stats, cfg.deltas, labels)
    if args.method == "ridge":
        return fit_ridge(stats, cfg.deltas, labels, cfg.tau)
    return fit_gd(stats, cfg.deltas, labels, step=args.step, iters=args.iters)


def primitive_set_max_gap(a, b) -> float:
    """Largest relative discrepancy between two PrimitiveSets."""
    gap = 0.0
    for name in PRIMITIVE_NAMES:
        x = getattr(a, name).ravel()
        y = getattr(b, name).ravel()
        scale = np.maximum(np.abs(x), np.abs(y))
        diff = np.abs(x - y)
        mask = scale > 0
        if mask.any():
            gap = max(gap, float((diff[mask] / scale[mask]).max()))
        if (diff[~mask] != 0).any():
            gap = max(gap, np.inf)
    return gap


def _cmd_sample(args) -> int:
    if not args.out:
        print("sample: --out PATH is required", file=sys.stderr)
        return 2
    cfg = config_from_args(args)
    save_dataset(sample_dataset(cfg, block_cols=args.block_cols), args.out)
    _emit_json(
        {
            "path": args.out,
            "n": cfg.n,
            "d": cfg.d,
            "seed": cfg.seed,
            "n_plus": cfg.n_plus,
            "n_minus": cfg.n_minus,
        },
        None,
    )
    return 0


def _stats_and_labels(source, cfg, block_cols):
    noise = noise_stats(source, block_cols)
    return GramStats.from_noise(cfg, noise), noise.labels


def _cmd_fit(args) -> int:
    if args.data:
        source = load_dataset(args.data)
        cfg = source.config
        if args.tau is not None:
            cfg = cfg.with_updates(tau=args.tau)
    else:
        source = cfg = config_from_args(args)
    stats, labels = _stats_and_labels(source, cfg, args.block_cols)
    sol = _fit_solution(args, cfg, stats, labels)
    doc = sol.to_dict()
    doc["interpolation_residual"] = interpolation_residual(sol, stats, cfg.deltas, labels)
    _emit_json(doc, args.out)
    return 0


def _cmd_risk(args) -> int:
    cfg = config_from_args(args)
    stats, labels = _stats_and_labels(cfg, cfg, args.block_cols)
    sol = _fit_solution(args, cfg, stats, labels)
    report = build_report(sol, cfg, mc_draws=args.mc_draws)
    _emit_json(report.to_dict(), args.out)
    return 0


def _cmd_bounds(args) -> int:
    cfg = config_from_args(args)
    report = evaluate_bounds(cfg, constants=(args.c1, args.c2, args.c3))
    doc = report.to_dict()
    for b, tag in ((+1, "plus"), (-1, "minus")):
        res = consistency_check(cfg, b, c_const=args.c_const)
        doc[f"consistency_{tag}"] = {
            "applicable": res.applicable,
            "holds": res.holds,
            "slack": res.slack,
        }
    _emit_json(doc, args.out)
    return 0


def _cmd_verify_primitives(args) -> int:
    cfg = config_from_args(args)
    noise = noise_stats(cfg, args.block_cols)
    stats = GramStats.from_noise(cfg, noise)
    direct = compute_primitives(stats, tau=cfg.tau, delta=cfg.deltas, mode="direct")
    recursive = compute_primitives(stats, tau=cfg.tau, delta=cfg.deltas, mode="recursive")
    mode_gap = primitive_set_max_gap(direct, recursive)

    sol = fit_ridge(stats, cfg.deltas, noise.labels, cfg.tau)
    identity_gaps = {
        str(b): risk_identity_check(direct, sol, cfg, b) for b in (+1, -1)
    }

    # the closed-form adjugate against the dense capacitance I + R M_{k-1}^{-1} L
    adj_gap = 0.0
    for k in (1, 2):
        prev_inv = np.linalg.inv(stats.stage_gram(k - 1) + cfg.tau * np.eye(cfg.n))
        L, R = stats.update_factors(k)
        a_k = np.eye(3) + R @ prev_inv @ L
        det, adj = det_and_adj(direct, k)
        residual = a_k @ adj - det * np.eye(3)
        adj_gap = max(adj_gap, float(np.abs(residual).max()))

    band = verify_primitive_bounds(direct, cfg, band=args.band, cross_band=(-args.band[1], args.band[1]))
    aux = check_aux_inequalities(cfg)

    ok = mode_gap <= 1e-8 and max(identity_gaps.values()) <= 1e-8 and adj_gap <= 1e-10 and aux.all_ok
    doc = {
        "mode_equivalence_max_gap": mode_gap,
        "risk_identity_gap": identity_gaps,
        "adjugate_identity_gap": adj_gap,
        "bands_all_pass": band.all_pass,
        "band_failures": [r.to_dict() for r in band.failures()],
        "aux_inequalities": aux.to_dict(),
        "passed": bool(ok),
    }
    _emit_json(doc, args.out)
    return 0 if ok else 1


def _cmd_wishart(args) -> int:
    report = wishart_coverage(
        d=args.dim,
        n=args.n_total if args.n_total is not None else 10,
        t=args.t,
        draws=args.draws,
        seed=args.seed if args.seed is not None else 0,
    )
    _emit_json(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_sweep(args) -> int:
    if args.preset:
        spec = preset(
            args.preset,
            seed=args.seed if args.seed is not None else 0,
            trials=args.trials if args.trials is not None else 10,
        )
    else:
        with open(args.spec) as fh:
            spec = SweepSpec.from_dict(json.load(fh))
        updates = {}
        if args.seed is not None:
            updates["base"] = spec.base.with_updates(seed=args.seed)
        if args.trials is not None:
            updates["trials"] = args.trials
        spec = dataclasses.replace(spec, **updates)
    rows, skips = run_sweep(spec, block_cols=args.block_cols)
    for skip in skips:
        # strict JSON: a non-finite axis value is logged as null
        strict = {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in skip.items()
        }
        print(json.dumps(strict, sort_keys=True, allow_nan=False), file=sys.stderr)
    if not rows:
        print("sweep produced no rows", file=sys.stderr)
        return 1
    out = args.out or spec.out_path or f"{spec.name}.{args.format}"
    meta = {
        "seed": spec.base.seed,
        "preset": args.preset,
        "axis": spec.axis.name,
        "trials": spec.trials,
    }
    emit(rows, out, fmt=args.format, meta=meta)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _band_pair(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected LO,HI") from exc
    if not lo < hi:
        raise argparse.ArgumentTypeError("band must satisfy LO < HI")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master RNG seed")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--block-cols", type=int, default=4096, help="noise streaming block width")

    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", default=None, help="ModelConfig JSON file")
    config_flags.add_argument("-n", "--n-total", type=int, default=None, help="total sample count (split 4:1 unless group counts given)")
    config_flags.add_argument("--n-plus", type=int, default=None)
    config_flags.add_argument("--n-minus", type=int, default=None)
    config_flags.add_argument("-d", "--dim", type=int, default=2000, help="total dimension")
    config_flags.add_argument("--mu-core-sq", type=float, default=None, help="|mu_c|^2 (default d/10)")
    config_flags.add_argument("--mu-spur-sq", type=float, default=None, help="|mu_s|^2 (default |mu_c|^2 / 4)")
    config_flags.add_argument("--pi-plus", type=float, default=0.5)
    config_flags.add_argument("--delta-plus", type=float, default=1.0)
    config_flags.add_argument("--delta-minus", type=float, default=1.0)
    config_flags.add_argument("--tau", type=float, default=None)

    method_flags = argparse.ArgumentParser(add_help=False)
    method_flags.add_argument("--method", choices=("cmni", "ridge", "gd"), default="cmni")
    method_flags.add_argument("--step", type=float, default=None, help="gd step size")
    method_flags.add_argument("--iters", type=int, default=100_000, help="gd iteration cap")

    parser = argparse.ArgumentParser(
        prog="grouprisk",
        description="Group-wise risks, bounds, and primitive verification for two-group Gaussian mixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common, config_flags], help="sample a dataset to disk")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", parents=[common, config_flags, method_flags], help="fit one estimator")
    p.add_argument("--data", default=None, help="load a saved dataset instead of sampling")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("risk", parents=[common, config_flags, method_flags], help="group risks for one fit")
    p.add_argument("--mc-draws", type=int, default=None, help="optional Monte-Carlo cross-check draws")
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("bounds", parents=[common, config_flags], help="bound exponents and consistency")
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--c3", type=float, default=1.0)
    p.add_argument("--c-const", type=float, default=1.0, help="threshold constant for the vanishing condition")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "verify-primitives",
        parents=[common, config_flags],
        help="mode equivalence, risk identity, bound bands, aux inequalities",
    )
    p.add_argument("--band", type=_band_pair, default=(0.5, 2.0), help="positive band LO,HI (sign-indefinite band becomes -HI,HI)")
    p.set_defaults(func=_cmd_verify_primitives)

    p = sub.add_parser("wishart", parents=[common], help="coverage of the quadratic-form band")
    p.add_argument("-d", "--dim", type=int, default=1000)
    p.add_argument("-n", "--n-total", type=int, default=10)
    p.add_argument("-t", type=float, default=4.6, help="tail parameter")
    p.add_argument("--draws", type=int, default=1000)
    p.set_defaults(func=_cmd_wishart)

    p = sub.add_parser("sweep", parents=[common], help="run a sweep preset or spec file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--spec", help="SweepSpec JSON file")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # one OpenBLAS thread for the whole command: the same bits at any
        # BLAS thread count, and no worker left spinning between calls
        with _one_blas_thread():
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # verification-level failures
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
