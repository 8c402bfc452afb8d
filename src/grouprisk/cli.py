"""Command-line interface.

Subcommands: sample, fit, risk, bounds, verify-primitives, wishart,
sweep.  Exit codes: 0 success, 1 verification failure, 2 usage error.
Single-value results print JSON to stdout (or --out); sweeps write CSV or
JSON files and log skipped points as one JSON object per line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .bounds import consistency_check, evaluate_bounds
from .estimators import fit_cmni, fit_gd, fit_ridge, interpolation_residual
from .harness import PRESET_NAMES, SweepSpec, emit, preset, run_sweep
from .model import ModelConfig, load_dataset, noise_stats, sample_dataset, save_dataset
from .model import _coerce, _one_blas_thread
from .primitives import verify_primitives, wishart_coverage
from .risk import build_report

__all__ = ["main", "config_from_args"]

# The inline flags that build a ModelConfig, by argparse dest.  None of
# them has an argparse default, so a given one can be told from an absent
# one; `config_from_args` (or ModelConfig) supplies the defaults.
_CONFIG_FLAGS = {
    "n_total": "-n", "n_plus": "--n-plus", "n_minus": "--n-minus", "dim": "-d",
    "mu_core_sq": "--mu-core-sq", "mu_spur_sq": "--mu-spur-sq", "pi_plus": "--pi-plus",
    "delta_plus": "--delta-plus", "delta_minus": "--delta-minus",
}


def _given(args, *dests) -> dict:
    """{dest: value} of the flags among `dests` that were given; an absent
    one is None and leaves the default to the function it is passed to."""
    return {dest: getattr(args, dest) for dest in dests if getattr(args, dest) is not None}


def _refuse_given(args, flags: dict, reason: str) -> None:
    """ValueError naming each flag of `flags` (dest -> flag) that was given."""
    given = _given(args, *flags)
    if given:
        raise ValueError(f"{', '.join(flags[dest] for dest in given)}: ignored {reason}")


def _refuse_unused_method_flags(args) -> None:
    """ValueError for --tau off ridge, and --step or --iters off gd."""
    if args.method != "ridge" and args.tau != 0.0:
        raise ValueError(f"--tau: ignored by --method {args.method}")
    if args.method != "gd":
        _refuse_given(args, {"step": "--step", "iters": "--iters"}, f"by --method {args.method}")


def config_from_args(args) -> ModelConfig:
    """Build a ModelConfig from inline CLI flags, or load --config (which
    takes no inline flag) and apply --seed."""
    if getattr(args, "config", None):
        _refuse_given(args, _CONFIG_FLAGS, "with --config")
        with open(args.config) as fh:
            cfg = ModelConfig.from_dict(json.load(fh))
        return cfg.with_updates(seed=args.seed) if args.seed is not None else cfg
    if args.n_total is not None:
        n_minus = args.n_minus if args.n_minus is not None else max(1, args.n_total // 5)
        n_plus = args.n_plus if args.n_plus is not None else args.n_total - n_minus
    else:
        n_plus = args.n_plus if args.n_plus is not None else 50
        n_minus = args.n_minus if args.n_minus is not None else 10
    d = args.dim if args.dim is not None else 2000
    d_core = (d + 1) // 2
    mu_core_sq = args.mu_core_sq if args.mu_core_sq is not None else d / 10.0
    mu_spur_sq = args.mu_spur_sq if args.mu_spur_sq is not None else mu_core_sq / 4.0
    return ModelConfig(
        d_core=d_core,
        d_spur=d - d_core,
        mu_core=float(np.sqrt(mu_core_sq)),
        mu_spur=float(np.sqrt(mu_spur_sq)),
        n_plus=n_plus,
        n_minus=n_minus,
        **_given(args, "pi_plus", "delta_plus", "delta_minus", "seed"),
    )


def _claim(args, *paths) -> None:
    """Check that every output path given can be written, before the
    command's work.  An output that is one of the command's input files
    (--data and its sidecar, --config, --spec) is a ValueError (exit 2),
    raised before any file is touched.  Then a missing file is created
    and an existing one opened for appending, which leaves it as it was,
    so a path that cannot be written raises the OSError that writing it
    would (exit 2) before any noise is drawn.  The files made here go to
    args.made, which `main` removes if the command fails."""
    paths = list(filter(None, paths))
    data = getattr(args, "data", None)
    inputs = (data, data and data + ".json", getattr(args, "config", None), getattr(args, "spec", None))
    for path in paths:
        for source in filter(None, inputs):  # each one read already, so it exists
            if os.path.exists(path) and os.path.samefile(path, source):
                raise ValueError(f"output {path} is the input file {source}")
    for path in paths:
        try:
            open(path, "x").close()
        except FileExistsError:
            open(path, "a").close()
        else:
            args.made.append(path)


def _emit_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fit_solution(args, cfg, stats):
    if args.method == "cmni":
        return fit_cmni(stats, cfg.deltas)
    if args.method == "ridge":
        return fit_ridge(stats, cfg.deltas, args.tau)
    return fit_gd(stats, cfg.deltas, **_given(args, "step", "iters"))


def _cmd_sample(args) -> int:
    if not args.out:
        print("sample: --out PATH is required", file=sys.stderr)
        return 2
    cfg = config_from_args(args)
    _claim(args, args.out, args.out + ".json")
    save_dataset(sample_dataset(cfg), args.out)
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


def _cmd_fit(args) -> int:
    _refuse_unused_method_flags(args)
    if args.data:
        _refuse_given(args, {**_CONFIG_FLAGS, "seed": "--seed", "config": "--config"}, "with --data")
        source = load_dataset(args.data)
        cfg = source.config
    else:
        source = cfg = config_from_args(args)
    _claim(args, args.out)
    stats = noise_stats(source)
    sol = _fit_solution(args, cfg, stats)
    doc = sol.to_dict()
    doc["interpolation_residual"] = interpolation_residual(sol, stats, cfg.deltas)
    _emit_json(doc, args.out)
    return 0


def _cmd_risk(args) -> int:
    _refuse_unused_method_flags(args)
    cfg = config_from_args(args)
    _claim(args, args.out)
    sol = _fit_solution(args, cfg, noise_stats(cfg))
    report = build_report(sol, cfg, mc_draws=args.mc_draws)
    # the Monte-Carlo fields are None, and left out, unless --mc-draws ran
    _emit_json({k: v for k, v in dataclasses.asdict(report).items() if v is not None}, args.out)
    return 0


def _cmd_bounds(args) -> int:
    cfg = config_from_args(args)
    _claim(args, args.out)
    doc = dataclasses.asdict(evaluate_bounds(cfg))
    doc["consistency_plus"], doc["consistency_minus"] = map(
        dataclasses.asdict, consistency_check(cfg, c_const=args.c_const)
    )
    _emit_json(doc, args.out)
    return 0


def _cmd_verify_primitives(args) -> int:
    cfg = config_from_args(args)
    _claim(args, args.out)
    doc = verify_primitives(noise_stats(cfg), cfg, tau=args.tau, band=args.band)
    _emit_json(doc, args.out)
    return 0 if doc["passed"] else 1


def _cmd_wishart(args) -> int:
    _claim(args, args.out)
    report = wishart_coverage(
        d=args.dim,
        n=args.n_total,
        t=args.t,
        draws=args.draws,
        **_given(args, "seed"),
    )
    _emit_json(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_sweep(args) -> int:
    if args.preset:
        spec = preset(args.preset, **_given(args, "seed", "trials"))
    else:
        with open(args.spec) as fh:
            spec = SweepSpec.from_dict(json.load(fh))
        updates = {}
        if args.seed is not None:
            updates["base"] = spec.base.with_updates(seed=args.seed)
        if args.trials is not None:
            updates["trials"] = args.trials
        spec = dataclasses.replace(spec, **updates)
    out = args.out or spec.out_path or f"{spec.name}.{args.format}"
    _claim(args, out)
    rows, skips = run_sweep(spec)
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
    meta = {
        "seed": spec.base.seed,
        "preset": args.preset,
        "axis": spec.axis.name,
        "trials": spec.trials,
    }
    emit(rows, out, fmt=args.format, meta=meta)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _lo_hi(text: str) -> tuple[float, float]:
    """LO,HI as two floats; ValueError unless LO < HI (NaN fails it)."""
    lo, hi = (float(part) for part in text.split(","))
    if not lo < hi:
        raise ValueError(text)
    return lo, hi


def _flag(field: str, parse=float):
    """The argparse `type=` of a flag: its text read by parse (to a number
    or a tuple of them), each number read as the kind of `field` in
    `model._FIELDS`.  A refusal is an ArgumentTypeError, which argparse
    prints after the flag's name and exits 2 on, before any command runs."""

    def read(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r:.40}") from None
        try:
            if isinstance(value, tuple):
                return tuple(_coerce(field, v) for v in value)
            return _coerce(field, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc).removeprefix(f"{field} ")) from None

    return read


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master RNG seed")
    common.add_argument("--out", default=None, help="output path (default stdout)")

    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", default=None, help="ModelConfig JSON file")
    config_flags.add_argument("-n", "--n-total", type=_flag("n_total", int), default=None, help="total sample count (split 4:1 unless group counts given)")
    config_flags.add_argument("--n-plus", type=_flag("n_plus", int), default=None)
    config_flags.add_argument("--n-minus", type=_flag("n_minus", int), default=None)
    config_flags.add_argument("-d", "--dim", type=_flag("dim", int), default=None, help="total dimension")
    config_flags.add_argument("--mu-core-sq", type=_flag("mu_core_sq"), default=None, help="|mu_c|^2 (default d/10)")
    config_flags.add_argument("--mu-spur-sq", type=_flag("mu_spur_sq"), default=None, help="|mu_s|^2 (default |mu_c|^2 / 4)")
    config_flags.add_argument("--pi-plus", type=_flag("pi_plus"), default=None)
    config_flags.add_argument("--delta-plus", type=_flag("delta_plus"), default=None)
    config_flags.add_argument("--delta-minus", type=_flag("delta_minus"), default=None)

    # only on the subcommands that fit or build primitives at a tau
    tau_flag = argparse.ArgumentParser(add_help=False)
    tau_flag.add_argument("--tau", type=_flag("tau"), default=0.0)

    method_flags = argparse.ArgumentParser(add_help=False)
    method_flags.add_argument("--method", choices=("cmni", "ridge", "gd"), default="cmni")
    method_flags.add_argument("--step", type=_flag("step"), default=None, help="gd step size")
    method_flags.add_argument("--iters", type=_flag("iters", int), default=None, help="gd iteration cap")

    parser = argparse.ArgumentParser(
        prog="grouprisk",
        description="Group-wise risks, bounds, and primitive verification for two-group Gaussian mixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common, config_flags], help="sample a dataset to disk")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", parents=[common, config_flags, tau_flag, method_flags], help="fit one estimator")
    p.add_argument("--data", default=None, help="load a saved dataset instead of sampling")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("risk", parents=[common, config_flags, tau_flag, method_flags], help="group risks for one fit")
    p.add_argument("--mc-draws", type=_flag("m", int), default=None, help="optional Monte-Carlo cross-check draws")
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("bounds", parents=[common, config_flags], help="bound exponents and consistency")
    p.add_argument("--c-const", type=_flag("c_const"), default=1.0, help="threshold constant for the vanishing condition")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "verify-primitives",
        parents=[common, config_flags, tau_flag],
        help="mode equivalence, risk identity, bound bands, aux inequalities",
    )
    p.add_argument("--band", type=_flag("band", _lo_hi), default=(0.5, 2.0), help="positive band LO,HI (sign-indefinite band becomes -HI,HI)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process.  Building one
    costs about 17 times what parsing an argv does (1.4 ms against
    0.08 ms on a 2-vCPU Xeon VM), and parsing leaves the parser as it
    was: each call gets fresh defaults, and help is laid out at the
    terminal width read when it is printed."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.made = []  # output files `_claim` created
    raised = True
    try:
        # one OpenBLAS thread for the whole command: the same bits at any
        # BLAS thread count, and no worker left spinning between calls
        with _one_blas_thread():
            code = args.func(args)
        raised = False
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # verification-level failures
        print(f"failure: {exc}", file=sys.stderr)
        code = 1
    if code:
        # a failed command leaves no file it created; a verdict it wrote
        # (verify-primitives or wishart exiting 1) stays
        for path in args.made:
            if raised or not os.path.getsize(path):
                os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
