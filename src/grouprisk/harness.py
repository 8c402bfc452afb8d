"""Experiment sweeps and result persistence.

A sweep walks one named axis, derives a full config at each value, runs
`trials` seeded repetitions of every method, and aggregates per-group
risks, margin exponents, bound exponents, and tightness ratios into rows.

Axes:

    delta_minus   vary the minority adjustment weight only
    r_plus_sq     vary the squared total signal strength; means are
                  rebuilt as mu_c = mu_s = sqrt(R_plus/2) e_1
    n_coupled     vary n with the coupled rule d = 2 n^2,
                  n_minus = round(0.04 n), Delta_pm = n_pm / n,
                  R_plus = d^0.6 / 4, means split evenly on e_1

Trial i reseeds the config with seed XOR i, and streams its noise once,
before its points, into (Q Q', Q u_c, Q u_s).  Along delta_minus and
r_plus_sq the noise matrix and labels do not depend on the axis value, so
that is one `model.noise_stats_many` call of one config, and every
`GramStats` view is built from it in O(n^2).  Along n_coupled every value
has its own n and d, but every point's Q reads a prefix of the trial's one
noise stream, so one call streams all of them in a single pass and each
word is drawn once.  Every point and method is one recursive
`compute_primitives` call at its tau and weights, and the risks come from
its order-2 table: the risk identity (`primitives.fit_moments`) gives
|w_hat|^2 and w_hat' mu_b of the fit, so no fitter runs in a sweep.  The
order-0 solve that call needs (one Cholesky of gram_0 + tau I and two 7x7
tables) is memoized per tau on the `GramStats`.  Along delta_minus the
means do not change either, so each trial builds one `GramStats`: a
(trial, tau) costs one factorization, and every point and primitive call
after it 7x7 arithmetic.  `fit_cmni` and `fit_ridge` remain the per-point
reference.

Rows are aggregated in trial order: every per-trial output becomes a
`<name>_mean` and `<name>_std` pair of `SweepRow` fields (the primitive
pass fraction only a mean), and the `SweepRow` fields, in order, are the
CSV columns.  CSV output is byte-deterministic for a fixed seed; the JSON
format carries run metadata including a timestamp, so only its `rows`
payload is stable.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .bounds import bound_exponent
from .estimators import GramStats, _check_tau
from .model import (
    ModelConfig,
    _check_count,
    _check_fields,
    _one_blas_thread,
    _required_fields,
    e1_mean,
    noise_stats_many,
    substream_seed,
)
from .primitives import compute_primitives, fit_moments, verify_primitive_bounds
from .risk import group_risk, worst_and_average

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "SweepRow",
    "CSV_COLUMNS",
    "PRESET_NAMES",
    "derive_config",
    "resolve_tau",
    "run_sweep",
    "preset",
    "emit",
]

AXIS_NAMES = ("delta_minus", "r_plus_sq", "n_coupled")
OUTPUT_NAMES = ("risk", "bounds", "primitives", "tightness")
PRESET_NAMES = ("fig1_left", "fig1_right", "fig2_left", "fig2_right")

@dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; choose from {AXIS_NAMES}")
        values = tuple(self.values)
        for v in values:
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
                raise ValueError(f"axis values must be real numbers, got {v!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in values))
        if not self.values:
            raise ValueError("axis needs at least one value")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: base config, axis, methods, trial count, outputs."""

    base: ModelConfig
    axis: SweepAxis
    methods: tuple = (("cmni", None),)
    trials: int = 1
    outputs: tuple = ("risk", "bounds")
    out_path: str | None = None
    name: str = "sweep"

    def __post_init__(self):
        object.__setattr__(self, "trials", _check_count("trials", self.trials))
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {type(self.name).__name__}")
        if not isinstance(self.out_path, (str, type(None))):
            raise ValueError(f"out_path must be a string or null, got {type(self.out_path).__name__}")
        methods = []
        for entry in self.methods:
            mname, tau = entry
            if mname not in ("cmni", "ridge"):
                raise ValueError(f"unknown method {mname!r}")
            if mname == "cmni" and tau not in (None, 0, 0.0):
                raise ValueError("cmni takes no tau")
            resolve_tau(tau, self.base)
            methods.append((mname, tau))
        object.__setattr__(self, "methods", tuple(methods))
        outputs = tuple(self.outputs)
        unknown = set(outputs) - set(OUTPUT_NAMES)
        if unknown:
            raise ValueError(f"unknown outputs: {sorted(unknown)}")
        object.__setattr__(self, "outputs", outputs)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "axis": {"name": self.axis.name, "values": list(self.axis.values)},
            "methods": [
                {"method": m} if t is None else {"method": m, "tau": t}
                for m, t in self.methods
            ],
            "trials": self.trials,
            "outputs": list(self.outputs),
            "out_path": self.out_path,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """The spec of a `to_dict` document; ValueError naming any unknown
        or missing key at the top level, in "axis" or in a "methods" entry,
        for any of them that is not an object, and for "values", "outputs"
        or "methods" that is not an array."""
        _check_fields("SweepSpec", data, {f.name for f in fields(cls)}, _required_fields(cls))
        _check_fields("axis", data["axis"], {"name", "values"}, {"name", "values"})
        for name, doc in (("values", data["axis"]), ("outputs", data), ("methods", data)):
            if name in doc and not isinstance(doc[name], list):
                raise ValueError(f"{name} must be a JSON array, got {type(doc[name]).__name__}")
        for entry in data.get("methods", ()):
            _check_fields("method", entry, {"method", "tau"}, {"method"})
        methods = tuple((entry["method"], entry.get("tau")) for entry in data.get("methods", ()))
        return cls(**{
            **data,
            "base": ModelConfig.from_dict(data["base"]),
            "axis": SweepAxis(**data["axis"]),
            "methods": methods or (("cmni", None),),
        })


@dataclass(frozen=True)
class SweepRow:
    run_id: str
    axis_value: float
    method: str
    tau: float
    trials: int
    risk_plus_mean: float
    risk_plus_std: float
    risk_minus_mean: float
    risk_minus_std: float
    worst_mean: float
    worst_std: float
    average_mean: float
    average_std: float
    exponent_plus_mean: float
    exponent_plus_std: float
    exponent_minus_mean: float
    exponent_minus_std: float
    e_plus_mean: float | None = None
    e_plus_std: float | None = None
    e_minus_mean: float | None = None
    e_minus_std: float | None = None
    tightness_plus_mean: float | None = None
    tightness_plus_std: float | None = None
    tightness_minus_mean: float | None = None
    tightness_minus_std: float | None = None
    primitive_pass_frac: float | None = None

    def to_dict(self) -> dict:
        return {col: getattr(self, col) for col in CSV_COLUMNS}

    def to_csv_values(self) -> list[str]:
        out = []
        for col in CSV_COLUMNS:
            v = getattr(self, col)
            if v is None:
                out.append("")
            elif isinstance(v, str):
                out.append(v)
            elif isinstance(v, int):
                out.append(str(v))
            else:
                out.append(repr(float(v)))
        return out


CSV_COLUMNS = [f.name for f in fields(SweepRow)]


def derive_config(base: ModelConfig, axis_name: str, value) -> ModelConfig:
    """Materialize the config at one axis value (see module docstring)."""
    if axis_name == "delta_minus":
        return base.with_updates(delta_minus=float(value))
    if axis_name == "r_plus_sq":
        r_sq = float(value)
        if r_sq <= 0:
            raise ValueError("r_plus_sq must be positive")
        scale = np.sqrt(np.sqrt(r_sq) / 2.0)
        return base.with_updates(
            mu_core=e1_mean(scale, base.d_core),
            mu_spur=e1_mean(scale, base.d_spur),
        )
    if axis_name == "n_coupled":
        n = int(value)
        if n != value:
            raise ValueError("n_coupled axis values must be integers")
        if n < 2:
            raise ValueError("n must be at least 2")
        n_minus = max(1, round(0.04 * n))
        n_plus = n - n_minus
        d = 2 * n * n
        scale = np.sqrt(d**0.6 / 4.0 / 2.0)
        d_core = (d + 1) // 2
        return base.with_updates(
            d_core=d_core,
            d_spur=d - d_core,
            mu_core=e1_mean(scale, d_core),
            mu_spur=e1_mean(scale, d - d_core),
            n_plus=n_plus,
            n_minus=n_minus,
            delta_plus=n_plus / n,
            delta_minus=n_minus / n,
        )
    raise ValueError(f"unknown axis {axis_name!r}")


def resolve_tau(tau_spec, config: ModelConfig) -> float:
    """Resolve a tau entry: a number, None (0), 'd', or 'd/<number>'.

    The result must be finite and nonnegative and a divisor finite and
    positive; anything else, a bool included, raises ValueError.
    """
    if tau_spec is None:
        return 0.0
    if isinstance(tau_spec, str):
        text = tau_spec.strip()
        if text == "d":
            return float(config.d)
        if text.startswith("d/"):
            try:
                divisor = float(text[2:])
            except ValueError:
                divisor = 0.0
            if np.isfinite(divisor) and divisor > 0 and np.isfinite(config.d / divisor):
                return config.d / divisor
        raise ValueError(f"cannot resolve tau spec {tau_spec!r}")
    return _check_tau(tau_spec)


def _stat_pair(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


@_one_blas_thread()
def run_sweep(spec: SweepSpec):
    """Execute the sweep; returns (rows, skips).

    Failures at any stage are appended to `skips` as JSON-ready dicts and
    the sweep continues.  Trial i runs at seed base.seed XOR i; its noise
    is streamed once for all of its points, and a failed stream skips
    every point of the trial at the "sample" stage.
    The whole sweep runs at one OpenBLAS thread (`model._one_blas_thread`),
    so its rows are the same bits at any BLAS thread count; the caller's
    counts are restored on return.
    """
    derived: list[tuple[float, ModelConfig | None]] = []
    skips: list[dict] = []

    def skip(stage, reason, **where):
        skips.append({"axis": spec.axis.name, **where, "stage": stage, "reason": reason})

    for value in spec.axis.values:
        try:
            derived.append((value, derive_config(spec.base, spec.axis.name, value)))
        except (ValueError, TypeError) as exc:
            skip("config", str(exc), value=value)
            derived.append((value, None))

    points = [idx for idx, (_, cfg) in enumerate(derived) if cfg is not None]
    # each n_coupled value has its own n and d; on the other axes the labels
    # and noise do not depend on the value, so the first point's serve all
    per_point = spec.axis.name == "n_coupled"
    means_fixed = spec.axis.name == "delta_minus"
    want_bounds = "bounds" in spec.outputs
    want_tight = "tightness" in spec.outputs
    want_prims = "primitives" in spec.outputs

    exponents_e = {}
    for idx, (value, cfg) in enumerate(derived):
        if cfg is not None and (want_bounds or want_tight):
            exponents_e[idx] = (bound_exponent(cfg, +1), bound_exponent(cfg, -1))

    # results[(idx, mi)] -> list of per-trial output dicts
    results: dict[tuple[int, int], list[dict]] = {}
    for trial in range(spec.trials):
        seed = substream_seed(spec.base.seed, trial)
        tcfgs = {idx: derived[idx][1].with_updates(seed=seed) for idx in points}
        try:
            noises = noise_stats_many([tcfgs[idx] for idx in (points if per_point else points[:1])])
        except Exception as exc:
            for idx in points:
                skip("sample", str(exc), value=derived[idx][0], trial=trial)
            continue
        stats: GramStats | None = None
        for k, idx in enumerate(points):
            value, tcfg = derived[idx][0], tcfgs[idx]
            try:
                if stats is None or not means_fixed:
                    stats = GramStats.from_noise(tcfg, noises[k if per_point else 0])
            except Exception as exc:
                skip("sample", str(exc), value=value, trial=trial)
                continue
            for mi, (mname, tau_spec) in enumerate(spec.methods):
                try:
                    prims = compute_primitives(
                        stats,
                        tau=resolve_tau(tau_spec, tcfg),
                        delta=tcfg.deltas,
                        mode="recursive",
                    )
                    entry = _trial_outputs(
                        tcfg, prims, exponents_e.get(idx), want_tight, want_prims
                    )
                except Exception as exc:
                    skip("fit", str(exc), value=value, trial=trial, method=mname)
                    continue
                results.setdefault((idx, mi), []).append(entry)

    rows: list[SweepRow] = []
    for idx, (value, cfg) in enumerate(derived):
        if cfg is None:
            continue
        for mi, (mname, tau_spec) in enumerate(spec.methods):
            data = results.get((idx, mi), [])
            if not data:
                skip("aggregate", "no successful trials", value=value, method=mname)
                continue
            rows.append(
                _aggregate_row(spec, idx, value, cfg, mname, tau_spec, data)
            )
    return rows, skips


def _trial_outputs(cfg, prims, e_pair, want_tight, want_prims):
    moments = fit_moments(prims)
    plus = group_risk(moments, +1)
    minus = group_risk(moments, -1)
    worst, average = worst_and_average((plus, minus), config=cfg)
    entry = {
        "risk_plus": plus.risk,
        "risk_minus": minus.risk,
        "worst": worst,
        "average": average,
        "exponent_plus": plus.exponent,
        "exponent_minus": minus.exponent,
    }
    if e_pair is not None:
        entry["e_plus"], entry["e_minus"] = e_pair
        if want_tight:
            entry["tightness_plus"] = (
                plus.exponent / e_pair[0] if e_pair[0] > 0 else None
            )
            entry["tightness_minus"] = (
                minus.exponent / e_pair[1] if e_pair[1] > 0 else None
            )
    if want_prims:
        report = verify_primitive_bounds(prims, cfg)
        entry["primitive_pass_frac"] = sum(r.passed for r in report.rows) / len(
            report.rows
        )
    return entry


def _aggregate_row(spec, idx, value, cfg, mname, tau_spec, data) -> SweepRow:
    """Mean and std of every per-trial output; None tightness values are dropped."""
    tau = resolve_tau(tau_spec, cfg)
    run_id = f"{spec.name}:{spec.axis.name}[{idx}]:{mname}:tau={tau:g}"
    summary = {}
    for key in data[0]:
        vals = [e[key] for e in data if e[key] is not None]
        if not vals:
            continue
        mean, std = _stat_pair(vals)
        if key == "primitive_pass_frac":
            summary[key] = mean
        else:
            summary[f"{key}_mean"], summary[f"{key}_std"] = mean, std
    return SweepRow(
        run_id=run_id,
        axis_value=float(value),
        method=mname,
        tau=float(tau),
        trials=len(data),
        **summary,
    )


def _fig_base(seed: int, delta_plus: float, delta_minus: float, r_plus: float = 250.0) -> ModelConfig:
    d = 100_000
    d_core = d // 2
    scale = np.sqrt(r_plus / 2.0)
    return ModelConfig(
        d_core=d_core,
        d_spur=d - d_core,
        mu_core=e1_mean(scale, d_core),
        mu_spur=e1_mean(scale, d - d_core),
        n_plus=190,
        n_minus=10,
        delta_plus=delta_plus,
        delta_minus=delta_minus,
        seed=seed,
    )


def preset(name: str, seed: int = 0, trials: int = 10) -> SweepSpec:
    """Built-in sweeps mirroring the simulation setups."""
    if name == "fig1_left":
        grid = np.concatenate(
            [np.geomspace(0.95, 0.05, 20), [0.05 / 2, 0.05 / 4, 0.05 / 8]]
        )
        return SweepSpec(
            base=_fig_base(seed, delta_plus=0.95, delta_minus=0.95),
            axis=SweepAxis("delta_minus", tuple(grid)),
            methods=(("cmni", None),),
            trials=trials,
            outputs=("risk", "bounds", "tightness"),
            out_path=f"{name}.csv",
            name=name,
        )
    if name == "fig1_right":
        base = ModelConfig(
            d_core=2500,
            d_spur=2500,
            mu_core=e1_mean(np.sqrt(5000.0**0.6 / 8.0), 2500),
            mu_spur=e1_mean(np.sqrt(5000.0**0.6 / 8.0), 2500),
            n_plus=48,
            n_minus=2,
            delta_plus=0.96,
            delta_minus=0.04,
            seed=seed,
        )
        return SweepSpec(
            base=base,
            axis=SweepAxis("n_coupled", (50, 100, 150, 200, 250)),
            methods=(("ridge", 0.0), ("ridge", "d/10"), ("ridge", "d")),
            trials=trials,
            outputs=("risk", "bounds", "tightness"),
            out_path=f"{name}.csv",
            name=name,
        )
    if name in ("fig2_left", "fig2_right"):
        if name == "fig2_left":
            dp, dm = 1.0, 1.0
        else:
            dp, dm = 0.95, 0.05
        base = _fig_base(seed, delta_plus=dp, delta_minus=dm)
        d, n, n_minus = 100_000, 200, 10
        grid = np.geomspace(d / n, d * n / n_minus**2, 12)
        return SweepSpec(
            base=base,
            axis=SweepAxis("r_plus_sq", tuple(grid)),
            methods=(("cmni", None),),
            trials=trials,
            outputs=("risk", "bounds", "tightness"),
            out_path=f"{name}.csv",
            name=name,
        )
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def emit(rows, path: str, fmt: str = "csv", meta: dict | None = None) -> None:
    """Write sweep rows to path as CSV (fixed header) or JSON."""
    if not rows:
        raise ValueError("refusing to emit an empty table")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.to_csv_values())
        with open(path, "w", newline="") as fh:
            fh.write(buf.getvalue())
        return
    if fmt == "json":
        from . import __version__

        doc = {
            "version": f"grouprisk-{__version__}",
            "generator": "philox",
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        if meta:
            doc["meta"] = dict(meta)
        doc["rows"] = [row.to_dict() for row in rows]
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        return
    raise ValueError(f"unknown format {fmt!r}")
