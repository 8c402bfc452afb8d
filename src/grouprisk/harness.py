"""Experiment sweeps and result persistence.

A sweep walks one named axis, derives a full config at each value, runs
`trials` seeded repetitions of every method, and aggregates per-group
risks, margin exponents, bound exponents, tightness ratios and the band
pass fraction into rows.  Every row carries every output; a spec's
`outputs` is validated and selects nothing.

Axes:

    delta_minus   vary the minority adjustment weight only
    r_plus_sq     vary the squared total signal strength; means are
                  rebuilt as mu_c = mu_s = sqrt(R_plus/2) e_1
    n_coupled     vary n with the coupled rule d = 2 n^2,
                  n_minus = round(0.04 n), Delta_pm = n_pm / n,
                  R_plus = d^0.6 / 4, means split evenly on e_1

Trial i reads the seed XOR i only where it streams its noise, once and
before its points, into (Q Q', Q u_c, Q u_s).  Along delta_minus and
r_plus_sq the noise matrix and labels do not depend on the axis value, so
that is one `model.noise_stats_many` call of one config, whose draw every
point reads.  Along n_coupled every value has its own n and d, but every
point's Q reads a prefix of the trial's one noise stream, so one call
streams all of them in a single pass and each word is drawn once.

A point reads its draw only through the norm-free order-0 tables of each
tau (`primitives._order0_solve`: one Cholesky of gram_0 + tau I and two
7x7 tables), solved once per (draw, tau) and memoized on the draw; its
mean norms, counts and weights are its own row's arguments.  So a trial
is one recursion (`primitives._recursive_primitives`) over the stack of
its (point, method) rows, on every axis, and row i is the same bits as
`compute_primitives(mode="recursive")` at that point and tau.  The risks,
margin exponents, tightness ratios (against the bound exponents computed
once per point) and band pass fractions are then read as arrays over the
stack: the risk identity (`primitives.fit_moments`) gives |w_hat|^2 and
w_hat' mu_b of each fit, so no fitter runs in a sweep, and `fit_cmni`
and `fit_ridge` remain the per-point reference.  A row whose solve,
recursion or fit fails (a refused Cholesky, a singular det(A_k), an o
that has cancelled in the recursion, a fit whose |w_hat|^2 is below the
smallest normal float) is skipped alone,
with the reason and in the order a per-point run would give; a failure
of the trial's recursion itself skips each of its rows with that reason.

A trial's outputs are one float array over its rows, its columns the
per-trial outputs in `SweepRow` column order, with a tightness NaN where
its E_b = 0.  A row keeps the output vector of each of its successful
trials, in trial order, and its fields are the mean and std of every
output over them (the primitive pass fraction only a mean), reduced along
the trial axis.  E_b depends on the point alone, so it is computed once
per point and written as it is: `e_<b>_mean` is `bound_exponent`'s value
and `e_<b>_std` is 0; where E_b = 0 the point has no tightness ratio, and
both `tightness_<b>` fields are None.  The `SweepRow` fields, in order,
are the CSV columns.  CSV output is byte-deterministic for a fixed seed;
the JSON format carries run metadata including a timestamp, so only its
`rows` payload is stable.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .bounds import bound_exponent
from .model import (
    ModelConfig,
    _check_fields,
    _POSITIVE,
    _coerce,
    _mean_norms,
    _one_blas_thread,
    _shown,
    _required_fields,
    noise_stats_many,
    substream_seed,
)
from .primitives import _band_check, _cancelled, _fit_moments, _order0_solve, _recursive_primitives, _singular
from .risk import _NORM_SQ_FLOOR, _group_risks, _unresolved, _worst_and_average

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
        object.__setattr__(self, "values", tuple(_coerce("axis values", v) for v in self.values))
        if not self.values:
            raise ValueError("axis needs at least one value")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: base config, axis, methods, trial count.  `outputs` is
    validated and selects nothing: every row carries every output."""

    base: ModelConfig
    axis: SweepAxis
    methods: tuple = (("cmni", None),)
    trials: int = 1
    outputs: tuple = ("risk", "bounds")
    out_path: str | None = None
    name: str = "sweep"

    def __post_init__(self):
        object.__setattr__(self, "trials", _coerce("trials", self.trials))
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
            resolved = resolve_tau(tau, self.base)
            # a number is stored as the float it reads as, so to_dict writes JSON
            methods.append((mname, tau if tau is None or isinstance(tau, str) else resolved))
        if not methods:
            raise ValueError("methods needs at least one entry")
        object.__setattr__(self, "methods", tuple(methods))
        outputs = tuple(self.outputs)
        # a name that is not a string is shown by its type: it may be unhashable
        unknown = {o if isinstance(o, str) else _shown(o) for o in outputs} - set(OUTPUT_NAMES)
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
        parsed = {"base": ModelConfig.from_dict(data["base"]), "axis": SweepAxis(**data["axis"])}
        # a missing "methods" key is the default, cmni; an empty array is refused
        if "methods" in data:
            parsed["methods"] = tuple((entry["method"], entry.get("tau")) for entry in data["methods"])
        return cls(**{**data, **parsed})


@dataclass(frozen=True)
class SweepRow:
    """One (point, method) of a sweep; its fields, in order, are the CSV
    columns.  Every field is filled but the tightness pair of a group,
    which is None (an empty CSV cell) where that group's E_b = 0."""

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
    e_plus_mean: float
    e_plus_std: float
    e_minus_mean: float
    e_minus_std: float
    tightness_plus_mean: float | None
    tightness_plus_std: float | None
    tightness_minus_mean: float | None
    tightness_minus_std: float | None
    primitive_pass_frac: float

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
        scale = np.sqrt(np.sqrt(_coerce("r_plus_sq", value, _POSITIVE)) / 2.0)
        return base.with_updates(mu_core=scale, mu_spur=scale)
    if axis_name == "n_coupled":
        if not (2 <= value < math.inf and value == int(value)):
            raise ValueError(f"n_coupled axis values must be integers of at least 2, got {_shown(value)}")
        n = int(value)
        n_minus = max(1, round(0.04 * n))
        n_plus = n - n_minus
        d = 2 * n * n
        scale = np.sqrt(d**0.6 / 4.0 / 2.0)
        d_core = (d + 1) // 2
        return base.with_updates(
            d_core=d_core,
            d_spur=d - d_core,
            mu_core=scale,
            mu_spur=scale,
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
            if 0.0 < divisor < math.inf and math.isfinite(config.d / divisor):
                return config.d / divisor
        raise ValueError(f"cannot resolve tau spec {tau_spec!r}")
    return _coerce("tau", tau_spec)


@_one_blas_thread()
def run_sweep(spec: SweepSpec):
    """Execute the sweep; returns (rows, skips).

    Failures at any stage are appended to `skips` as JSON-ready dicts and
    the sweep continues.  Trial i streams its noise once for all of its
    points, at seed base.seed XOR i, and a failed stream skips every point
    of the trial at the "sample" stage.
    The whole sweep runs at one OpenBLAS thread (`model._one_blas_thread`),
    so its rows are the same bits at any BLAS thread count; the caller's
    counts are restored on return.
    """
    points: list[tuple[int, float, ModelConfig]] = []
    skips: list[dict] = []

    def skip(stage, reason, **where):
        skips.append({"axis": spec.axis.name, **where, "stage": stage, "reason": reason})

    for idx, value in enumerate(spec.axis.values):
        try:
            points.append((idx, value, derive_config(spec.base, spec.axis.name, value)))
        except (ValueError, TypeError) as exc:
            skip("config", str(exc), value=value)

    # each n_coupled value has its own n and d; on the other axes the labels
    # and noise do not depend on the value, so the first point's serve all
    per_point = spec.axis.name == "n_coupled"
    streamed = points if per_point else points[:1]
    # E_b depends on the point alone
    exponents_e = [bound_exponent(cfg) for _, _, cfg in points]
    # every (point, method) row, and the output vector of each of its successful trials
    rows = [(k, mi) for k in range(len(points)) for mi in range(len(spec.methods))]
    sources = [(k if per_point else 0, spec.methods[mi][1], points[k][2]) for k, mi in rows]
    vectors: list[list[np.ndarray]] = [[] for _ in rows]
    for trial in range(spec.trials):
        seed = substream_seed(spec.base.seed, trial)
        try:
            noises = noise_stats_many([cfg.with_updates(seed=seed) for _, _, cfg in streamed])
        except Exception as exc:
            for _, value, _ in points:
                skip("sample", str(exc), value=value, trial=trial)
            continue
        tables = _row_tables(noises, sources)
        reasons = [table if isinstance(table, str) else None for table in tables]
        live = [r for r, reason in enumerate(reasons) if reason is None]
        if live:
            at = [rows[r][0] for r in live]
            try:
                outputs, failures = _trial_outputs([tables[r] for r in live], [points[k][2] for k in at],
                                                   [exponents_e[k] for k in at])
            except Exception as exc:
                outputs, failures = [None] * len(live), [str(exc)] * len(live)
            for r, vector, failure in zip(live, outputs, failures):
                reasons[r] = failure
                if failure is None:
                    vectors[r].append(vector)
        for (k, mi), reason in zip(rows, reasons):
            if reason is not None:
                skip("fit", reason, value=points[k][1], trial=trial, method=spec.methods[mi][0])

    out: list[SweepRow] = []
    for (k, mi), done in zip(rows, vectors):
        (idx, value, cfg), (mname, tau_spec) = points[k], spec.methods[mi]
        if not done:
            skip("aggregate", "no successful trials", value=value, method=mname)
            continue
        tau = resolve_tau(tau_spec, cfg)
        run_id = f"{spec.name}:{spec.axis.name}[{idx}]:{mname}:tau={tau:g}"
        out.append(SweepRow(run_id, float(value), mname, float(tau), len(done), *_summary(done, exponents_e[k])))
    return out, skips


def _row_tables(draws, rows) -> list:
    """Per row of (index into draws, tau spec, config): its draw's order-0
    tables at its tau as (table, squared, tau), or the reason they failed."""
    out = []
    for index, tau_spec, cfg in rows:
        try:
            tau = resolve_tau(tau_spec, cfg)
            out.append((*draws[index].per_tau(_order0_solve, tau), tau))
        except Exception as exc:
            out.append(str(exc))
    return out


def _trial_outputs(solved, cfgs, e_pairs):
    """The outputs of the rows of one trial, one recursion over their
    stack: row i is solved[i] = (table, squared, tau) at the mean norms,
    sizes and weights of cfgs[i], and e_pairs[i] its (E_+, E_-).  Returns
    a (rows, outputs) array, the per-trial outputs in `SweepRow` column
    order with a tightness NaN where its E_b = 0, and per row None or the
    reason it failed, checked in this order: a singular det(A_k)
    (`primitives._singular`), an o that has cancelled
    (`primitives._cancelled`), or a fit whose |w_hat|^2 is not a normal
    float (`risk.group_risk`'s refusal)."""
    tables, squares, taus = (np.array(column) for column in zip(*solved))
    norms = np.array([_mean_norms(c) for c in cfgs])
    prims = _recursive_primitives(tables, squares, norms, taus, np.array([c.deltas for c in cfgs]))
    w_norm_sq, w_dot_mu = _fit_moments(prims)
    fits = w_norm_sq >= _NORM_SQ_FLOOR
    failures = [_singular(det_a) or _cancelled(o, s_id_jd, tau) or (None if fit else _unresolved(norm_sq))
                for det_a, o, s_id_jd, tau, fit, norm_sq
                in zip(prims.det_a, prims.o, prims.s_id_jd, taus, fits, w_norm_sq)]
    _, exponent, risk = _group_risks(np.where(fits, w_norm_sq, 1.0), w_dot_mu)
    sizes = np.array([(c.n_plus, c.n_minus, c.d) for c in cfgs])
    worst, average = _worst_and_average(risk[:, 0], risk[:, 1], sizes[:, 0], sizes[:, 1])
    e_b = np.array(e_pairs)
    tightness = np.divide(exponent, e_b, out=np.full_like(e_b, np.nan), where=e_b > 0.0)
    passed = _band_check(prims, sizes)[-1]
    pass_frac = passed.sum(axis=-1) / passed.shape[-1]
    return np.column_stack([risk, worst, average, exponent, tightness, pass_frac]), failures


def _summary(vectors, e_pair) -> list:
    """The `SweepRow` fields after `trials` of a row, from the output
    vectors of its successful trials: the mean and std over the trials of
    every output (the pass fraction a mean alone), and the point's
    (E_+, E_-) as they are with std 0.  A tightness pair is None where its
    E_b = 0, which is a fact about the point, not about a trial."""
    # the trial axis contiguous: past 8 trials numpy's mean sums it pairwise
    table = np.array(vectors).T.copy()
    means = table.mean(axis=-1).tolist()
    stds = table.std(axis=-1, ddof=1).tolist() if len(vectors) > 1 else [0.0] * len(means)
    pairs = list(zip(means, stds))
    # six (mean, std) pairs from the risks to the exponents, then E_b's and the tightness pairs
    tightness = [pair if e_b > 0.0 else (None, None) for pair, e_b in zip(pairs[6:8], e_pair)]
    pairs = [*pairs[:6], *((e_b, 0.0) for e_b in e_pair), *tightness]
    return [field for pair in pairs for field in pair] + [means[8]]


def _fig_base(seed: int, delta_plus: float, delta_minus: float, r_plus: float = 250.0) -> ModelConfig:
    scale = np.sqrt(r_plus / 2.0)
    return ModelConfig(
        d_core=50_000,
        d_spur=50_000,
        mu_core=scale,
        mu_spur=scale,
        n_plus=190,
        n_minus=10,
        delta_plus=delta_plus,
        delta_minus=delta_minus,
        seed=seed,
    )


def preset(name: str, seed: int = 0, trials: int = 10) -> SweepSpec:
    """Built-in sweeps mirroring the simulation setups."""
    if name == "fig1_left":
        grid = np.concatenate([np.geomspace(0.95, 0.05, 20), [0.05 / 2, 0.05 / 4, 0.05 / 8]])
        return SweepSpec(
            base=_fig_base(seed, delta_plus=0.95, delta_minus=0.95),
            axis=SweepAxis("delta_minus", tuple(grid)),
            methods=(("cmni", None),),
            trials=trials,
            name=name,
        )
    if name == "fig1_right":
        return SweepSpec(
            # the coupled rule at its first value, n = 50
            base=derive_config(_fig_base(seed, delta_plus=1.0, delta_minus=1.0), "n_coupled", 50),
            axis=SweepAxis("n_coupled", (50, 100, 150, 200, 250)),
            methods=(("ridge", 0.0), ("ridge", "d/10"), ("ridge", "d")),
            trials=trials,
            name=name,
        )
    if name in ("fig2_left", "fig2_right"):
        dp, dm = (1.0, 1.0) if name == "fig2_left" else (0.95, 0.05)
        base = _fig_base(seed, delta_plus=dp, delta_minus=dm)
        grid = np.geomspace(base.d / base.n, base.d * base.n / base.n_minus**2, 12)
        return SweepSpec(
            base=base,
            axis=SweepAxis("r_plus_sq", tuple(grid)),
            methods=(("cmni", None),),
            trials=trials,
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
