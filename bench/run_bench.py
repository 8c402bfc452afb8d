"""grouprisk benchmark: one workload per invocation, in its own processes.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  Each
workload is a single-client closed loop with BLAS left at the machine
default, which is recorded.

--trace 0 prints the end-to-end metrics: setup_s is the median of several
process set-ups (import, building the inputs, one warm-up op); the rest come
from one closed loop of `--seconds`.  --trace 1 prints the per-layer
metrics: a fixed number of ops, each run untraced and then traced, in one
process at the default BLAS threads and in one with OPENBLAS_NUM_THREADS=1.
Both modes check the outputs, print every metric by name with its unit, and
end with one JSON line; the exit code is 1 when any check failed.  Spans and full results are written under .bench_out/.
See bench/NOTES.md for the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COMPUTED, COUNTER_UNITS, LAYERS  # noqa: E402  (stdlib only)

NAMES = ("fig1_left", "fig1_right", "primitives", "cli")
SETUP_SAMPLES = 5
# Ops per traced pass, fixed so that counts repeat exactly between runs.
TRACE_OPS = {"fig1_left": 2, "fig1_right": 1, "primitives": 2, "cli": 18}
CLI_SUBCOMMANDS = ("verify-primitives", "risk", "fit", "sample", "wishart")
# Every worker must end by this many seconds after start, so that a run
# finishes (or fails) within 180 s.
DEADLINE_S = 170
_START = time.monotonic()

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "calls_per_s": "1/s",
    "call_s_p50": "s",
    "call_s_p90": "s",
    "peak_rss_mb": "MB",
}

# Layers with wrapped children, whose self time differs from busy time.
_SELF_TIMED = ("harness.run_sweep", "harness.noise_parts", "estimators.accumulate_gram",
               "primitives.compute_primitives.direct", "primitives.compute_primitives.recursive")


def _timed_layers() -> list[str]:
    names = []
    for layer, _, _ in LAYERS:
        if layer == "primitives.compute_primitives":
            names += [f"{layer}.direct", f"{layer}.recursive"]
        else:
            names.append(layer)
    return names + [f"cli.{sub}" for sub in CLI_SUBCOMMANDS]


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in _timed_layers():
        units[f"{layer}.busy_s"] = "s"
        if layer in _SELF_TIMED:
            units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units.update({k: u for k, u in COUNTER_UNITS.items() if k.startswith(layer + ".")})
    units.update({
        "model.noise_blocks.values_per_s": "1/s",
        "harness.noise_parts.gflops": "GFLOP/s",
        "harness.parts_reuse": "fraction",
        "process.wall_s": "s",
        "process.cpu_s": "s",
        "process.blas_threads": "count",
        "process.baseline_1t_wall_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.uncovered_s": "s",
    })
    return units


def _spawn(cfg: dict, env_extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(env_extra or {})
    cfg = dict(cfg, root=str(ROOT), t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, _START + DEADLINE_S - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {cfg['mode']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method (the largest sample for q = 100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted, failed, notes = 0, 0, []
    for p in passes:
        for i, rec in enumerate(p.get("records", [])):
            attempted += 1
            if not rec["ok"]:
                failed += 1
                notes.append(f"op {i} failed: {rec}")
        for chk in p.get("checks", []):
            attempted += 1
            if not chk["ok"]:
                failed += 1
                notes.append(f"check {chk['check']} failed: {chk['detail']}")
        digests = {rec["digest"] for rec in p.get("records", []) if "skips" in rec}
        if len(digests) > 1:
            failed += 1
            notes.append(f"sweep CSV digests differ across repeats: {sorted(digests)}")
    return attempted, failed, notes


def timed_run(args, out_dir: Path) -> tuple[dict, dict, list[str]]:
    base = {"workload": args.workload, "seed": args.seed, "out_dir": str(out_dir)}
    setups = [_spawn(dict(base, mode="setup"))["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = _spawn(dict(base, mode="loop", seconds=args.seconds))
    setups.append(main["setup_s"])
    calls = main["call_s"]
    g = main["group"]
    groups = [sum(calls[k:k + g]) for k in range(0, len(calls) - g + 1, g)]
    attempted, failed, notes = _failures([main])
    values = {
        "setup_s": statistics.median(setups),
        "trials_per_s": main["group_trials"] / statistics.median(groups),
        "calls_per_s": len(calls) / main["wall_s"],
        "call_s_p50": statistics.median(calls),
        "call_s_p90": _quantile(calls, 90),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    info = {
        "machine": main["machine"],
        "samples": {"calls": len(calls), "beyond_p90": sum(c > values["call_s_p90"] for c in calls),
                    "trials": len(groups) * main["group_trials"], "setups": len(setups)},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "checks": main["checks"],
        "setup_samples_s": setups,
        "call_s": calls,
    }
    return metrics, info, notes


def traced_run(args, out_dir: Path) -> tuple[dict, dict, list[str]]:
    base = {"workload": args.workload, "seed": args.seed, "out_dir": str(out_dir),
            "ops": TRACE_OPS[args.workload], "mode": "traced"}
    default = _spawn(dict(base, spans="spans.json"))
    single = _spawn(dict(base, spans="spans_1t.json"), {"OPENBLAS_NUM_THREADS": "1"})
    passes = [dict(w[side], checks=w["checks"] if side == "plain" else [])
              for w in (default, single) for side in ("plain", "traced")]
    attempted, failed, notes = _failures(passes)
    attempted += 2
    plain_digests = [r["digest"] for r in default["plain"]["records"]]
    if [r["digest"] for r in default["traced"]["records"]] != plain_digests:
        failed += 1
        notes.append("traced outputs differ from untraced outputs")
    if default["counts"] != single["counts"]:
        failed += 1
        diff = {k: (default["counts"].get(k), single["counts"].get(k))
                for k in set(default["counts"]) | set(single["counts"])
                if default["counts"].get(k) != single["counts"].get(k)}
        notes.append(f"exact counts differ between traced runs: {diff}")
    plain, traced_wall = default["plain"], default["traced"]["wall_s"]

    units = per_layer_units()
    values = {name: 0.0 for name in units}
    counts, layers = default["counts"], default["layers"]
    for name in units:
        layer, _, field = name.rpartition(".")
        if field in ("busy_s", "self_s"):
            values[name] = layers.get(layer, {}).get(field, 0.0)
        elif name in counts:
            values[name] = counts[name]
    busy = values["model.noise_blocks.busy_s"]
    values["model.noise_blocks.values_per_s"] = (
        values["model.noise_blocks.values"] / busy if busy > 0 else 0.0)
    self_s = values["harness.noise_parts.self_s"]
    values["harness.noise_parts.gflops"] = (
        values["harness.noise_parts.flops"] / self_s / 1e9 if self_s > 0 else 0.0)
    points = default["points_per_op"] * TRACE_OPS[args.workload]
    if points:
        values["harness.parts_reuse"] = 1.0 - values["harness.noise_parts.calls"] / points
    values.update({
        "process.wall_s": plain["wall_s"],
        "process.cpu_s": plain["cpu_s"],
        "process.blas_threads": default["blas_threads"],
        "process.baseline_1t_wall_s": single["plain"]["wall_s"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain["wall_s"],
        "trace.uncovered_s": traced_wall - default["root_s"],
    })
    absent = sorted({name for name in units
                     for layer in default["absent"] if name.startswith(layer + ".")}
                    | {name for name in COUNTER_UNITS
                       for layer in default["uncounted"] if name.startswith(layer + ".")})
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    shares = {layer: t["busy_s"] / traced_wall for layer, t in layers.items()}
    info = {
        "machine": default["machine"],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "absent": absent,
        "computed": sorted(COMPUTED),
        "busy_share_of_traced_wall": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "blas_threads_1t": single["blas_threads"],
        "checks": default["checks"] + single["checks"],
    }
    return metrics, info, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "grouprisk" / "__init__.py").is_file():
        print(f"grouprisk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    run = traced_run if args.trace else timed_run
    try:
        metrics, info, notes = run(args, out_dir)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in out_dir.glob("data.bin*"):
            leftover.unlink()
    for note in notes:
        print(f"FAIL {note}")
    print(f"machine {json.dumps(info['machine'], sort_keys=True)}")
    for name, m in metrics.items():
        tag = " (computed)" if name in COMPUTED else ""
        tag += " (absent)" if name in info.get("absent", ()) else ""
        print(f"metric {name} = {m['value']:.6g} {m['unit']}{tag}")
    print(f"metric error_rate = {info['error_rate']:.6g} fraction")
    for key in ("samples", "absent", "busy_share_of_traced_wall"):
        if key in info:
            print(f"{key} {json.dumps(info[key])}")
    (out_dir / f"result_trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                    **info, "failures": notes}, indent=2) + "\n")
    correct = info["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
