"""One benchmark pass of one workload, in its own process.

Started by run_bench.py with one JSON argument; prints one JSON document.
Modes:

    setup   import, build the inputs, one warm-up op; report setup_s only
    loop    closed loop for `seconds`, then the output checks
    traced  `ops` ops, each run untraced and then with the tracer's
            wrappers installed, then the output checks

setup_s runs from `t0` (time.monotonic() in the parent just before it
started this process) to the start of the first timed op.  Peak memory is
read before the checks run, so it covers set-up and the timed ops only.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _blas_facts() -> dict:
    """Vendor, version and thread count of each loaded OpenBLAS."""
    import numpy as np

    facts = {"numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                threads[Path(path).name] = getattr(lib, fn)()
                break
    facts["openblas_threads"] = threads
    facts["blas_threads"] = max(threads.values(), default=0)
    return facts


def _llc_size() -> str:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, "unknown")
    for idx in caches.glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size))
    return best[1]


def machine_facts() -> dict:
    import numpy
    import scipy

    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "llc_size": _llc_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_blas_facts(),
    }


def _op(wl, i: int, tracer=None) -> tuple[float, dict, float]:
    """Run op i; return (op seconds, its record, seconds including the record)."""
    t = time.perf_counter()
    if tracer is None:
        result = wl.op(i)
    else:
        tracer.op = i
        name = getattr(wl, "span_name", None)
        if name is None:  # the run_sweep wrapper opens the op's root span
            result = wl.op(i)
        else:
            tracer.counts[f"{name(i)}.calls"] += 1
            idx = tracer.enter(name(i))
            try:
                result = wl.op(i)
            finally:
                tracer.leave(idx)
    call_s = time.perf_counter() - t
    record = wl.record(i, result)
    return call_s, record, time.perf_counter() - t


def _loop(wl, seconds: float) -> dict:
    """Closed loop for `seconds`, ending on a whole trial group."""
    calls, records = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    i = 0
    while True:
        call_s, record, _ = _op(wl, i)
        calls.append(call_s)
        records.append(record)
        i += 1
        if i % wl.group == 0 and time.perf_counter() - start >= seconds:
            break
    return {"call_s": calls, "records": records, "wall_s": time.perf_counter() - start,
            "cpu_s": time.process_time() - cpu0}


def _interleaved(wl, ops: int, tracer) -> dict:
    """Each op untraced then traced, so drift hits both sides alike."""
    plain = {"records": [], "wall_s": 0.0, "cpu_s": 0.0}
    traced = {"records": [], "wall_s": 0.0}
    for i in range(ops):
        cpu0 = time.process_time()
        _, record, wall = _op(wl, i)
        plain["cpu_s"] += time.process_time() - cpu0
        plain["wall_s"] += wall
        plain["records"].append(record)
        tracer.install()
        try:
            _, record, wall = _op(wl, i, tracer)
        finally:
            tracer.uninstall()
        traced["wall_s"] += wall
        traced["records"].append(record)
    return {"plain": plain, "traced": traced}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    root = Path(cfg["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import grouprisk

    if Path(grouprisk.__file__).resolve().parent != (src / "grouprisk").resolve():
        print(f"imported grouprisk from {grouprisk.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    out_dir = Path(cfg["out_dir"])
    wl = workloads.build(cfg["workload"], cfg["seed"], out_dir)
    wl.warmup()
    doc = {
        "setup_s": time.monotonic() - cfg["t0"],
        "group": wl.group,
        "group_trials": wl.group_trials,
        "points_per_op": wl.points_per_op,
    }
    mode = cfg["mode"]
    if mode == "traced":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        doc.update(_interleaved(wl, cfg["ops"], tracer))
        with open(out_dir / cfg["spans"], "w") as fh:
            json.dump({"workload": cfg["workload"], "seed": cfg["seed"],
                       "spans": tracer.dump()}, fh)
        doc.update(layers=tracer.layer_times(), counts=dict(tracer.counts),
                   absent=tracer.absent, uncounted=sorted(tracer.uncounted),
                   root_s=tracer.root_time(),
                   blas_threads=_blas_facts()["blas_threads"])
    elif mode == "loop":
        doc.update(_loop(wl, cfg["seconds"]))
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    if mode != "setup":
        doc["checks"] = wl.checks()
        doc["machine"] = machine_facts()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
