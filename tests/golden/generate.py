"""The golden sweep outputs and the script that writes them.

    PYTHONPATH=src python tests/golden/generate.py

writes `<name>.csv` for every spec in `SPECS`, next to this file, with
`harness.emit`, and `machine.json` with the facts of the machine that
wrote them.  `tests/test_golden.py` runs the same specs and compares: the
header and column order exactly, the text columns exactly and every value
to 1e-10 relative, which leaves room for another CPU's BLAS kernels.  A
change that moves a golden file on purpose regenerates it with this
script and names the file and the reason in CHANGES.md; the tolerance is
never loosened.

The specs: the four presets at one trial and seed 7; `primitives`, the
shape of the benchmark's primitives workload (n = 400, d = 8000, twelve
weights, cmni and ridge at d/10, every output) at one trial; and
`pairwise_mean`, a small sweep at ten trials, past the eight at which
numpy's mean switches to pairwise summation.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np
import scipy

from grouprisk.harness import SweepAxis, SweepSpec, emit, preset, run_sweep
from grouprisk.model import ModelConfig

HERE = Path(__file__).resolve().parent
SEED = 7
ALL_OUTPUTS = ("risk", "bounds", "tightness", "primitives")


def _primitives() -> SweepSpec:
    d = 8000
    base = ModelConfig(d_core=d // 2, d_spur=d // 2, mu_core=np.sqrt(d / 10), mu_spur=np.sqrt(d / 40),
                       n_plus=320, n_minus=80, seed=SEED)
    return SweepSpec(base=base, axis=SweepAxis("delta_minus", tuple(np.geomspace(1.0, 0.02, 12))),
                     methods=(("cmni", None), ("ridge", "d/10")), trials=1, outputs=ALL_OUTPUTS,
                     name="primitives")


def _pairwise_mean() -> SweepSpec:
    base = ModelConfig(d_core=400, d_spur=400, mu_core=5.0, mu_spur=3.0, n_plus=32, n_minus=8,
                       seed=SEED)
    return SweepSpec(base=base, axis=SweepAxis("delta_minus", (0.5, 0.1)),
                     methods=(("cmni", None), ("ridge", "d/10")), trials=10, outputs=ALL_OUTPUTS,
                     name="pairwise_mean")


SPECS = {
    **{name: preset(name, seed=SEED, trials=1)
       for name in ("fig1_left", "fig1_right", "fig2_left", "fig2_right")},
    "primitives": _primitives(),
    "pairwise_mean": _pairwise_mean(),
}


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    for name, spec in SPECS.items():
        rows, skips = run_sweep(spec)
        if skips:
            raise SystemExit(f"{name}: {skips}")
        emit(rows, str(HERE / f"{name}.csv"))
    (HERE / "machine.json").write_text(json.dumps(machine(), indent=1) + "\n")


if __name__ == "__main__":
    main()
