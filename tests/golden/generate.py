"""The golden outputs and the script that writes them.

    PYTHONPATH=src python tests/golden/generate.py [NAME...]

writes, next to this file, `<name>.csv` for every sweep in `SPECS` (with
`harness.emit`), `<name>.json` for the stdout of every command in
`COMMANDS`, `sample` outputs of README's `sample` command (the sidecar as
`sample_sidecar.json` and the sha256 of its `data.bin`, which is 3.2 MB and
not kept, as `sample_data.sha256`), and `machine.json` with the facts of
the machine that wrote them.  `outputs()` names every file, and
`tests/test_golden.py` holds the files under this folder to it one to one.
It also writes `demo_<stem>.txt`, the stdout of each script in `demos/`,
which `tests/test_demos.py` compares with the run it makes: every
character must match, except numbers in `e` notation below 1e-8, which
are rounding residuals (`4.44e-16`, a gap of `2.11e-15`) and must only
stay below 1e-8.

Each NAME is a file name of `outputs()` or that name without its suffix
(a key of `SPECS` or `COMMANDS`, say), and only the named files are
written; with no NAME every file is.  An unknown name is refused before
anything is written.

`tests/test_golden.py` runs the same sweeps and commands and compares.
BLAS-free outputs (`wishart`, the sidecar and the digest) must be the same
bytes.  A CSV must have the same header and text columns, and every value
must agree to 1e-10 relative, which leaves room for another CPU's BLAS
kernels; a JSON document must have the same keys in the same order, the
same strings, bools and nulls, and every number to 1e-10 relative.  The
fields in a command's `residuals` are rounding residuals: each is held to
its documented bound, not to its golden value.  A change that moves a
golden file on purpose regenerates it with this script and names the
file and the reason in CHANGES.md; the tolerance is never loosened.

The sweeps: the four presets at one trial and seed 7; `primitives`, the
shape of the benchmark's primitives workload (n = 400, d = 8000, twelve
weights, cmni and ridge at d/10) at one trial;
`pairwise_mean`, a small sweep at ten trials, past the eight at which
numpy's mean switches to pairwise summation; and one-trial sweeps
along `r_plus_sq` and `n_coupled`, whose band pass fractions differ from
row to row.  Every sweep row carries every output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from grouprisk import cli
from grouprisk.harness import SweepAxis, SweepSpec, emit, preset, run_sweep
from grouprisk.model import ModelConfig

HERE = Path(__file__).resolve().parent
SEED = 7


def _primitives() -> SweepSpec:
    d = 8000
    base = ModelConfig(d_core=d // 2, d_spur=d // 2, mu_core=np.sqrt(d / 10), mu_spur=np.sqrt(d / 40),
                       n_plus=320, n_minus=80, seed=SEED)
    return SweepSpec(base=base, axis=SweepAxis("delta_minus", tuple(np.geomspace(1.0, 0.02, 12))),
                     methods=(("cmni", None), ("ridge", "d/10")), trials=1, name="primitives")


def _pairwise_mean() -> SweepSpec:
    base = ModelConfig(d_core=400, d_spur=400, mu_core=5.0, mu_spur=3.0, n_plus=32, n_minus=8,
                       seed=SEED)
    return SweepSpec(base=base, axis=SweepAxis("delta_minus", (0.5, 0.1)),
                     methods=(("cmni", None), ("ridge", "d/10")), trials=10, name="pairwise_mean")


_SMALL = ModelConfig(d_core=1000, d_spur=1000, mu_core=6.0, mu_spur=3.0, n_plus=32, n_minus=8,
                     delta_plus=0.9, delta_minus=0.1, seed=SEED)


def _r_plus_sq() -> SweepSpec:
    # past R_+^2 ~ 1e4 det(A_2) leaves the bands, so the pass fractions fall
    return SweepSpec(base=_SMALL, axis=SweepAxis("r_plus_sq", tuple(np.geomspace(10.0, 1e6, 6))),
                     methods=(("cmni", None), ("ridge", "d/10"), ("ridge", "d")), trials=1,
                     name="r_plus_sq")


def _n_coupled() -> SweepSpec:
    return SweepSpec(base=_SMALL, axis=SweepAxis("n_coupled", (4, 6, 8, 12, 16)),
                     methods=(("ridge", 0.0), ("ridge", "d/10"), ("ridge", "d")), trials=1,
                     name="n_coupled")


SPECS = {
    **{name: preset(name, seed=SEED, trials=1)
       for name in ("fig1_left", "fig1_right", "fig2_left", "fig2_right")},
    "primitives": _primitives(),
    "pairwise_mean": _pairwise_mean(),
    "r_plus_sq": _r_plus_sq(),
    "n_coupled": _n_coupled(),
}

# README's `sample` command; "{data}" in a command's argv is its data.bin
DATA = "{data}"
SAMPLE = ["sample", "-n", "100", "-d", "4000", "--delta-plus", "0.8", "--delta-minus", "0.2",
          "--seed", "1", "--out", DATA]
_README_CONFIG = ["-n", "100", "-d", "4000"]

# README's commands: (argv, residuals), residuals mapping each rounding
# residual the stdout holds to its documented bound.  |Delta^{-1} y| is 10
# (2-norm) and 1 (inf-norm) at n = 100 and unit weights, and 25 (2-norm)
# at the sampled (0.8, 0.2); the residuals of `estimators` are relative to
# it (`_SOLVE_RTOL`, `_GD_TOL`, both 1e-10), and `interpolation_residual`
# is Delta times the residual of the system, Delta <= 1.  The three gaps
# are the gates of `primitives.verify_primitives`.
COMMANDS = {
    "risk": (["risk", *_README_CONFIG, "--delta-plus", "0.8", "--delta-minus", "0.2", "--seed", "1",
              "--mc-draws", "100000"], {}),
    "bounds": (["bounds", "--n-plus", "190", "--n-minus", "10", "-d", "100000", "--mu-core-sq", "125",
                "--mu-spur-sq", "125", "--delta-plus", "0.95", "--delta-minus", "0.05"], {}),
    "fit_cmni": (["fit", *_README_CONFIG, "--method", "cmni"],
                 {"solver_residual": 1e-9, "interpolation_residual": 1e-9}),
    "fit_gd": (["fit", *_README_CONFIG, "--method", "gd", "--iters", "2000"],
               {"residual_inf": 1e-10, "interpolation_residual": 1e-10}),
    # ridge does not interpolate: its interpolation_residual is tau |Delta c|_inf, a value
    "fit_ridge_data": (["fit", "--data", DATA, "--method", "ridge", "--tau", "50.0"],
                       {"solver_residual": 2.5e-9}),
    "verify_primitives": (["verify-primitives", "--n-plus", "24", "--n-minus", "6", "-d", "30000",
                           "--mu-core-sq", "72", "--mu-spur-sq", "18", "--seed", "3", "--band", "0.5,2.0"],
                          {"mode_equivalence_max_gap": 1e-8, "risk_identity_gap": 1e-8,
                           "adjugate_identity_gap": 1e-10}),
    # README's out-of-regime example: exit 0 with 10 failing band rows, the
    # nearest 5.8% from its band edge, so the failures do not hang on BLAS
    "verify_primitives_out_of_regime": (["verify-primitives", "-n", "40", "-d", "300", "--seed", "3"],
                                        {"mode_equivalence_max_gap": 1e-8, "risk_identity_gap": 1e-8,
                                         "adjugate_identity_gap": 1e-10}),
    "wishart": (["wishart", "-d", "1000", "-n", "10", "-t", "4.6", "--draws", "1000"], {}),
}
# outputs that read no BLAS: the same bytes on any machine
EXACT = {"wishart.json", "sample_sidecar.json", "sample_data.sha256"}

ROOT = HERE.parents[1]
DEMOS = {f"demo_{script.stem}": script for script in sorted((ROOT / "demos").glob("*.py"))}


def outputs() -> set[str]:
    """The name of every file `main` writes."""
    return {
        *(f"{name}.csv" for name in SPECS),
        *(f"{name}.json" for name in COMMANDS),
        *(f"{name}.txt" for name in DEMOS),
        "sample_sidecar.json",
        "sample_data.sha256",
        "machine.json",
    }


def run_cli(argv, data: str) -> str:
    """The stdout of `grouprisk <argv>`, with "{data}" read as `data`; the
    command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([data if arg == DATA else arg for arg in argv])
    if code != 0:
        raise SystemExit(f"{argv}: exit {code}")
    return out.getvalue()


def run_demo(script: Path) -> str:
    """The stdout of `python <script>` run from the repo root with `src` on
    its path; the script must exit 0."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{script.name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return proc.stdout


def sample_outputs(data: str) -> dict[str, bytes]:
    """Run `SAMPLE` into `data`: the sidecar's bytes and data.bin's digest."""
    run_cli(SAMPLE, data)
    digest = hashlib.sha256(Path(data).read_bytes()).hexdigest()
    return {
        "sample_sidecar.json": Path(data + ".json").read_bytes(),
        "sample_data.sha256": f"{digest}\n".encode(),
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


def main(names=()) -> None:
    """Write the outputs `names` selects (see the module docstring), or
    every output when `names` is empty."""
    files = sorted(outputs())
    by_name = {**{Path(file).stem: file for file in files}, **{file: file for file in files}}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise SystemExit(f"unknown golden outputs {unknown}; choose from {sorted(by_name)}")
    chosen = sorted({by_name[name] for name in names}) or files
    with tempfile.TemporaryDirectory() as tmp:
        data = str(Path(tmp) / "data.bin")
        sampled = {}
        for file in chosen:
            name, path = Path(file).stem, HERE / file
            if name in SPECS:
                rows, skips = run_sweep(SPECS[name])
                if skips:
                    raise SystemExit(f"{name}: {skips}")
                emit(rows, str(path))
                continue
            if name in DEMOS:
                path.write_text(run_demo(DEMOS[name]))
                continue
            # the sample's data.bin is an input of the commands that name it
            sampled = sampled or sample_outputs(data)
            if name in COMMANDS:
                path.write_text(run_cli(COMMANDS[name][0], data))
            elif file in sampled:
                path.write_bytes(sampled[file])
            else:
                path.write_text(json.dumps(machine(), indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
