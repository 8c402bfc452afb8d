"""The drivers' one-thread BLAS policy: sweeps and CLI commands run at one
OpenBLAS thread, give the same bits at any thread count, and hand the
caller's counts back however they end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from grouprisk import cli, harness
from grouprisk.harness import SweepAxis, SweepSpec, run_sweep
from grouprisk.model import ModelConfig, e1_mean

# n = 400, the size of the benchmark's primitives sweep, with d kept small
_SWEEP_AT_N400 = """
import hashlib, os, sys, tempfile
from grouprisk.harness import SweepAxis, SweepSpec, emit, run_sweep
from grouprisk.model import ModelConfig, e1_mean
base = ModelConfig(d_core=1000, d_spur=1000, mu_core=e1_mean(20.0, 1000),
                   mu_spur=e1_mean(8.0, 1000), n_plus=320, n_minus=80, seed=5)
spec = SweepSpec(base=base, axis=SweepAxis("delta_minus", (1.0, 0.2)),
                 methods=(("cmni", None), ("ridge", "d/10")), trials=1,
                 outputs=("risk", "bounds", "tightness", "primitives"), name="bits")
rows, skips = run_sweep(spec)
assert rows and not skips, skips
path = os.path.join(tempfile.mkdtemp(), "bits.csv")
emit(rows, path)
with open(path, "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest())
"""

_CLI_COMMANDS = """
from grouprisk.cli import main
flags = ["-n", "400", "-d", "2000", "--seed", "3"]
assert main(["fit", "--method", "ridge", "--tau", "200", *flags]) == 0
assert main(["verify-primitives", "--tau", "200", *flags]) == 0
"""


def _run_at_threads(script, threads):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("script", [_SWEEP_AT_N400, _CLI_COMMANDS], ids=["sweep_csv", "cli_stdout"])
def test_driver_bits_do_not_depend_on_blas_threads(blas_controls, script):
    at_one, at_default = (_run_at_threads(script, threads) for threads in ("1", None))
    assert at_one and at_one == at_default


def _counts(controls):
    return [getter() for getter, _ in controls]


def _tiny_spec():
    base = ModelConfig(d_core=400, d_spur=400, mu_core=e1_mean(10.0, 400),
                       mu_spur=e1_mean(5.0, 400), n_plus=32, n_minus=8, seed=11)
    return SweepSpec(base=base, axis=SweepAxis("delta_minus", (0.5, 0.25)),
                     methods=(("cmni", None),), trials=1, outputs=("risk",), name="tiny")


def _spy(monkeypatch, module, name, controls, seen, fail=False):
    """Replace module.name by a call that records the BLAS counts it sees."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(_counts(controls))
        if fail:
            raise ValueError("refused by the test")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


class TestPinRestore:
    def test_sweep_runs_pinned_and_restores(self, blas_controls, monkeypatch):
        seen = []
        _spy(monkeypatch, harness, "compute_primitives", blas_controls, seen)
        rows, skips = run_sweep(_tiny_spec())
        assert rows and not skips
        assert seen and all(c == [1] * len(blas_controls) for c in seen)
        assert _counts(blas_controls) == [2] * len(blas_controls)

    def test_sweep_with_a_fit_skip_restores(self, blas_controls, monkeypatch):
        seen = []
        _spy(monkeypatch, harness, "compute_primitives", blas_controls, seen, fail=True)
        rows, skips = run_sweep(_tiny_spec())
        assert not rows
        assert {s["stage"] for s in skips} == {"fit", "aggregate"}
        assert seen and all(c == [1] * len(blas_controls) for c in seen)
        assert _counts(blas_controls) == [2] * len(blas_controls)

    def test_cli_command_runs_pinned_and_restores(self, blas_controls, monkeypatch, capsys):
        seen = []
        _spy(monkeypatch, cli, "fit_ridge", blas_controls, seen)
        assert cli.main(["fit", "--method", "ridge", "--tau", "10", "-n", "40", "-d", "400"]) == 0
        capsys.readouterr()
        assert seen == [[1] * len(blas_controls)]
        assert _counts(blas_controls) == [2] * len(blas_controls)

    def test_cli_error_exit_restores(self, blas_controls, monkeypatch, capsys):
        seen = []
        _spy(monkeypatch, cli, "config_from_args", blas_controls, seen)
        assert cli.main(["fit", "--method", "ridge", "--tau", "-1", "-n", "40", "-d", "400"]) == 2
        assert "tau" in capsys.readouterr().err
        assert seen == [[1] * len(blas_controls)]
        assert _counts(blas_controls) == [2] * len(blas_controls)

