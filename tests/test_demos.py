"""Smoke tests: every script in demos/ runs to completion."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


def run_demo(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    run_demo(script)


def test_weight_sweep_is_repeatable_and_leaves_no_temp_dir():
    def left():
        return set(Path(tempfile.gettempdir()).glob("sweep-demo-*"))

    before = left()
    script = ROOT / "demos" / "weight_sweep.py"
    assert run_demo(script) == run_demo(script)
    assert left() <= before
