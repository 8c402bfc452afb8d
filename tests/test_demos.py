"""Every script in demos/ runs to completion and prints its golden stdout,
`tests/golden/demo_<stem>.txt` of `tests/golden/generate.py`.

Every character must match, except numbers in `e` notation below 1e-8:
those are rounding residuals (a constraint residual of 4.44e-16, a relative
gap of 2.11e-15), and each must only stay below 1e-8.  Any other number,
`6.43e-03` or `4.331e-02` say, is held as text.
"""

import importlib.util
import re
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

RESIDUAL = 1e-8
_E_NOTATION = re.compile(r"[-+]?\d+(?:\.\d*)?[eE][-+]?\d+")


def without_residuals(text: str) -> str:
    """text with every number in e notation below RESIDUAL in magnitude
    replaced by one placeholder."""
    def mask(match):
        return "<residual>" if abs(float(match.group())) < RESIDUAL else match.group()

    return _E_NOTATION.sub(mask, text)


def test_all_five_demos_found():
    assert len(generate.DEMOS) == 5


@pytest.mark.parametrize("name", list(generate.DEMOS), ids=lambda name: name.removeprefix("demo_"))
def test_demo_runs(name):
    got = generate.run_demo(generate.DEMOS[name])
    want = (GOLDEN / f"{name}.txt").read_text()
    assert without_residuals(got) == without_residuals(want)


def test_residual_rule_holds_values_at_or_above_the_cut_as_text():
    assert without_residuals("gap = 6.06e-11, 4.44e-16") == "gap = <residual>, <residual>"
    assert without_residuals("r = 6.43e-03, c = 1e-8") == "r = 6.43e-03, c = 1e-8"


def test_weight_sweep_is_repeatable_and_leaves_no_temp_dir():
    def left():
        return set(Path(tempfile.gettempdir()).glob("sweep-demo-*"))

    before = left()
    script = generate.DEMOS["demo_weight_sweep"]
    assert generate.run_demo(script) == generate.run_demo(script)
    assert left() <= before
