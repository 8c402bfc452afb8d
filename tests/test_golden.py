"""The sweep CSVs against the golden files of `tests/golden/generate.py`.

The header and column order must be the same text, and so must the text
columns; every number must agree to 1e-10 relative, which allows for
another CPU's BLAS kernels.  See the generator for the regenerate rule.
"""

import csv
import importlib.util
from pathlib import Path

import pytest

from grouprisk.harness import CSV_COLUMNS, emit, run_sweep

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

RTOL = 1e-10
TEXT_COLUMNS = {"run_id", "method"}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", list(generate.SPECS))
def test_sweep_matches_its_golden_csv(name, tmp_path):
    rows, skips = run_sweep(generate.SPECS[name])
    assert not skips
    emit(rows, str(tmp_path / "got.csv"))
    got, want = read_csv(tmp_path / "got.csv"), read_csv(GOLDEN / f"{name}.csv")
    assert got[0] == want[0] == CSV_COLUMNS
    assert len(got) == len(want)
    for line, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), 2):
        for column, g, w in zip(CSV_COLUMNS, got_row, want_row):
            where = f"{name}.csv line {line}, {column}: {g!r} against {w!r}"
            if column in TEXT_COLUMNS or "" in (g, w):
                assert g == w, where
            else:
                g, w = float(g), float(w)
                assert abs(g - w) <= RTOL * max(abs(g), abs(w)), where
