"""The sweep CSVs and command outputs against the golden files of
`tests/golden/generate.py`.

A CSV's header and column order must be the same text, and so must its
text columns; every number must agree to 1e-10 relative, which allows for
another CPU's BLAS kernels.  A command's JSON must have the same keys in
the same order and every number to 1e-10 relative, but its rounding
residuals are held to their documented bounds.  The BLAS-free outputs
must be the same bytes.  Every `grouprisk` command in README's sh blocks
but `sweep` is one of the generator's commands, so README shows no output
that no golden file holds.  See the generator for the regenerate rule.
"""

import csv
import importlib.util
import json
import re
import shlex
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


def close(got, want) -> bool:
    return abs(got - want) <= RTOL * max(abs(got), abs(want))


def test_every_golden_file_has_a_generator_entry_and_back():
    on_disk = {p.name for p in GOLDEN.iterdir() if p.is_file()} - {"generate.py"}
    assert on_disk == generate.outputs()


@pytest.mark.parametrize("names", [["bounds"], ["wishart.json", "wishart"], ["pairwise_mean"]])
def test_generate_writes_only_the_named_output(names, tmp_path, monkeypatch):
    monkeypatch.setattr(generate, "HERE", tmp_path)
    generate.main(names)
    (written,) = tmp_path.iterdir()
    assert written.name in generate.outputs() and written.stem == names[0].split(".")[0]
    if written.name in generate.EXACT:
        assert written.read_bytes() == (GOLDEN / written.name).read_bytes()


def test_generate_refuses_an_unknown_name_before_writing(tmp_path, monkeypatch):
    monkeypatch.setattr(generate, "HERE", tmp_path)
    with pytest.raises(SystemExit, match="unknown golden outputs \\['fig3'\\]"):
        generate.main(["bounds", "fig3"])
    assert not list(tmp_path.iterdir())


def readme_commands() -> list[list[str]]:
    """The argv of every `grouprisk` command in README's sh blocks, with
    lines continued by a backslash joined."""
    readme = (GOLDEN.parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["grouprisk"]:
                commands.append(argv[1:])
    return commands


def test_every_readme_command_but_sweep_is_a_golden_command():
    # so README shows no command whose output no golden file holds
    golden = [generate.SAMPLE, *(argv for argv, _ in generate.COMMANDS.values())]
    checked = [[generate.DATA if arg == "data.bin" else arg for arg in argv]
               for argv in readme_commands() if argv[0] != "sweep"]
    assert checked
    for argv in checked:
        assert argv in golden, argv


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
                assert close(float(g), float(w)), where


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """README's `sample` run once: the path of its data.bin and its outputs."""
    path = str(tmp_path_factory.mktemp("sample") / "data.bin")
    return path, generate.sample_outputs(path)


@pytest.mark.parametrize("name", ["sample_sidecar.json", "sample_data.sha256"])
def test_sample_matches_its_golden_bytes(name, data):
    assert data[1][name] == (GOLDEN / name).read_bytes()


def assert_matches(got, want, residuals, where):
    """got against the golden JSON value want (see the module docstring)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            if key in residuals:
                values = got[key].values() if isinstance(got[key], dict) else [got[key]]
                assert all(0.0 <= v <= residuals[key] for v in values), (f"{where}.{key}", got[key])
            else:
                assert_matches(got[key], want[key], residuals, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, residuals, f"{where}[{i}]")
    else:
        assert type(got) is type(want), (where, got, want)
        if isinstance(want, float):
            assert close(got, want), (where, got, want)
        else:
            assert got == want, (where, got, want)


@pytest.mark.parametrize("name", list(generate.COMMANDS))
def test_command_matches_its_golden_stdout(name, data):
    argv, residuals = generate.COMMANDS[name]
    got = generate.run_cli(argv, data[0])
    golden = GOLDEN / f"{name}.json"
    if golden.name in generate.EXACT:
        assert got == golden.read_text()
    else:
        assert_matches(json.loads(got), json.loads(golden.read_text()), residuals, name)
