"""Refusals at each input boundary, one table per boundary: config files,
sweep specs, dataset sidecars, the CLI's flags and the library's arguments.

Each case is an input that once escaped as a numpy, overflow or index
error (exit 1), named a field the user did not type, or echoed hundreds of
digits.  Each refusal is a ValueError (exit 2 on the command line, before
any noise is drawn) of the one form "<name> must be <requirement>, got
<shown>", with at most 40 characters of the value shown.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

from grouprisk.bounds import consistency_check
from grouprisk.cli import main
from grouprisk.estimators import fit_cmni, fit_gd, fit_ridge, interpolation_residual
from grouprisk.harness import SweepAxis, SweepSpec, resolve_tau
from grouprisk.model import (
    ModelConfig,
    bartlett_factor,
    check_assumptions,
    e1_mean,
    load_dataset,
    noise_stats,
    sample_dataset,
    save_dataset,
)
from grouprisk.primitives import compute_primitives, wishart_coverage, wishart_interval

HUGE = 10**400  # a JSON integer past the float range
SHOWN = str(HUGE)[:37] + "..."  # as a refusal shows it
CEILING = f"at most {sys.maxsize}"  # what a count must be, numpy's largest dimension


def config():
    return ModelConfig(
        d_core=200,
        d_spur=200,
        mu_core=e1_mean(10.0, 200),
        mu_spur=e1_mean(5.0, 200),
        n_plus=16,
        n_minus=4,
        delta_minus=0.5,
        seed=8,
    )


def assert_refusal(message, name, requirement=None):
    """message is the one refusal form for name, showing at most 40
    characters of the value (and requirement, if given)."""
    match = re.fullmatch(rf"{re.escape(name)} must be (.+), got (.+)", message)
    assert match, message
    assert len(match.group(2)) <= 40, message
    if requirement is not None:
        assert match.group(1) == requirement, message


def spec_document():
    return {
        "base": config().to_dict(),
        "axis": {"name": "delta_minus", "values": [0.5]},
        "methods": [{"method": "ridge", "tau": 1.0}],
    }


def set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("saved") / "ds.bin")
    save_dataset(sample_dataset(config()), path)
    return path


def write_document(kind, path, value, directory, dataset_files):
    """The path of a `kind` file (config, spec or sidecar) with value at
    path; a sidecar's is its dataset's binary file."""
    if kind == "sidecar":
        out = directory / "ds.bin"
        out.write_bytes(Path(dataset_files).read_bytes())
        doc = json.loads(Path(dataset_files + ".json").read_text())
        set_path(doc, path, value)
        Path(str(out) + ".json").write_text(json.dumps(doc))
        return str(out)
    doc = config().to_dict() if kind == "config" else spec_document()
    set_path(doc, path, value)
    out = directory / f"{kind}.json"
    out.write_text(json.dumps(doc))
    return str(out)


def read_document(kind, path):
    if kind == "sidecar":
        return load_dataset(path)
    with open(path) as fh:
        doc = json.load(fh)
    return (ModelConfig if kind == "config" else SweepSpec).from_dict(doc)


COMMANDS = {
    "config": lambda path: ["risk", "--config", path],
    "spec": lambda path: ["sweep", "--spec", path, "--out", str(Path(path).with_name("rows.csv"))],
    "sidecar": lambda path: ["fit", "--data", path],
}

# (document, path of the field, name in the refusal, requirement)
FILE_CASES = [
    ("config", ("pi_plus",), "pi_plus", "in (0, 1)"),
    ("config", ("delta_plus",), "delta_plus", "finite and positive"),
    ("config", ("delta_minus",), "delta_minus", "finite and positive"),
    ("config", ("seed",), "seed", "a 64-bit unsigned integer"),
    ("spec", ("axis", "values", 0), "axis values", "real numbers within the float range"),
    ("spec", ("methods", 0, "tau"), "tau", "finite and nonnegative"),
    ("spec", ("base", "delta_minus"), "delta_minus", "finite and positive"),
    ("sidecar", ("config", "pi_plus"), "pi_plus", "in (0, 1)"),
    ("sidecar", ("config", "seed"), "seed", "a 64-bit unsigned integer"),
    ("config", ("d_core",), "d_core", CEILING),
    ("config", ("n_minus",), "n_minus", CEILING),
    ("spec", ("trials",), "trials", CEILING),
    ("spec", ("base", "n_plus"), "n_plus", CEILING),
    ("sidecar", ("config", "d_spur"), "d_spur", CEILING),
]
FILE_IDS = ["-".join(map(str, (kind, *path))) for kind, path, _, _ in FILE_CASES]


@pytest.mark.parametrize("kind, path, name, requirement", FILE_CASES, ids=FILE_IDS)
def test_file_field_past_the_float_range_is_refused(kind, path, name, requirement, tmp_path, dataset_files):
    file = write_document(kind, path, HUGE, tmp_path, dataset_files)
    with pytest.raises(ValueError) as info:
        read_document(kind, file)
    assert_refusal(str(info.value), name, requirement)


@pytest.mark.parametrize("kind, path, name, requirement", FILE_CASES, ids=FILE_IDS)
def test_file_field_past_the_float_range_exits_2(
    kind, path, name, requirement, tmp_path, dataset_files, no_stream, capsys
):
    file = write_document(kind, path, HUGE, tmp_path, dataset_files)
    code = main(COMMANDS[kind](file))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {name} must be {requirement}, got {SHOWN}\n"
    assert not list(tmp_path.glob("rows.csv"))


# (argv, the flag argparse names, requirement, shown)
FLAG_CASES = [
    (["risk", "-n", "20", "-d", "0"], "-d/--dim", "at least 2", "0"),
    (["risk", "-n", "20", "-d", "1"], "-d/--dim", "at least 2", "1"),
    (["sample", "-n", "20", "--dim", "-7", "--out", "x"], "-d/--dim", "at least 2", "-7"),
    (["risk", "-n", "-3", "-d", "400"], "-n/--n-total", "at least 2", "-3"),
    (["bounds", "-n", "1", "-d", "400"], "-n/--n-total", "at least 2", "1"),
    (["fit", "-n", "20", "-d", "400", "--n-minus", "0"], "--n-minus", "at least 1", "0"),
    (["risk", "-n", "20", "-d", "400", "--mu-core-sq", "-5"], "--mu-core-sq", "finite and nonnegative", "-5.0"),
    (["risk", "-n", "20", "-d", "400", "--mu-spur-sq", "nan"], "--mu-spur-sq", "finite and nonnegative", "nan"),
    (["risk", "-n", "20", "-d", "400", "--mu-core-sq", "1e400"], "--mu-core-sq", "finite and nonnegative", "inf"),
    (["bounds", "-n", "20", "-d", "400", "--pi-plus", "1"], "--pi-plus", "in (0, 1)", "1.0"),
    (["fit", "-n", "20", "-d", "400", "--delta-minus", "-0.5"], "--delta-minus", "finite and positive", "-0.5"),
    (["fit", "-n", "20", "-d", "400", "--method", "gd", "--iters", "0"], "--iters", "at least 1", "0"),
    (["risk", "-n", str(HUGE), "-d", "400"], "-n/--n-total", CEILING, SHOWN),
    (["sample", "-n", "20", "-d", str(HUGE), "--out", "x"], "-d/--dim", CEILING, SHOWN),
    (["fit", "-n", "20", "-d", "400", "--n-plus", str(sys.maxsize + 1)], "--n-plus", CEILING, str(sys.maxsize + 1)),
    (["fit", "-n", "20", "-d", "400", "--method", "gd", "--iters", str(HUGE)], "--iters", CEILING, SHOWN),
    (["risk", "-n", "20", "-d", "400", "--mc-draws", str(HUGE)], "--mc-draws", CEILING, SHOWN),
]


@pytest.mark.parametrize(
    "argv, flag, requirement, shown", FLAG_CASES, ids=[" ".join(case[0][1:]) for case in FLAG_CASES]
)
def test_bad_flag_is_refused_at_parse_time_naming_the_flag(argv, flag, requirement, shown, no_stream, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.endswith(f"error: argument {flag}: must be {requirement}, got {shown}\n")


@pytest.mark.parametrize("command", [["risk", "-n", "20", "-d", "400"], ["wishart", "--draws", "10"]])
def test_huge_seed_is_refused_without_echoing_its_digits(command, no_stream, capsys):
    code = main([*command, "--seed", str(HUGE)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: seed must be a 64-bit unsigned integer, got {SHOWN}\n"


@pytest.fixture(scope="module")
def stats():
    return noise_stats(config())


# (name in the refusal, call of the library at a value past the float range)
CALL_CASES = [
    ("tau", lambda cfg, stats: resolve_tau(HUGE, cfg)),
    ("tau", lambda cfg, stats: fit_ridge(stats, cfg.deltas, HUGE)),
    ("tau", lambda cfg, stats: compute_primitives(stats, tau=HUGE)),
    ("step", lambda cfg, stats: fit_gd(stats, cfg.deltas, step=HUGE)),
    ("t", lambda cfg, stats: wishart_interval(1000, 10, HUGE)),
    ("t", lambda cfg, stats: wishart_coverage(d=1000, n=10, t=HUGE, draws=10)),
    ("c_const", lambda cfg, stats: check_assumptions(cfg, c_const=HUGE)),
    ("delta", lambda cfg, stats: check_assumptions(cfg, delta=HUGE)),
    ("axis values", lambda cfg, stats: SweepAxis("delta_minus", (0.5, HUGE))),
    ("c_const", lambda cfg, stats: consistency_check(cfg, c_const=HUGE)),
    ("seed", lambda cfg, stats: bartlett_factor(4, 9, HUGE, 1)),
    ("seed", lambda cfg, stats: cfg.with_updates(seed=HUGE)),
    ("pi_plus", lambda cfg, stats: cfg.with_updates(pi_plus=HUGE)),
]


@pytest.mark.parametrize(
    "name, call", CALL_CASES, ids=[f"{name}-{k}" for k, (name, _) in enumerate(CALL_CASES)]
)
def test_library_argument_past_the_float_range_is_refused(name, call, stats):
    with pytest.raises(ValueError) as info:
        call(config(), stats)
    assert_refusal(str(info.value), name)
    assert str(info.value).endswith(f", got {SHOWN}")


@pytest.mark.parametrize("flag, name", [("-d", "d"), ("-n", "n"), ("--draws", "draws")])
def test_wishart_count_past_the_ceiling_exits_2_naming_it(flag, name, no_stream, capsys):
    # -d once failed in the float band (exit 1), -n echoed every digit of d'
    code = main(["wishart", flag, str(HUGE)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {name} must be {CEILING}, got {SHOWN}\n"


def test_wishart_band_shows_a_short_d_prime(capsys):
    n = sys.maxsize  # the largest count: d' has 20 characters
    assert main(["wishart", "-d", "1000", "-n", str(n)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: need d - n + 1 > 2 max(t, 1): got d' = {1000 - n + 1}, t = 4.6\n"


# (name in the refusal, library call of a count past the ceiling)
COUNT_CASES = [
    ("d", lambda cfg, stats: wishart_interval(HUGE, 10, 1.0)),
    ("n", lambda cfg, stats: wishart_interval(1000, HUGE, 1.0)),
    ("n", lambda cfg, stats: wishart_coverage(d=1000, n=sys.maxsize + 1, t=1.0, draws=10)),
    ("draws", lambda cfg, stats: bartlett_factor(4, 9, 0, HUGE)),
    ("iters", lambda cfg, stats: fit_gd(stats, cfg.deltas, iters=HUGE)),
    ("d_core", lambda cfg, stats: cfg.with_updates(d_core=HUGE)),
    ("n_minus", lambda cfg, stats: cfg.with_updates(n_minus=sys.maxsize + 1)),
    ("trials", lambda cfg, stats: SweepSpec(base=cfg, axis=SweepAxis("delta_minus", (0.5,)), trials=HUGE)),
]


@pytest.mark.parametrize(
    "name, call", COUNT_CASES, ids=[f"{name}-{k}" for k, (name, _) in enumerate(COUNT_CASES)]
)
def test_library_count_past_the_ceiling_is_refused(name, call, stats):
    with pytest.raises(ValueError) as info:
        call(config(), stats)
    assert_refusal(str(info.value), name, CEILING)


# a weight pair each library entry point refuses, and the weight it names
BAD_WEIGHTS = [
    ((1.0, -0.5), "delta_minus"),
    ((1.0, 0.0), "delta_minus"),
    ((1.0, math.nan), "delta_minus"),
    ((1.0, math.inf), "delta_minus"),
    ((1.0, HUGE), "delta_minus"),
    ((True, 0.5), "delta_plus"),
    ((0.0, 0.5), "delta_plus"),
]
WEIGHT_CALLS = {
    "fit_cmni": lambda stats, delta: fit_cmni(stats, delta),
    "fit_ridge": lambda stats, delta: fit_ridge(stats, delta, 1.0),
    "fit_gd": lambda stats, delta: fit_gd(stats, delta, iters=5),
    "interpolation_residual": lambda stats, delta: interpolation_residual(
        fit_cmni(stats, (1.0, 0.5)), stats, delta
    ),
    "compute_primitives-direct": lambda stats, delta: compute_primitives(stats, delta=delta, mode="direct"),
    "compute_primitives-recursive": lambda stats, delta: compute_primitives(
        stats, delta=delta, mode="recursive"
    ),
}


@pytest.mark.parametrize("call", WEIGHT_CALLS.values(), ids=WEIGHT_CALLS.keys())
@pytest.mark.parametrize(
    "delta, name", BAD_WEIGHTS, ids=[f"{name}-{k}" for k, (_, name) in enumerate(BAD_WEIGHTS)]
)
def test_library_weight_pair_is_refused_naming_the_weight(delta, name, call, stats):
    # these once fit silently, read w_norm_sq = nan, or raised OverflowError
    with pytest.raises(ValueError) as info:
        call(stats, delta)
    assert_refusal(str(info.value), name, "finite and positive")
