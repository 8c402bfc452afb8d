"""Property tests of the single sufficient-statistics path.

Over small random valid configs and random block widths: the streamed
`GramStats` does not depend on the block width, the config and dataset
routes agree (the mean columns bit for bit), and the two primitive modes
built on it meet the CLI's mode-equivalence gate and agree to 1e-10 over
weights and ridge levels, a subnormal mean included; a stacked recursion
gives each row's one-row call bit for bit, at any mean norms, tau and
weights per row.  The two auxiliary inequalities hold on the whole
domain of a config, as `check_aux_inequalities` proves, and there the
bound exponents E_b and the consistency slacks are finite and agree with
exact rational arithmetic to 1e-12.  Configs and sweep
specs survive a JSON round trip unchanged, numpy integers included.  Any
JSON value in any field of a config file, a sweep spec or a dataset
sidecar either builds or is refused with a ValueError.
"""

import dataclasses
import functools
import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouprisk import model, primitives
from grouprisk.bounds import bound_exponent, consistency_check
from grouprisk.harness import AXIS_NAMES, OUTPUT_NAMES, SweepAxis, SweepSpec
from grouprisk.model import (
    ModelConfig,
    e1_mean,
    load_dataset,
    noise_stats,
    sample_dataset,
    save_dataset,
    signal_strengths,
)
from grouprisk.primitives import compute_primitives, primitive_set_max_gap

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def block_width(width):
    """A context in which noise streams `width` columns per block (patches
    `model._BLOCK_COLS`)."""
    return mock.patch.object(model, "_BLOCK_COLS", width)


def widths(top):
    """Stream widths from 1 to max(1, top // 4)."""
    return st.integers(1, max(1, top // 4))


@st.composite
def configs(draw, min_d_over_n=1):
    n_minus = draw(st.integers(1, 4))
    n_plus = draw(st.integers(n_minus, 12))
    n = n_plus + n_minus
    d = draw(st.integers(max(2, min_d_over_n * n), min_d_over_n * n + 150))
    d_core = draw(st.integers(1, d - 1))
    core_sq = draw(st.floats(0.0, 1.0)) * d
    # below 1: at spur_sq == core_sq the sqrt round trip can leave
    # |mu_spur|^2 one ulp above |mu_core|^2, which ModelConfig rightly rejects
    spur_sq = draw(st.floats(0.0, 0.99)) * core_sq
    return ModelConfig(
        d_core=d_core,
        d_spur=d - d_core,
        mu_core=e1_mean(np.sqrt(core_sq), d_core),
        mu_spur=e1_mean(np.sqrt(spur_sq), d - d_core),
        n_plus=n_plus,
        n_minus=n_minus,
        pi_plus=draw(st.floats(0.1, 0.9)),
        delta_plus=1.0,
        delta_minus=draw(st.floats(1.0 / n, 1.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def assert_same_stats(got, ref, rtol=1e-12):
    # the labels and the signed mean columns of Q are read, not summed, so
    # they are the same bits at any width and on either route
    for name in ("y", "a", "q_core", "q_spur"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    assert np.linalg.norm(got.gram_0 - ref.gram_0) <= rtol * np.linalg.norm(ref.gram_0)


@PROPERTY
@given(cfg=configs(), data=st.data())
def test_noise_stats_agree_across_block_widths(cfg, data):
    with block_width(data.draw(widths(cfg.d + 3))):
        got = noise_stats(cfg)
    with block_width(max(1, cfg.d // 4)):
        ref = noise_stats(cfg)
    assert_same_stats(got, ref)


@PROPERTY
@given(cfg=configs(), data=st.data())
def test_config_and_dataset_routes_agree(cfg, data):
    with block_width(data.draw(st.integers(1, cfg.d))):
        ds = sample_dataset(cfg)
    with block_width(data.draw(widths(cfg.d + 3))):
        from_ds = noise_stats(ds)
    with block_width(data.draw(widths(cfg.d + 3))):
        from_cfg = noise_stats(cfg)
    assert_same_stats(from_cfg, from_ds)
    # the dataset route is anchored to the dense Q Q'
    np.testing.assert_allclose(from_ds.gram_0, ds.Q @ ds.Q.T, rtol=1e-12, atol=1e-12 * cfg.d)


@PROPERTY
@given(cfg=configs(min_d_over_n=2), data=st.data())
def test_direct_and_recursive_primitives_meet_mode_gate(cfg, data):
    with block_width(data.draw(widths(cfg.d))):
        stats = noise_stats(cfg)
    tau = data.draw(st.sampled_from([0.0, 1.0, float(cfg.d)]))
    direct = compute_primitives(stats, tau=tau, delta=cfg.deltas, mode="direct")
    recursive = compute_primitives(stats, tau=tau, delta=cfg.deltas, mode="recursive")
    assert primitive_set_max_gap(direct, recursive) <= 1e-8


@PROPERTY
@given(cfg=configs(min_d_over_n=2), data=st.data())
def test_recursive_matches_direct_over_weights_taus_and_probes(cfg, data):
    # the recursive route's 7x7 change of basis of the probes, held to the
    # dense stage inverses of direct mode, over a stack of rows as a sweep
    # runs it, each with its own mean norms (0 included), tau and weight
    # pair: each row is its one-row call bit for bit
    def norm(fraction):  # zero below the floor, as `model._mean_norms` reads a mean
        m = math.sqrt(fraction * cfg.d)
        return 0.0 if m * m < model._MEAN_SQ_FLOOR else m

    norms = st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 1.0).map(norm))] * 2)
    pairs = st.tuples(st.floats(0.05, 1.0), st.floats(1.0 / cfg.n, 1.0))
    taus = st.sampled_from([0.0, cfg.d / 10, float(cfg.d)])
    rows = data.draw(st.lists(st.tuples(norms, taus, pairs), min_size=1, max_size=4))
    stats = noise_stats(cfg)
    tables, squares = zip(*(stats.per_tau(primitives._order0_solve, tau) for _, tau, _ in rows))
    row_norms, row_taus, deltas = (np.array(column) for column in zip(*rows))
    stack = primitives._recursive_primitives(np.array(tables), np.array(squares), row_norms, row_taus, deltas)
    for i, (mu_norms, tau, delta) in enumerate(rows):
        view = dataclasses.replace(stats, mu_norms=mu_norms)
        direct = compute_primitives(view, tau=tau, delta=delta, mode="direct")
        recursive = compute_primitives(view, tau=tau, delta=delta, mode="recursive")
        assert primitive_set_max_gap(direct, recursive) <= 1e-10
        for name in ("tables", "o", "det_a"):
            assert getattr(stack, name)[i].tobytes() == getattr(recursive, name).tobytes(), name


def test_subnormal_spurious_mean_meets_both_mode_gates():
    # |mu_s|^2 = 1.9e-323 is subnormal: t = d_1' M^{-1} d_1 underflows to 0
    # in one mode and to 5e-324 in the other unless the mean takes the
    # zero-mean path, which fails both gates above on most seeds
    n = 2
    for seed in range(20):
        cfg = ModelConfig(
            d_core=1,
            d_spur=3,
            mu_core=np.array([2.0]),
            mu_spur=np.array([4.4e-162, 0.0, 0.0]),
            n_plus=1,
            n_minus=1,
            seed=seed,
        )
        stats = noise_stats(cfg)
        direct = compute_primitives(stats, tau=0.0, delta=cfg.deltas, mode="direct")
        recursive = compute_primitives(stats, tau=0.0, delta=cfg.deltas, mode="recursive")
        assert primitive_set_max_gap(direct, recursive) <= 1e-8, seed
        for tau in (0.0, cfg.d / 10, float(cfg.d)):
            for delta in ((1.0, 1.0 / n), (1.0, 1.0)):
                direct = compute_primitives(stats, tau=tau, delta=delta, mode="direct")
                recursive = compute_primitives(stats, tau=tau, delta=delta, mode="recursive")
                assert primitive_set_max_gap(direct, recursive) <= 1e-10, (seed, tau, delta)


# counts up to 1e12 per group: the margin floor's slack shrinks like 1/n_-
# (about 5e-13 at n_+ = n_- = 1e12, Delta_+ = 1, Delta_- = 1/n), and past
# that it reaches the rounding of the two sides' floats
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_aux_inequalities_hold_on_the_whole_config_domain(data):
    # `check_aux_inequalities` proves both from n_- <= n_+ and
    # 1/n <= Delta_- <= Delta_+ <= 1; the count cap with rhs/lhs >= 1.497
    n_minus = data.draw(st.integers(1, 10**12))
    n_plus = data.draw(st.integers(n_minus, 10**12))
    n = n_plus + n_minus
    delta_minus = data.draw(st.floats(1.0 / n, 1.0))
    cfg = ModelConfig(
        d_core=n, d_spur=1, mu_core=data.draw(st.floats(0.0, 1e77)), mu_spur=0.0,
        n_plus=n_plus, n_minus=n_minus,
        delta_plus=data.draw(st.floats(delta_minus, 1.0)), delta_minus=delta_minus,
    )
    rep = primitives.check_aux_inequalities(cfg)
    assert rep.all_ok
    assert rep.margin_floor_realized >= rep.margin_floor_reference
    assert rep.count_cap_rhs >= 1.49 * rep.count_cap_lhs


# means up to ModelConfig's limit on R_+ = |mu_c|^2 + |mu_s|^2 (its square
# finite); an equal spurious mean makes R_- = 0, where the slacks apply
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bound_exponents_and_slacks_are_finite_on_the_whole_config_domain(data):
    n_minus = data.draw(st.integers(1, 10**12))
    n_plus = data.draw(st.integers(n_minus, 10**12))
    n = n_plus + n_minus
    d = data.draw(st.integers(n, 10**13))
    delta_minus = data.draw(st.floats(1.0 / n, 1.0))
    ratio = data.draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    r_plus_max = math.sqrt(sys.float_info.max) * (1.0 - 1e-15)
    mu_core = data.draw(st.floats(0.0, math.sqrt(r_plus_max / (1.0 + ratio * ratio))))
    cfg = ModelConfig(
        d_core=d - 1, d_spur=1, mu_core=mu_core, mu_spur=mu_core * ratio, n_plus=n_plus, n_minus=n_minus,
        delta_plus=data.draw(st.floats(delta_minus, 1.0)), delta_minus=delta_minus,
    )
    # the reference: exact arithmetic on the config's own counts, weights and R_pm
    sig = signal_strengths(cfg)
    r_plus, r_minus = Fraction(sig.r_plus), Fraction(sig.r_minus)
    scaled = (n_plus / Fraction(cfg.delta_plus) ** 2, n_minus / Fraction(cfg.delta_minus) ** 2)
    w_plus, w_minus = (s * count / sum(scaled) / d for s, count in zip(scaled, (n_plus, n_minus)))
    want = [w_plus * r_plus**2 + w_minus * r_minus**2, w_plus * r_minus**2 + w_minus * r_plus**2]
    got = list(bound_exponent(cfg))
    if r_minus == 0:
        want += [w_plus * r_plus**2, w_minus * r_plus**2]
        got += [result.slack for result in consistency_check(cfg, c_const=1.0)]
    for g, w in zip(got, want):
        # a subnormal result holds its rounding to below the smallest normal float
        assert math.isfinite(g) and abs(g - w) <= 1e-12 * w + sys.float_info.min, (g, float(w))


@PROPERTY
@given(cfg=configs(), numpy_ints=st.booleans())
def test_config_json_roundtrip(cfg, numpy_ints):
    if numpy_ints:
        cfg = cfg.with_updates(
            d_core=np.int64(cfg.d_core),
            n_minus=np.int32(cfg.n_minus),
            seed=np.uint64(cfg.seed),
        )
    text = json.dumps(cfg.to_dict())
    back = ModelConfig.from_dict(json.loads(text))
    assert back.to_dict() == cfg.to_dict()
    assert json.dumps(back.to_dict()) == text


@st.composite
def specs(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    tau = st.one_of(st.none(), st.floats(0.0, 1e9), st.sampled_from(["d", "d/10"]))
    methods = st.lists(
        st.one_of(st.just(("cmni", None)), st.tuples(st.just("ridge"), tau)),
        min_size=1,
        max_size=4,
    )
    return SweepSpec(
        base=draw(configs()),
        axis=SweepAxis(
            draw(st.sampled_from(AXIS_NAMES)),
            tuple(draw(st.lists(finite, min_size=1, max_size=5))),
        ),
        methods=tuple(draw(methods)),
        trials=draw(st.integers(1, 50)),
        outputs=tuple(draw(st.lists(st.sampled_from(OUTPUT_NAMES), unique=True))),
        out_path=draw(st.one_of(st.none(), st.text(max_size=12))),
        name=draw(st.text(max_size=12)),
    )


@PROPERTY
@given(spec=specs())
def test_spec_json_roundtrip(spec):
    text = json.dumps(spec.to_dict())
    back = SweepSpec.from_dict(json.loads(text))
    assert back.to_dict() == spec.to_dict()
    assert json.dumps(back.to_dict()) == text


# what `json.load` can give: NaN and Infinity too, and integers past the
# float range; integers stay small elsewhere, since a count sizes arrays
JSON_VALUES = st.one_of(
    st.sampled_from([10**400, -(10**400), 2**64, math.nan, math.inf, -math.inf, True, False, None]),
    st.integers(-5, 2000),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(-2.0, 2.0), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


@functools.cache
def saved_dataset():
    """(Q's bytes, sidecar) of a small saved dataset (n = 20, d = 400)."""
    cfg = ModelConfig(d_core=200, d_spur=200, mu_core=e1_mean(10.0, 200), mu_spur=e1_mean(5.0, 200),
                      n_plus=16, n_minus=4, seed=8)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ds.bin")
        save_dataset(sample_dataset(cfg), path)
        return Path(path).read_bytes(), json.loads(Path(path + ".json").read_text())


def spec_document():
    base = saved_dataset()[1]["config"]
    return {"name": "s", "base": base, "axis": {"name": "delta_minus", "values": [0.5, 0.25]},
            "methods": [{"method": "ridge", "tau": 1.0}], "trials": 2, "outputs": ["risk"],
            "out_path": None}


def load_sidecar(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ds.bin")
        Path(path).write_bytes(saved_dataset()[0])
        Path(path + ".json").write_text(json.dumps(doc))
        return load_dataset(path)


CONFIG_KEYS = list(saved_dataset()[1]["config"])
# document -> (a valid document, the paths of its fields, the reader)
DOCUMENTS = {
    "config": (lambda: saved_dataset()[1]["config"], [(k,) for k in CONFIG_KEYS], ModelConfig.from_dict),
    "spec": (
        spec_document,
        [(k,) for k in spec_document()] + [("base", k) for k in CONFIG_KEYS]
        + [("axis", "name"), ("axis", "values"), ("axis", "values", 1), ("methods", 0),
           ("methods", 0, "method"), ("methods", 0, "tau"), ("outputs", 0)],
        SweepSpec.from_dict,
    ),
    "sidecar": (
        lambda: saved_dataset()[1],
        [("y",), ("a",), ("config",), ("y", 0), ("a", 19)] + [("config", k) for k in CONFIG_KEYS],
        load_sidecar,
    ),
}


def field_parent(doc, path):
    """The container of the field at path, or None where an earlier edit
    replaced a container on the way."""
    for key in path[:-1]:
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return None
    return doc


@pytest.mark.parametrize("document", sorted(DOCUMENTS))
@PROPERTY
@given(data=st.data())
def test_any_json_value_in_any_field_builds_or_is_refused(document, data):
    valid, paths, read = DOCUMENTS[document]
    doc = json.loads(json.dumps(valid()))
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)):
        parent = field_parent(doc, path)
        if isinstance(parent, dict) or (isinstance(parent, list) and path[-1] < len(parent)):
            parent[path[-1]] = data.draw(JSON_VALUES)
    try:
        read(json.loads(json.dumps(doc)))
    except ValueError:
        pass
