"""Property tests of the single sufficient-statistics path.

Over small random valid configs and random block widths: the streamed
`NoiseStats` does not depend on the block width, the config and dataset
routes agree (the mean columns bit for bit), and the two primitive modes built on the resulting
`GramStats` meet the CLI's mode-equivalence gate and agree to 1e-10 over
weights and ridge levels, a subnormal mean included.  Configs and sweep
specs survive a JSON round trip unchanged, numpy integers included.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grouprisk import model
from grouprisk.estimators import GramStats
from grouprisk.harness import AXIS_NAMES, OUTPUT_NAMES, SweepAxis, SweepSpec
from grouprisk.model import ModelConfig, e1_mean, noise_stats, sample_dataset
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
        stats = GramStats.from_noise(cfg, noise_stats(cfg))
    tau = data.draw(st.sampled_from([0.0, 1.0, float(cfg.d)]))
    direct = compute_primitives(stats, tau=tau, delta=cfg.deltas, mode="direct")
    recursive = compute_primitives(stats, tau=tau, delta=cfg.deltas, mode="recursive")
    assert primitive_set_max_gap(direct, recursive) <= 1e-8


@PROPERTY
@given(cfg=configs(min_d_over_n=2), data=st.data())
def test_recursive_matches_direct_over_weights_taus_and_probes(cfg, data):
    # the recursive route's 7x7 change of basis of the probes, held to the
    # dense stage inverses of direct mode
    delta = (1.0, data.draw(st.floats(1.0 / cfg.n, 1.0)))
    tau = data.draw(st.sampled_from([0.0, cfg.d / 10, float(cfg.d)]))
    stats = GramStats.from_noise(cfg, noise_stats(cfg))
    direct = compute_primitives(stats, tau=tau, delta=delta, mode="direct")
    recursive = compute_primitives(stats, tau=tau, delta=delta, mode="recursive")
    assert primitive_set_max_gap(direct, recursive) <= 1e-10


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
        stats = GramStats.from_noise(cfg, noise_stats(cfg))
        direct = compute_primitives(stats, tau=0.0, delta=cfg.deltas, mode="direct")
        recursive = compute_primitives(stats, tau=0.0, delta=cfg.deltas, mode="recursive")
        assert primitive_set_max_gap(direct, recursive) <= 1e-8, seed
        for tau in (0.0, cfg.d / 10, float(cfg.d)):
            for delta in ((1.0, 1.0 / n), (1.0, 1.0)):
                direct = compute_primitives(stats, tau=tau, delta=delta, mode="direct")
                recursive = compute_primitives(stats, tau=tau, delta=delta, mode="recursive")
                assert primitive_set_max_gap(direct, recursive) <= 1e-10, (seed, tau, delta)


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
