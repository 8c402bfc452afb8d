"""Tests for configuration, sampling, and dataset persistence."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import chi2, kstest

from grouprisk import model
from grouprisk.model import (
    STREAM_NOISE,
    STREAM_WISHART,
    STREAM_WISHART_NORMALS,
    AssumptionReport,
    Dataset,
    ModelConfig,
    bartlett_factor,
    check_assumptions,
    e1_mean,
    load_dataset,
    noise_stats,
    philox_generator,
    sample_dataset,
    sample_labels,
    save_dataset,
    signal_strengths,
    substream_seed,
)
from grouprisk.model import _noise_windows, _one_blas_thread

from conftest import dense_means, write_x_then_q_file


def uniforms_at(seed, stream, offset, count):
    """Word-offset oracle: `count` uniforms from word `offset` of (seed, stream).

    Philox advances in 4-word counter blocks, so this jumps offset // 4
    blocks and discards offset % 4 draws to land inside a block.  It reads
    no word before `offset`, unlike the sequential reads of `_noise_windows`,
    and is bit-identical to slicing one long draw.
    """
    gen = philox_generator(seed, stream)
    q, r = divmod(int(offset), 4)
    if q:
        gen.bit_generator.advance(q)
    if r:
        gen.random(r)
    return gen.random(count)


def noise_range(cfg, j_start, j_stop, width):
    """(j0, block) column blocks of columns [j_start, j_stop) of cfg's Q:
    `_noise_windows` with one span, as `sample_dataset` reads all d."""
    windows = _noise_windows(cfg.seed, [(None, cfg.n, j_start, j_stop)], width)
    return ((j0, blk) for _, j0, blk in windows)


def json_roundtrip(cfg):
    """cfg written to JSON text and read back."""
    return ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))


def small_config(**overrides):
    base = dict(
        d_core=200,
        d_spur=200,
        mu_core=e1_mean(14.0, 200),
        mu_spur=e1_mean(7.0, 200),
        n_plus=16,
        n_minus=4,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_basic_properties(self):
        cfg = small_config()
        assert cfg.d == 400
        assert cfg.n == 20
        assert cfg.deltas == (1.0, 1.0)

    def test_arrays_are_frozen_copies(self):
        mu = e1_mean(14.0, 200)
        cfg = small_config(mu_core=mu)
        mu[0] = 0.0
        assert cfg.mu_core[0] == 14.0
        with pytest.raises((ValueError, RuntimeError)):
            cfg.mu_core[0] = 1.0

    def test_read_only_view_of_a_writable_array_is_copied(self):
        mu = e1_mean(14.0, 200)
        view = mu[:]
        view.setflags(write=False)
        cfg = small_config(mu_core=view)
        assert cfg.mu_core is not view
        mu[0] = 0.0
        assert cfg.mu_core[0] == 14.0

    def test_derived_configs_share_frozen_means(self):
        cfg = small_config()
        for other in (cfg.with_updates(seed=1), cfg.with_updates(delta_minus=0.5),
                      small_config(mu_core=cfg.mu_core, mu_spur=cfg.mu_spur)):
            assert other.mu_core is cfg.mu_core
            assert other.mu_spur is cfg.mu_spur

    def test_rejects_d_smaller_than_n(self):
        with pytest.raises(ValueError):
            small_config(d_core=8, d_spur=8, mu_core=e1_mean(1.0, 8), mu_spur=e1_mean(1.0, 8))

    def test_rejects_minority_larger_than_majority(self):
        with pytest.raises(ValueError):
            small_config(n_plus=4, n_minus=16)

    def test_rejects_zero_minority(self):
        with pytest.raises(ValueError):
            small_config(n_minus=0)

    def test_rejects_spurious_stronger_than_core(self):
        with pytest.raises(ValueError):
            small_config(mu_core=e1_mean(7.0, 200), mu_spur=e1_mean(14.0, 200))

    def test_rejects_delta_ordering_violations(self):
        # deltas must satisfy 1/n <= delta_minus <= delta_plus <= 1
        with pytest.raises(ValueError):
            small_config(delta_plus=0.3, delta_minus=0.6)
        with pytest.raises(ValueError):
            small_config(delta_plus=1.5)
        with pytest.raises(ValueError):
            small_config(delta_minus=0.01)

    def test_delta_lower_edge_allows_one_over_n(self):
        cfg = small_config(delta_plus=1.0, delta_minus=0.05)
        assert cfg.delta_minus == 0.05

    def test_rejects_bad_pi_and_tau(self):
        with pytest.raises(ValueError):
            small_config(pi_plus=0.0)
        # tau is an argument of the fits, not a config field
        with pytest.raises(TypeError, match="tau"):
            small_config(tau=0.0)

    def test_with_updates_revalidates(self):
        cfg = small_config()
        assert cfg.with_updates(delta_minus=0.5).delta_minus == 0.5
        with pytest.raises(ValueError):
            cfg.with_updates(n_minus=0)

    def test_json_roundtrip(self):
        cfg = small_config(delta_plus=0.9, delta_minus=0.25, seed=77)
        back = json_roundtrip(cfg)
        assert back.seed == 77
        assert back.deltas == (0.9, 0.25)
        np.testing.assert_array_equal(back.mu_core, cfg.mu_core)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pi_plus", float("nan")),
            ("delta_minus", float("nan")),
            ("n_plus", 16.5),
            ("n_plus", 16.0),
            ("n_minus", True),
            ("d_core", np.bool_(True)),
            ("d_spur", "200"),
            ("seed", 1.7),
            ("seed", False),
            ("seed", -1),
            ("seed", 2**64),
        ],
    )
    def test_rejects_non_finite_and_non_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", ["mu_core", "mu_spur"])
    @pytest.mark.parametrize("index", [1, 5, 199])
    def test_rejects_a_mean_off_e1(self, field, index):
        # a dense mean has the laws of the e_1 mean of its norm: only e_1 is taken
        mu = e1_mean(14.0, 200)
        mu[index] = 1e-300
        message = f"^{field} must be a multiple of e_1: an entry past index 0 is nonzero$"
        with pytest.raises(ValueError, match=message):
            small_config(**{field: mu})
        with pytest.raises(ValueError, match=f"{field} must be a multiple of e_1"):
            small_config(**{field: np.linspace(1.0, 2.0, 200)})

    @pytest.mark.parametrize("field", ["pi_plus", "delta_plus", "delta_minus"])
    @pytest.mark.parametrize("bad", ["0.5", None, True, np.bool_(True), 0.5j, np.inf, -np.inf, [0.5]])
    def test_rejects_non_real_weights(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            small_config(**{field: bad})

    def test_real_fields_are_stored_as_floats(self):
        cfg = small_config(pi_plus=np.float32(0.25), delta_plus=1, delta_minus=np.float64(0.5))
        for name in ("pi_plus", "delta_plus", "delta_minus"):
            assert type(getattr(cfg, name)) is float, name
        assert cfg.deltas == (1.0, 0.5)
        assert cfg.pi_plus == float(np.float32(0.25))

    @pytest.mark.parametrize("field", ["mu_core", "mu_spur"])
    @pytest.mark.parametrize(
        "bad",
        [
            lambda mu: ["5", *mu[1:]],
            lambda mu: [True, *mu[1:]],
            lambda mu: [np.bool_(True), *mu[1:]],
            lambda mu: [[v] for v in mu],
            lambda mu: [complex(v) for v in mu],
            lambda mu: None,
            lambda mu: 10.0,
            lambda mu: "5",
            lambda mu: {"0": 5.0},
            lambda mu: np.array(mu[:-1]),
            lambda mu: np.array([*mu, 0.0]),
            lambda mu: np.array(mu) > 0,
            lambda mu: np.array(mu).astype(str),
            lambda mu: np.array(mu, dtype=object),
            lambda mu: np.array(mu, dtype=complex),
            lambda mu: np.array(mu).reshape(20, 10),
            lambda mu: np.float64(5.0),
        ],
        ids=["str-entry", "bool-entry", "numpy-bool-entry", "nested", "complex-entries", "null",
             "scalar", "string", "object", "short", "long", "bool-array", "str-array",
             "object-array", "complex-array", "2d-array", "numpy-scalar"],
    )
    def test_rejects_a_mean_that_is_not_a_list_of_reals(self, field, bad):
        # the constructor takes a mean only as a 1-d integer or float array
        # of the block's length: lists of bad entries are refused as lists
        block = "d_core" if field == "mu_core" else "d_spur"
        mu = bad(e1_mean(5.0, 200).tolist())
        message = f"^{field} must be a 1-d integer or float array of {block}=200 entries$"
        with pytest.raises(ValueError, match=message):
            small_config(**{field: mu})

    @pytest.mark.parametrize("field", ["mu_core", "mu_spur"])
    @pytest.mark.parametrize("container", [list, tuple])
    def test_constructor_refuses_a_list(self, field, container):
        block = "d_core" if field == "mu_core" else "d_spur"
        mu = container(e1_mean(5.0, 200).tolist())
        message = f"^{field} must be a 1-d integer or float array of {block}=200 entries$"
        with pytest.raises(ValueError, match=message):
            small_config(**{field: mu})

    @pytest.mark.parametrize(
        "config",
        [
            lambda: ModelConfig.from_dict({**small_config().to_dict(), "mu_spur": 5}),
            lambda: ModelConfig.from_dict({**small_config().to_dict(), "mu_spur": np.float32(5.0)}),
            lambda: small_config(mu_spur=np.array([5, *[0] * 199], dtype=np.int32)),
            lambda: small_config(mu_spur=np.array([5, *[0] * 199], dtype=np.uint8)),
            lambda: small_config(mu_spur=np.array([5, *[0] * 199], dtype=np.float32)),
        ],
        ids=["ints", "numpy-scalars", "int32-array", "uint8-array", "float32-array"],
    )
    def test_real_means_of_any_real_type_are_stored_as_float64(self, config):
        # a JSON integer or numpy scalar scale, or an integer or float array
        cfg = config()
        assert cfg.mu_spur.dtype == np.float64 and not cfg.mu_spur.flags.writeable
        assert cfg.mu_spur.tobytes() == e1_mean(5.0, 200).tobytes()

    @pytest.mark.parametrize("field", ["mu_core", "mu_spur"])
    @pytest.mark.parametrize(
        "bad, kind",
        [
            ("5", "str"),
            (True, "bool"),
            (np.bool_(True), "bool"),
            (None, "NoneType"),
            (e1_mean(5.0, 200).tolist(), "list"),
            ({"0": 5.0}, "dict"),
        ],
        ids=["string", "true", "numpy-bool", "null", "list", "object"],
    )
    def test_from_dict_refuses_a_mean_that_is_not_a_number(self, field, bad, kind):
        # the message names the type, so a file's d-long list is not echoed
        doc = {**small_config().to_dict(), field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {kind}$"):
            ModelConfig.from_dict(doc)

    @pytest.mark.parametrize("field", ["mu_core", "mu_spur"])
    @pytest.mark.parametrize(
        "bad", [10**400, -(10**400), float("nan"), float("inf")],
        ids=["huge-int", "huge-negative-int", "nan", "inf"],
    )
    def test_from_dict_refuses_a_scale_past_the_float_range(self, field, bad):
        # a JSON integer past the float range is refused, not cast until it overflows
        doc = {**small_config().to_dict(), field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            ModelConfig.from_dict(doc)

    @pytest.mark.parametrize("block", ["d_core", "d_spur"])
    @pytest.mark.parametrize("bad", [0, -3, 200.0, "200", True, None])
    def test_from_dict_checks_a_block_before_sizing_its_mean(self, block, bad):
        doc = {**small_config().to_dict(), block: bad}
        with pytest.raises(ValueError, match=f"^{block} must be "):
            ModelConfig.from_dict(doc)

    @pytest.mark.parametrize("core, spur", [(14.0, 7.0), (-14.0, -7.0), (3.5, 0.0), (0.0, -0.0)])
    def test_json_roundtrip_keeps_the_mean_bytes(self, core, spur):
        cfg = small_config(mu_core=e1_mean(core, 200), mu_spur=e1_mean(spur, 200), seed=2**64 - 1)
        text = json.dumps(cfg.to_dict())
        doc = json.loads(text)
        assert (doc["mu_core"], doc["mu_spur"]) == (core, spur)
        back = ModelConfig.from_dict(doc)
        assert back.seed == 2**64 - 1
        for name in ("mu_core", "mu_spur"):
            assert getattr(back, name).tobytes() == getattr(cfg, name).tobytes(), name
        assert json.dumps(back.to_dict()) == text

    @pytest.mark.parametrize("field", ["mu_core", "mu_spur"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_means(self, field, bad):
        mu = e1_mean(7.0, 200)
        mu[5] = bad
        with pytest.raises(ValueError, match=field):
            small_config(**{field: mu})

    def test_numpy_integers_normalized_to_int(self):
        cfg = small_config(
            d_core=np.int32(200),
            n_plus=np.int64(16),
            n_minus=np.uint8(4),
            seed=np.uint64(2**64 - 1),
        )
        for name in ("d_core", "n_plus", "n_minus", "seed"):
            assert type(getattr(cfg, name)) is int, name
        back = json_roundtrip(cfg)
        assert back.seed == 2**64 - 1
        assert back.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize(
        "drop, missing",
        [(("n_plus",), "['n_plus']"), (("d_core", "mu_spur"), "['d_core', 'mu_spur']")],
    )
    def test_from_dict_names_missing_fields(self, drop, missing):
        payload = small_config().to_dict()
        for key in drop:
            del payload[key]
        with pytest.raises(ValueError, match=re.escape(f"missing ModelConfig fields: {missing}")):
            ModelConfig.from_dict(payload)

    def test_from_dict_takes_defaults_for_optional_fields(self):
        payload = small_config().to_dict()
        for key in ("pi_plus", "delta_plus", "delta_minus", "seed"):
            del payload[key]
        assert ModelConfig.from_dict(payload).to_dict()["seed"] == 0

    @pytest.mark.parametrize("doc", [[1, 2], "x", None, 3.0])
    def test_from_dict_refuses_non_objects(self, doc):
        with pytest.raises(ValueError, match="ModelConfig must be a JSON object"):
            ModelConfig.from_dict(doc)

    def test_from_dict_refuses_tau(self):
        payload = small_config().to_dict()
        assert "tau" not in payload
        payload["tau"] = 0.0
        with pytest.raises(ValueError, match=r"unknown ModelConfig fields: \['tau'\]"):
            ModelConfig.from_dict(payload)

    def test_from_dict_rejects_unknown_fields(self):
        payload = small_config().to_dict()
        payload["bogus"] = 1
        with pytest.raises(ValueError):
            ModelConfig.from_dict(payload)


class TestMeansAndStrengths:
    def test_design_matrix_adds_the_means_to_columns_0_and_d_core(self):
        cfg = small_config(d_core=150, d_spur=250, mu_core=e1_mean(14.0, 150), mu_spur=e1_mean(-7.0, 250))
        ds = sample_dataset(cfg)
        signal = ds.X - ds.Q
        np.testing.assert_allclose(signal[:, 0], 14.0 * ds.y)
        np.testing.assert_allclose(signal[:, 150], -7.0 * ds.a)
        assert not np.delete(signal, [0, 150], axis=1).any()

    def test_signal_strengths_are_sums_of_squared_norms(self):
        cfg = small_config()
        sig = signal_strengths(cfg)
        np.testing.assert_allclose(sig.r_plus, 14.0**2 + 7.0**2)
        np.testing.assert_allclose(sig.r_minus, 14.0**2 - 7.0**2)


class TestSampling:
    def test_label_counts_exact(self):
        for seed in range(5):
            cfg = small_config(seed=seed)
            y, a = sample_labels(cfg)
            b = y * a
            assert int((b == 1).sum()) == 16
            assert int((b == -1).sum()) == 4
            assert set(np.unique(y)) <= {1.0, -1.0}
            assert set(np.unique(a)) <= {1.0, -1.0}

    def test_labels_deterministic_in_seed(self):
        cfg = small_config(seed=9)
        first = sample_labels(cfg)
        second = sample_labels(cfg)
        for u, v in zip(first, second):
            np.testing.assert_array_equal(u, v)

    def test_noise_blocks_bit_identical_across_block_sizes(self):
        cfg = small_config()
        full = sample_dataset(cfg).Q
        for cols in (1, 7, 64, 4096):
            ragged = np.empty_like(full)
            for j0, blk in noise_range(cfg, 0, cfg.d, cols):
                ragged[:, j0 : j0 + blk.shape[1]] = blk
            np.testing.assert_array_equal(ragged, full)

    def test_noise_blocks_match_floored_inverse_cdf_bitwise(self):
        # the in-place transform reproduces ndtri(max(u, 2^-53)) on the
        # words the offset oracle fetches
        cfg = small_config()
        n = cfg.n
        for cols in (1, 7, 64, 4096):
            for j0, blk in noise_range(cfg, 0, cfg.d, cols):
                m = blk.shape[1]
                u = uniforms_at(cfg.seed, STREAM_NOISE, j0 * n, m * n)
                ref = ndtri(np.maximum(u, 2.0**-53)).reshape(m, n).T
                np.testing.assert_array_equal(blk, ref)

    def test_successive_noise_blocks_reuse_one_buffer(self):
        cfg = small_config()
        blocks = noise_range(cfg, 0, cfg.d, 64)
        _, first = next(blocks)
        _, second = next(blocks)
        assert np.shares_memory(first, second)

    def test_noise_stats_holds_one_block(self, monkeypatch):
        # the two halves' buffers (n x cols/4 values each) plus O(n^2 + d)
        # statistics: a stream that held all of Q would not fit
        half, cols = 4096, 2048
        monkeypatch.setattr(model, "_BLOCK_COLS", cols // 4)
        cfg = small_config(d_core=half, d_spur=half, mu_core=e1_mean(14.0, half),
                           mu_spur=e1_mean(7.0, half), n_plus=60, n_minus=4)
        n, d = cfg.n, cfg.d
        block_bytes = 8 * n * cols
        tracemalloc.start()
        try:
            noise_stats(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block_bytes + 4 * 8 * (n * n + d)

    def test_sample_dataset_holds_one_n_by_d_array(self):
        # Q and the stream's one n x 1024 buffer: X is not built until read
        half = 2000
        cfg = small_config(d_core=half, d_spur=half, mu_core=e1_mean(14.0, half),
                           mu_spur=e1_mean(7.0, half), n_plus=80, n_minus=20)
        tracemalloc.start()
        try:
            sample_dataset(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * cfg.n * cfg.d

    @pytest.mark.parametrize(
        "core, spur", [(14.0, 7.0), (-14.0, 7.0), (14.0, -7.0), (-3.0, 0.0), (0.0, 0.0)]
    )
    @pytest.mark.parametrize("d_core", [1, 150, 299, 300, 451])
    def test_q_is_the_signed_mean_columns_of_the_dataset_noise(self, core, spur, d_core, monkeypatch):
        # d = 600 in blocks of 150 from each half's start (0 and 300): column
        # d_core mid-block, on a block's first column, last of the first
        # half, first of the second, and mid-block in the second; a zero
        # mean keeps q at +0.  Both routes at several widths give these bits.
        cfg = small_config(d_core=d_core, d_spur=600 - d_core, mu_core=e1_mean(core, d_core),
                           mu_spur=e1_mean(spur, 600 - d_core))
        monkeypatch.setattr(model, "_BLOCK_COLS", 150)
        ds = sample_dataset(cfg)

        def signed(column, m):
            return np.zeros(cfg.n) if m == 0.0 else np.sign(m) * column

        q_core, q_spur = signed(ds.Q[:, 0], core), signed(ds.Q[:, d_core], spur)
        for source, width in ((cfg, 150), (ds, 150), (cfg, 7), (ds, 1024)):
            monkeypatch.setattr(model, "_BLOCK_COLS", width)
            got = noise_stats(source)
            assert got.q_core.tobytes() == q_core.tobytes()
            assert got.q_spur.tobytes() == q_spur.tobytes()

    def test_noise_stats_read_only_and_dataset_labels_untouched(self):
        ds = sample_dataset(small_config())
        noise = noise_stats(ds)
        for name in ("y", "a", "gram_0", "q_core", "q_spur"):
            with pytest.raises(ValueError):
                getattr(noise, name)[0] = 0.0
        ds.y[0] = ds.y[0]  # the dataset keeps its own writable labels

    def test_noise_words_match_raw_stream(self):
        # column j consumes words [j*n, (j+1)*n) of the noise stream
        cfg = small_config()
        raw = philox_generator(cfg.seed, STREAM_NOISE).random(3 * cfg.n)
        offset = uniforms_at(cfg.seed, STREAM_NOISE, cfg.n, 2 * cfg.n)
        np.testing.assert_array_equal(offset, raw[cfg.n :])

    def test_dataset_reconstruction_is_bitwise(self):
        ds = sample_dataset(small_config())
        ds.validate()
        mu_bar_c, mu_bar_s = dense_means(ds.config)
        rebuilt = np.outer(ds.y, mu_bar_c) + np.outer(ds.a, mu_bar_s) + ds.Q
        np.testing.assert_array_equal(ds.X, rebuilt)

    def test_sample_dataset_block_invariant(self, monkeypatch):
        cfg = small_config()
        monkeypatch.setattr(model, "_BLOCK_COLS", 64)
        a = sample_dataset(cfg)
        monkeypatch.setattr(model, "_BLOCK_COLS", 4096)
        b = sample_dataset(cfg)
        np.testing.assert_array_equal(a.X, b.X)

    def test_different_seeds_differ(self):
        a = sample_dataset(small_config(seed=1))
        b = sample_dataset(small_config(seed=2))
        assert not np.array_equal(a.Q, b.Q)

    def test_noise_moments(self):
        cfg = small_config(seed=12)
        ds = sample_dataset(cfg)
        rng = np.random.default_rng(0)
        probe = rng.standard_normal(cfg.d)
        probe /= np.linalg.norm(probe)
        proj = ds.Q @ probe
        assert abs(proj.mean()) < 1.0
        assert 0.5 < proj.std() < 2.0

    def test_validate_catches_tampering(self):
        ds = sample_dataset(small_config())
        fields = dict(y=ds.y, a=ds.a, Q=ds.Q, config=ds.config)
        for edit, message in (
            (dict(a=-ds.a), "minority count does not match config"),
            (dict(y=np.where(ds.y > 0, 1.0, 0.0)), "y must be an n-vector of signs"),
            (dict(a=ds.a[1:]), "a must be an n-vector of signs"),
            (dict(Q=ds.Q[:, 1:]), "Q must be n x d"),
        ):
            with pytest.raises(ValueError, match=message):
                Dataset(**{**fields, **edit}).validate()

    def test_b_is_y_times_a(self):
        ds = sample_dataset(small_config(seed=5))
        assert ds.b.tobytes() == (ds.y * ds.a).tobytes()
        assert int((ds.b < 0).sum()) == ds.config.n_minus

    def test_x_is_built_once_with_the_parents_bits(self, monkeypatch):
        # X is Q with y * mu_core[0] added to column 0 and a * mu_spur[0]
        # to column d_core, from a Q assembled off the word-offset oracle:
        # the same additions on the same bits as when X was stored
        cfg = small_config(d_core=150, d_spur=250, mu_core=e1_mean(14.0, 150),
                           mu_spur=e1_mean(-7.0, 250))
        ds = sample_dataset(cfg)
        n, d = cfg.n, cfg.d
        Q = ndtri(np.maximum(uniforms_at(cfg.seed, STREAM_NOISE, 0, n * d), 2.0**-53)).reshape(d, n).T
        expected = Q.copy()
        expected[:, 0] += ds.y * 14.0
        expected[:, 150] += ds.a * -7.0
        builds = []
        design = model._design_matrix
        monkeypatch.setattr(model, "_design_matrix", lambda *args: builds.append(1) or design(*args))
        assert ds.Q.tobytes() == np.ascontiguousarray(Q).tobytes()
        assert ds.X.tobytes() == expected.tobytes()
        assert ds.X is ds.X
        assert builds == [1]


class TestTwoHalfStream:
    @pytest.mark.parametrize("n_plus", [16, 15])  # n = 20, and an odd n = 19
    def test_noise_range_halves_concatenate_to_noise_blocks(self, n_plus):
        cfg = small_config(n_plus=n_plus)
        n, d = cfg.n, cfg.d
        full = sample_dataset(cfg).Q
        for h in (0, 1, 2, 3, 5, 199, 201, d - 1, d):
            for cols in (1, 7, 64):
                got = np.full((n, d), np.nan)
                for lo, hi in ((0, h), (h, d)):
                    for j0, blk in noise_range(cfg, lo, hi, cols):
                        got[:, j0 : j0 + blk.shape[1]] = blk
                np.testing.assert_array_equal(got, full)
            if h < d:
                # the upper range starts at word h*n, mid counter block when h*n % 4 != 0
                j0, blk = next(noise_range(cfg, h, d, 7))
                u = uniforms_at(cfg.seed, STREAM_NOISE, h * n, blk.shape[1] * n)
                assert j0 == h
                np.testing.assert_array_equal(blk, ndtri(np.maximum(u, 2.0**-53)).reshape(-1, n).T)

    @staticmethod
    def counts(controls):
        return [getter() for getter, _ in controls]

    def test_pin_restores_counts_on_exit(self, blas_controls):
        with _one_blas_thread():
            assert self.counts(blas_controls) == [1] * len(blas_controls)
        assert self.counts(blas_controls) == [2] * len(blas_controls)

    def test_pin_restores_counts_after_exception(self, blas_controls):
        with pytest.raises(RuntimeError, match="inside the pin"):
            with _one_blas_thread():
                raise RuntimeError("inside the pin")
        assert self.counts(blas_controls) == [2] * len(blas_controls)

    def test_nested_pins_restore_once(self, blas_controls):
        with _one_blas_thread():
            with _one_blas_thread():
                assert self.counts(blas_controls) == [1] * len(blas_controls)
            # the outer entry still holds the pin
            assert self.counts(blas_controls) == [1] * len(blas_controls)
        assert self.counts(blas_controls) == [2] * len(blas_controls)

    def test_concurrent_streams_restore_counts(self, blas_controls, monkeypatch):
        # more streams than cores, switching often: a lost update of the pin's
        # depth would leave the counts at 1 or restore them mid-stream
        monkeypatch.setattr(model, "_THREAD_MIN_VALUES", 0)  # each with its worker
        cfg = small_config(d_core=1000, d_spur=1000, mu_core=e1_mean(14.0, 1000),
                           mu_spur=e1_mean(7.0, 1000), n_plus=40, n_minus=10)
        expected = noise_stats(cfg)
        results = [[] for _ in range(4)]
        start = threading.Barrier(len(results))

        def stream(i):
            start.wait()
            for _ in range(5):
                results[i].append(noise_stats(cfg))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=stream, args=(i,)) for i in range(len(results))]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert self.counts(blas_controls) == [2] * len(blas_controls)
        assert [len(r) for r in results] == [5] * len(results)
        for got in (g for r in results for g in r):
            for name in ("gram_0", "q_core", "q_spur"):
                np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))

    def test_stats_bits_do_not_depend_on_blas_threads(self, blas_controls):
        # unpinned, this point's threaded GEMMs sum in a different order at
        # the default thread count than at one thread
        script = (
            "import hashlib\n"
            "from grouprisk.model import ModelConfig, e1_mean, noise_stats\n"
            "cfg = ModelConfig(d_core=15000, d_spur=15000, mu_core=e1_mean(30.0, 15000),\n"
            "                  mu_spur=e1_mean(10.0, 15000), n_plus=120, n_minus=30, seed=11)\n"
            "s = noise_stats(cfg)\n"
            "print(hashlib.sha256(s.gram_0.tobytes() + s.q_core.tobytes()"
            " + s.q_spur.tobytes()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for threads in ("1", None):
            env = dict(os.environ)
            env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("route", ["config", "dataset"])
    def test_worker_and_caller_only_paths_give_the_same_bits(self, route, monkeypatch):
        cfg = small_config(d_core=1501, d_spur=1500, mu_core=e1_mean(14.0, 1501),
                           mu_spur=e1_mean(7.0, 1500), n_plus=41, n_minus=10)
        source = cfg if route == "config" else sample_dataset(cfg)
        assert cfg.n * cfg.d < model._THREAD_MIN_VALUES
        monkeypatch.setattr(model, "_BLOCK_COLS", 150)
        alone = noise_stats(source)
        monkeypatch.setattr(model, "_THREAD_MIN_VALUES", 0)
        threaded = noise_stats(source)
        for name in ("gram_0", "q_core", "q_spur"):
            np.testing.assert_array_equal(getattr(threaded, name), getattr(alone, name))

    def test_short_stream_starts_no_worker(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("worker thread started for a short stream")

        monkeypatch.setattr(model, "ThreadPoolExecutor", no_pool)
        noise_stats(small_config())

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_noise_stats_runs_in_a_forked_child(self, monkeypatch):
        monkeypatch.setattr(model, "_THREAD_MIN_VALUES", 0)  # parent and child start workers
        cfg = small_config()
        before = noise_stats(cfg)
        pid = os.fork()
        if pid == 0:  # the child exits 0 only on the parent's bits
            code = 1
            try:
                after = noise_stats(cfg)
                same = all(np.array_equal(getattr(after, k), getattr(before, k))
                           for k in ("gram_0", "q_core", "q_spur"))
                code = 0 if same else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("noise_stats hung in a forked child")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


# Where column d_core (the spurious mean's) falls in the stream's blocks of
# `model._BLOCK_COLS` columns, counted from each half's start: inside a
# block of the first half, on the first column of a block (the first
# half's last block, or the second half's first column where the first
# half is one block), or inside a block of the second half.
D_CORE_PLACES = ("lower_mid_block", "block_start", "upper_mid_block")


def place_d_core(d, place):
    width, mid = model._BLOCK_COLS, (d + 1) // 2
    if place == "block_start":
        return width * ((mid - 1) // width) or mid
    lo = 0 if place == "lower_mid_block" else mid
    j = lo + (min(mid, d - mid) // 2 or 1)
    return j + 1 if (j - lo) % width == 0 else j


def coupled_config(n, seed=7, place="lower_mid_block"):
    """An n-coupled point (d = 2 n^2) with signed e_1 means and column
    d_core at `place` for the current block width."""
    n_minus = max(1, round(0.2 * n))
    d = 2 * n * n
    d_core = place_d_core(d, place)
    return ModelConfig(d_core=d_core, d_spur=d - d_core,
                       mu_core=e1_mean(-2.0, d_core), mu_spur=e1_mean(0.5, d - d_core),
                       n_plus=n - n_minus, n_minus=n_minus, seed=seed)


class TestSharedStream:
    """noise_stats_many: one pass over a shared noise stream, each config's
    statistics the bits of its own stream."""

    @staticmethod
    def assert_same(got, ref):
        for name in ("y", "a", "gram_0", "q_core", "q_spur"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))

    @pytest.mark.parametrize("threshold", [0, 1 << 60], ids=["worker", "caller"])
    @pytest.mark.parametrize("width", [3, 7, 1024])
    @pytest.mark.parametrize("ns", [(4, 6, 9, 12), (12, 5, 12, 8)], ids=["rising", "mixed"])
    def test_equals_noise_stats_bitwise(self, ns, width, threshold, monkeypatch):
        # narrow blocks straddle the window's slides
        monkeypatch.setattr(model, "_BLOCK_COLS", width)
        monkeypatch.setattr(model, "_THREAD_MIN_VALUES", threshold)
        for place in D_CORE_PLACES:
            configs = [coupled_config(n, place=place) for n in ns]
            many = model.noise_stats_many(configs)
            assert len(many) == len(configs)
            for cfg, got in zip(configs, many):
                self.assert_same(got, noise_stats(cfg))
                # the signed columns, also on the dataset route
                Q = sample_dataset(cfg).Q
                np.testing.assert_array_equal(got.q_core, -Q[:, 0])
                np.testing.assert_array_equal(got.q_spur, Q[:, cfg.d_core])
                self.assert_same(got, noise_stats(sample_dataset(cfg)))

    @pytest.mark.parametrize("threshold", [0, 1 << 60], ids=["worker", "caller"])
    def test_single_config_equals_noise_stats(self, threshold, monkeypatch):
        monkeypatch.setattr(model, "_BLOCK_COLS", 150)
        monkeypatch.setattr(model, "_THREAD_MIN_VALUES", threshold)
        cfg = small_config(d_core=1501, d_spur=1500, mu_core=e1_mean(14.0, 1501),
                           mu_spur=e1_mean(7.0, 1500), n_plus=41, n_minus=10)
        (got,) = model.noise_stats_many([cfg])
        self.assert_same(got, noise_stats(cfg))
        # e1 means: the dataset route's column views give the same bits
        self.assert_same(got, noise_stats(sample_dataset(cfg)))

    def test_refuses_mixed_seeds_and_no_configs(self):
        with pytest.raises(ValueError, match="one seed"):
            model.noise_stats_many([coupled_config(4, seed=1), coupled_config(6, seed=2)])
        with pytest.raises(ValueError, match="at least one"):
            model.noise_stats_many([])
        with pytest.raises(TypeError, match="ModelConfig"):
            model.noise_stats_many([sample_dataset(coupled_config(4))])

    @pytest.mark.parametrize("threshold", [0, 1 << 60], ids=["worker", "caller"])
    def test_each_word_is_drawn_once(self, threshold, monkeypatch):
        # the caller walks to the end of the last half it streams, the
        # worker draws the largest config's second half: 2 * 12^3 + 14^3
        # words for the 2 * (6^3 + 9^3 + 12^3 + 14^3) of four streams
        monkeypatch.setattr(model, "_BLOCK_COLS", 5)
        monkeypatch.setattr(model, "_THREAD_MIN_VALUES", threshold)
        drawn = []
        real = model.philox_generator

        class Counting:
            def __init__(self, gen):
                self.gen, self.bit_generator = gen, gen.bit_generator

            def random(self, size=None, out=None):
                values = self.gen.random(size, out=out)
                drawn.append(values.size)
                return values

        def counting(seed, stream):
            gen = real(seed, stream)
            return Counting(gen) if stream == STREAM_NOISE else gen

        monkeypatch.setattr(model, "philox_generator", counting)
        configs = [coupled_config(n) for n in (6, 9, 12, 14)]
        many = model.noise_stats_many(configs)
        assert sum(drawn) == 2 * 12**3 + 14**3
        monkeypatch.setattr(model, "philox_generator", real)
        for cfg, got in zip(configs, many):
            self.assert_same(got, noise_stats(cfg))

    def test_pass_holds_its_windows(self, monkeypatch):
        # the caller's window (1.5 of its largest block) and the worker's
        # buffer (one block) plus O(sum n^2 + d) statistics and scratch:
        # a pass that held any config's Q would not fit
        cols = 64
        monkeypatch.setattr(model, "_BLOCK_COLS", cols)
        configs = [coupled_config(n) for n in (20, 30, 40, 50)]
        big = max(cfg.n for cfg in configs)
        window_bytes = 8 * 2.5 * big * cols
        sum_sq, d = sum(cfg.n**2 for cfg in configs), max(cfg.d for cfg in configs)
        assert 8 * big * max(cfg.d for cfg in configs) > 4 * (window_bytes + 8 * (sum_sq + d))
        tracemalloc.start()
        try:
            model.noise_stats_many(configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < window_bytes + 4 * 8 * (sum_sq + d)


class TestSubstreams:
    def test_substream_seed_is_xor(self):
        assert substream_seed(0, 0) == 0
        assert substream_seed(5, 3) == 6
        assert substream_seed(2**64 - 1, 1) == 2**64 - 2

    def test_streams_are_independent(self):
        a = philox_generator(0, 1).random(8)
        b = philox_generator(0, 2).random(8)
        assert not np.array_equal(a, b)

    def test_seeds_above_two_to_the_63_stay_distinct(self):
        draws = [philox_generator(s, STREAM_NOISE).random(4)
                 for s in (2**64 - 1, 2**64 - 2, 2**63 + 5, 2**63 + 6, 0)]
        for i in range(len(draws)):
            for j in range(i):
                assert not np.array_equal(draws[i], draws[j])


class TestAssumptions:
    def test_report_fields_and_all_pass(self):
        cfg = small_config()
        rep = check_assumptions(cfg, delta=0.05)
        assert isinstance(rep, AssumptionReport)
        assert rep.all_pass == (rep.pass_a and rep.pass_b and rep.pass_c and rep.pass_d)
        d = rep.to_dict()
        assert d["pass_a"] == rep.pass_a
        assert d["slack_d"] == rep.slack_d

    def test_slack_scales_inversely_with_constant(self):
        cfg = small_config()
        r1 = check_assumptions(cfg, c_const=1.0)
        r2 = check_assumptions(cfg, c_const=2.0)
        np.testing.assert_allclose(r2.slack_c, r1.slack_c / 2.0)

    def test_deep_regime_passes_all(self):
        cfg = ModelConfig(
            d_core=50_000,
            d_spur=50_000,
            mu_core=e1_mean(np.sqrt(125.0), 50_000),
            mu_spur=e1_mean(np.sqrt(125.0), 50_000),
            n_plus=16,
            n_minus=4,
        )
        assert check_assumptions(cfg, delta=0.05).all_pass

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            check_assumptions(small_config(), delta=0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, True, np.bool_(True), "1"])
    def test_rejects_bad_constant(self, bad):
        with pytest.raises(ValueError, match="c_const must be finite and positive"):
            check_assumptions(small_config(), c_const=bad)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        ds = sample_dataset(small_config(seed=21, delta_plus=0.9, delta_minus=0.3))
        path = str(tmp_path / "ds.bin")
        save_dataset(ds, path)
        # the file is Q's little-endian float64 bytes and nothing else
        assert Path(path).read_bytes() == ds.Q.astype("<f8").tobytes()
        sidecar = json.loads(Path(path + ".json").read_text())
        assert sorted(sidecar) == ["a", "config", "y"]
        back = load_dataset(path)
        for name in ("y", "a", "Q", "X", "b"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name
        assert back.config.to_dict() == ds.config.to_dict()
        assert back.config.deltas == (0.9, 0.3)

    def test_sidecar_length_does_not_grow_with_d(self, tmp_path):
        # the config holds each mean as its scale: d enters the sidecar only
        # through the digits of d_core and d_spur
        texts, docs = [], []
        for d_half in (2000, 20000):
            cfg = small_config(d_core=d_half, d_spur=d_half, mu_core=e1_mean(14.0, d_half),
                               mu_spur=e1_mean(7.0, d_half))
            path = str(tmp_path / f"ds{d_half}.bin")
            save_dataset(sample_dataset(cfg), path)
            texts.append(Path(path + ".json").read_text())
            docs.append(json.loads(texts[-1]))
        assert len(texts[1]) - len(texts[0]) == 2 * (len("20000") - len("2000"))
        for doc in docs:
            doc["config"].update(d_core=None, d_spur=None)
        assert docs[0] == docs[1]

    def test_loaded_q_is_a_view_of_the_read_buffer(self, tmp_path):
        path = str(tmp_path / "ds.bin")
        save_dataset(sample_dataset(small_config()), path)
        back = load_dataset(path)
        assert back.Q.base is not None and back.Q.base.size == back.Q.size

    def test_file_with_an_x_half_and_the_old_sidecar_is_refused(self, tmp_path):
        # X then Q, with n, d, seed, layout and b in the sidecar
        ds = sample_dataset(small_config())
        path = str(tmp_path / "ds.bin")
        write_x_then_q_file(ds, path)
        with pytest.raises(ValueError, match=re.escape(
                "unknown sidecar fields: ['b', 'd', 'layout', 'n', 'seed']")):
            load_dataset(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.pop("config"), "missing sidecar fields: ['config']"),
            (lambda doc: doc.pop("y"), "missing sidecar fields: ['y']"),
            (lambda doc: doc.update(tau=0.0), "unknown sidecar fields: ['tau']"),
            # the d-long list that files held before each mean was its scale
            (lambda doc: doc["config"].update(mu_core=e1_mean(14.0, 200).tolist()),
             "mu_core must be a number, got list"),
            (lambda doc: doc.update(y={"a": 1}), "sidecar y must be a JSON array of n=20 entries, each 1 or -1"),
            (lambda doc: doc.update(y=[str(v) for v in doc["y"]]), "sidecar y must be a JSON array"),
            (lambda doc: doc.update(a=[float(v) for v in doc["a"]]), "sidecar a must be a JSON array"),
            (lambda doc: doc.update(a=[v == 1 for v in doc["a"]]), "sidecar a must be a JSON array"),
            (lambda doc: doc["a"].__setitem__(0, 0), "sidecar a must be a JSON array"),
            (lambda doc: doc["y"].pop(), "sidecar y must be a JSON array of n=20 entries"),
            (lambda doc: doc.update(a=None), "sidecar a must be a JSON array"),
            (lambda doc: doc.update(a=[-v for v in doc["a"]]), "minority count does not match config"),
        ],
        ids=["no-config", "no-y", "unknown", "dense-mean", "y-object", "y-strings", "a-floats",
             "a-bools", "a-zero", "y-short", "a-null", "a-flipped"],
    )
    def test_malformed_sidecar_names_the_field(self, edit, message, tmp_path):
        path = str(tmp_path / "ds.bin")
        save_dataset(sample_dataset(small_config()), path)
        doc = json.loads(Path(path + ".json").read_text())
        edit(doc)
        Path(path + ".json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(path)

    def test_sidecar_that_is_not_an_object_is_refused(self, tmp_path):
        path = str(tmp_path / "ds.bin")
        save_dataset(sample_dataset(small_config()), path)
        Path(path + ".json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="sidecar must be a JSON object, got list"):
            load_dataset(path)

    def test_truncated_payload_rejected(self, tmp_path):
        ds = sample_dataset(small_config())
        path = str(tmp_path / "ds.bin")
        save_dataset(ds, path)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            load_dataset(path)


KS_LEVEL = 0.01  # fixed seeds: each KS test is one deterministic draw of its p-value


class TestBartlettFactor:
    def test_factor_follows_documented_draw_order(self):
        # diagonals from one stream, normals from the other, each draw after draw
        n, dof, draws = 5, 12, 3
        factors = np.concatenate(list(bartlett_factor(n, dof, 7, draws)))
        chi2_rng = philox_generator(7, STREAM_WISHART)
        normal_rng = philox_generator(7, STREAM_WISHART_NORMALS)
        for factor in factors:
            np.testing.assert_array_equal(
                np.diag(factor), np.sqrt(chi2_rng.chisquare(dof - np.arange(n)))
            )
            np.testing.assert_array_equal(
                factor[np.tril_indices(n, -1)], normal_rng.standard_normal(n * (n - 1) // 2)
            )
            assert not np.triu(factor, 1).any()

    def test_factors_come_in_chunks_of_bounded_size(self, monkeypatch):
        monkeypatch.setattr(model, "_BARTLETT_CHUNK_VALUES", 3 * 25)
        sizes = [chunk.shape for chunk in bartlett_factor(5, 12, 7, 8)]
        assert sizes == [(3, 5, 5), (3, 5, 5), (2, 5, 5)]
        assert list(bartlett_factor(5, 12, 7, 0)) == []

    @pytest.mark.parametrize("n, dof", [(0, 5), (6, 5)])
    def test_factor_rejects_bad_shape(self, n, dof):
        with pytest.raises(ValueError, match="1 <= n <= dof"):
            bartlett_factor(n, dof, 0, 1)

    @pytest.mark.parametrize(
        "seed, draws, match",
        [(-1, 1, "seed"), (2**64, 1, "seed"), (1.0, 1, "seed"), (0, -1, "draws"), (0, 2.0, "draws")],
    )
    def test_factor_rejects_bad_seed_and_draws_at_the_call(self, seed, draws, match):
        with pytest.raises(ValueError, match=match):
            bartlett_factor(4, 9, seed, draws)

    def test_factor_trace_is_chi2_nm(self):
        # tr(L L') sums n chi2(m - i) and n(n-1)/2 squared normals: chi2(n m)
        n, m = 4, 9
        factors = np.concatenate(list(bartlett_factor(n, m, 0, 400)))
        traces = np.sum(factors**2, axis=(1, 2))
        assert kstest(traces, chi2(n * m).cdf).pvalue > KS_LEVEL
