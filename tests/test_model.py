"""Tests for configuration, sampling, and dataset persistence."""

import json
import os
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
    AssumptionReport,
    Dataset,
    ModelConfig,
    bartlett_factor,
    check_assumptions,
    embed_means,
    group_mean,
    load_dataset,
    noise_blocks,
    noise_stats,
    philox_generator,
    sample_dataset,
    sample_labels,
    save_dataset,
    signal_strengths,
    substream_seed,
)
from grouprisk.model import _noise_range, _one_blas_thread


def uniforms_at(seed, stream, offset, count):
    """Word-offset oracle: `count` uniforms from word `offset` of (seed, stream).

    Philox advances in 4-word counter blocks, so this jumps offset // 4
    blocks and discards offset % 4 draws to land inside a block.  It reads
    no word before `offset`, unlike the sequential reads of `noise_blocks`,
    and is bit-identical to slicing one long draw.
    """
    gen = philox_generator(seed, stream)
    q, r = divmod(int(offset), 4)
    if q:
        gen.bit_generator.advance(q)
    if r:
        gen.random(r)
    return gen.random(count)


def e1(scale, length):
    v = np.zeros(length)
    v[0] = scale
    return v


def small_config(**overrides):
    base = dict(
        d_core=200,
        d_spur=200,
        mu_core=e1(14.0, 200),
        mu_spur=e1(7.0, 200),
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
        mu = e1(14.0, 200)
        cfg = small_config(mu_core=mu)
        mu[0] = 0.0
        assert cfg.mu_core[0] == 14.0
        with pytest.raises((ValueError, RuntimeError)):
            cfg.mu_core[0] = 1.0

    def test_read_only_view_of_a_writable_array_is_copied(self):
        mu = e1(14.0, 200)
        view = mu[:]
        view.setflags(write=False)
        cfg = small_config(mu_core=view)
        assert cfg.mu_core is not view
        mu[0] = 0.0
        assert cfg.mu_core[0] == 14.0

    def test_derived_configs_share_frozen_means(self):
        cfg = small_config()
        for other in (cfg.with_updates(seed=1), cfg.with_updates(tau=2.0),
                      small_config(mu_core=cfg.mu_core, mu_spur=cfg.mu_spur)):
            assert other.mu_core is cfg.mu_core
            assert other.mu_spur is cfg.mu_spur

    def test_rejects_d_smaller_than_n(self):
        with pytest.raises(ValueError):
            small_config(d_core=8, d_spur=8, mu_core=e1(1.0, 8), mu_spur=e1(1.0, 8))

    def test_rejects_minority_larger_than_majority(self):
        with pytest.raises(ValueError):
            small_config(n_plus=4, n_minus=16)

    def test_rejects_zero_minority(self):
        with pytest.raises(ValueError):
            small_config(n_minus=0)

    def test_rejects_spurious_stronger_than_core(self):
        with pytest.raises(ValueError):
            small_config(mu_core=e1(7.0, 200), mu_spur=e1(14.0, 200))

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
        with pytest.raises(ValueError):
            small_config(tau=-1.0)

    def test_delta_of_maps_groups(self):
        cfg = small_config(delta_plus=0.9, delta_minus=0.1)
        b = np.array([1.0, -1.0, 1.0])
        np.testing.assert_allclose(cfg.delta_of(b), [0.9, 0.1, 0.9])

    def test_with_updates_revalidates(self):
        cfg = small_config()
        assert cfg.with_updates(tau=2.0).tau == 2.0
        with pytest.raises(ValueError):
            cfg.with_updates(n_minus=0)

    def test_json_roundtrip(self):
        cfg = small_config(delta_plus=0.9, delta_minus=0.25, tau=1.5, seed=77)
        back = ModelConfig.from_json(cfg.to_json())
        assert back.seed == 77
        assert back.deltas == (0.9, 0.25)
        np.testing.assert_array_equal(back.mu_core, cfg.mu_core)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tau", float("nan")),
            ("tau", float("inf")),
            ("n_plus", 16.5),
            ("n_plus", 16.0),
            ("n_minus", True),
            ("d_core", np.bool_(True)),
            ("d_spur", "200"),
            ("seed", 1.7),
            ("seed", False),
        ],
    )
    def test_rejects_non_finite_and_non_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", ["mu_core", "mu_spur"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_means(self, field, bad):
        mu = e1(7.0, 200)
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
        back = ModelConfig.from_json(cfg.to_json())
        assert back.seed == 2**64 - 1
        assert back.to_dict() == cfg.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        payload = json.loads(small_config().to_json())
        payload["bogus"] = 1
        with pytest.raises(ValueError):
            ModelConfig.from_dict(payload)


class TestMeansAndStrengths:
    def test_embed_means_block_layout(self):
        cfg = small_config()
        mu_bar_c, mu_bar_s = embed_means(cfg)
        assert mu_bar_c.shape == (400,)
        assert mu_bar_c[0] == 14.0
        assert np.all(mu_bar_c[200:] == 0.0)
        assert mu_bar_s[200] == 7.0
        assert np.all(mu_bar_s[:200] == 0.0)

    def test_group_mean_signs(self):
        cfg = small_config()
        mu_bar_c, mu_bar_s = embed_means(cfg)
        np.testing.assert_allclose(group_mean(cfg, +1), mu_bar_c + mu_bar_s)
        np.testing.assert_allclose(group_mean(cfg, -1), mu_bar_c - mu_bar_s)
        with pytest.raises(ValueError):
            group_mean(cfg, 0)

    def test_signal_strengths_are_sums_of_squared_norms(self):
        cfg = small_config()
        sig = signal_strengths(cfg)
        np.testing.assert_allclose(sig.r_plus, 14.0**2 + 7.0**2)
        np.testing.assert_allclose(sig.r_minus, 14.0**2 - 7.0**2)


class TestSampling:
    def test_label_counts_exact(self):
        for seed in range(5):
            cfg = small_config(seed=seed)
            y, a, b = sample_labels(cfg)
            assert int((b == 1).sum()) == 16
            assert int((b == -1).sum()) == 4
            np.testing.assert_array_equal(a, y * b)
            assert set(np.unique(y)) <= {1.0, -1.0}

    def test_labels_deterministic_in_seed(self):
        cfg = small_config(seed=9)
        first = sample_labels(cfg)
        second = sample_labels(cfg)
        for u, v in zip(first, second):
            np.testing.assert_array_equal(u, v)

    def test_noise_blocks_bit_identical_across_block_sizes(self):
        cfg = small_config()
        full = np.empty((cfg.n, cfg.d))
        for j0, blk in noise_blocks(cfg, block_cols=cfg.d):
            full[:, j0 : j0 + blk.shape[1]] = blk
        for cols in (1, 7, 64, 4096):
            ragged = np.empty_like(full)
            for j0, blk in noise_blocks(cfg, block_cols=cols):
                ragged[:, j0 : j0 + blk.shape[1]] = blk
            np.testing.assert_array_equal(ragged, full)

    def test_noise_blocks_match_floored_inverse_cdf_bitwise(self):
        # the in-place transform reproduces ndtri(max(u, 2^-53)) on the
        # words the offset oracle fetches
        cfg = small_config()
        n = cfg.n
        for cols in (1, 7, 64, 4096):
            for j0, blk in noise_blocks(cfg, block_cols=cols):
                m = blk.shape[1]
                u = uniforms_at(cfg.seed, STREAM_NOISE, j0 * n, m * n)
                ref = ndtri(np.maximum(u, 2.0**-53)).reshape(m, n).T
                np.testing.assert_array_equal(blk, ref)

    def test_successive_noise_blocks_reuse_one_buffer(self):
        blocks = noise_blocks(small_config(), block_cols=64)
        _, first = next(blocks)
        _, second = next(blocks)
        assert np.shares_memory(first, second)

    def test_noise_stats_holds_one_block(self):
        # one n x block_cols buffer plus O(n^2 + d) statistics: holding two
        # blocks at once would exceed the bound
        half, cols = 4096, 2048
        cfg = small_config(d_core=half, d_spur=half, mu_core=e1(14.0, half),
                           mu_spur=e1(7.0, half), n_plus=60, n_minus=4)
        n, d = cfg.n, cfg.d
        block_bytes = 8 * n * cols
        tracemalloc.start()
        try:
            noise_stats(cfg, block_cols=cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block_bytes + 4 * 8 * (n * n + d)

    def test_sample_dataset_holds_three_n_by_d_arrays(self):
        # Q, X and one outer-product temporary; the stream's buffer is
        # released before X is built
        half = 2000
        cfg = small_config(d_core=half, d_spur=half, mu_core=e1(14.0, half),
                           mu_spur=e1(7.0, half), n_plus=80, n_minus=20)
        tracemalloc.start()
        try:
            sample_dataset(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * cfg.n * cfg.d

    def test_noise_stats_read_only_and_dataset_labels_untouched(self):
        ds = sample_dataset(small_config())
        noise = noise_stats(ds)
        for name in ("y", "a", "b", "gram_0", "q_core", "q_spur"):
            with pytest.raises(ValueError):
                getattr(noise, name)[0] = 0.0
        ds.y[0] = ds.y[0]  # the dataset keeps its own writable labels

    def test_noise_words_match_raw_stream(self):
        # column j consumes words [j*n, (j+1)*n) of the noise stream
        cfg = small_config()
        raw = philox_generator(cfg.seed, STREAM_NOISE).random(3 * cfg.n)
        offset = uniforms_at(cfg.seed, STREAM_NOISE, cfg.n, 2 * cfg.n)
        np.testing.assert_array_equal(offset, raw[cfg.n :])

    def test_noise_blocks_rejects_bad_width(self):
        with pytest.raises(ValueError):
            next(noise_blocks(small_config(), block_cols=0))

    def test_dataset_reconstruction_is_bitwise(self):
        ds = sample_dataset(small_config())
        ds.validate()
        mu_bar_c, mu_bar_s = embed_means(ds.config)
        rebuilt = np.outer(ds.y, mu_bar_c) + np.outer(ds.a, mu_bar_s) + ds.Q
        np.testing.assert_array_equal(ds.X, rebuilt)

    def test_sample_dataset_block_invariant(self):
        cfg = small_config()
        a = sample_dataset(cfg, block_cols=64)
        b = sample_dataset(cfg, block_cols=4096)
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
        bad = Dataset(
            X=ds.X.copy(),
            y=ds.y,
            a=ds.a,
            b=-ds.b,
            Q=ds.Q,
            config=ds.config,
        )
        with pytest.raises(ValueError):
            bad.validate()


class TestTwoHalfStream:
    @pytest.mark.parametrize("n_plus", [16, 15])  # n = 20, and an odd n = 19
    def test_noise_range_halves_concatenate_to_noise_blocks(self, n_plus):
        cfg = small_config(n_plus=n_plus)
        n, d = cfg.n, cfg.d
        (_, full), = noise_blocks(cfg, block_cols=d)
        full = full.copy()
        for h in (0, 1, 2, 3, 5, 199, 201, d - 1, d):
            for cols in (1, 7, 64):
                got = np.full((n, d), np.nan)
                for lo, hi in ((0, h), (h, d)):
                    for j0, blk in _noise_range(cfg, lo, hi, cols):
                        got[:, j0 : j0 + blk.shape[1]] = blk
                np.testing.assert_array_equal(got, full)
            if h < d:
                # the upper range starts at word h*n, mid counter block when h*n % 4 != 0
                j0, blk = next(_noise_range(cfg, h, d, 7))
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
        cfg = small_config(d_core=1000, d_spur=1000, mu_core=e1(14.0, 1000),
                           mu_spur=e1(7.0, 1000), n_plus=40, n_minus=10)
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
        cfg = small_config(d_core=1501, d_spur=1500, mu_core=e1(14.0, 1501),
                           mu_spur=e1(7.0, 1500), n_plus=41, n_minus=10)
        source = cfg if route == "config" else sample_dataset(cfg)
        assert cfg.n * cfg.d < model._THREAD_MIN_VALUES
        alone = noise_stats(source, block_cols=600)
        monkeypatch.setattr(model, "_THREAD_MIN_VALUES", 0)
        threaded = noise_stats(source, block_cols=600)
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
            mu_core=e1(np.sqrt(125.0), 50_000),
            mu_spur=e1(np.sqrt(125.0), 50_000),
            n_plus=16,
            n_minus=4,
        )
        assert check_assumptions(cfg, delta=0.05).all_pass

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            check_assumptions(small_config(), delta=0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_constant(self, bad):
        with pytest.raises(ValueError, match="c_const must be finite and positive"):
            check_assumptions(small_config(), c_const=bad)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        ds = sample_dataset(small_config(seed=21, delta_plus=0.9, delta_minus=0.3))
        path = str(tmp_path / "ds.bin")
        save_dataset(ds, path)
        with open(path, "rb") as fh:
            assert fh.read() == ds.X.astype("<f8").tobytes() + ds.Q.astype("<f8").tobytes()
        back = load_dataset(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.Q, ds.Q)
        np.testing.assert_array_equal(back.b, ds.b)
        assert back.config.seed == 21
        assert back.config.deltas == (0.9, 0.3)

    def test_load_returns_views_of_one_buffer(self, tmp_path):
        path = str(tmp_path / "ds.bin")
        save_dataset(sample_dataset(small_config()), path)
        back = load_dataset(path)
        assert back.X.base is not None and back.X.base is back.Q.base
        # a 1-ulp change to the loaded X still fails validation
        back.X[0, 0] = np.nextafter(back.X[0, 0], -np.inf)
        with pytest.raises(ValueError, match="reconstruct"):
            back.validate()

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
        n, dof = 5, 12
        factor = bartlett_factor(n, dof, philox_generator(7, STREAM_WISHART))
        rng = philox_generator(7, STREAM_WISHART)
        np.testing.assert_array_equal(np.diag(factor), np.sqrt(rng.chisquare(dof - np.arange(n))))
        np.testing.assert_array_equal(
            factor[np.tril_indices(n, -1)], rng.standard_normal(n * (n - 1) // 2)
        )
        assert not np.triu(factor, 1).any()

    @pytest.mark.parametrize("n, dof", [(0, 5), (6, 5)])
    def test_factor_rejects_bad_shape(self, n, dof):
        with pytest.raises(ValueError, match="1 <= n <= dof"):
            bartlett_factor(n, dof, philox_generator(0, STREAM_WISHART))

    def test_factor_trace_is_chi2_nm(self):
        # tr(L L') sums n chi2(m - i) and n(n-1)/2 squared normals: chi2(n m)
        n, m = 4, 9
        traces = [
            np.sum(bartlett_factor(n, m, philox_generator(s, STREAM_WISHART)) ** 2)
            for s in range(400)
        ]
        assert kstest(traces, chi2(n * m).cdf).pvalue > KS_LEVEL
