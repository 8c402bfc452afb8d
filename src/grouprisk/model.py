"""Two-group Gaussian mixture with a spurious binary attribute.

Samples follow

    x = y * mu_bar_c + a * mu_bar_s + z,        z ~ N(0, I_d),

where y in {-1, +1} is the class label with P(y = +1) = pi_plus and a in
{-1, +1} is a spurious attribute.  The product b = y * a splits the sample
into a majority group (b = +1, exactly n_plus rows) and a minority group
(b = -1, exactly n_minus rows).  The core mean occupies the first d_core
coordinates and the spurious mean the remaining d_spur, so the embedded
directions are orthogonal by construction and group b has class-conditional
mean y * (mu_bar_c + b * mu_bar_s).

Randomness is counter-based (Philox) with one named stream per purpose.
Normals come from the inverse-CDF transform at exactly one 64-bit word per
value, and column j of the noise matrix consumes words [j*n, (j+1)*n) of
its stream.  Any column blocking, and any split of the columns into
ranges, therefore reproduces the one-shot matrix bit for bit.
`_noise_range` is the single noise source: it starts a generator at the
first word of a column range and fills one reused buffer of block
columns, so a stream holds that buffer plus its O(n^2) statistics,
whatever d is.  `noise_blocks` is its range over all d columns.  Configs
share their read-only mean vectors instead of copying them, and a loaded
dataset's X and Q are views of the one buffer read from disk.

Every downstream quantity depends on the noise only through the labels
and the triple (Q Q', Q u_c, Q u_s), with u_c and u_s the unit core and
spurious directions.  `noise_stats` streams a noise source once into that
`NoiseStats` triple, the two column halves of Q on two threads with the
loaded OpenBLAS pinned to one thread for the length of the stream; the
Gram statistics of the estimators and the staged decomposition of the
primitives are O(n^2) views of it.

`bartlett_factor` draws a Wishart_n(dof, I) matrix L L' by the Bartlett
decomposition: O(n^2) values where Q Q' takes n * dof.
"""

from __future__ import annotations

import ctypes
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import ndtri

__all__ = [
    "ModelConfig",
    "Dataset",
    "SignalStrengths",
    "AssumptionReport",
    "embed_means",
    "group_mean",
    "signal_strengths",
    "sample_labels",
    "noise_blocks",
    "NoiseStats",
    "noise_stats",
    "bartlett_factor",
    "sample_dataset",
    "check_assumptions",
    "save_dataset",
    "load_dataset",
    "substream_seed",
    "philox_generator",
]

# Stream ids for the second Philox key word.  One stream per purpose keeps
# draws independent of call order across modules.
STREAM_LABELS = 1
STREAM_NOISE = 2
STREAM_MC = 3
STREAM_WISHART = 4

_MASK64 = (1 << 64) - 1
# Generator.random maps one uint64 word w to (w >> 11) * 2^-53, so 0.0 has
# probability 2^-53; flooring keeps ndtri finite without bias elsewhere.
_U_FLOOR = 2.0 ** -53
# `noise_stats` streams the second column half on a worker thread only from
# this many noise values (n * d) up; below, the caller streams both halves.
# Philox and ndtri take about 45 ns a value, so this is a stream of ~0.1 s.
# A shorter stream gains only what share of the second core it gets, and
# that share moves with the machine's other load: on a shared 2-vCPU VM,
# `verify-primitives` at n = 30, d = 30000 took a median 27 to 35 ms from
# run to run with the worker, and 42 to 43 ms without it.
_THREAD_MIN_VALUES = 1 << 21


def substream_seed(seed: int, trial: int) -> int:
    """Per-trial substream seed: master seed XOR trial index."""
    return (int(seed) ^ int(trial)) & _MASK64


def _philox(seed: int, stream: int) -> np.random.Philox:
    # an explicit uint64 key: a plain list above 2^63 is cast through a
    # float and collapses distinct seeds onto one key
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Philox(key=key)


def philox_generator(seed: int, stream: int) -> np.random.Generator:
    """Generator on the independent Philox stream keyed by (seed, stream)."""
    return np.random.Generator(_philox(seed, stream))


def _freeze_arrays(obj) -> None:
    """Mark every ndarray field of a dataclass instance read-only."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


def _frozen_mean(mu) -> np.ndarray:
    """A read-only float64 copy of mu, or mu itself if a config froze it.

    An array that owns its data and is already read-only is one that
    `ModelConfig` made, so every config derived from it shares it; any
    other input (a list, a view, a writable array) is copied, so a caller
    mutating their own array never reaches a config.
    """
    if (
        isinstance(mu, np.ndarray)
        and mu.ndim == 1
        and mu.dtype == np.float64
        and mu.base is None
        and not mu.flags.writeable
    ):
        return mu
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64)).copy()
    mu.setflags(write=False)
    return mu


@dataclass(frozen=True, eq=False)
class ModelConfig:
    """Full specification of one synthetic problem instance.

    Parameters
    ----------
    d_core, d_spur : int
        Dimensions of the core and spurious blocks; d = d_core + d_spur.
    mu_core, mu_spur : array_like
        Core class mean (length d_core) and spurious mean (length d_spur).
        Stored as read-only float64 arrays.  A config built from another's
        means (`with_updates`, the points of a minority-weight sweep)
        shares them rather than copying them, so such a sweep holds one
        copy of each mean however many points it has.
    n_plus, n_minus : int
        Majority and minority group counts; n = n_plus + n_minus.
    pi_plus : float
        Label marginal P(y = +1), in (0, 1).
    delta_plus, delta_minus : float
        Cost-sensitive adjustment weights, 1/n <= delta_minus <= delta_plus <= 1.
    tau : float
        Ridge parameter, >= 0.
    seed : int
        Master RNG seed, a 64-bit unsigned integer.
    """

    d_core: int
    d_spur: int
    mu_core: np.ndarray
    mu_spur: np.ndarray
    n_plus: int
    n_minus: int
    pi_plus: float = 0.5
    delta_plus: float = 1.0
    delta_minus: float = 1.0
    tau: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("d_core", "d_spur", "n_plus", "n_minus", "seed"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(
                value, (int, np.integer)
            ):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        mu_core = _frozen_mean(self.mu_core)
        mu_spur = _frozen_mean(self.mu_spur)
        for name, mu in (("mu_core", mu_core), ("mu_spur", mu_spur)):
            if not np.all(np.isfinite(mu)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "mu_core", mu_core)
        object.__setattr__(self, "mu_spur", mu_spur)
        if self.d_core < 1 or self.d_spur < 1:
            raise ValueError("d_core and d_spur must be positive")
        if mu_core.ndim != 1 or mu_core.size != self.d_core:
            raise ValueError(f"mu_core must have length d_core={self.d_core}")
        if mu_spur.ndim != 1 or mu_spur.size != self.d_spur:
            raise ValueError(f"mu_spur must have length d_spur={self.d_spur}")
        if self.n_plus < 1 or self.n_minus < 1:
            raise ValueError("group counts must be positive")
        if self.n_plus < self.n_minus:
            raise ValueError("n_plus must be at least n_minus")
        if self.d < self.n:
            raise ValueError(f"need d >= n, got d={self.d} < n={self.n}")
        nc2 = float(mu_core @ mu_core)
        ns2 = float(mu_spur @ mu_spur)
        if nc2 < ns2:
            raise ValueError(
                f"core signal must dominate: |mu_core|^2={nc2:g} < |mu_spur|^2={ns2:g}"
            )
        if not 0.0 < self.pi_plus < 1.0:
            raise ValueError("pi_plus must lie in (0, 1)")
        lo = 1.0 / self.n - 1e-12  # slop for decimal literals like 0.005
        if not (lo <= self.delta_minus <= self.delta_plus <= 1.0):
            raise ValueError(
                "adjustment weights must satisfy 1/n <= delta_minus <= delta_plus <= 1"
            )
        if not (np.isfinite(self.tau) and self.tau >= 0.0):
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    @property
    def d(self) -> int:
        return self.d_core + self.d_spur

    @property
    def n(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def deltas(self) -> tuple[float, float]:
        """(delta_plus, delta_minus)."""
        return (self.delta_plus, self.delta_minus)

    def delta_of(self, b) -> np.ndarray:
        """Adjustment weight Delta_{b_i} for each sign in b."""
        b = np.asarray(b)
        return np.where(b > 0, self.delta_plus, self.delta_minus).astype(np.float64)

    def with_updates(self, **changes) -> "ModelConfig":
        """Copy with fields replaced; revalidates."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "d_core": self.d_core,
            "d_spur": self.d_spur,
            "mu_core": [float(v) for v in self.mu_core],
            "mu_spur": [float(v) for v in self.mu_spur],
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "pi_plus": self.pi_plus,
            "delta_plus": self.delta_plus,
            "delta_minus": self.delta_minus,
            "tau": self.tau,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown ModelConfig fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SignalStrengths:
    """Total (r_plus) and residual (r_minus) squared signal strengths."""

    r_plus: float
    r_minus: float


@dataclass(frozen=True)
class AssumptionReport:
    """Pass/fail and slack for the four regime inequalities.

    Slack is the ratio (left side) / (C * right side); a slack of at least
    1 means the inequality holds at constant c_const and failure target
    delta.
    """

    delta: float
    c_const: float
    pass_a: bool
    pass_b: bool
    pass_c: bool
    pass_d: bool
    slack_a: float
    slack_b: float
    slack_c: float
    slack_d: float

    @property
    def all_pass(self) -> bool:
        return self.pass_a and self.pass_b and self.pass_c and self.pass_d

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "c_const": self.c_const,
            "pass_a": self.pass_a,
            "pass_b": self.pass_b,
            "pass_c": self.pass_c,
            "pass_d": self.pass_d,
            "slack_a": self.slack_a,
            "slack_b": self.slack_b,
            "slack_c": self.slack_c,
            "slack_d": self.slack_d,
        }


@dataclass(eq=False)
class Dataset:
    """Sampled design matrix with labels, attributes, and retained noise."""

    X: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    Q: np.ndarray
    config: ModelConfig

    def validate(self) -> None:
        """Raise ValueError if any structural invariant fails."""
        cfg = self.config
        n, d = cfg.n, cfg.d
        if self.X.shape != (n, d) or self.Q.shape != (n, d):
            raise ValueError("X and Q must both be n x d")
        for name, v in (("y", self.y), ("a", self.a), ("b", self.b)):
            if v.shape != (n,) or not np.all(np.abs(v) == 1.0):
                raise ValueError(f"{name} must be an n-vector of signs")
        if not np.array_equal(self.b, self.y * self.a):
            raise ValueError("group labels must satisfy b = y * a")
        if int(np.sum(self.b < 0)) != cfg.n_minus:
            raise ValueError("minority count does not match config")
        mu_bar_c, mu_bar_s = embed_means(cfg)
        # in place, in sample_dataset's operation order
        rebuilt = np.outer(self.y, mu_bar_c)
        rebuilt += np.outer(self.a, mu_bar_s)
        rebuilt += self.Q
        if not np.array_equal(rebuilt, self.X):
            raise ValueError("X does not reconstruct from labels, means, and Q")


def e1_mean(scale: float, length: int) -> np.ndarray:
    """Mean vector of the given length with `scale` in coordinate 0, zeros elsewhere."""
    v = np.zeros(length)
    v[0] = scale
    return v


def embed_means(config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Embed the block means into R^d: mu_bar_c = [mu_c; 0], mu_bar_s = [0; mu_s]."""
    d = config.d
    mu_bar_c = np.zeros(d)
    mu_bar_s = np.zeros(d)
    mu_bar_c[: config.d_core] = config.mu_core
    mu_bar_s[config.d_core :] = config.mu_spur
    return mu_bar_c, mu_bar_s


def group_mean(config: ModelConfig, b: int) -> np.ndarray:
    """Class-(+1) mean of group b: mu_b = mu_bar_c + b * mu_bar_s."""
    if b not in (1, -1):
        raise ValueError("b must be +1 or -1")
    mu_bar_c, mu_bar_s = embed_means(config)
    return mu_bar_c + b * mu_bar_s


def signal_strengths(config: ModelConfig) -> SignalStrengths:
    nc2 = float(config.mu_core @ config.mu_core)
    ns2 = float(config.mu_spur @ config.mu_spur)
    return SignalStrengths(r_plus=nc2 + ns2, r_minus=nc2 - ns2)


def sample_labels(config: ModelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (y, a, b) for one dataset.

    y_i are i.i.d. signs with P(+1) = pi_plus.  b starts as n_plus entries
    of +1 followed by n_minus entries of -1 and is then shuffled by a
    seed-driven permutation, so group counts are exact.  a = y * b.
    """
    rng = philox_generator(config.seed, STREAM_LABELS)
    n = config.n
    y = np.where(rng.random(n) < config.pi_plus, 1.0, -1.0)
    base = np.concatenate([np.ones(config.n_plus), -np.ones(config.n_minus)])
    b = base[rng.permutation(n)]
    a = y * b
    return y, a, b


def _noise_range(config: ModelConfig, j_start: int, j_stop: int, block_cols: int):
    """Iterator of (j0, block) column blocks of columns [j_start, j_stop) of Q.

    The generator starts at word j_start * n of the noise stream: Philox
    advances in 4-word counter blocks, so it jumps (j_start * n) // 4
    blocks and discards the remaining words.  From there it draws the
    words in order into one buffer of min(block_cols, j_stop - j_start) * n
    values that every block reuses: the uniforms are drawn, floored and
    transformed in place, and the block is the transposed view of that
    (m, n) buffer.  A block is therefore valid only until the next step.
    The generator and the buffer are made by this call, so on the calling
    thread, whichever thread then draws the blocks.
    """
    n = config.n
    gen = philox_generator(config.seed, STREAM_NOISE)
    q, r = divmod(j_start * n, 4)
    if q:
        gen.bit_generator.advance(q)
    if r:
        gen.random(r)
    buf = np.empty(min(block_cols, j_stop - j_start) * n)

    def blocks():
        for j0 in range(j_start, j_stop, block_cols):
            m = min(block_cols, j_stop - j0)
            u = buf[: m * n]
            gen.random(out=u)
            np.maximum(u, _U_FLOOR, out=u)
            yield j0, ndtri(u, out=u).reshape(m, n).T

    return blocks()


def noise_blocks(config: ModelConfig, block_cols: int = 4096):
    """Yield (j0, block) column blocks of the n x d noise matrix Q.

    Column j is ndtri applied to words [j*n, (j+1)*n) of the noise stream,
    so assembly is bit-identical for every block_cols choice.  This is
    `_noise_range` over all d columns: one sequential generator and one
    reused buffer of min(block_cols, d) * n values.  A block is valid only
    until the next step; a caller that keeps one must copy it.
    """
    if block_cols < 1:
        raise ValueError("block_cols must be positive")
    yield from _noise_range(config, 0, config.d, block_cols)


# (getter, setter) thread-count symbols: the 64-bit-integer and the plain
# OpenBLAS builds that numpy and scipy ship, then a system OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_blas_lock = threading.Lock()
_blas_controls: list | None = None  # found on first use, under the lock
_blas_depth = 0
_blas_saved: list = []  # (setter, count) the outermost entry replaced


def _blas_thread_controls() -> list:
    """(getter, setter) of every OpenBLAS loaded in the process, found once.

    The libraries are the mapped files whose path names OpenBLAS; a
    process without /proc, or without a library exporting a known pair,
    has none.
    """
    global _blas_controls
    if _blas_controls is None:
        try:
            with open("/proc/self/maps") as fh:
                paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        except OSError:
            paths = []
        controls = []
        for path in paths:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for get_name, set_name in _BLAS_THREAD_SYMBOLS:
                getter = getattr(lib, get_name, None)
                setter = getattr(lib, set_name, None)
                if getter is not None and setter is not None:
                    getter.argtypes, getter.restype = (), ctypes.c_int
                    setter.argtypes, setter.restype = (ctypes.c_int,), None
                    controls.append((getter, setter))
                    break
        _blas_controls = controls
    return _blas_controls


@contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread.

    The outermost entry saves each library's thread count and sets it to
    1; the outermost exit restores the saved counts, also when the body
    raises.  A module lock and a depth counter let nested and concurrent
    entries share one pin.  Where no library is found the body runs at
    whatever counts are set.  `harness.run_sweep` and `cli.main` run
    under it, so one BLAS thread is the policy of every sweep and command.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [(setter, getter()) for getter, setter in _blas_thread_controls()]
            for setter, _ in _blas_saved:
                setter(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for setter, count in _blas_saved:
                    setter(count)


@dataclass(frozen=True, eq=False)
class NoiseStats:
    """Sufficient statistics of one noise draw.

    y, a, b are the labels; gram_0 is Q Q'; q_core and q_spur are Q u_c and
    Q u_s for the unit core and spurious directions (zero when that mean
    is zero).  None of them depends on the mean norms, the weights or tau,
    so one draw serves every config that shares its seed, shape and mean
    directions.  The arrays are read-only, because the views built on them
    are shared across configs.
    """

    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    gram_0: np.ndarray
    q_core: np.ndarray
    q_spur: np.ndarray

    def __post_init__(self):
        _freeze_arrays(self)

    @property
    def labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.y, self.a, self.b)


def _stream_stats(blocks, u_c: np.ndarray, u_s: np.ndarray, sums):
    """Add (blk blk', blk u_c, blk u_s) of each (j0, blk) column block to sums.

    sums is (gram, q_core, q_spur, product), product the scratch each
    blk blk' is written to; returns (gram, q_core, q_spur).
    """
    gram, q_core, q_spur, product = sums
    for j0, blk in blocks:
        j1 = j0 + blk.shape[1]
        gram += np.matmul(blk, blk.T, out=product)
        q_core += blk @ u_c[j0:j1]
        q_spur += blk @ u_s[j0:j1]
    return gram, q_core, q_spur


def noise_stats(source, block_cols: int = 4096) -> NoiseStats:
    """Stream a noise source once into its `NoiseStats`.

    source is a ModelConfig, whose labels are drawn and whose noise comes
    from the noise stream without ever being held in full, or a Dataset,
    whose labels and retained Q are read in column views.  Both routes see
    the same Q bit for bit.

    The d columns split into the halves [0, ceil(d/2)) and [ceil(d/2), d).
    The caller streams the first and one worker thread, started for this
    call, the second, each in blocks of max(1, block_cols // 4) columns;
    below `_THREAD_MIN_VALUES` noise values the caller streams both, one
    after the other, into the same sums.  On the config route each half
    draws its own range of the stream (`_noise_range`) into one reused
    buffer, so the two together hold half of an n x block_cols block.  The
    statistics are the first half's sums plus the second's, symmetrized,
    so they are the same bits on either path.  Both halves run under
    `_one_blas_thread`, which sweeps and CLI commands already hold and a
    direct call takes here: a threaded GEMM would take the core the other
    half runs on, and one thread per GEMM makes the sums the same bits at
    any BLAS thread count.
    """
    if block_cols < 1:
        raise ValueError("block_cols must be positive")
    width = max(1, block_cols // 4)
    if isinstance(source, Dataset):
        config, Q = source.config, source.Q
        if Q is None or Q.shape != (config.n, config.d):
            raise ValueError("dataset must retain its n x d noise matrix Q")
        # copied: NoiseStats freezes its arrays, the dataset keeps its own
        labels = (source.y.copy(), source.a.copy(), source.b.copy())

        def half(j_start, j_stop):
            return ((j0, Q[:, j0 : min(j0 + width, j_stop)]) for j0 in range(j_start, j_stop, width))

    elif isinstance(source, ModelConfig):
        config = source
        labels = sample_labels(config)

        def half(j_start, j_stop):
            return _noise_range(config, j_start, j_stop, width)

    else:
        raise TypeError(f"expected Dataset or ModelConfig, got {type(source).__name__}")
    n, d = config.n, config.d
    mid = (d + 1) // 2
    with _one_blas_thread():
        # pinned too: above 10^4 entries a threaded dot would leave a BLAS
        # worker spinning on the second core for the whole stream
        u_c, u_s = embed_means(config)
        u_c /= np.linalg.norm(u_c) or 1.0
        u_s /= np.linalg.norm(u_s) or 1.0
        # every array of both halves is made here, on the caller's thread:
        # what a worker allocates and frees stays resident in its own malloc
        # arena after it exits, on top of what the caller allocates next
        lower, upper = [
            (half(lo, hi), u_c, u_s, (np.zeros((n, n)), np.zeros(n), np.zeros(n), np.empty((n, n))))
            for lo, hi in ((0, mid), (mid, d))
        ]
        if n * d < _THREAD_MIN_VALUES:
            first, second = _stream_stats(*lower), _stream_stats(*upper)
        else:
            # one worker per call: a module-level pool would hang in a forked child
            with ThreadPoolExecutor(1) as pool:
                future = pool.submit(_stream_stats, *upper)
                first = _stream_stats(*lower)
                second = future.result()
    gram_0, q_core, q_spur = (x + y for x, y in zip(first, second))
    gram_0 = 0.5 * (gram_0 + gram_0.T)  # exact symmetry for the SPD solvers
    return NoiseStats(*labels, gram_0=gram_0, q_core=q_core, q_spur=q_spur)


def bartlett_factor(n: int, dof: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular L with L L' ~ Wishart_n(dof, I) (Bartlett 1933).

    L_ii^2 ~ chi2(dof - i) for i = 0..n-1 (0-based), the entries below the
    diagonal are N(0, 1), and all are independent.  rng supplies, in this
    order, the n chi-squares of the diagonal and then the n(n-1)/2
    normals of the strict lower triangle in row-major order: O(n^2)
    values, however large dof is.  Requires 1 <= n <= dof.
    """
    if not 1 <= n <= dof:
        raise ValueError(f"need 1 <= n <= dof, got n={n}, dof={dof}")
    factor = np.zeros((n, n))
    factor.flat[:: n + 1] = np.sqrt(rng.chisquare(dof - np.arange(n)))
    factor[np.tri(n, k=-1, dtype=bool)] = rng.standard_normal(n * (n - 1) // 2)
    return factor


def sample_dataset(config: ModelConfig, block_cols: int = 4096) -> Dataset:
    """Sample a full dataset with X materialized.

    X = outer(y, mu_bar_c) + outer(a, mu_bar_s) + Q, accumulated in place
    in exactly that order, so the reconstruction invariant holds bitwise.
    """
    y, a, b = sample_labels(config)
    mu_bar_c, mu_bar_s = embed_means(config)
    Q = np.empty((config.n, config.d))
    for j0, blk in noise_blocks(config, block_cols):
        Q[:, j0 : j0 + blk.shape[1]] = blk
    del blk  # the last block keeps the stream's buffer alive
    X = np.outer(y, mu_bar_c)
    X += np.outer(a, mu_bar_s)
    X += Q
    return Dataset(X=X, y=y, a=a, b=b, Q=Q, config=config)


def check_assumptions(
    config: ModelConfig, delta: float = 0.05, c_const: float = 1.0
) -> AssumptionReport:
    """Evaluate the four regime inequalities at constant c_const and level delta.

    (a) n >= C log(1/delta); (b) |mu_c|^2 >= C n log(n/delta);
    (c) d >= C R_plus n;     (d) d >= C n^2 log(n/delta).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not (np.isfinite(c_const) and c_const > 0.0):
        raise ValueError(f"c_const must be finite and positive, got {c_const!r}")
    n, d = config.n, config.d
    r_plus = signal_strengths(config).r_plus
    core_sq = float(config.mu_core @ config.mu_core)
    log_inv = np.log(1.0 / delta)
    log_nd = np.log(n / delta)
    slack_a = np.inf if log_inv == 0.0 else n / (c_const * log_inv)
    slack_b = core_sq / (c_const * n * log_nd)
    slack_c = np.inf if r_plus == 0.0 else d / (c_const * r_plus * n)
    slack_d = d / (c_const * n * n * log_nd)
    return AssumptionReport(
        delta=delta,
        c_const=c_const,
        pass_a=bool(slack_a >= 1.0),
        pass_b=bool(slack_b >= 1.0),
        pass_c=bool(slack_c >= 1.0),
        pass_d=bool(slack_d >= 1.0),
        slack_a=float(slack_a),
        slack_b=float(slack_b),
        slack_c=float(slack_c),
        slack_d=float(slack_d),
    )


def save_dataset(dataset: Dataset, path: str) -> None:
    """Persist X and Q as little-endian float64 with a JSON sidecar.

    The binary file holds X row-major followed by Q row-major; the sidecar
    at path + '.json' records dimensions, seed, labels, and the config.
    """
    cfg = dataset.config
    with open(path, "wb") as fh:
        np.ascontiguousarray(dataset.X, dtype="<f8").tofile(fh)
        np.ascontiguousarray(dataset.Q, dtype="<f8").tofile(fh)
    sidecar = {
        "n": cfg.n,
        "d": cfg.d,
        "seed": cfg.seed,
        "layout": "X then Q, row-major, little-endian float64",
        "y": [int(v) for v in dataset.y],
        "a": [int(v) for v in dataset.a],
        "b": [int(v) for v in dataset.b],
        "config": cfg.to_dict(),
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def load_dataset(path: str) -> Dataset:
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    config = ModelConfig.from_dict(sidecar["config"])
    n, d = config.n, config.d
    # one native-order buffer (no copy on a little-endian host); X and Q
    # are views of it
    raw = np.fromfile(path, dtype="<f8").astype(np.float64, copy=False)
    if raw.size != 2 * n * d:
        raise ValueError(
            f"binary payload has {raw.size} floats, expected {2 * n * d}"
        )
    X = raw[: n * d].reshape(n, d)
    Q = raw[n * d :].reshape(n, d)
    y = np.asarray(sidecar["y"], dtype=np.float64)
    a = np.asarray(sidecar["a"], dtype=np.float64)
    b = np.asarray(sidecar["b"], dtype=np.float64)
    ds = Dataset(X=X, y=y, a=a, b=b, Q=Q, config=config)
    ds.validate()
    return ds
