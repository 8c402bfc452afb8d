"""Two-group Gaussian mixture with a spurious binary attribute.

Samples follow

    x = y * mu_bar_c + a * mu_bar_s + z,        z ~ N(0, I_d),

where y in {-1, +1} is the class label with P(y = +1) = pi_plus and a in
{-1, +1} is a spurious attribute.  The product b = y * a splits the sample
into a majority group (b = +1, exactly n_plus rows) and a minority group
(b = -1, exactly n_minus rows).  The core mean occupies the first d_core
coordinates and the spurious mean the remaining d_spur, so the embedded
directions are orthogonal by construction and group b has class-conditional
mean y * (mu_bar_c + b * mu_bar_s).  The noise is isotropic, so the law of
every output depends on the means only through their norms: each mean is a
multiple of the first vector of its block (e_1), so mu_bar_c lies along
coordinate 0 and mu_bar_s along coordinate d_core.

Randomness is counter-based (Philox) with one named stream per purpose.
Normals come from the inverse-CDF transform at exactly one 64-bit word per
value, and column j of the noise matrix consumes words [j*n, (j+1)*n) of
its stream.  Any column blocking, and any split of the columns into
ranges, therefore reproduces the one-shot matrix bit for bit.
`_noise_windows` is the single noise source: it starts a generator at the
first word of one or more column ranges and draws each word once into one
window of `_BLOCK_COLS`-column blocks (one reused buffer for one range),
so a stream holds that window plus its O(n^2) statistics, whatever d is.
Every stream runs on two threads: the caller draws the first column half,
[0, ceil(d/2)), and one worker started for the call the second
(`_on_two_threads`, the module's one thread-start site).
The config is the problem instance and nothing else: tau is an argument
of the fits and primitives that use it.  It holds each mean as one float,
its signed scale along e_1, so a config costs O(1) at any d.  A dataset
stores what is drawn, (y, a, Q), and derives X and b = y * a from it;
`sample_dataset` fills Q's two halves on the two threads, its file holds
Q alone, and a loaded Q is a view of the buffer read from disk.

Every downstream quantity depends on the noise only through the labels
and the triple (Q Q', Q u_c, Q u_s), with u_c and u_s the unit core and
spurious directions: columns 0 and d_core of Q, each times the sign of its
mean.  `noise_stats` streams a noise source once into that triple,
its two column halves on the two threads with the loaded OpenBLAS pinned
to one thread for the length of the stream, and returns it as a
`GramStats`: the tau-free O(n^2) view of the triple under the config's
mean norms, the one input of the estimators' fits and the primitives'
staged decomposition.  The recursive primitives read the draw through
norm-free tables and take the norms as an argument, so a sweep point
under other means needs no view of its own.  Configs that share a seed
read prefixes of one noise stream, so `noise_stats_many` streams all of
them (the n-coupled points of a sweep trial) in one pass that draws each
word once, with the same bits per config as `noise_stats`.

`bartlett_factor` draws Wishart_n(dof, I) matrices L L' by the Bartlett
decomposition, in chunks of draws: O(n^2) values a draw where Q Q' takes
n * dof, from two streams that each serve the draws in order.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import numbers
import os
import sys
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

__all__ = [
    "ModelConfig",
    "Dataset",
    "SignalStrengths",
    "AssumptionReport",
    "e1_mean",
    "signal_strengths",
    "sample_labels",
    "GramStats",
    "noise_stats",
    "noise_stats_many",
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
STREAM_WISHART = 4  # Bartlett diagonal chi-squares
STREAM_WISHART_NORMALS = 5  # Bartlett normals below the diagonal

_MASK64 = (1 << 64) - 1
# Generator.random maps one uint64 word w to (w >> 11) * 2^-53, so 0.0 has
# probability 2^-53; flooring keeps ndtri finite without bias elsewhere.
_U_FLOOR = 2.0 ** -53
# Columns per noise block.  The sums of Q Q' run block by block, so the
# bits of every `GramStats` depend on this width; Q itself does not.
_BLOCK_COLS = 1024
# Values per chunk of Bartlett factors (k draws of order n hold k n^2):
# `bartlett_factor` yields max(1, this // n^2) factors at a time, so its
# memory does not grow with the draw count.  The bits of a draw do not
# depend on it.
_BARTLETT_CHUNK_VALUES = 1 << 16


def substream_seed(seed: int, trial: int) -> int:
    """Per-trial substream seed: master seed XOR trial index."""
    return (int(seed) ^ int(trial)) & _MASK64


def philox_generator(seed: int, stream: int) -> np.random.Generator:
    """Generator on the independent Philox stream keyed by (seed, stream)."""
    # an explicit uint64 key: a plain list above 2^63 is cast through a
    # float and collapses distinct seeds onto one key
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Kind(NamedTuple):
    """A kind of input value, as `_coerce` reads it."""

    type: tuple  # the types a value must have; a bool has none of them
    cast: Callable  # the value read (OverflowError: an int past the float range)
    ok: Callable  # whether the read value is in range; NaN and inf fail all but one
    requirement: str  # what a value must be
    typed: str = ""  # what a value of the wrong type must be, where that differs
    over: str = ""  # what a value cast refuses (OverflowError) must be, where that differs


# concrete types first: they match before the slow check of the ABC
_INTEGRAL = (int, np.integer, numbers.Integral)
_REAL = (float, int, np.floating, np.integer, numbers.Real)


def _index(value) -> int:
    """int(value); OverflowError above sys.maxsize, numpy's largest dimension."""
    read = int(value)
    if read > sys.maxsize:
        raise OverflowError
    return read


def _count(floor: int) -> _Kind:
    """An integer of at least floor and at most sys.maxsize."""
    return _Kind(_INTEGRAL, _index, lambda v: v >= floor, f"at least {floor}", "an integer",
                 f"at most {sys.maxsize}")


def _signs(n: int) -> _Kind:
    """n entries, each the integer 1 or -1: a sidecar's y and a."""
    return _Kind((list,), list, lambda v: len(v) == n and all(type(e) is int and e in (1, -1) for e in v),
                 f"a JSON array of n={n} entries, each 1 or -1")


_POSITIVE = _Kind(_REAL, float, lambda v: 0.0 < v < math.inf, "finite and positive")
_NONNEGATIVE = _Kind(_REAL, float, lambda v: 0.0 <= v < math.inf, "finite and nonnegative")
_UNIT = _Kind(_REAL, float, lambda v: 0.0 < v < 1.0, "in (0, 1)")

# The kind of each named input at every boundary it crosses: the fields of
# a config file, a sweep spec and a dataset sidecar, the arguments of the
# library's entry points, and the CLI flags (by argparse dest) that feed
# them.  A sidecar's signs (`_signs`) and `bartlett_factor`'s draws (a
# count from 0) take their kind where they are read.
_FIELDS = {
    **dict.fromkeys(("d_core", "d_spur", "n_plus", "n_minus", "trials", "iters", "m", "draws", "n", "d"),
                    _count(1)),
    "seed": _Kind(_INTEGRAL, int, lambda v: 0 <= v <= _MASK64, "a 64-bit unsigned integer"),
    **dict.fromkeys(("pi_plus", "delta"), _UNIT),
    **dict.fromkeys(("delta_plus", "delta_minus", "step", "c_const", "c1", "c2", "c3", "band"), _POSITIVE),
    **dict.fromkeys(("tau", "t", "mu_core_sq", "mu_spur_sq"), _NONNEGATIVE),
    # a mean's scale along e_1: what a file holds, and one form the constructor takes
    **dict.fromkeys(("mu_core", "mu_spur"), _Kind(_REAL, float, math.isfinite, "finite", "a number")),
    # NaN and inf too: the sweep skips a value that names no valid config
    "axis values": _Kind(_REAL, float, lambda v: True, "real numbers within the float range",
                         "real numbers"),
    # the CLI's -n and -d build a config: each group needs a row, each block a column
    **dict.fromkeys(("n_total", "dim"), _count(2)),
}


def _shown(value) -> str:
    """A number's repr cut to 40 characters; the type name of anything
    else, a bool included."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Number):
        return type(value).__name__
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _coerce(name: str, value, kind: _Kind | None = None):
    """value read as its kind, by default `_FIELDS[name]`: an int, a float
    or a list of signs.  numpy integer and float scalars are taken.

    ValueError, of the one form "<name> must be <requirement>, got
    <shown>" (`_shown`), for a bool, a value of another type, an int past
    the float range where a float is read, a count past sys.maxsize, and
    a value out of range.
    """
    kind = _FIELDS[name] if kind is None else kind
    if type(value) is bool or not isinstance(value, kind.type):
        raise ValueError(f"{name} must be {kind.typed or kind.requirement}, got {_shown(value)}")
    try:
        read = kind.cast(value)
    except OverflowError:
        raise ValueError(f"{name} must be {kind.over or kind.requirement}, got {_shown(value)}") from None
    if not kind.ok(read):
        raise ValueError(f"{name} must be {kind.requirement}, got {_shown(value)}")
    return read


def _required_fields(cls) -> set:
    """Names of the fields of dataclass cls that have no default."""
    return {
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    }


def _check_fields(what: str, data, names, required) -> None:
    """ValueError unless data is a dict (a JSON object) whose keys lie in
    names and include every one of required; it names what is wrong."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(names)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ValueError(f"missing {what} fields: {sorted(missing)}")


def _freeze_arrays(obj) -> None:
    """Mark every ndarray field of a dataclass instance read-only."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            _read_only(value)


def _scale(name: str, block: str, length: int, mu) -> float:
    """The scale of a mean given as a finite real, or as its e_1 array: a
    1-d integer or float array of length entries (a list is refused) that
    is zero past index 0.  ValueError naming the field otherwise."""
    if isinstance(mu, np.ndarray) and mu.dtype.kind in "iuf" and mu.shape == (length,):
        if np.any(mu[1:]):
            raise ValueError(f"{name} must be a multiple of e_1: an entry past index 0 is nonzero")
        mu = float(mu[0])
    elif isinstance(mu, np.ndarray) or type(mu) is bool or not isinstance(mu, _REAL):
        raise ValueError(f"{name} must be a finite real or a 1-d integer or float array of "
                         f"{block}={_shown(length)} entries")
    return _coerce(name, mu)


# the keys of a config file, the constructor's parameters, one per field in order
_CONFIG_KEYS = ("d_core", "d_spur", "mu_core", "mu_spur", "n_plus", "n_minus",
                "pi_plus", "delta_plus", "delta_minus", "seed")


@dataclass(frozen=True, eq=False, init=False)
class ModelConfig:
    """Full specification of one synthetic problem instance.

    Parameters
    ----------
    d_core, d_spur : int
        Dimensions of the core and spurious blocks; d = d_core + d_spur.
    mu_core, mu_spur : float or np.ndarray
        Core class mean (length d_core) and spurious mean (length d_spur),
        each a multiple of e_1 (`e1_mean`), since a mean's norm is all the
        model reads of it: its signed scale, a finite real, or the e_1
        array itself, a 1-d integer or float array (a list is refused)
        with no nonzero entry past index 0.  Only the scales are stored,
        as the floats `core_scale` and `spur_scale`, so a config is O(1)
        at any d; `mu_core` and `mu_spur` read as read-only float64 e_1
        vectors, built on each read.
    n_plus, n_minus : int
        Majority and minority group counts; n = n_plus + n_minus.
    pi_plus : float
        Label marginal P(y = +1), in (0, 1).
    delta_plus, delta_minus : float
        Cost-sensitive adjustment weights, 1/n <= delta_minus <= delta_plus <= 1.
    seed : int
        Master RNG seed, a 64-bit unsigned integer.

    Every field is read by its kind in the table `_FIELDS` (`_coerce`,
    which refuses a bad value with a ValueError naming the field), then
    the rules across fields are checked.
    """

    d_core: int
    d_spur: int
    core_scale: float
    spur_scale: float
    n_plus: int
    n_minus: int
    pi_plus: float
    delta_plus: float
    delta_minus: float
    seed: int

    def __init__(self, d_core, d_spur, mu_core, mu_spur, n_plus, n_minus,
                 pi_plus=0.5, delta_plus=1.0, delta_minus=1.0, seed=0):
        given = locals()
        for name in ("d_core", "d_spur", "n_plus", "n_minus", "seed", "pi_plus", "delta_plus", "delta_minus"):
            object.__setattr__(self, name, _coerce(name, given[name]))
        object.__setattr__(self, "core_scale", _scale("mu_core", "d_core", self.d_core, mu_core))
        object.__setattr__(self, "spur_scale", _scale("mu_spur", "d_spur", self.d_spur, mu_spur))
        if self.n_plus < self.n_minus:
            raise ValueError("n_plus must be at least n_minus")
        if self.d < self.n:
            raise ValueError(f"need d >= n, got d={_shown(self.d)} < n={_shown(self.n)}")
        nc2, ns2 = self.core_scale * self.core_scale, self.spur_scale * self.spur_scale
        if nc2 < ns2:
            raise ValueError(
                f"core signal must dominate: |mu_core|^2={nc2:g} < |mu_spur|^2={ns2:g}"
            )
        # the bounds square R_+ = |mu_core|^2 + |mu_spur|^2
        if not (nc2 + ns2) * (nc2 + ns2) < math.inf:
            raise ValueError(
                f"|mu_core|^2 + |mu_spur|^2 must be at most {math.sqrt(sys.float_info.max):.4g} "
                f"(its square finite), got {nc2:.4g} + {ns2:.4g}"
            )
        lo = 1.0 / self.n - 1e-12  # slop for decimal literals like 0.005
        if not (lo <= self.delta_minus <= self.delta_plus <= 1.0):
            raise ValueError(
                "adjustment weights must satisfy 1/n <= delta_minus <= delta_plus <= 1"
            )

    # read-only float64 e_1 vectors, built on each read; the package reads only the scales
    mu_core = property(lambda self: _read_only(e1_mean(self.core_scale, self.d_core)))
    mu_spur = property(lambda self: _read_only(e1_mean(self.spur_scale, self.d_spur)))

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

    def with_updates(self, **changes) -> "ModelConfig":
        """Copy with fields replaced; revalidates."""
        return ModelConfig(**{**self.to_dict(), **changes})

    def to_dict(self) -> dict:
        """The config as a JSON object; each mean is its scale."""
        return dict(zip(_CONFIG_KEYS, (getattr(self, f.name) for f in fields(self))))

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """The config of a `to_dict` document; ValueError naming any
        unknown or missing key, for a document that is not an object, and
        for any value its field's kind (`_FIELDS`) refuses: a mean is a
        number here, never an array."""
        _check_fields("ModelConfig", data, _CONFIG_KEYS, _CONFIG_KEYS[:6])
        return cls(**{**data, **{name: _coerce(name, data[name]) for name in ("mu_core", "mu_spur")}})


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


@dataclass(eq=False)
class Dataset:
    """One draw (y, a, Q) of a config: labels, attributes, and the noise.

    The design matrix X = y mu_bar_c' + a mu_bar_s' + Q is built from them
    on first use and kept (`_design_matrix`), and the groups b = y * a are
    computed on each read; neither is stored apart from the draw, so
    nothing can disagree with it.
    """

    y: np.ndarray
    a: np.ndarray
    Q: np.ndarray
    config: ModelConfig

    @functools.cached_property
    def X(self) -> np.ndarray:
        return _design_matrix(self.config, self.y, self.a, self.Q)

    @property
    def b(self) -> np.ndarray:
        return self.y * self.a

    def validate(self) -> None:
        """Raise ValueError if Q is not n x d, y or a is not an n-vector of
        signs, or the minority count differs from the config's."""
        cfg = self.config
        n = cfg.n
        if self.Q.shape != (n, cfg.d):
            raise ValueError("Q must be n x d")
        for name, v in (("y", self.y), ("a", self.a)):
            if v.shape != (n,) or not np.all(np.abs(v) == 1.0):
                raise ValueError(f"{name} must be an n-vector of signs")
        if int(np.sum(self.b < 0)) != cfg.n_minus:
            raise ValueError("minority count does not match config")


def e1_mean(scale: float, length: int) -> np.ndarray:
    """Mean vector of the given length with `scale` in coordinate 0, zeros elsewhere."""
    v = np.zeros(length)
    v[0] = scale
    return v


def _design_matrix(config: ModelConfig, y: np.ndarray, a: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """X = y mu_bar_c' + a mu_bar_s' + Q: a copy of Q with y times the core
    scale added to column 0 and a times the spurious scale to column
    d_core, the only columns the e_1 means reach."""
    X = Q.copy()
    X[:, 0] += y * config.core_scale
    X[:, config.d_core] += a * config.spur_scale
    return X


def signal_strengths(config: ModelConfig) -> SignalStrengths:
    nc2, ns2 = config.core_scale * config.core_scale, config.spur_scale * config.spur_scale
    return SignalStrengths(r_plus=nc2 + ns2, r_minus=nc2 - ns2)


def sample_labels(config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw (y, a) for one dataset.

    y_i are i.i.d. signs with P(+1) = pi_plus.  The groups b start as
    n_plus entries of +1 followed by n_minus entries of -1 and are then
    shuffled by a seed-driven permutation, so group counts are exact;
    a = y * b, so b = y * a.
    """
    rng = philox_generator(config.seed, STREAM_LABELS)
    n = config.n
    y = np.where(rng.random(n) < config.pi_plus, 1.0, -1.0)
    base = np.concatenate([np.ones(config.n_plus), -np.ones(config.n_minus)])
    return y, y * base[rng.permutation(n)]


def _noise_windows(seed: int, spans, width: int):
    """Iterator of (tag, j0, block) over column ranges of noise matrices that
    share the noise stream of seed, each word drawn once.

    spans is a list of (tag, n, j_start, j_stop): columns [j_start,
    j_stop) of an n-row Q, whose column j is words [j n, (j+1) n) of the
    stream.  Each span is cut into blocks of `width` columns counted from
    j_start, and its blocks come in order; the spans' blocks interleave
    in the order the stream completes them.

    The generator starts at the spans' first word: Philox advances in
    4-word counter blocks, so it jumps that many blocks and discards the
    remaining words.  From there it draws the words in order into one
    window, in which the uniforms are drawn, floored and transformed in
    place; a block of m columns is the transposed view of an (m, n) slice
    of it.  When no whole block is left, the window slides: the words
    from the earliest unfinished block on move to its front and fresh
    words fill the rest.  With one span the window holds exactly its
    largest block, so every block is drawn in place and nothing moves;
    with more, it holds 1.5 of the largest, so each slide draws at least
    half a block.  A block is valid only until the next step.  The
    generator and the window are made by this call, so on the calling
    thread, whichever thread then draws the blocks.
    """
    nxt = {tag: j_start for tag, _, j_start, _ in spans}  # next block's first column
    first = min(n * j_start for _, n, j_start, _ in spans)
    stop = max(n * j_stop for _, n, _, j_stop in spans)
    big = max(n * min(width, j_stop - j_start) for _, n, j_start, j_stop in spans)
    window = np.empty(min(big if len(spans) == 1 else big + big // 2, stop - first))
    gen = philox_generator(seed, STREAM_NOISE)
    q, r = divmod(first, 4)
    if q:
        gen.bit_generator.advance(q)
    if r:
        gen.random(r)

    def blocks():
        lo = hi = first  # the window holds words [lo, hi)
        live = [span for span in spans if span[2] < span[3]]
        while live:
            keep = min(min(n * nxt[tag] for tag, n, _, _ in live), hi)
            kept = hi - keep
            if kept:  # numpy copies between overlapping ranges correctly
                window[:kept] = window[keep - lo : hi - lo]
            lo, hi = keep, min(keep + window.size, stop)
            u = window[kept : hi - lo]
            gen.random(out=u)
            np.maximum(u, _U_FLOOR, out=u)
            ndtri(u, out=u)
            for tag, n, _, j_stop in live:
                j0 = nxt[tag]
                while j0 < j_stop and (j1 := min(j0 + width, j_stop)) * n <= hi:
                    yield tag, j0, window[j0 * n - lo : j1 * n - lo].reshape(j1 - j0, n).T
                    j0 = nxt[tag] = j1
            live = [span for span in live if nxt[span[0]] < span[3]]

    return blocks()


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


def _on_two_threads(work, lower: tuple, upper: tuple) -> None:
    """Run work(*upper) on one worker thread and work(*lower) on the
    caller, both under `_one_blas_thread`, and re-raise the worker's
    exception.

    Every noise stream splits its columns into two halves this way, one
    per core.  The worker is started for this call and joined before it
    returns, also when the caller's half raises: a thread pooled across
    calls would hang in a forked child.  This is the module's one
    thread-start site.
    """
    with _one_blas_thread(), ThreadPoolExecutor(1) as pool:
        future = pool.submit(work, *upper)
        work(*lower)
        future.result()


# sqrt of the smallest normal double: m^2 times any factor down to this
# stays normal, and a mean this small moves no O(1) quantity by an ulp
_MEAN_SQ_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


def _mean_norms(config: ModelConfig) -> tuple[float, float]:
    """(m_1, m_2) = (|mu_bar_s|, |mu_bar_c|) of config.

    A mean with |mu|^2 below `_MEAN_SQ_FLOOR` has norm 0.0 and takes the
    zero-mean path (d_k = 0): the primitives scale with m^2 times factors
    of order n / (d + tau), which would leave the normal range and round
    differently in the two primitive modes.
    """
    norms = (abs(config.spur_scale), abs(config.core_scale))
    return tuple(0.0 if m * m < _MEAN_SQ_FLOOR else m for m in norms)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GramStats:
    """The sufficient statistics of one noise draw under its config's pair
    of mean norms: the Gram structure of its design matrix.

    y and a are the labels; the group of row i is b_i = y_i a_i.  gram_0 is
    Q Q'; q_core and q_spur are Q u_c and Q u_s for the unit core and
    spurious directions, that is columns 0 and d_core of Q times the sign
    of the config's core and spurious scale (zero for a zero mean).  With
    v_1 = a, v_2 = y, (m_1, m_2) = mu_norms = (|mu_bar_s|, |mu_bar_c|)
    (`_mean_norms`) and the noise-mean projections d_1 = Q mu_bar_s =
    m_1 q_spur and d_2 = Q mu_bar_c = m_2 q_core, the Gram matrix G = X X'
    is built stage by stage from G_0 = gram_0:

        G_k = G_{k-1} + L_k R_k,
        L_k = [m_k v_k, d_k, v_k],   R_k = [m_k v_k'; v_k'; d_k'].

    d_1, d_2 and `gram` (the symmetrized G_2) are derived on first use;
    the fitters form X mu_b from the labels and d_k (`estimators._finish`).
    Every array is read-only, since memoized builds read them.  The
    instance holds no tau: what depends on it is memoized per tau through
    `per_tau`, so every weight, fit and primitive call that shares the
    instance and tau shares it.  The builds are the factor of G + tau I
    (`estimators.fit_cmni`, `estimators.fit_ridge`) and the order-0 solve
    of recursive primitives (two 7x7 tables over gram_0, q_spur and
    q_core, from one factor of gram_0 + tau I; they do not read the norms,
    so the recursion serves any other means of the same draw).
    """

    y: np.ndarray
    a: np.ndarray
    gram_0: np.ndarray
    q_core: np.ndarray
    q_spur: np.ndarray
    mu_norms: tuple[float, float]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _freeze_arrays(self)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @functools.cached_property
    def d_1(self) -> np.ndarray:
        return _read_only(self.mu_norms[0] * self.q_spur)

    @functools.cached_property
    def d_2(self) -> np.ndarray:
        return _read_only(self.mu_norms[1] * self.q_core)

    def update_factors(self, k: int):
        """(L_k, R_k) of stage k in {1, 2}."""
        if k not in (1, 2):
            raise ValueError("stage k must be 1 or 2")
        m = self.mu_norms[k - 1]
        v, d = (self.a, self.d_1) if k == 1 else (self.y, self.d_2)
        return np.column_stack([m * v, d, v]), np.vstack([m * v, v, d])

    def stage_gram(self, k: int) -> np.ndarray:
        """G_k for k in {0, 1, 2}: gram_0 plus the first k rank-3 updates."""
        if k not in (0, 1, 2):
            raise ValueError("stage k must be 0, 1, or 2")
        g = self.gram_0
        for j in range(1, k + 1):
            L, R = self.update_factors(j)
            g = g + L @ R
        return g

    @functools.cached_property
    def gram(self) -> np.ndarray:
        g = self.stage_gram(2)
        return _read_only(0.5 * (g + g.T))

    def per_tau(self, build, tau: float):
        """build(self, tau), computed once per (build, tau) on this instance.

        tau must be finite and nonnegative; a failed build caches nothing.
        """
        key = (build, _coerce("tau", tau))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = build(self, key[1])
        return hit


def _stream_stats(blocks, halves, product: np.ndarray) -> None:
    """Add blk blk' of each (h, j0, blk) column block to the Gram sum of
    half h, and set q_core and q_spur from the block that holds their column.

    halves[h] is (columns, (gram, q_core, q_spur)), where columns is
    ((0, sign of core_scale), (d_core, sign of spur_scale)) of the config:
    q is its column of Q times its sign, and a zero sign (a zero mean)
    leaves q at zero.  product is flat scratch of at least n^2 values for
    every half's n, which each blk blk' is written to.
    """
    for h, j0, blk in blocks:
        columns, (gram, *qs) = halves[h]
        n, m = blk.shape
        gram += np.matmul(blk, blk.T, out=product[: n * n].reshape(n, n))
        for (j, sign), q in zip(columns, qs):
            if sign and j0 <= j < j0 + m:
                np.multiply(blk[:, j - j0], sign, out=q)


def _halves(d: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The column halves [0, ceil(d/2)) and [ceil(d/2), d)."""
    mid = (d + 1) // 2
    return (0, mid), (mid, d)


def _assemble(configs, labels, lower, upper) -> tuple[GramStats, ...]:
    """The `GramStats` of every config, at its mean norms, from two streams
    of its halves' blocks.

    Half 2k is the first column half of configs[k] and half 2k + 1 the
    second; labels[k] is its (y, a).  lower and upper are iterators of
    (h, j0, blk) blocks: the caller streams lower and one worker upper
    (`_on_two_threads`).  A config's statistics are its first half's sums
    plus its second's, symmetrized, so they are the same bits whichever
    thread streams which half (q_core and q_spur, read off one column, at
    any width too).  Both threads run under `_one_blas_thread`, which
    sweeps and CLI commands already hold and `_on_two_threads` takes for a
    direct call: a threaded GEMM would take the core the other stream runs
    on, and one thread per GEMM makes the sums the same bits at any BLAS
    thread count.
    """
    # every array of the sums is made here, on the caller's thread: what
    # a worker allocates and frees stays resident in its own malloc arena
    # after it exits, on top of what the caller allocates next
    halves = []
    for config in configs:
        columns = ((0, float(np.sign(config.core_scale))),
                   (config.d_core, float(np.sign(config.spur_scale))))
        n = config.n
        halves += [(columns, (np.zeros((n, n)), np.zeros(n), np.zeros(n))) for _ in range(2)]
    rows = max(config.n for config in configs)
    product, worker_product = np.empty((2, rows * rows))
    _on_two_threads(_stream_stats, (lower, halves, product), (upper, halves, worker_product))
    out = []
    for config, (y, a), (_, first), (_, second) in zip(configs, labels, halves[::2], halves[1::2]):
        for total, part in zip(first, second):
            total += part
        gram_0, q_core, q_spur = first
        # exact symmetry for the SPD solvers (numpy buffers the overlapping .T)
        np.add(gram_0, gram_0.T, out=gram_0)
        gram_0 *= 0.5
        out.append(GramStats(y=y, a=a, gram_0=gram_0, q_core=q_core, q_spur=q_spur,
                             mu_norms=_mean_norms(config)))
    return tuple(out)


def noise_stats_many(configs) -> tuple[GramStats, ...]:
    """`noise_stats` of every config, from one pass over their noise stream.

    The configs must share one seed (the n-coupled points of one sweep
    trial), so each one's Q reads a prefix of the same noise stream, and
    each result is the same bits as `noise_stats(config)`.  Each config's
    columns split into the halves [0, ceil(d/2)) and [ceil(d/2), d), each
    cut into blocks of `_BLOCK_COLS` columns from its start.  One worker
    thread streams the second half of the config with the most noise
    values (n * d) from its own generator; the caller walks the stream
    once from word 0 to the end of every other half (`_noise_windows`),
    handing each half its blocks in order as views of one sliding window.
    One config is one buffer of n x `_BLOCK_COLS` values per half, drawn
    in place: the work of one stream.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("need at least one config")
    for config in configs:
        if not isinstance(config, ModelConfig):
            raise TypeError(f"expected ModelConfig, got {type(config).__name__}")
    seed = configs[0].seed
    if any(config.seed != seed for config in configs):
        raise ValueError("configs must share one seed to share a noise stream")
    width = _BLOCK_COLS
    spans = [
        (2 * k + h, config.n, j_start, j_stop)
        for k, config in enumerate(configs)
        for h, (j_start, j_stop) in enumerate(_halves(config.d))
    ]
    top = max(range(len(configs)), key=lambda k: configs[k].n * configs[k].d)
    upper = spans.pop(2 * top + 1)
    labels = [sample_labels(config) for config in configs]
    return _assemble(
        configs,
        labels,
        _noise_windows(seed, spans, width),
        _noise_windows(seed, [upper], width),
    )


def noise_stats(source) -> GramStats:
    """Stream a noise source once into its `GramStats`, at its config's
    mean norms.

    source is a ModelConfig, whose labels are drawn and whose noise comes
    from the noise stream without ever being held in full
    (`noise_stats_many` of the one config), or a Dataset, whose labels and
    retained Q are read in column views.  Both routes see the same Q bit
    for bit and cut it into the same halves and blocks, the caller
    streaming the first half and one worker thread the second.
    """
    if isinstance(source, ModelConfig):
        return noise_stats_many((source,))[0]
    if not isinstance(source, Dataset):
        raise TypeError(f"expected Dataset or ModelConfig, got {type(source).__name__}")
    config, Q = source.config, source.Q
    if Q is None or Q.shape != (config.n, config.d):
        raise ValueError("dataset must retain its n x d noise matrix Q")
    width = _BLOCK_COLS

    def columns(h, j_start, j_stop):
        return ((h, j0, Q[:, j0 : min(j0 + width, j_stop)]) for j0 in range(j_start, j_stop, width))

    lower, upper = (columns(h, *half) for h, half in enumerate(_halves(config.d)))
    # copied: GramStats freezes its arrays, the dataset keeps its own
    labels = [(source.y.copy(), source.a.copy())]
    return _assemble((config,), labels, lower, upper)[0]


def bartlett_factor(n: int, dof: int, seed: int, draws: int):
    """Yield lower-triangular L with L L' ~ Wishart_n(dof, I) (Bartlett 1933),
    draws 0..draws-1 in order, as (k, n, n) arrays of k factors at a time.

    L_ii^2 ~ chi2(dof - i) for i = 0..n-1 (0-based), the entries below the
    diagonal are N(0, 1), and all are independent: O(n^2) values a draw,
    however large dof is.  The chi-squares of every diagonal come, draw
    after draw, from the (seed, STREAM_WISHART) stream; the n(n-1)/2
    normals of every strict lower triangle, row-major and draw after draw,
    from (seed, STREAM_WISHART_NORMALS).  A chi-square takes a varying
    number of words, so the normals have a stream of their own.  Both
    streams serve the draws in order, so draw i is the same bits whatever
    `draws` is and however the draws are chunked: the factors of
    `draws=k` are a prefix of those of `draws=k+m`.  A chunk holds
    max(1, `_BARTLETT_CHUNK_VALUES` // n^2) factors.  Requires
    1 <= n <= dof, a 64-bit unsigned seed and draws >= 0; ValueError
    otherwise, raised at the call.
    """
    if not 1 <= n <= dof:
        raise ValueError(f"need 1 <= n <= dof, got n={n}, dof={dof}")
    seed = _coerce("seed", seed)
    draws = _coerce("draws", draws, _count(0))
    per_chunk = max(1, _BARTLETT_CHUNK_VALUES // (n * n))
    diagonal = np.arange(n)
    rows, cols = np.tril_indices(n, -1)  # row-major

    def chunks():
        chi2_rng = philox_generator(seed, STREAM_WISHART)
        normal_rng = philox_generator(seed, STREAM_WISHART_NORMALS)
        for start in range(0, draws, per_chunk):
            k = min(per_chunk, draws - start)
            factors = np.zeros((k, n, n))
            factors[:, diagonal, diagonal] = np.sqrt(chi2_rng.chisquare(dof - diagonal, (k, n)))
            factors[:, rows, cols] = normal_rng.standard_normal((k, rows.size))
            yield factors

    return chunks()


def sample_dataset(config: ModelConfig) -> Dataset:
    """Sample a full dataset with its noise Q materialized.

    Q is filled from the noise stream in its two column halves, [0,
    ceil(d/2)) and [ceil(d/2), d): the caller draws the first and one
    worker thread the second (`_on_two_threads`), each from its own
    generator (`_noise_windows`) through one reused buffer of n x
    ceil(`_BLOCK_COLS` / 2) values, so the call holds one n x d array and
    one n x `_BLOCK_COLS` buffer between the two.  Column j is ndtri of
    words [j*n, (j+1)*n), so Q is the same bits at any block width and
    split.  X is built from it only when read (`Dataset.X`).  A Q that
    numpy or the allocator refuses is a ValueError naming n, d and the
    bytes asked for.
    """
    y, a = sample_labels(config)
    n, d = config.n, config.d
    # Q and both windows are made here, on the caller's thread (see `_assemble`)
    try:
        Q = np.empty((n, d))
    except (ValueError, MemoryError):  # numpy's "array is too big", or the allocator
        raise ValueError(f"cannot allocate the noise matrix Q of n={n} x d={d} floats "
                         f"({8 * n * d} bytes)") from None
    lower, upper = (
        (_noise_windows(config.seed, [(None, n, *half)], (_BLOCK_COLS + 1) // 2),)
        for half in _halves(config.d)
    )

    def fill(blocks):
        for _, j0, blk in blocks:
            Q[:, j0 : j0 + blk.shape[1]] = blk

    _on_two_threads(fill, lower, upper)
    return Dataset(y=y, a=a, Q=Q, config=config)


def check_assumptions(
    config: ModelConfig, delta: float = 0.05, c_const: float = 1.0
) -> AssumptionReport:
    """Evaluate the four regime inequalities at constant c_const and level delta.

    (a) n >= C log(1/delta); (b) |mu_c|^2 >= C n log(n/delta);
    (c) d >= C R_plus n;     (d) d >= C n^2 log(n/delta).
    """
    delta = _coerce("delta", delta)
    c_const = _coerce("c_const", c_const)
    n, d = config.n, config.d
    r_plus = signal_strengths(config).r_plus
    core = config.core_scale
    log_inv = np.log(1.0 / delta)
    log_nd = np.log(n / delta)
    slack_a = np.inf if log_inv == 0.0 else n / (c_const * log_inv)
    slack_b = core * core / (c_const * n * log_nd)
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
    """Persist Q as little-endian float64 with a JSON sidecar.

    The binary file holds Q row-major and nothing else; the sidecar at
    path + '.json' holds the labels y and a and the config (each mean as
    its scale, so the sidecar does not grow with d), from which
    `load_dataset` derives everything else.
    """
    with open(path, "wb") as fh:
        np.ascontiguousarray(dataset.Q, dtype="<f8").tofile(fh)
    sidecar = {
        "y": [int(v) for v in dataset.y],
        "a": [int(v) for v in dataset.a],
        "config": dataset.config.to_dict(),
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def load_dataset(path: str) -> Dataset:
    """The dataset `save_dataset` wrote at path; ValueError naming any bad
    sidecar field, checked before the binary file is read: an unknown or
    missing key, and any value its field's kind refuses (`_FIELDS`, and
    y and a as sign vectors of n entries).  A payload of the wrong size,
    or of a size that is not whole 8-byte floats (both refused from the
    file's size, before it is read), or with a value of Q that is not
    finite (named by its first row and column), is refused too."""
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    names = ("y", "a", "config")
    _check_fields("sidecar", sidecar, names, names)
    config = ModelConfig.from_dict(sidecar["config"])
    n, d = config.n, config.d
    y, a = (np.array(_coerce(f"sidecar {name}", sidecar[name], _signs(n)), dtype=np.float64)
            for name in ("y", "a"))
    # sized before it is read, so a wrong payload costs no memory
    size = os.path.getsize(path)
    if size % 8:
        raise ValueError(f"binary payload has {size} bytes, not a whole number of 8-byte floats")
    if size // 8 != n * d:
        raise ValueError(f"binary payload has {size // 8} floats, expected {n * d}")
    # one native-order buffer (no copy on a little-endian host), Q a view of it
    raw = np.fromfile(path, dtype="<f8").astype(np.float64, copy=False)
    finite = np.isfinite(raw)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), d)
        raise ValueError(f"Q in {path} must be finite, got {raw[row * d + col]} at row {row}, column {col}")
    ds = Dataset(y=y, a=a, Q=raw.reshape(n, d), config=config)
    ds.validate()
    return ds
