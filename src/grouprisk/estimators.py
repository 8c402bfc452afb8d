"""Cost-sensitive interpolators in dual form.

The estimator

    w_hat = X' (X X' + tau I)^{-1} Delta^{-1} y

is represented by its dual coefficients c = (G + tau I)^{-1} Delta^{-1} y
with G = X X', so no d-dimensional object is ever materialized.  Everything
downstream needs only G, X mu_b, and the noise projections d_1 = Q mu_bar_s,
d_2 = Q mu_bar_c.  All of them are assembled in O(n^2) from the `NoiseStats`
that `model.noise_stats` streams once from a config or a dataset.

tau = 0 is the cost-sensitive minimum-norm interpolator, whose defining
constraint is Delta_{b_i} <w, x_i> = y_i.  Gradient descent on the adjusted
squared loss (1/n) sum_i (Delta^{-1} y_i - <w, x_i>)^2 from zero
initialization stays in the row span of X and is run as the equivalent dual
iteration c <- c + (2 step / n)(Delta^{-1} y - G c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .model import (
    Dataset,
    ModelConfig,
    NoiseStats,
    _freeze_arrays,
    noise_stats,
    sample_labels,
)

__all__ = [
    "GramStats",
    "DualSolution",
    "accumulate_gram",
    "x_mu_from_parts",
    "fit_cmni",
    "fit_ridge",
    "fit_gd",
    "interpolation_residual",
]

_SOLVE_RTOL = 1e-10  # target residual, relative to |Delta^{-1} y|


@dataclass(frozen=True, eq=False)
class GramStats:
    """Sufficient statistics of one design matrix.

    gram is G = X X'; x_mu_plus and x_mu_minus are X mu_{+1} and X mu_{-1};
    d_1 = Q mu_bar_s and d_2 = Q mu_bar_c are the noise-mean projections.
    The arrays are read-only: the Cholesky factor of G + tau I is memoized
    per tau on the instance, so every fit that shares G and tau reuses it.
    """

    gram: np.ndarray
    x_mu_plus: np.ndarray
    x_mu_minus: np.ndarray
    d_1: np.ndarray
    d_2: np.ndarray
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _freeze_arrays(self)

    @classmethod
    def from_noise(cls, config: ModelConfig, noise: NoiseStats) -> "GramStats":
        """Assemble the statistics for `config`'s means in O(n^2).

        With X = y mu_bar_c' + a mu_bar_s' + Q and orthogonal embedded means,
        G = Q Q' + |mu_c|^2 y y' + y d_2' + d_2 y' + |mu_s|^2 a a' + a d_1' + d_1 a'.
        """
        mc = float(np.linalg.norm(config.mu_core))
        ms = float(np.linalg.norm(config.mu_spur))
        y, a = noise.y, noise.a
        d_1 = ms * noise.q_spur
        d_2 = mc * noise.q_core
        gram = (
            noise.gram_0
            + mc * mc * np.outer(y, y)
            + np.outer(y, d_2)
            + np.outer(d_2, y)
            + ms * ms * np.outer(a, a)
            + np.outer(a, d_1)
            + np.outer(d_1, a)
        )
        gram = 0.5 * (gram + gram.T)
        return cls(
            gram=gram,
            x_mu_plus=x_mu_from_parts(config, y, a, d_1, d_2, +1),
            x_mu_minus=x_mu_from_parts(config, y, a, d_1, d_2, -1),
            d_1=d_1,
            d_2=d_2,
        )

    def _factor(self, tau: float):
        """(G + tau I, its Cholesky factor), factored once per tau.

        Raises LinAlgError with a condition estimate if the factorization
        fails.
        """
        hit = self._factors.get(tau)
        if hit is None:
            gram = self.gram
            mat = gram if tau == 0.0 else gram + tau * np.eye(gram.shape[0])
            try:
                factor = cho_factor(mat, lower=True, check_finite=False)
            except LinAlgError as exc:
                cond = np.linalg.cond(mat)
                raise LinAlgError(
                    f"Gram system numerically singular (cond ~ {cond:.3e}): {exc}"
                ) from exc
            hit = self._factors[tau] = (mat, factor)
        return hit


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Dual coefficients c with the statistics needed downstream.

    w_norm_sq is c' G c = |w_hat|^2 and w_dot_mu holds
    (<w_hat, mu_{+1}>, <w_hat, mu_{-1}>).
    """

    c: np.ndarray
    gram: np.ndarray
    tau: float
    method: str
    w_norm_sq: float
    w_dot_mu: tuple[float, float]
    info: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "tau": self.tau,
            "c": [float(v) for v in self.c],
            "w_norm_sq": self.w_norm_sq,
            "w_dot_mu_plus": self.w_dot_mu[0],
            "w_dot_mu_minus": self.w_dot_mu[1],
            "info": dict(self.info),
        }


def accumulate_gram(source, block_cols: int = 4096) -> GramStats:
    """G = X X', X mu_b, and d_k = Q mu_bar_k of a Dataset or a ModelConfig.

    The noise is streamed once by `noise_stats`; from a config, X and Q are
    never held in full.  Results agree across block sizes to ~1e-10
    relative (summation order differs).
    """
    noise = noise_stats(source, block_cols)
    config = source.config if isinstance(source, Dataset) else source
    return GramStats.from_noise(config, noise)


def x_mu_from_parts(
    config: ModelConfig,
    y: np.ndarray,
    a: np.ndarray,
    d_1: np.ndarray,
    d_2: np.ndarray,
    b: int,
) -> np.ndarray:
    """Assemble X mu_b = |mu_bar_c|^2 y + b |mu_bar_s|^2 a + d_2 + b d_1."""
    if b not in (1, -1):
        raise ValueError("b must be +1 or -1")
    nc2 = float(config.mu_core @ config.mu_core)
    ns2 = float(config.mu_spur @ config.mu_spur)
    return nc2 * y + b * ns2 * a + d_2 + b * d_1


def _unpack_labels(labels):
    y, a, b = labels
    return np.asarray(y, dtype=np.float64), np.asarray(b, dtype=np.float64)


def _adjusted_targets(delta, y, b):
    delta_plus, delta_minus = delta
    dvec = np.where(b > 0, float(delta_plus), float(delta_minus))
    return y / dvec, dvec


def _solve_spd(stats: GramStats, tau: float, z: np.ndarray):
    """Solve (G + tau I) c = z through the memoized factor, refined once."""
    mat, factor = stats._factor(tau)
    c = cho_solve(factor, z, check_finite=False)
    tol = _SOLVE_RTOL * np.linalg.norm(z)
    res = np.linalg.norm(z - mat @ c)
    if res > 0.5 * tol:
        c = c + cho_solve(factor, z - mat @ c, check_finite=False)
        res = np.linalg.norm(z - mat @ c)
    return c, res


def _finish(c, stats, tau, method, info=None) -> DualSolution:
    w_norm_sq = float(c @ stats.gram @ c)
    w_dot_mu = (float(c @ stats.x_mu_plus), float(c @ stats.x_mu_minus))
    return DualSolution(
        c=c,
        gram=stats.gram,
        tau=float(tau),
        method=method,
        w_norm_sq=w_norm_sq,
        w_dot_mu=w_dot_mu,
        info=info or {},
    )


def fit_cmni(stats: GramStats, delta, labels) -> DualSolution:
    """Cost-sensitive minimum-norm interpolator: c = G^{-1} Delta^{-1} y."""
    y, b = _unpack_labels(labels)
    z, _ = _adjusted_targets(delta, y, b)
    c, res = _solve_spd(stats, 0.0, z)
    return _finish(c, stats, 0.0, "cmni", {"solver_residual": float(res)})


def fit_ridge(stats: GramStats, delta, labels, tau: float) -> DualSolution:
    """Cost-sensitive ridge: c = (G + tau I)^{-1} Delta^{-1} y.

    tau = 0 runs the identical solve as fit_cmni and reproduces it exactly.
    """
    if not (np.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau!r}")
    y, b = _unpack_labels(labels)
    z, _ = _adjusted_targets(delta, y, b)
    c, res = _solve_spd(stats, float(tau), z)
    return _finish(c, stats, tau, "ridge", {"solver_residual": float(res)})


def fit_gd(
    dataset,
    delta,
    step: float | None = None,
    iters: int = 100_000,
    *,
    stats: GramStats | None = None,
    labels=None,
    tol: float = 1e-10,
) -> DualSolution:
    """Full-batch gradient descent on the adjusted squared loss, from zero.

    Tracked in dual coordinates: c <- c + (2 step / n)(z - G c) with
    z = Delta^{-1} y.  Stable for step < n / lambda_max(G); the default is
    0.9 of that limit.  Stops early once |G c - z|_inf <= tol |z|_inf;
    info["converged"] says whether that tolerance was met, so a run cut
    off at `iters` reads False.  Raises RuntimeError if the loss increases
    10 consecutive iterations.

    dataset may be a Dataset or a ModelConfig; precomputed stats/labels can
    be passed to skip re-accumulation.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if labels is None:
        if isinstance(dataset, Dataset):
            labels = (dataset.y, dataset.a, dataset.b)
        else:
            labels = sample_labels(dataset)
    if stats is None:
        stats = accumulate_gram(dataset)
    y, b = _unpack_labels(labels)
    z, _ = _adjusted_targets(delta, y, b)
    gram = stats.gram
    n = gram.shape[0]
    lam_max = float(np.linalg.eigvalsh(gram)[-1])
    if step is None:
        step = 0.9 * n / lam_max
    rate = 2.0 * step / n
    c = np.zeros(n)
    target = tol * np.max(np.abs(z))
    prev_loss = np.inf
    bad = 0
    it = 0
    for it in range(1, iters + 1):
        resid = z - gram @ c
        if np.max(np.abs(resid)) <= target:
            break
        loss = float(resid @ resid) / n
        if loss > prev_loss:
            bad += 1
            if bad >= 10:
                raise RuntimeError(
                    f"gradient descent diverging: loss rose 10 straight steps "
                    f"(iter {it}, loss {loss:.6e}, step {step:.6e}, "
                    f"stable below {n / lam_max:.6e})"
                )
        else:
            bad = 0
        prev_loss = loss
        c = c + rate * resid
    final_res = float(np.max(np.abs(z - gram @ c)))
    info = {
        "iters": it,
        "step": float(step),
        "residual_inf": final_res,
        "converged": bool(final_res <= target),
    }
    return _finish(c, stats, 0.0, "gd", info)


def interpolation_residual(sol: DualSolution, stats: GramStats, delta, labels) -> float:
    """max_i |Delta_{b_i} (G c)_i - y_i|: zero exactly at the interpolator."""
    y, b = _unpack_labels(labels)
    _, dvec = _adjusted_targets(delta, y, b)
    return float(np.max(np.abs(dvec * (stats.gram @ sol.c) - y)))
