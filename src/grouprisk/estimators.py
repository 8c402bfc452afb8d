"""Cost-sensitive interpolators in dual form.

The estimator

    w_hat = X' (X X' + tau I)^{-1} Delta^{-1} y

is represented by its dual coefficients c = (G + tau I)^{-1} Delta^{-1} y
with G = X X', so no d-dimensional object is ever materialized.  Everything
downstream needs only the labels, G, X mu_b, and the noise projections
d_1 = Q mu_bar_s, d_2 = Q mu_bar_c.  `GramStats` holds them as one tau-free
O(n^2) view of the `NoiseStats` that `model.noise_stats` streams once from
a config or a dataset; it is the one input of the fitters here and of the
primitives in `primitives`, which share the per-tau factors memoized on
it.  tau is an argument of each call that uses it, never part of the
config, and `model._coerce` reads it as a finite nonnegative float.  A
sweep reads its fits off the primitives (`primitives.fit_moments`); the
fitters here are the per-point reference and serve the CLI.

tau = 0 is the cost-sensitive minimum-norm interpolator, whose defining
constraint is Delta_{b_i} <w, x_i> = y_i.  Gradient descent on the adjusted
squared loss (1/n) sum_i (Delta^{-1} y_i - <w, x_i>)^2 from zero
initialization stays in the row span of X and is run as the equivalent dual
iteration c <- c + (2 step / n)(Delta^{-1} y - G c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .model import (
    Dataset,
    ModelConfig,
    NoiseStats,
    _coerce,
    _freeze_arrays,
    noise_stats,
)

__all__ = [
    "GramStats",
    "DualSolution",
    "accumulate_gram",
    "fit_cmni",
    "fit_ridge",
    "fit_gd",
    "interpolation_residual",
]

_SOLVE_RTOL = 1e-10  # target residual, relative to |Delta^{-1} y|
_GD_TOL = 1e-10  # fit_gd stops at this inf-norm residual, relative to |Delta^{-1} y|_inf


@dataclass(frozen=True, eq=False)
class GramStats:
    """The Gram structure of one design matrix under one pair of mean norms.

    y and a are the labels; the group of row i is b_i = y_i a_i.  With
    v_1 = a, v_2 = y, (m_1, m_2) = mu_norms = (|mu_bar_s|, |mu_bar_c|) and
    the noise-mean projections d_1 = Q mu_bar_s, d_2 = Q mu_bar_c, the
    Gram matrix G = X X' is built stage by stage from G_0 = gram_0 = Q Q':

        G_k = G_{k-1} + L_k R_k,
        L_k = [m_k v_k, d_k, v_k],   R_k = [m_k v_k'; v_k'; d_k'].

    `gram` (the symmetrized G_2), `x_mu_plus` and `x_mu_minus` (X mu_{+1}
    and X mu_{-1}) are derived on first use.  Every array is read-only.
    The instance holds no tau: what depends on it is memoized per tau
    through `per_tau`, so every weight, fit and primitive call that shares
    the instance and tau shares it.  The builds are the factor of
    G + tau I (`fit_cmni`, `fit_ridge`) and the order-0 solve of recursive
    primitives (two 7x7 tables, from one factor of gram_0 + tau I).
    """

    y: np.ndarray
    a: np.ndarray
    gram_0: np.ndarray
    d_1: np.ndarray
    d_2: np.ndarray
    mu_norms: tuple[float, float]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _freeze_arrays(self)

    @classmethod
    def from_noise(cls, config: ModelConfig, noise: NoiseStats) -> "GramStats":
        """The view of `noise` under `config`'s means, in O(n).

        A mean with |mu|^2 below `_MEAN_SQ_FLOOR` takes the zero-mean path
        (m = 0, d = 0): the primitives scale with m^2 times factors of
        order n / (d + tau), which would leave the normal range and round
        differently in the two primitive modes.
        """
        m_1 = _mean_norm(config.mu_spur[0])
        m_2 = _mean_norm(config.mu_core[0])
        return cls(
            y=noise.y,
            a=noise.a,
            gram_0=noise.gram_0,
            d_1=m_1 * noise.q_spur,
            d_2=m_2 * noise.q_core,
            mu_norms=(m_1, m_2),
        )

    @property
    def n(self) -> int:
        return self.y.shape[0]

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

    @cached_property
    def gram(self) -> np.ndarray:
        g = self.stage_gram(2)
        return _read_only(0.5 * (g + g.T))

    @cached_property
    def x_mu_plus(self) -> np.ndarray:
        return self._x_mu(+1)

    @cached_property
    def x_mu_minus(self) -> np.ndarray:
        return self._x_mu(-1)

    def _x_mu(self, b: int) -> np.ndarray:
        """X mu_b = m_2^2 y + b m_1^2 a + d_2 + b d_1."""
        m_1, m_2 = self.mu_norms
        return _read_only(m_2 * m_2 * self.y + b * m_1 * m_1 * self.a + self.d_2 + b * self.d_1)

    def per_tau(self, build, tau: float):
        """build(self, tau), computed once per (build, tau) on this instance.

        tau must be finite and nonnegative; a failed build caches nothing.
        """
        key = (build, _coerce("tau", tau))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = build(self, key[1])
        return hit


# sqrt of the smallest normal double: m^2 times any factor down to this
# stays normal, and a mean this small moves no O(1) quantity by an ulp
_MEAN_SQ_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


def _mean_norm(scale) -> float:
    """|scale|, or 0.0 when scale^2 < `_MEAN_SQ_FLOOR`."""
    m = abs(float(scale))
    return 0.0 if m * m < _MEAN_SQ_FLOOR else m


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Dual coefficients c with the statistics needed downstream.

    w_norm_sq is c' G c = |w_hat|^2 and w_dot_mu holds
    (<w_hat, mu_{+1}>, <w_hat, mu_{-1}>).
    """

    c: np.ndarray
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


def accumulate_gram(source) -> GramStats:
    """G = X X', X mu_b, and d_k = Q mu_bar_k of a Dataset or a ModelConfig.

    The noise is streamed once by `noise_stats`; from a config, X and Q are
    never held in full.
    """
    noise = noise_stats(source)
    config = source.config if isinstance(source, Dataset) else source
    return GramStats.from_noise(config, noise)


def _adjusted_targets(stats: GramStats, delta):
    """(Delta^{-1} y, Delta_b) of `stats`: each row's weight Delta_{b_i} is
    delta_plus in the majority group b_i = y_i a_i = +1, else delta_minus."""
    delta_plus, delta_minus = delta
    dvec = np.where(stats.y * stats.a > 0, float(delta_plus), float(delta_minus))
    return stats.y / dvec, dvec


def _spd_factor(mat: np.ndarray, what: str):
    """scipy's lower Cholesky factor `(L, True)` of the SPD `mat`, for `_spd_solve`.

    Sweeps and CLI commands take it under `model._one_blas_thread`, so
    there it is the same bits at any BLAS thread count.  Raises
    LinAlgError, led by `what` and carrying a condition estimate, if `mat`
    is not positive definite.
    """
    try:
        return cho_factor(mat, lower=True, check_finite=False)
    except LinAlgError as exc:
        cond = np.linalg.cond(mat)
        raise LinAlgError(f"{what} (cond ~ {cond:.3e}): {exc}") from exc


def _spd_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """mat^{-1} rhs for the `_spd_factor` of mat."""
    return cho_solve(factor, rhs, check_finite=False)


def _gram_factor(stats: GramStats, tau: float):
    """(G + tau I, its `_spd_factor`), the per-tau build of the fitters."""
    gram = stats.gram
    mat = gram if tau == 0.0 else gram + tau * np.eye(gram.shape[0])
    return mat, _spd_factor(mat, "Gram system numerically singular")


def _solve_gram(stats: GramStats, tau: float, z: np.ndarray):
    """Solve (G + tau I) c = z through the memoized factor, refined once."""
    mat, factor = stats.per_tau(_gram_factor, tau)
    c = _spd_solve(factor, z)
    tol = _SOLVE_RTOL * np.linalg.norm(z)
    res = np.linalg.norm(z - mat @ c)
    if res > 0.5 * tol:
        c = c + _spd_solve(factor, z - mat @ c)
        res = np.linalg.norm(z - mat @ c)
    return c, res


def _finish(c, stats, tau, method, info=None) -> DualSolution:
    w_norm_sq = float(c @ stats.gram @ c)
    w_dot_mu = (float(c @ stats.x_mu_plus), float(c @ stats.x_mu_minus))
    return DualSolution(
        c=c,
        tau=float(tau),
        method=method,
        w_norm_sq=w_norm_sq,
        w_dot_mu=w_dot_mu,
        info=info or {},
    )


def fit_cmni(stats: GramStats, delta) -> DualSolution:
    """Cost-sensitive minimum-norm interpolator: c = G^{-1} Delta^{-1} y."""
    z, _ = _adjusted_targets(stats, delta)
    c, res = _solve_gram(stats, 0.0, z)
    return _finish(c, stats, 0.0, "cmni", {"solver_residual": float(res)})


def fit_ridge(stats: GramStats, delta, tau: float) -> DualSolution:
    """Cost-sensitive ridge: c = (G + tau I)^{-1} Delta^{-1} y.

    tau = 0 runs the identical solve as fit_cmni and reproduces it exactly.
    """
    tau = _coerce("tau", tau)
    z, _ = _adjusted_targets(stats, delta)
    c, res = _solve_gram(stats, tau, z)
    return _finish(c, stats, tau, "ridge", {"solver_residual": float(res)})


def fit_gd(
    stats: GramStats,
    delta,
    step: float | None = None,
    iters: int = 100_000,
) -> DualSolution:
    """Full-batch gradient descent on the adjusted squared loss, from zero.

    Tracked in dual coordinates: c <- c + (2 step / n)(z - G c) with
    z = Delta^{-1} y.  Stable for step < n / lambda_max(G); the default is
    0.9 of that limit.  Stops early once |G c - z|_inf <= _GD_TOL |z|_inf;
    info["converged"] says whether that tolerance was met, so a run cut
    off at `iters` reads False.  Raises ValueError unless step is finite and
    positive and iters an integer >= 1, RuntimeError if the loss increases
    10 consecutive iterations.
    """
    iters = _coerce("iters", iters)
    if step is not None:
        step = _coerce("step", step)
    z, _ = _adjusted_targets(stats, delta)
    gram = stats.gram
    n = gram.shape[0]
    lam_max = float(np.linalg.eigvalsh(gram)[-1])
    if step is None:
        step = 0.9 * n / lam_max
    rate = 2.0 * step / n
    c = np.zeros(n)
    target = _GD_TOL * np.max(np.abs(z))
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


def interpolation_residual(sol: DualSolution, stats: GramStats, delta) -> float:
    """max_i |Delta_{b_i} (G c)_i - y_i|: zero exactly at the interpolator."""
    _, dvec = _adjusted_targets(stats, delta)
    return float(np.max(np.abs(dvec * (stats.gram @ sol.c) - stats.y)))
