"""Cost-sensitive interpolators in dual form.

The estimator

    w_hat = X' (X X' + tau I)^{-1} Delta^{-1} y

is represented by its dual coefficients c = (G + tau I)^{-1} Delta^{-1} y
with G = X X', so no d-dimensional object is ever materialized.  Everything
downstream needs only the labels, G, X mu_b, and the noise projections
d_1 = Q mu_bar_s, d_2 = Q mu_bar_c.  `model.GramStats` holds them: the one
tau-free O(n^2) view that `model.noise_stats` streams once from a config
or a dataset.  It is the one input of the fitters here and of the
primitives in `primitives`, each memoizing its per-tau build on it.
Every dense SPD system is one `_spd_factor` and one `_spd_solve` for the
columns its caller reads, with no inverse formed.  The weights
(delta_plus, delta_minus) and tau are arguments of each call that uses
them (tau is never part of the config), and `model._coerce` reads each
weight as a finite positive float and tau as a finite nonnegative one.
A sweep reads its fits off the primitives (`primitives.fit_moments`); the
fitters here are the per-point reference and serve the CLI.

tau = 0 is the cost-sensitive minimum-norm interpolator, whose defining
constraint is Delta_{b_i} <w, x_i> = y_i; `fit_cmni` is `fit_ridge` there.
Gradient descent on the adjusted squared loss
(1/n) sum_i (Delta^{-1} y_i - <w, x_i>)^2 from zero initialization stays
in the row span of X and is run as the equivalent dual iteration
c <- c + (2 step / n)(Delta^{-1} y - G c).  Its error contracts exactly when
step < n / lambda_max(G), so `fit_gd` refuses any other step at the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .model import GramStats, _coerce, _shown

__all__ = [
    "DualSolution",
    "fit_cmni",
    "fit_ridge",
    "fit_gd",
    "interpolation_residual",
]

_SOLVE_RTOL = 1e-10  # target residual, relative to |Delta^{-1} y|
_GD_TOL = 1e-10  # fit_gd stops at this inf-norm residual, relative to |Delta^{-1} y|_inf


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


def _weights(delta) -> tuple[float, float]:
    """The pair (delta_plus, delta_minus), each read by `model._coerce` as
    finite and positive; ValueError naming the one that is not."""
    delta_plus, delta_minus = delta
    return _coerce("delta_plus", delta_plus), _coerce("delta_minus", delta_minus)


def _adjusted_targets(stats: GramStats, delta):
    """(Delta^{-1} y, Delta_b) of `stats`: each row's weight Delta_{b_i} is
    delta_plus in the majority group b_i = y_i a_i = +1, else delta_minus
    (`_weights`)."""
    delta_plus, delta_minus = _weights(delta)
    dvec = np.where(stats.y * stats.a > 0, delta_plus, delta_minus)
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
    """The `_spd_factor` of G + tau I, the per-tau build of the fitters."""
    return _spd_factor(stats.gram + tau * np.eye(stats.n), "Gram system numerically singular")


def _solve_gram(stats: GramStats, tau: float, z: np.ndarray):
    """Solve (G + tau I) c = z through the memoized factor, refined once."""
    factor = stats.per_tau(_gram_factor, tau)
    c = _spd_solve(factor, z)
    resid = z - stats.gram @ c - tau * c
    if np.linalg.norm(resid) > 0.5 * _SOLVE_RTOL * np.linalg.norm(z):
        c = c + _spd_solve(factor, resid)
        resid = z - stats.gram @ c - tau * c
    return c, np.linalg.norm(resid)


def _finish(c, stats, tau, method, info=None) -> DualSolution:
    m_1, m_2 = stats.mu_norms
    w_norm_sq = float(c @ stats.gram @ c)
    # w_hat' mu_b = c' X mu_b, with X mu_b = m_2^2 y + b m_1^2 a + d_2 + b d_1
    w_dot_mu = tuple(float(c @ (m_2 * m_2 * stats.y + b * m_1 * m_1 * stats.a + stats.d_2 + b * stats.d_1))
                     for b in (1, -1))
    return DualSolution(
        c=c,
        tau=float(tau),
        method=method,
        w_norm_sq=w_norm_sq,
        w_dot_mu=w_dot_mu,
        info=info or {},
    )


def fit_cmni(stats: GramStats, delta) -> DualSolution:
    """Cost-sensitive minimum-norm interpolator c = G^{-1} Delta^{-1} y: `fit_ridge` at tau = 0."""
    return replace(fit_ridge(stats, delta, 0.0), method="cmni")


def fit_ridge(stats: GramStats, delta, tau: float) -> DualSolution:
    """Cost-sensitive ridge: c = (G + tau I)^{-1} Delta^{-1} y.

    tau = 0 is fit_cmni, which runs this very solve.
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
    z = Delta^{-1} y.  The error z - G c is multiplied by I - (2 step / n) G
    each step, which contracts exactly when step < n / lambda_max(G); the
    default is 0.9 of that limit, and a given step at or above it is
    refused before any iteration.  Stops early once
    |G c - z|_inf <= _GD_TOL |z|_inf; info["converged"] says whether that
    tolerance was met, so a run cut off at `iters` reads False.  Raises
    ValueError unless step is finite, positive and below the limit and
    iters an integer >= 1.
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
    elif not step < n / lam_max:
        raise ValueError(f"step must be below n / lambda_max(G) = {n / lam_max:.6e}, got {_shown(step)}")
    rate = 2.0 * step / n
    c = np.zeros(n)
    target = _GD_TOL * np.max(np.abs(z))
    for it in range(1, iters + 1):
        resid = z - gram @ c
        if np.max(np.abs(resid)) <= target:
            break
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
