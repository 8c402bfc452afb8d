"""Group-wise generalization error, exact and Monte-Carlo.

A fitted direction w_hat misclassifies a fresh group-b sample with
probability Q(w_hat' mu_b / |w_hat|), where Q is the standard Gaussian
upper tail.  Everything here consumes dual statistics only: the margin
ratio needs just w_hat' mu_b and |w_hat|^2, both carried by DualSolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .model import ModelConfig, _coerce, philox_generator, substream_seed, STREAM_MC

__all__ = [
    "GroupRiskEntry",
    "RiskReport",
    "q_function",
    "group_risk",
    "worst_and_average",
    "monte_carlo_risk",
    "build_report",
]

_SQRT2 = np.sqrt(2.0)
# |w_hat|^2 below the smallest normal float has lost digits to underflow
# (or is 0.0 while w_hat' mu_b is not), so its margins are refused
_NORM_SQ_FLOOR = np.finfo(np.float64).tiny
# Normals per chunk of `monte_carlo_risk`: one buffer of this many values
# is reused for every chunk, so its memory does not grow with the draw
# count.  The rates do not depend on it: the normals are drawn in order
# however they are chunked.
_MC_CHUNK = 1 << 20


@dataclass(frozen=True)
class GroupRiskEntry:
    """Margin ratio, exponent, and exact risk of one group."""

    margin: float
    exponent: float
    risk: float


@dataclass(frozen=True)
class RiskReport:
    """Per-group margins, exponents, and risks with the two aggregates.

    The fields are the keys of the `risk` command's JSON, in order; the
    Monte-Carlo estimates and standard errors are None when no draws ran.
    """

    margin_plus: float
    margin_minus: float
    exponent_plus: float
    exponent_minus: float
    risk_plus: float
    risk_minus: float
    worst_risk: float
    avg_risk: float
    mc_risk_plus: float | None = None
    mc_stderr_plus: float | None = None
    mc_risk_minus: float | None = None
    mc_stderr_minus: float | None = None


def q_function(x):
    """Standard Gaussian upper tail Q(x) = P(N(0,1) > x), to ~1e-16 relative."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / _SQRT2)


def group_risk(sol) -> tuple[GroupRiskEntry, GroupRiskEntry]:
    """Exact risks (b = +1, b = -1): Q(w_hat' mu_b / |w_hat|) from dual statistics.

    sol is anything carrying w_norm_sq and w_dot_mu: a DualSolution, or the
    `primitives.FitMoments` of one point's primitives.  ValueError
    (`_unresolved`) unless w_norm_sq is at least `_NORM_SQ_FLOOR`.
    """
    if not sol.w_norm_sq >= _NORM_SQ_FLOOR:
        raise ValueError(_unresolved(sol.w_norm_sq))
    margin, exponent, risk = _group_risks(np.float64(sol.w_norm_sq), np.asarray(sol.w_dot_mu, dtype=np.float64))
    return tuple(GroupRiskEntry(*map(float, entry)) for entry in zip(margin, exponent, risk))


def _unresolved(w_norm_sq) -> str:
    """Why a fit of this |w_hat|^2 has no margins."""
    return (f"estimator |w_hat|^2 = {w_norm_sq:.3e} is below the smallest normal float "
            f"{_NORM_SQ_FLOOR:.3e}: its margins are not resolved in floating point")


def _group_risks(w_norm_sq, w_dot_mu):
    """`group_risk` as arrays over a stack of fits: w_norm_sq of shape (...),
    all positive and normal, and w_dot_mu of shape (..., 2) give the
    (..., 2) margins, exponents and risks."""
    margin = w_dot_mu / np.sqrt(w_norm_sq)[..., None]
    return margin, 0.5 * margin * margin, q_function(margin)


def worst_and_average(plus: GroupRiskEntry, minus: GroupRiskEntry, config: ModelConfig):
    """(max risk, average risk) over the two groups, the average weighted
    by the training shares (n_plus/n, n_minus/n)."""
    return tuple(map(float, _worst_and_average(plus.risk, minus.risk, config.n_plus, config.n_minus)))


def _worst_and_average(risk_plus, risk_minus, n_plus, n_minus):
    """`worst_and_average` elementwise over stacks of the two risks and the group counts."""
    average = (n_plus * risk_plus + n_minus * risk_minus) / (n_plus + n_minus)
    return np.maximum(risk_plus, risk_minus), average


def monte_carlo_risk(sol, config: ModelConfig, m: int):
    """Empirical error rates (b = +1, b = -1) on m fresh samples of each
    group, each as (rate, standard error).

    For x drawn from group b with label y, the classification margin is
    y w_hat' x = w_hat' mu_b + y w_hat' z, and y w_hat' z / |w_hat| is a
    standard normal whatever y is, so the label marginalizes out exactly
    and one scalar Gaussian per sample suffices: a draw z errs when
    z < -margin, which for finite doubles is exactly when fl(z + margin)
    < 0 (their exact sum, a multiple of 2^-1074, rounds to zero only when
    it is zero, and rounding keeps its sign).  Group b draws on the
    STREAM_MC substream 0 (b = +1) or 1 (b = -1) of config.seed.
    """
    m = _coerce("m", m)
    g = np.empty(min(m, _MC_CHUNK))
    out = []
    for substream, entry in enumerate(group_risk(sol)):
        rng = philox_generator(substream_seed(config.seed, substream), STREAM_MC)
        errors = 0
        for start in range(0, m, g.size):
            draws = rng.standard_normal(out=g[: min(g.size, m - start)])
            errors += int(np.count_nonzero(draws < -entry.margin))
        rate = errors / m
        out.append((rate, float(np.sqrt(rate * (1.0 - rate) / m))))
    return tuple(out)


def build_report(sol, config: ModelConfig, mc_draws: int | None = None) -> RiskReport:
    """Assemble the full two-group report from one fitted solution."""
    plus, minus = group_risk(sol)
    worst, average = worst_and_average(plus, minus, config)
    mc = []
    if mc_draws is not None:
        for rate_and_stderr in monte_carlo_risk(sol, config, mc_draws):
            mc.extend(rate_and_stderr)
    return RiskReport(
        plus.margin, minus.margin, plus.exponent, minus.exponent, plus.risk, minus.risk,
        worst, average, *mc,
    )
