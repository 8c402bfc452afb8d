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


@dataclass(frozen=True)
class GroupRiskEntry:
    """Margin ratio, exponent, and exact risk of one group."""

    b: int
    margin: float
    exponent: float
    risk: float

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "margin": self.margin,
            "exponent": self.exponent,
            "risk": self.risk,
        }


@dataclass(frozen=True)
class RiskReport:
    """Per-group margins, exponents, and risks with the two aggregates.

    Per-group maps are keyed by b in {+1, -1}.  mc_risk, when present,
    maps b to (estimate, standard error).
    """

    margin: dict
    exponent: dict
    risk: dict
    worst_risk: float
    avg_risk: float
    mc_risk: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "margin_plus": self.margin[+1],
            "margin_minus": self.margin[-1],
            "exponent_plus": self.exponent[+1],
            "exponent_minus": self.exponent[-1],
            "risk_plus": self.risk[+1],
            "risk_minus": self.risk[-1],
            "worst_risk": self.worst_risk,
            "avg_risk": self.avg_risk,
        }
        if self.mc_risk is not None:
            for b, tag in ((+1, "plus"), (-1, "minus")):
                out[f"mc_risk_{tag}"], out[f"mc_stderr_{tag}"] = self.mc_risk[b]
        return out


def q_function(x):
    """Standard Gaussian upper tail Q(x) = P(N(0,1) > x), to ~1e-16 relative."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / _SQRT2)


def group_risk(sol, b: int) -> GroupRiskEntry:
    """Exact risk of group b: Q(w_hat' mu_b / |w_hat|) from dual statistics.

    sol is anything carrying w_norm_sq and w_dot_mu: a DualSolution, or the
    `primitives.FitMoments` a sweep reads off its primitives.
    """
    if b not in (1, -1):
        raise ValueError("b must be +1 or -1")
    if not sol.w_norm_sq > 0.0:
        raise ValueError("estimator has zero norm; margin undefined")
    dot = sol.w_dot_mu[0] if b == 1 else sol.w_dot_mu[1]
    margin = dot / np.sqrt(sol.w_norm_sq)
    return GroupRiskEntry(
        b=b,
        margin=float(margin),
        exponent=float(0.5 * margin * margin),
        risk=float(q_function(margin)),
    )


def worst_and_average(reports, config: ModelConfig):
    """(max risk, average risk) over the two group entries, the average
    weighted by the training shares (n_plus/n, n_minus/n)."""
    by_b = {r.b: r for r in reports}
    if set(by_b) != {1, -1}:
        raise ValueError("need exactly one entry per group b in {+1, -1}")
    w_plus, w_minus = config.n_plus / config.n, config.n_minus / config.n
    worst = max(by_b[1].risk, by_b[-1].risk)
    # the shares sum to 1 only up to rounding: normalize as written
    average = (w_plus * by_b[1].risk + w_minus * by_b[-1].risk) / (w_plus + w_minus)
    return worst, average


def monte_carlo_risk(sol, config: ModelConfig, b: int, m: int):
    """Empirical error rate on m fresh group-b samples, with standard error.

    For x drawn from group b with label y, the classification margin is
    y w_hat' x = w_hat' mu_b + y w_hat' z, and y w_hat' z / |w_hat| is a
    standard normal whatever y is, so the label marginalizes out exactly
    and one scalar Gaussian per sample suffices, drawn on the STREAM_MC
    substream of config.seed that b picks.
    """
    if b not in (1, -1):
        raise ValueError("b must be +1 or -1")
    m = _coerce("m", m)
    if not sol.w_norm_sq > 0.0:
        raise ValueError("estimator has zero norm; margin undefined")
    dot = sol.w_dot_mu[0] if b == 1 else sol.w_dot_mu[1]
    margin = float(dot / np.sqrt(sol.w_norm_sq))
    rng = philox_generator(substream_seed(config.seed, 0 if b == 1 else 1), STREAM_MC)
    errors = 0
    left = m
    while left > 0:
        k = min(left, 10_000_000)
        g = rng.standard_normal(k)
        errors += int(np.count_nonzero(margin + g < 0.0))
        left -= k
    rate = errors / m
    std_err = float(np.sqrt(rate * (1.0 - rate) / m))
    return rate, std_err


def build_report(sol, config: ModelConfig, mc_draws: int | None = None) -> RiskReport:
    """Assemble the full two-group report from one fitted solution."""
    entries = [group_risk(sol, b) for b in (+1, -1)]
    worst, average = worst_and_average(entries, config)
    mc = None
    if mc_draws is not None:
        mc = {b: monte_carlo_risk(sol, config, b, mc_draws) for b in (+1, -1)}
    by_b = {e.b: e for e in entries}
    return RiskReport(
        margin={b: by_b[b].margin for b in (+1, -1)},
        exponent={b: by_b[b].exponent for b in (+1, -1)},
        risk={b: by_b[b].risk for b in (+1, -1)},
        worst_risk=worst,
        avg_risk=average,
        mc_risk=mc,
    )
