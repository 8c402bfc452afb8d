"""Theoretical risk bounds and their empirical tightness.

The matched upper/lower bounds for group b share one exponent

    E_b = (alpha_plus R_b^2 n_plus + alpha_minus R_{-b}^2 n_minus) / d,

with R_{+1} = r_plus, R_{-1} = r_minus, weights
alpha_pm = (n_pm / Delta_pm^2) / n_delta and
n_delta = n_plus / Delta_plus^2 + n_minus / Delta_minus^2.  The risk is
then sandwiched: C_2 exp(-C_3 E_b) <= risk_b <= exp(-C_1 E_b) for
universal constants the theory does not give, so no bound value is
computed here; exponent_b(solution) / E_b is the empirical constant the
sweep harness tracks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelConfig, _coerce, signal_strengths
from .risk import group_risk

__all__ = [
    "BoundReport",
    "ConsistencyResult",
    "adjusted_quantities",
    "bound_exponent",
    "evaluate_bounds",
    "consistency_check",
    "tightness_ratio",
]


@dataclass(frozen=True)
class BoundReport:
    """Adjusted weights and per-group bound exponents.

    The fields are the keys of the `bounds` command's JSON, in order.
    """

    n_delta: float
    alpha_plus: float
    alpha_minus: float
    exponent_plus: float
    exponent_minus: float


@dataclass(frozen=True)
class ConsistencyResult:
    """Vanishing-risk condition R_plus^2 >= c d/(alpha_b n_b) for one group.

    applicable is False when r_minus != 0 (the condition assumes a pure
    core signal); holds/slack are None in that case.
    """

    applicable: bool
    holds: bool | None
    slack: float | None


def _adjusted_counts(n_plus, n_minus, delta) -> tuple[float, float]:
    """(n_delta, n_mixed) = (n_+/Delta_+^2 + n_-/Delta_-^2, n_+/Delta_+ + n_-/Delta_-),
    elementwise where the counts and the two entries of delta are arrays."""
    delta_plus, delta_minus = delta
    n_delta = n_plus / delta_plus**2 + n_minus / delta_minus**2
    return n_delta, n_plus / delta_plus + n_minus / delta_minus


def adjusted_quantities(config: ModelConfig) -> tuple[float, float, float]:
    """(n_delta, alpha_plus, alpha_minus) from the adjustment weights."""
    n_delta, _ = _adjusted_counts(config.n_plus, config.n_minus, config.deltas)
    return n_delta, config.n_plus / config.delta_plus**2 / n_delta, config.n_minus / config.delta_minus**2 / n_delta


def _count_weights(config: ModelConfig) -> tuple[float, float]:
    """(alpha_plus n_plus / d, alpha_minus n_minus / d), each at most n / d <= 1,
    so a product with R_+^2, finite in every config, stays finite."""
    _, alpha_plus, alpha_minus = adjusted_quantities(config)
    return alpha_plus * config.n_plus / config.d, alpha_minus * config.n_minus / config.d


def bound_exponent(config: ModelConfig) -> tuple[float, float]:
    """(E_+, E_-), E_b = (alpha_plus R_b^2 n_plus + alpha_minus R_{-b}^2 n_minus) / d."""
    w_plus, w_minus = _count_weights(config)
    sig = signal_strengths(config)
    return tuple(
        w_plus * r_b**2 + w_minus * r_nb**2
        for r_b, r_nb in ((sig.r_plus, sig.r_minus), (sig.r_minus, sig.r_plus))
    )


def evaluate_bounds(config: ModelConfig) -> BoundReport:
    """(n_delta, alpha_plus, alpha_minus) and (E_+, E_-) of one config."""
    return BoundReport(*adjusted_quantities(config), *bound_exponent(config))


def consistency_check(
    config: ModelConfig, c_const: float = 1.0
) -> tuple[ConsistencyResult, ConsistencyResult]:
    """The vanishing condition R_plus^2 >= c_const d / (alpha_b n_b) for
    (b = +1, b = -1)."""
    c_const = _coerce("c_const", c_const)
    sig = signal_strengths(config)
    if sig.r_minus != 0.0:
        off = ConsistencyResult(applicable=False, holds=None, slack=None)
        return off, off
    slacks = (w_b * sig.r_plus**2 / c_const for w_b in _count_weights(config))
    return tuple(ConsistencyResult(applicable=True, holds=bool(s >= 1.0), slack=float(s)) for s in slacks)


def tightness_ratio(sol, config: ModelConfig) -> tuple[float | None, float | None]:
    """Empirical constants exponent_b(sol) / E_b for (b = +1, b = -1);
    None where E_b = 0."""
    return tuple(
        entry.exponent / e_b if e_b > 0.0 else None
        for entry, e_b in zip(group_risk(sol), bound_exponent(config))
    )
