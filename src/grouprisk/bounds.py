"""Theoretical risk bounds and their empirical tightness.

The matched upper/lower bounds for group b share one exponent

    E_b = (alpha_plus R_b^2 n_plus + alpha_minus R_{-b}^2 n_minus) / d,

with R_{+1} = r_plus, R_{-1} = r_minus, weights
alpha_pm = (n_pm / Delta_pm^2) / n_delta and
n_delta = n_plus / Delta_plus^2 + n_minus / Delta_minus^2.  The risk is
then sandwiched: C_2 exp(-C_3 E_b) <= risk_b <= exp(-C_1 E_b) for
universal constants, so exponent_b(solution) / E_b is the empirical
constant the sweep harness tracks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, _coerce, signal_strengths

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
    """Adjusted weights, per-group exponents, and the bound values.

    exponent/upper/lower are keyed by b in {+1, -1}; constants holds the
    (C_1, C_2, C_3) the bounds were evaluated with.
    """

    n_delta: float
    alpha_plus: float
    alpha_minus: float
    exponent: dict
    upper: dict
    lower: dict
    constants: tuple[float, float, float]

    def to_dict(self) -> dict:
        return {
            "n_delta": self.n_delta,
            "alpha_plus": self.alpha_plus,
            "alpha_minus": self.alpha_minus,
            "exponent_plus": self.exponent[+1],
            "exponent_minus": self.exponent[-1],
            "upper_plus": self.upper[+1],
            "upper_minus": self.upper[-1],
            "lower_plus": self.lower[+1],
            "lower_minus": self.lower[-1],
            "c1": self.constants[0],
            "c2": self.constants[1],
            "c3": self.constants[2],
        }


@dataclass(frozen=True)
class ConsistencyResult:
    """Vanishing-risk condition R_plus^2 >= c d/(alpha_b n_b) for one group.

    applicable is False when r_minus != 0 (the condition assumes a pure
    core signal); holds/slack are None in that case.
    """

    b: int
    applicable: bool
    holds: bool | None
    slack: float | None


def _adjusted_counts(n_plus, n_minus, delta) -> tuple[float, float]:
    """(n_delta, n_mixed) = (n_+/Delta_+^2 + n_-/Delta_-^2, n_+/Delta_+ + n_-/Delta_-)."""
    delta_plus, delta_minus = delta
    n_delta = n_plus / delta_plus**2 + n_minus / delta_minus**2
    return n_delta, n_plus / delta_plus + n_minus / delta_minus


def adjusted_quantities(config: ModelConfig) -> tuple[float, float, float]:
    """(n_delta, alpha_plus, alpha_minus) from the adjustment weights."""
    n_delta, _ = _adjusted_counts(config.n_plus, config.n_minus, config.deltas)
    return n_delta, config.n_plus / config.delta_plus**2 / n_delta, config.n_minus / config.delta_minus**2 / n_delta


def bound_exponent(config: ModelConfig, b: int) -> float:
    """E_b = (alpha_plus R_b^2 n_plus + alpha_minus R_{-b}^2 n_minus) / d."""
    if b not in (1, -1):
        raise ValueError("b must be +1 or -1")
    _, alpha_plus, alpha_minus = adjusted_quantities(config)
    sig = signal_strengths(config)
    r_b = sig.r_plus if b == 1 else sig.r_minus
    r_nb = sig.r_minus if b == 1 else sig.r_plus
    return (alpha_plus * r_b**2 * config.n_plus + alpha_minus * r_nb**2 * config.n_minus) / config.d


def evaluate_bounds(
    config: ModelConfig, constants: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> BoundReport:
    """upper_b = exp(-C_1 E_b), lower_b = C_2 exp(-C_3 E_b) for both groups."""
    c1, c2, c3 = (_coerce(f"c{k}", v) for k, v in enumerate(constants, 1))
    n_delta, alpha_plus, alpha_minus = adjusted_quantities(config)
    exponent = {b: bound_exponent(config, b) for b in (+1, -1)}
    return BoundReport(
        n_delta=n_delta,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        exponent=exponent,
        upper={b: float(np.exp(-c1 * exponent[b])) for b in (+1, -1)},
        lower={b: float(c2 * np.exp(-c3 * exponent[b])) for b in (+1, -1)},
        constants=(c1, c2, c3),
    )


def consistency_check(config: ModelConfig, b: int, c_const: float = 1.0) -> ConsistencyResult:
    """Check the vanishing condition R_plus^2 >= c_const d / (alpha_b n_b)."""
    if b not in (1, -1):
        raise ValueError("b must be +1 or -1")
    c_const = _coerce("c_const", c_const)
    sig = signal_strengths(config)
    if sig.r_minus != 0.0:
        return ConsistencyResult(b=b, applicable=False, holds=None, slack=None)
    _, alpha_plus, alpha_minus = adjusted_quantities(config)
    alpha_b = alpha_plus if b == 1 else alpha_minus
    n_b = config.n_plus if b == 1 else config.n_minus
    slack = sig.r_plus**2 * alpha_b * n_b / (c_const * config.d)
    return ConsistencyResult(b=b, applicable=True, holds=bool(slack >= 1.0), slack=float(slack))


def tightness_ratio(sol, config: ModelConfig, b: int) -> float:
    """Empirical constant exponent_b(sol) / E_b; errors when E_b = 0."""
    from .risk import group_risk

    e_b = bound_exponent(config, b)
    if e_b == 0.0:
        raise ZeroDivisionError("bound exponent is zero; ratio undefined")
    return group_risk(sol, b).exponent / e_b
