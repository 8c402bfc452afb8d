"""Staged Gram decomposition, recursive rank-3 inversion, and primitives.

Peel the two mean directions off the design matrix:

    X_0 = Q,    X_1 = v_1 mu_bar_s' + X_0,    X_2 = v_2 mu_bar_c' + X_1,

with v_1 = a and v_2 = y, and write mu_bar_k for the mean of direction k
(mu_bar_s, then mu_bar_c).  Each stage updates the Gram matrix by rank 3:

    G_k = G_{k-1} + L_k R_k,
    L_k = [m_k v_k, d_k, v_k],   R_k = [m_k v_k'; v_k'; d_k'],

where m_k = |mu_bar_k| and d_k = Q mu_bar_k (the embedded means are
orthogonal, so X_{k-1} mu_bar_k = Q mu_bar_k at both stages).  Writing
M_k = G_k + tau I, the resolvents obey the recursive Woodbury identity

    M_k^{-1} = M_{k-1}^{-1}
             - M_{k-1}^{-1} L_k A_k^{-1} R_k M_{k-1}^{-1},
    A_k = I_3 + R_k M_{k-1}^{-1} L_k,

and A_k depends only on the three self primitives of direction k at the
previous order: with s = v'M^{-1}v, t = d'M^{-1}d, h = d'M^{-1}v,

    det(A_k) = s (m_k^2 - t) + (1 + h)^2,

with the adjugate in closed form below.  Consequently every scalar
quadratic form p = x' M_k^{-1} y updates through the bilinear map

    f_A(x_a, x_b, x_c, x_d) = (m_k^2 - t) x_a x_c
                              + (1 + h)(x_a x_d + x_b x_c)
                              - s x_b x_d,
    p_next = p - f_A(x'M^{-1}v_k, x'M^{-1}d_k, v_k'M^{-1}y, d_k'M^{-1}y)
                 / det(A_k),

which is how the recursive mode advances all primitives without touching
M_1 or M_2.  The direct mode forms each stage inverse densely instead;
the two routes share no solve and must agree.

Every primitive is such a form over the same seven probe vectors
(v_1, v_2, d_1, d_2, u = e_1, D^{-1} v_1, D^{-1} v_2), so both routes produce
one 7x7 table per order.  `PrimitiveSet` stores the three tables as one
read-only array, and each named primitive (s, t, h, ...) is a view of a
block of it, declared once in `_LAYOUT`.

The weights enter only through w_i = D^{-1} v_i, which are fixed linear
combinations of y_+ and y_- (y masked to each group), so every probe is
B C(delta) for the delta-free basis B = [a, y, d_1, d_2, e_1, y_+, y_-] and
a 7x7 change of basis C.  The recursive mode therefore needs, per tau,
only the order-0 solve: the 7x7 tables B' M_0^{-1} B and B' M_0^{-2} B,
from one Cholesky factor of M_0.  Through the risk identity
(`fit_moments`) the order-2 table also yields |w_hat|^2 and w_hat' mu_b of
the fit itself, which is where a sweep's risks come from.

Q enters only through G_0 = Q Q' and d_k = m_k Q u_k, so the stages are
read off `estimators.GramStats`, the one tau-free O(n^2) view of the
`NoiseStats` that `model.noise_stats` streams, labels included.  tau is an
argument of `compute_primitives`, and the order-0 solve of recursive mode
is memoized per tau on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError

from .bounds import _adjusted_counts
from .estimators import GramStats, _adjusted_targets, _check_tau, _spd_factor, _spd_solve, fit_ridge
from .model import ModelConfig, _check_count, _check_int, _check_seed, bartlett_factor, e1_mean

__all__ = [
    "PrimitiveSet",
    "PRIMITIVE_NAMES",
    "BandRow",
    "BandReport",
    "AuxInequalityReport",
    "det_and_adj",
    "compute_primitives",
    "FitMoments",
    "fit_moments",
    "risk_identity_check",
    "wishart_interval",
    "wishart_coverage",
    "verify_primitive_bounds",
    "check_aux_inequalities",
    "primitive_set_max_gap",
    "verify_primitives",
]

DET_SINGULAR_TOL = 1e-12

# Vector slots shared by both primitive modes.
_V1, _V2, _D1, _D2, _U, _W1, _W2 = range(7)


def _symmetric(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _stage_factor(mat: np.ndarray):
    return _spd_factor(mat, "stage matrix not positive definite")


def _dense_inverse(mat: np.ndarray) -> np.ndarray:
    return _symmetric(_spd_solve(_stage_factor(mat), np.eye(mat.shape[0])))


def _basis(stats: GramStats) -> np.ndarray:
    """B = [a, y, d_1, d_2, e_1, y_+, y_-] (y_pm is y masked to group pm);
    the probes are B @ _change_of_basis(delta)."""
    plus = stats.y * stats.a > 0
    y_plus = np.where(plus, stats.y, 0.0)
    y_minus = np.where(plus, 0.0, stats.y)
    u = e1_mean(1.0, stats.n)
    return np.column_stack([stats.a, stats.y, stats.d_1, stats.d_2, u, y_plus, y_minus])


def _order0_solve(stats: GramStats, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only 7x7 tables B' M_0^{-1} B and B' M_0^{-2} B of one tau,
    over the basis B of `_basis`."""
    basis = _basis(stats)
    solved = _spd_solve(_stage_factor(stats.gram_0 + tau * np.eye(stats.n)), basis)
    table, squared = _symmetric(basis.T @ solved), _symmetric(solved.T @ solved)
    for arr in (table, squared):
        arr.setflags(write=False)
    return table, squared


def _change_of_basis(delta) -> np.ndarray:
    """C with probes = B C: w_1 = y_+/delta_+ - y_-/delta_-, w_2 = y_+/delta_+ + y_-/delta_-."""
    inv_plus, inv_minus = 1.0 / float(delta[0]), 1.0 / float(delta[1])
    change = np.eye(7)
    change[_W1:, _W1:] = [[inv_plus, inv_plus], [-inv_minus, inv_minus]]
    return change


def det_and_adj(prims: "PrimitiveSet", k: int):
    """Closed-form det(A_k) and adj(A_k) from order-(k-1) primitives.

    det(A_k) concentrates near 1 + |mu_bar_k|^2 n / (d + tau); for the
    label direction, det(A_2) ~ 1 + |mu_c|^2 n / (d + tau).  Under
    inequality (c) of `model.check_assumptions`, d >= C R_plus n, that
    limit lies in [1, 1 + 1/C], so a tiny value means degenerate inputs,
    not a rounding accident.  Past (c) the determinant grows with the
    signal energy (about 10 at |mu_c|^2 n / d = 9).
    """
    m_sq, s, t, h = _table_self_primitives(prims.tables[..., k - 1], prims.mu_norms, k)
    return float(_det_a(m_sq, s, t, h)), _adj_a(prims.mu_norms[k - 1], s, t, h)


def _det_a(m_sq, s, t, h):
    return s * (m_sq - t) + (1.0 + h) ** 2


def _checked_det(k, m_sq, s, t, h):
    det = _det_a(m_sq, s, t, h)
    if abs(det) < DET_SINGULAR_TOL:
        raise LinAlgError(f"rank-3 update singular: det(A_{k}) = {det:.3e}")
    return det


def _adj_a(m, s, t, h) -> np.ndarray:
    """adj(A_k) for A_k = I_3 + [[m^2 s, m h, m s], [m s, h, s], [m h, t, h]]."""
    m_sq = m * m
    st_h = s * t - h - h * h
    return np.array(
        [
            [(1.0 + h) ** 2 - s * t, m * st_h, -m * s],
            [-m * s, 1.0 + h + m_sq * s, -s],
            [m * st_h, m_sq * h * h - t * (1.0 + m_sq * s), 1.0 + h + m_sq * s],
        ]
    )


def _f_a(m_sq, s, t, h, x_a, x_b, x_c, x_d):
    """f_A = [m x_a, x_b, x_a] adj(A_k) [m x_c; x_c; x_d] elementwise;
    symmetric under (x_a, x_b) <-> (x_c, x_d) bit for bit."""
    return (m_sq - t) * (x_a * x_c) + (1.0 + h) * (x_a * x_d + x_b * x_c) - s * (x_b * x_d)


# Where each named primitive sits in the 7x7 probe tables: (rows, cols) as
# slot slices, an integer slot dropping that axis.  With i, j the 0-based
# directions and k the order, e.g. s[i, j, k] = v_{i+1}' M_k^{-1} v_{j+1}.
_V, _D, _W = slice(_V1, _V2 + 1), slice(_D1, _D2 + 1), slice(_W1, _W2 + 1)
_LAYOUT = {
    "s": (_V, _V),          # v_i' M^{-1} v_j
    "t": (_D, _D),          # d_i' M^{-1} d_j
    "h": (_D, _V),          # d_i' M^{-1} v_j
    "s_uu": (_U, _U),       # u' M^{-1} u
    "s_ui": (_U, _V),       # u' M^{-1} v_i
    "h_iu": (_D, _U),       # d_i' M^{-1} u
    "s_id_j": (_W, _V),     # (D^{-1} v_i)' M^{-1} v_j
    "s_id_jd": (_W, _W),    # (D^{-1} v_i)' M^{-1} (D^{-1} v_j)
    "h_i_jd": (_D, _W),     # d_i' M^{-1} (D^{-1} v_j)
}
PRIMITIVE_NAMES = (*_LAYOUT, "o", "det_a")


@dataclass(frozen=True, eq=False)
class PrimitiveSet:
    """All quadratic-form primitives at orders k = 0, 1, 2.

    tables[:, :, k] holds x' M_k^{-1} y for every pair of the seven probe
    vectors, in slot order v_1 v_2 d_1 d_2 u w_1 w_2 (u = e_1, and
    w_i = D^{-1} v_i with D the diagonal adjustment matrix,
    D_jj = Delta_{b_j}).  It is the one stored form and is read-only; each
    name in `_LAYOUT` is a view of it, indexed [i, j, k] (or [i, k], [k]
    where a probe is u), with i, j the 0-based directions 1, 2 and k the
    order.  Besides the tables:

        o[i, k]    = w_{i+1}' M_k^{-1} G_k M_k^{-1} w_{i+1}
        det_a[k-1] = det(A_k) for k in {1, 2}.
    """

    tables: np.ndarray
    o: np.ndarray
    det_a: np.ndarray
    mu_norms: tuple[float, float]
    tau: float
    delta: tuple[float, float]

    def __post_init__(self):
        self.tables.setflags(write=False)
        for name, (rows, cols) in _LAYOUT.items():
            object.__setattr__(self, name, self.tables[rows, cols])


def _pack(stats: GramStats, delta):
    """The 7 probe vectors, columns in slot order v1 v2 d1 d2 u w1 w2."""
    w_2, dvec = _adjusted_targets(stats, delta)
    u = e1_mean(1.0, stats.n)
    return np.column_stack([stats.a, stats.y, stats.d_1, stats.d_2, u, stats.a / dvec, w_2])


def _table_self_primitives(p: np.ndarray, mu_norms, k: int):
    """(m_sq, s, t, h) of direction k read off the 7x7 table of order k-1."""
    if k not in (1, 2):
        raise ValueError("stage k must be 1 or 2")
    v_slot, d_slot = (_V1, _D1) if k == 1 else (_V2, _D2)
    m = mu_norms[k - 1]
    return m * m, p[v_slot, v_slot], p[d_slot, d_slot], p[d_slot, v_slot]


def compute_primitives(
    stats: GramStats,
    tau: float = 0.0,
    delta=(1.0, 1.0),
    mode: str = "direct",
) -> PrimitiveSet:
    """All primitives of `stats` at orders 0..2, by dense stages or by recursion.

    The probe u is e_1.  direct mode forms each G_k and M_k^{-1} densely
    and evaluates quadratic forms, o included as c' G_k c; it never reads
    or fills the memo on `stats`.  recursive mode is 7x7 algebra on the
    order-0 solve memoized per tau on `stats` (the tables
    T_0 = B' M_0^{-1} B and S_0 = B' M_0^{-2} B over the delta-free basis
    B of `_basis`, from one Cholesky of M_0 = gram_0 + tau I).  The probes
    are B C(delta), so order 0 is C' T_0 C and C' S_0 C; each stage
    advances the table by f_A / det(A_k) and the squared table by the
    stage map E_k = I - J_k adj(A_k) K_k' P / det(A_k) as E_k' S E_k, where
    L_k = X J_k and R_k' = X K_k for the probe matrix X and P is the
    order-(k-1) table (M_k^{-1} X = M_{k-1}^{-1} X E_k).  o is read as
    o = s_id_jd - tau diag(squared table), since G_k = M_k - tau I.  A
    warm call touches no n-sized array.  Recursive mode raises LinAlgError
    when |det(A_k)| < DET_SINGULAR_TOL.
    """
    tau = _check_tau(tau)
    if mode not in ("direct", "recursive"):
        raise ValueError("mode must be 'direct' or 'recursive'")
    n = stats.n
    if not (delta[0] > 0.0 and delta[1] > 0.0):
        raise ValueError("delta weights must be positive")

    o_vals = np.empty((2, 3))
    det_a = np.empty(2)
    if mode == "direct":
        probes = _pack(stats, delta)
        w_cols = probes[:, [_W1, _W2]]
        p_orders = []
        for k in range(3):
            gram = stats.stage_gram(k)
            m_inv = _dense_inverse(gram + tau * np.eye(n))
            p_orders.append(_symmetric(probes.T @ (m_inv @ probes)))
            c = m_inv @ w_cols
            for i in range(2):
                o_vals[i, k] = c[:, i] @ gram @ c[:, i]
        for k in (1, 2):
            det_a[k - 1] = _det_a(*_table_self_primitives(p_orders[k - 1], stats.mu_norms, k))
    else:
        table, squared = stats.per_tau(_order0_solve, tau)
        change = _change_of_basis(delta)
        p_orders = [_symmetric(change.T @ table @ change)]
        squares = [_symmetric(change.T @ squared @ change)]
        for k in (1, 2):
            p = p_orders[-1]
            m_sq, s, t, h = _table_self_primitives(p, stats.mu_norms, k)
            det_a[k - 1] = det = _checked_det(k, m_sq, s, t, h)
            v_slot, d_slot = (_V1, _D1) if k == 1 else (_V2, _D2)
            pa, pb = p[:, v_slot], p[:, d_slot]
            update = _f_a(m_sq, s, t, h, pa[:, None], pb[:, None], pa, pb)
            p_orders.append(p - update / det)
            # E_k = I - J_k A_k^{-1} R_k M_{k-1}^{-1} X, with J_k = [m e_v, e_d, e_v]
            m = stats.mu_norms[k - 1]
            gain = _adj_a(m, s, t, h) @ np.stack([m * pa, pa, pb]) / det
            stage = np.eye(7)
            stage[v_slot] -= m * gain[0] + gain[2]
            stage[d_slot] -= gain[1]
            squares.append(_symmetric(stage.T @ squares[-1] @ stage))
        for k in range(3):
            o_vals[:, k] = np.diagonal(p_orders[k])[_W1:] - tau * np.diagonal(squares[k])[_W1:]
    return PrimitiveSet(
        tables=np.stack(p_orders, axis=-1),
        o=o_vals,
        det_a=det_a,
        mu_norms=stats.mu_norms,
        tau=tau,
        delta=(float(delta[0]), float(delta[1])),
    )


class FitMoments(NamedTuple):
    """|w_hat|^2 and (w_hat' mu_{+1}, w_hat' mu_{-1}) of one fit, as
    `group_risk` reads them off a DualSolution."""

    w_norm_sq: float
    w_dot_mu: tuple[float, float]


def fit_moments(prims: PrimitiveSet) -> FitMoments:
    """The moments of the fit at prims.tau and prims.delta, by the risk identity.

    The fit is c = M_2^{-1} D^{-1} y, so with every primitive at order 2

        |w_hat|^2   = o_{2D,2D},
        w_hat' mu_b = m_2^2 s_{2D,2} + b m_1^2 s_{2D,1} + h_{2,2D} + b h_{1,2D}.
    """
    m_1, m_2 = prims.mu_norms

    def dot(b):
        return (
            m_2 * m_2 * prims.s_id_j[1, 1, 2]
            + b * m_1 * m_1 * prims.s_id_j[1, 0, 2]
            + prims.h_i_jd[1, 1, 2]
            + b * prims.h_i_jd[0, 1, 2]
        )

    return FitMoments(float(prims.o[1, 2]), (float(dot(+1)), float(dot(-1))))


def risk_identity_check(prims: PrimitiveSet, sol, b: int) -> float:
    """Relative gap between the margin exponent and its primitive form.

    The exponent (w_hat' mu_b)^2 / (2 |w_hat|^2) of the fitted `sol` must
    equal the same ratio of the order-2 primitive moments of `fit_moments`.
    """
    from .risk import group_risk

    if b not in (1, -1):
        raise ValueError("b must be +1 or -1")
    moments = fit_moments(prims)
    num = moments.w_dot_mu[0 if b == 1 else 1]
    primitive_side = num * num / (2.0 * moments.w_norm_sq)
    fitted_side = group_risk(sol, b).exponent
    scale = max(abs(primitive_side), abs(fitted_side), 1e-300)
    return float(abs(primitive_side - fitted_side) / scale)


def _check_wishart_args(d, n, t) -> None:
    """ValueError unless d and n are integers with n >= 1 and t is finite and nonnegative."""
    _check_int("d", d)
    _check_count("n", n)
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")


def wishart_interval(d: int, n: int, t: float) -> tuple[float, float]:
    """Two-sided band for 1/(u' A^{-1} u), A ~ Wishart(d, I_n).

    1/(u' A^{-1} u) is chi-square with d' = d - n + 1 degrees of freedom, and
    the Laurent-Massart bounds (Ann. Statist. 2000, Lemma 1) give the band
    [d' - 2 sqrt(t d'), d' + 2 sqrt(t d') + 2 t] with each tail having
    probability at most e^{-t}.  Requires integers d and n >= 1, a finite
    t >= 0 and d' > 2 max(t, 1); anything else raises ValueError.
    """
    _check_wishart_args(d, n, t)
    d_prime = d - n + 1
    if not d_prime > 2.0 * max(t, 1.0):
        raise ValueError(
            f"need d - n + 1 > 2 max(t, 1): got d' = {d_prime}, t = {t}"
        )
    half = 2.0 * np.sqrt(t * d_prime)
    return float(d_prime - half), float(d_prime + half + 2.0 * t)


def _wishart_draws(d: int, n: int, u: np.ndarray, seed: int, draws: int):
    """Yield 1/(u' A^{-1} u) for draws 0..draws-1 of A = L L' ~ Wishart(d, I_n),
    one array per chunk of `model.bartlett_factor` factors.

    u' A^{-1} u = |L^{-1} u|^2, and one forward substitution serves the
    whole chunk: column j of x = L^{-1} u is the residual's column j over
    L_jj, and the later residual columns then lose L_ij x_j.  Every step is
    elementwise over the draws, so a draw's value is the same bits in any
    chunk.  Draw i reads the first i+1 draws of each Bartlett stream
    (chi-squares, then normals), so the values of `draws=k` are a prefix
    of those of `draws=k+m`.
    """
    for factors in bartlett_factor(n, d, seed, draws):
        rest = np.tile(u, (len(factors), 1))
        norm_sq = np.zeros(len(factors))
        for j in range(n):
            x_j = rest[:, j] / factors[:, j, j]
            rest[:, j + 1 :] -= factors[:, j + 1 :, j] * x_j[:, None]
            norm_sq += x_j * x_j
        yield 1.0 / norm_sq


def wishart_coverage(
    d: int,
    n: int,
    t: float,
    draws: int,
    seed: int = 0,
) -> dict:
    """Empirical coverage of the band over fresh Wishart draws.

    Each draw is a Bartlett factor L with L L' ~ Wishart(d, I_n)
    (`model.bartlett_factor`, O(n^2) values in place of an n x d normal
    matrix), and checks whether 1/(u' A^{-1} u) = 1/|L^{-1} u|^2 lands
    inside the interval.  The diagonals come from one Philox stream of
    the seed and the normals below them from another, each read draw
    after draw, so draw i is the same for every `draws`: a run of k draws
    is a prefix of a run of k + m.  u is e_1: the law of 1/(u' A^{-1} u)
    is the same chi-square for every unit u.  Returns the count,
    fraction, and the binomial three-sigma acceptance threshold for
    coverage 1 - 2 e^{-t}.  Raises ValueError for a seed that is not a
    64-bit unsigned integer.
    """
    draws = _check_count("draws", draws)
    seed = _check_seed(seed)
    low, high = wishart_interval(d, n, t)
    inside = sum(
        int(np.count_nonzero((low <= values) & (values <= high)))
        for values in _wishart_draws(d, n, e1_mean(1.0, n), seed, draws)
    )
    coverage_target = 1.0 - 2.0 * np.exp(-t)
    sigma = np.sqrt(coverage_target * (1.0 - coverage_target) / draws)
    return {
        "d": d,
        "n": n,
        "t": t,
        "draws": draws,
        "seed": seed,
        "interval_low": low,
        "interval_high": high,
        "inside": inside,
        "fraction": inside / draws,
        "coverage_target": coverage_target,
        "threshold": coverage_target - 3.0 * sigma,
        "passed": bool(inside / draws >= coverage_target - 3.0 * sigma),
    }


class BandRow(NamedTuple):
    """One normalized primitive against its acceptance band.

    A named tuple: a report builds about a hundred rows per sweep point,
    and a tuple costs a fraction of a frozen dataclass to construct."""

    name: str
    k: int
    value: float
    normalized: float
    band_low: float
    band_high: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "value": self.value,
            "normalized": self.normalized,
            "band_low": self.band_low,
            "band_high": self.band_high,
            "pass": self.passed,
        }


@dataclass(frozen=True, eq=False)
class BandReport:
    rows: tuple
    all_pass: bool

    def failures(self):
        return [r for r in self.rows if not r.passed]

    def to_dict(self) -> dict:
        return {"all_pass": self.all_pass, "rows": [r.to_dict() for r in self.rows]}


# The report's rows, as (name, k, two-sided): at each order k the (i, j)
# pair rows, s_uu, then the per-i u rows; last det(A_1) and det(A_2).
# Diagonal pairs and sign-definite primitives are two-sided.
_PAIR_BANDS = (("s_{i}{j}", True), ("t_{i}{j}", True), ("h_{i}{j}", False),
               ("s_{i}d_{j}", True), ("s_{i}d_{j}d", True), ("h_{i}_{j}d", False))
_U_BANDS = (("s_u{i}", False), ("h_{i}u", False), ("o_{i}d", True))
_ORDER_BANDS = (
    *((f.format(i=i, j=j), diag and i == j) for i in (1, 2) for j in (1, 2) for f, diag in _PAIR_BANDS),
    ("s_uu", True),
    *((f.format(i=i), diag) for i in (1, 2) for f, diag in _U_BANDS),
)
_BAND_ROWS = (
    *((name, k, two_sided) for k in range(3) for name, two_sided in _ORDER_BANDS),
    ("det_a_1", 1, True),
    ("det_a_2", 2, True),
)
_BAND_TWO_SIDED = np.array([two_sided for _, _, two_sided in _BAND_ROWS])


def verify_primitive_bounds(
    prims: PrimitiveSet,
    config: ModelConfig,
    band: tuple[float, float] = (0.5, 2.0),
) -> BandReport:
    """Normalize every primitive by its theoretical rate and check bands.

    Sign-definite primitives (diagonal s, t, s_uu, the adjusted diagonals,
    o, det_A) go against `band` = (LO, HI); fluctuating ones (cross terms
    and the u-projections) against (-HI, HI).  A primitive whose rate
    vanishes because its mean direction is zero must itself be exactly
    zero.

    The rates are order-0 rates.  They hold at every order only in the
    `model.check_assumptions` regime: at order 2 the label-direction
    diagonals (s_22, s_2d_2, s_2d_2d, o_2d) scale by 1/det(A_2), which
    stays order 1 only while inequality (c) holds (see `det_and_adj`).
    The rates use `prims.delta`, the weights the primitives were computed
    at.
    """
    lo, hi = band
    cross_lo, cross_hi = -hi, hi
    n, d = config.n, config.d
    tau = prims.tau
    dt = d + tau
    m = np.asarray(prims.mu_norms, dtype=np.float64)
    m_i, m_j = m[:, None], m[None, :]
    n_delta, n_mixed = _adjusted_counts(config.n_plus, config.n_minus, prims.delta)

    # rates (the same at every order) and values of each order's rows
    pair_rates = np.empty((2, 2, len(_PAIR_BANDS)))
    pair_rates[..., 0] = n / dt
    pair_rates[..., 1] = n * m_i * m_j / dt
    pair_rates[..., 2] = n * m_i / dt
    pair_rates[..., 3] = n_mixed / dt
    pair_rates[..., 4] = n_delta / dt
    pair_rates[..., 5] = np.sqrt(n * n_delta) * m_i / dt
    u_rates = np.empty((2, len(_U_BANDS)))
    u_rates[:, 0] = np.sqrt(n) / dt
    u_rates[:, 1] = np.sqrt(n) * m / dt
    u_rates[:, 2] = n_delta * d / dt**2
    rates = np.concatenate([pair_rates.ravel(), [1.0 / dt], u_rates.ravel()])
    pair_values = np.empty((2, 2, len(_PAIR_BANDS), 3))
    for slot, prim in enumerate((prims.s, prims.t, prims.h, prims.s_id_j, prims.s_id_jd, prims.h_i_jd)):
        pair_values[:, :, slot] = prim
    u_values = np.empty((2, len(_U_BANDS), 3))
    for slot, prim in enumerate((prims.s_ui, prims.h_iu, prims.o)):
        u_values[:, slot] = prim
    values = np.concatenate([pair_values.reshape(-1, 3), prims.s_uu[None], u_values.reshape(-1, 3)])
    # in `_BAND_ROWS` order
    values = np.concatenate([values.T.ravel(), prims.det_a])
    rates = np.concatenate([np.tile(rates, 3), [1.0, 1.0]])

    # a zero rate means a zero mean direction: the primitive must vanish
    zero = rates == 0.0
    normalized = np.divide(values, rates, out=np.zeros_like(values), where=~zero)
    inside = (np.where(_BAND_TWO_SIDED, lo, cross_lo) <= normalized) & (
        normalized <= np.where(_BAND_TWO_SIDED, hi, cross_hi)
    )
    passed = np.where(zero, values == 0.0, inside)
    limits = ((cross_lo, cross_hi), (lo, hi))
    rows = tuple(
        BandRow(name, k, value, norm, *((0.0, 0.0) if z else limits[two_sided]), ok)
        for (name, k, two_sided), value, norm, z, ok in zip(
            _BAND_ROWS, values.tolist(), normalized.tolist(), zero.tolist(), passed.tolist()
        )
    )
    return BandReport(rows=rows, all_pass=bool(passed.all()))


@dataclass(frozen=True)
class AuxInequalityReport:
    """Numeric checks of the two scalar auxiliary inequalities.

    The first: (1/2)(n_plus/Delta_plus + n_minus/Delta_minus) |mu_bar_c|
    >= C_1 sqrt(n n_delta) with reference constant
    C_1 = sqrt(n_minus / n) |mu_bar_c| / 2.  The second, at the constants
    (c_big, c_tilde) = (AUX_C_BIG, AUX_C_TILDE):
    (c_tilde / (sqrt(c_big) n)) (n + n_delta) <= (1/2)(n_plus/Delta_plus + n_minus/Delta_minus).
    """

    margin_floor_realized: float
    margin_floor_reference: float
    margin_floor_ok: bool
    count_cap_lhs: float
    count_cap_rhs: float
    count_cap_ok: bool
    c_big: float
    c_tilde: float

    @property
    def all_ok(self) -> bool:
        return self.margin_floor_ok and self.count_cap_ok

    def to_dict(self) -> dict:
        return {
            "margin_floor_realized": self.margin_floor_realized,
            "margin_floor_reference": self.margin_floor_reference,
            "margin_floor_ok": self.margin_floor_ok,
            "count_cap_lhs": self.count_cap_lhs,
            "count_cap_rhs": self.count_cap_rhs,
            "count_cap_ok": self.count_cap_ok,
            "c_big": self.c_big,
            "c_tilde": self.c_tilde,
        }


# The constants (c_big, c_tilde) of the count-cap inequality.
AUX_C_BIG = 145.0
AUX_C_TILDE = 2.01


def check_aux_inequalities(config: ModelConfig) -> AuxInequalityReport:
    """Evaluate both scalar inequalities at the config's weights."""
    n = config.n
    mu_c_norm = abs(float(config.mu_core[0]))
    n_delta, n_mixed = _adjusted_counts(config.n_plus, config.n_minus, config.deltas)
    realized = 0.5 * n_mixed * mu_c_norm / np.sqrt(n * n_delta)
    reference = np.sqrt(config.n_minus / n) * mu_c_norm / 2.0
    count_cap_lhs = (AUX_C_TILDE / (np.sqrt(AUX_C_BIG) * n)) * (n + n_delta)
    count_cap_rhs = 0.5 * n_mixed
    return AuxInequalityReport(
        margin_floor_realized=float(realized),
        margin_floor_reference=float(reference),
        margin_floor_ok=bool(realized >= reference * (1.0 - 1e-12)),
        count_cap_lhs=float(count_cap_lhs),
        count_cap_rhs=float(count_cap_rhs),
        count_cap_ok=bool(count_cap_lhs <= count_cap_rhs),
        c_big=AUX_C_BIG,
        c_tilde=AUX_C_TILDE,
    )


def primitive_set_max_gap(a: PrimitiveSet, b: PrimitiveSet) -> float:
    """Largest relative discrepancy between two PrimitiveSets."""
    gap = 0.0
    for name in PRIMITIVE_NAMES:
        x = getattr(a, name).ravel()
        y = getattr(b, name).ravel()
        scale = np.maximum(np.abs(x), np.abs(y))
        diff = np.abs(x - y)
        mask = scale > 0
        if mask.any():
            gap = max(gap, float((diff[mask] / scale[mask]).max()))
        if (diff[~mask] != 0).any():
            gap = max(gap, np.inf)
    return gap


def verify_primitives(
    stats: GramStats,
    config: ModelConfig,
    tau: float = 0.0,
    band: tuple[float, float] = (0.5, 2.0),
) -> dict:
    """The document `grouprisk verify-primitives` prints, for `stats` at tau.

    Checks in order: the direct-vs-recursive gap (at most 1e-8), the risk
    identity of the ridge fit (at most 1e-8), the closed-form adjugate of
    each A_k against the dense capacitance I + R_k M_{k-1}^{-1} L_k (at most
    1e-10), the bands of `verify_primitive_bounds` and the aux inequalities.
    `passed`, the exit code of `verify-primitives`, covers the mode gap,
    the identities, the adjugate and the aux inequalities; the bands are
    reported in `bands_all_pass` and do not enter it, because they hold
    only in the `check_assumptions` regime.
    """
    direct = compute_primitives(stats, tau=tau, delta=config.deltas, mode="direct")
    recursive = compute_primitives(stats, tau=tau, delta=config.deltas, mode="recursive")
    mode_gap = primitive_set_max_gap(direct, recursive)

    sol = fit_ridge(stats, config.deltas, tau)
    identity_gaps = {str(b): risk_identity_check(direct, sol, b) for b in (+1, -1)}

    adj_gap = 0.0
    for k in (1, 2):
        prev_inv = np.linalg.inv(stats.stage_gram(k - 1) + tau * np.eye(stats.n))
        L, R = stats.update_factors(k)
        det, adj = det_and_adj(direct, k)
        residual = (np.eye(3) + R @ prev_inv @ L) @ adj - det * np.eye(3)
        adj_gap = max(adj_gap, float(np.abs(residual).max()))

    bands = verify_primitive_bounds(direct, config, band=band)
    aux = check_aux_inequalities(config)
    passed = mode_gap <= 1e-8 and max(identity_gaps.values()) <= 1e-8 and adj_gap <= 1e-10 and aux.all_ok
    return {
        "mode_equivalence_max_gap": mode_gap,
        "risk_identity_gap": identity_gaps,
        "adjugate_identity_gap": adj_gap,
        "bands_all_pass": bands.all_pass,
        "band_failures": [r.to_dict() for r in bands.failures()],
        "aux_inequalities": aux.to_dict(),
        "passed": bool(passed),
    }
