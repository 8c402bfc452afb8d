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

with the adjugate in closed form below.  With L_k = X J_k for the probes
X (J_k = [m_k e_v, e_d, e_v]), M_k^{-1} X = M_{k-1}^{-1} X E_k for the
rank-2 stage map

    E_k = I - e_v r_v' - e_d r_d',
    [r_v; r_d] = [[m_k^2 - t, 1 + h], [1 + h, -s]] [pa; pb] / det(A_k),

pa and pb the v_k and d_k columns of the previous table.  It advances the
table T to T E_k and the squared table S to E_k' S E_k without touching
M_1 or M_2.  The direct mode factors each M_k and solves for the probes
instead, forming no inverse; the two routes share no solve and must agree.

Every primitive is a quadratic form x'M_k^{-1}y over the same seven probes
(v_1, v_2, d_1, d_2, u = e_1, D^{-1} v_1, D^{-1} v_2), so both routes produce
one 7x7 table per order.  `PrimitiveSet` stores the three tables as one
read-only array, and each named primitive (s, t, h, ...) is a view of a
block of it, declared once in `_LAYOUT`.

The weights enter only through w_i = D^{-1} v_i, fixed linear
combinations of y_+ and y_- (y masked to each group), and the mean norms
only through d_k = m_k q_k (q_s = Q u_s, q_c = Q u_c), so every probe is
B C for the basis B = [a, y, q_s, q_c, e_1, y_+, y_-], free of both, and
a 7x7 change of basis C that holds both.  The recursive mode therefore
needs, per draw and tau, only the order-0 solve: the norm-free 7x7
tables B' M_0^{-1} B and B' M_0^{-2} B, from one Cholesky factor of M_0.
Through the risk identity (`fit_moments`) the order-2 table also yields
|w_hat|^2 and w_hat' mu_b of the fit itself, which is where a sweep's
risks come from.

Q enters only through G_0 = Q Q', q_s and q_c, so the stages are read off
`model.GramStats`, the one tau-free O(n^2) view that `model.noise_stats`
streams, labels included.  tau and the weights are arguments of
`compute_primitives`, and the order-0 solve of recursive mode is
memoized per tau on the instance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError

from .bounds import _adjusted_counts
from .estimators import _adjusted_targets, _spd_factor, _spd_solve, _weights, fit_ridge
from .model import GramStats, ModelConfig, _coerce, _freeze_arrays, _read_only, _shown, bartlett_factor, e1_mean
from .risk import group_risk

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
    return 0.5 * (p + p.swapaxes(-1, -2))


def _stage_factor(mat: np.ndarray):
    return _spd_factor(mat, "stage matrix not positive definite")


def _basis(stats: GramStats) -> np.ndarray:
    """B = [a, y, q_s, q_c, e_1, y_+, y_-] (y_pm is y masked to group pm),
    free of the mean norms; the probes are B @ _change_of_basis(delta, mu_norms)."""
    plus = stats.y * stats.a > 0
    y_plus = np.where(plus, stats.y, 0.0)
    y_minus = np.where(plus, 0.0, stats.y)
    u = e1_mean(1.0, stats.n)
    return np.column_stack([stats.a, stats.y, stats.q_spur, stats.q_core, u, y_plus, y_minus])


def _order0_solve(stats: GramStats, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only 7x7 tables B' M_0^{-1} B and B' M_0^{-2} B of one tau,
    over the norm-free basis B of `_basis`."""
    basis = _basis(stats)
    solved = _spd_solve(_stage_factor(stats.gram_0 + tau * np.eye(stats.n)), basis)
    return _read_only(_symmetric(basis.T @ solved)), _read_only(_symmetric(solved.T @ solved))


def _identities(batch: tuple) -> np.ndarray:
    """A new batch + (7, 7) array of 7x7 identities."""
    eye = np.zeros(batch + (7, 7))
    eye.reshape(-1, 49)[:, ::8] = 1.0
    return eye


def _change_of_basis(delta, mu_norms) -> np.ndarray:
    """C = diag(1, 1, m_1, m_2, 1, 1, 1) C(delta) with probes = B C: d_k = m_k q_k,
    w_1 = y_+/delta_+ - y_-/delta_-, w_2 = y_+/delta_+ + y_-/delta_-.

    delta and mu_norms are pairs (shape (2,)) or stacks of them (shape
    (k, 2)), and C is 7x7 or (k, 7, 7) to match."""
    inv = 1.0 / np.asarray(delta, dtype=np.float64)
    norms = np.asarray(mu_norms, dtype=np.float64)
    inv_plus, inv_minus = inv[..., 0], inv[..., 1]
    change = _identities(np.broadcast_shapes(inv.shape[:-1], norms.shape[:-1]))
    change[..., _D1, _D1], change[..., _D2, _D2] = norms[..., 0], norms[..., 1]
    change[..., _W1, _W1] = change[..., _W1, _W2] = inv_plus
    change[..., _W2, _W1], change[..., _W2, _W2] = -inv_minus, inv_minus
    return change


def det_and_adj(prims: "PrimitiveSet", k: int):
    """Closed-form det(A_k) and adj(A_k) from order-(k-1) primitives.

    det(A_k) concentrates near 1 + |mu_bar_k|^2 n / (d + tau); for the
    label direction, det(A_2) ~ 1 + |mu_c|^2 n / (d + tau).  Under
    inequality (c) of `model.check_assumptions`, d >= C R_plus n, that
    limit lies in [1, 1 + 1/C], so a tiny value means degenerate inputs,
    not a rounding accident.  Past (c) the determinant grows with the
    signal energy (about 10 at |mu_c|^2 n / d = 9).

    The recursion reads only det(A_k) (`_stage_map`); adj(A_k) is the
    paper's closed form, which `verify_primitives` checks against the
    capacitance I + R_k M_{k-1}^{-1} L_k.
    """
    m_sq, s, t, h = _table_self_primitives(prims.tables[..., k - 1], prims.mu_norms, k)
    return float(_det_a(m_sq, s, t, h)), _adj_a(prims.mu_norms[k - 1], s, t, h)


def _det_a(m_sq, s, t, h):
    return s * (m_sq - t) + (1.0 + h) * (1.0 + h)


def _singular(det_a) -> str | None:
    """Why one point's recursion fails: the first k with |det(A_k)| below
    DET_SINGULAR_TOL, as the LinAlgError text, or None."""
    for k, det in enumerate(det_a, 1):
        if abs(det) < DET_SINGULAR_TOL:
            return f"rank-3 update singular: det(A_{k}) = {det:.3e}"
    return None


def _adj_a(m, s, t, h) -> np.ndarray:
    """adj(A_k) for A_k = I_3 + [[m^2 s, m h, m s], [m s, h, s], [m h, t, h]],
    3x3 for scalar s, t, h and (k, 3, 3) for stacks of k."""
    m_sq = m * m
    st_h = s * t - h - h * h
    entries = (
        (1.0 + h) * (1.0 + h) - s * t, m * st_h, -m * s,
        -m * s, 1.0 + h + m_sq * s, -s,
        m * st_h, m_sq * h * h - t * (1.0 + m_sq * s), 1.0 + h + m_sq * s,
    )
    return np.stack(entries, axis=-1).reshape(np.shape(s) + (3, 3))


def _stage_map(p: np.ndarray, mu_norms, k: int):
    """det(A_k) and the stage map E_k of the module docstring from the
    order-(k-1) table p, 7x7 or a stack; its rows are those of
    J_k adj(A_k) [m_k pa; pa; pb]' / det(A_k), without the adjugate.  A
    |det(A_k)| below DET_SINGULAR_TOL divides by 1 instead."""
    m_sq, s, t, h = _table_self_primitives(p, mu_norms, k)
    det = _det_a(m_sq, s, t, h)
    safe = np.where(abs(det) < DET_SINGULAR_TOL, 1.0, det)[..., None, None]
    slots = [_V1, _D1] if k == 1 else [_V2, _D2]
    core = np.stack([m_sq - t, 1.0 + h, 1.0 + h, -s], axis=-1).reshape(np.shape(s) + (2, 2))
    stage = _identities(np.shape(s))
    stage[..., slots, :] -= core @ p[..., slots, :] / safe
    return det, stage


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
    D_jj = Delta_{b_j}).  It is the one stored form, and each name in
    `_LAYOUT` is a view of it, indexed [i, j, k] (or [i, k], [k] where a
    probe is u), with i, j the 0-based directions 1, 2 and k the order.
    Besides the tables:

        o[i, k]    = w_{i+1}' M_k^{-1} G_k M_k^{-1} w_{i+1}
        det_a[k-1] = det(A_k) for k in {1, 2}.

    The set of a stack of k rows (`_recursive_primitives`) has a leading
    axis of length k on tables, o, det_a and every view, and its mu_norms,
    tau and delta are the (k, 2), (k,) and (k, 2) arrays of the rows.
    Every array field is read-only.
    """

    tables: np.ndarray
    o: np.ndarray
    det_a: np.ndarray
    mu_norms: tuple[float, float]
    tau: float
    delta: tuple[float, float]

    def __post_init__(self):
        _freeze_arrays(self)
        for name, (rows, cols) in _LAYOUT.items():
            object.__setattr__(self, name, self.tables[..., rows, cols, :])


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
    m = np.asarray(mu_norms, dtype=np.float64)[..., k - 1]
    return m * m, p[..., v_slot, v_slot], p[..., d_slot, d_slot], p[..., d_slot, v_slot]


def compute_primitives(
    stats: GramStats,
    tau: float = 0.0,
    delta=(1.0, 1.0),
    mode: str = "direct",
) -> PrimitiveSet:
    """All primitives of `stats` at orders 0..2, by dense stages or by recursion.

    The probe u is e_1.  direct mode forms each G_k, solves M_k for the
    seven probes through one Cholesky factor and reads the table as
    probes' M_k^{-1} probes and o as c' G_k c for the solved w columns c;
    it forms no inverse and never reads or fills the memo on `stats`.
    recursive mode is `_recursive_primitives`, the one recursion, at the
    one weight pair `delta`, on the order-0 solve memoized per tau on
    `stats`: the tables T_0 = B' M_0^{-1} B and S_0 = B' M_0^{-2} B over
    the norm-free basis B of `_basis`, from one Cholesky of
    M_0 = gram_0 + tau I.  A sweep runs the same recursion
    once per trial on the stack of its (point, method) rows.  A warm call
    touches no n-sized array.  Recursive mode raises
    LinAlgError when |det(A_k)| < DET_SINGULAR_TOL.
    """
    tau = _coerce("tau", tau)
    delta = _weights(delta)
    if mode not in ("direct", "recursive"):
        raise ValueError("mode must be 'direct' or 'recursive'")
    if mode == "recursive":
        table, squared = stats.per_tau(_order0_solve, tau)
        prims = _recursive_primitives(table, squared, stats.mu_norms, tau, delta)
        failure = _singular(prims.det_a)
        if failure is not None:
            raise LinAlgError(failure)
        return prims

    o_vals = np.empty((2, 3))
    det_a = np.empty(2)
    probes = _pack(stats, delta)
    p_orders = []
    for k in range(3):
        gram = stats.stage_gram(k)
        solved = _spd_solve(_stage_factor(gram + tau * np.eye(stats.n)), probes)
        p_orders.append(_symmetric(probes.T @ solved))
        c = solved[:, _W1:]
        o_vals[:, k] = np.sum(c * (gram @ c), axis=0)
    for k in (1, 2):
        det_a[k - 1] = _det_a(*_table_self_primitives(p_orders[k - 1], stats.mu_norms, k))
    return PrimitiveSet(
        tables=np.stack(p_orders, axis=-1),
        o=o_vals,
        det_a=det_a,
        mu_norms=stats.mu_norms,
        tau=tau,
        delta=delta,
    )


def _recursive_primitives(table, squared, mu_norms, tau, delta) -> PrimitiveSet:
    """The primitives at the mean norms `mu_norms` and weights `delta`, by
    recursion from the norm-free order-0 tables `table` = B' M_0^{-1} B and
    `squared` = B' M_0^{-2} B of `tau` (`_order0_solve`, or any source of them).

    Each argument is one row (7x7 tables, a pair, a scalar, a pair) or a
    stack of k rows ((k, 7, 7), (k, 2), (k,), (k, 2)), one row broadcasting
    against a stack: then the set's tables, o and det_a carry a leading
    axis of length k, and row i is the same bits as its one-row call.  The
    probes are B C for C = `_change_of_basis`, so order 0 is C' T_0 C and
    C' S_0 C; each stage advances the table T to T E_k and the squared
    table S to E_k' S E_k by the stage map of `_stage_map`.  o is read as
    o = s_id_jd - tau diag(squared table), since G_k = M_k - tau I.  A
    point with |det(A_k)| < DET_SINGULAR_TOL divides that stage by 1
    instead, so its later entries are meaningless; `_singular` of its
    det_a says so, and the caller drops it.
    """
    norms = np.asarray(mu_norms, dtype=np.float64)
    change = _change_of_basis(delta, norms)
    change_t = change.swapaxes(-1, -2)
    p_orders = [_symmetric(change_t @ table @ change)]
    squares = [_symmetric(change_t @ squared @ change)]
    dets = []
    for k in (1, 2):
        det, stage = _stage_map(p_orders[-1], norms, k)
        dets.append(det)
        p_orders.append(_symmetric(p_orders[-1] @ stage))
        squares.append(_symmetric(stage.swapaxes(-1, -2) @ squares[-1] @ stage))
    tau_ = np.asarray(tau, dtype=np.float64)[..., None]
    o = [
        p.diagonal(0, -2, -1)[..., _W1:] - tau_ * sq.diagonal(0, -2, -1)[..., _W1:]
        for p, sq in zip(p_orders, squares)
    ]
    return PrimitiveSet(
        tables=np.stack(p_orders, axis=-1),
        o=np.stack(o, axis=-1),
        det_a=np.stack(dets, axis=-1),
        mu_norms=mu_norms,
        tau=tau,
        delta=delta,
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
    w_norm_sq, w_dot_mu = _fit_moments(prims)
    return FitMoments(float(w_norm_sq), tuple(float(v) for v in w_dot_mu))


def _fit_moments(prims: PrimitiveSet):
    """`fit_moments` as arrays over a stack, at each row's norms: |w_hat|^2
    of shape (...) and the (..., 2) array of (w_hat' mu_{+1}, w_hat' mu_{-1})."""
    m_1, m_2 = np.moveaxis(np.asarray(prims.mu_norms, dtype=np.float64), -1, 0)

    def dot(b):
        return (
            m_2 * m_2 * prims.s_id_j[..., 1, 1, 2]
            + b * m_1 * m_1 * prims.s_id_j[..., 1, 0, 2]
            + prims.h_i_jd[..., 1, 1, 2]
            + b * prims.h_i_jd[..., 0, 1, 2]
        )

    return prims.o[..., 1, 2], np.stack([dot(+1), dot(-1)], axis=-1)


def risk_identity_check(prims: PrimitiveSet, sol) -> tuple[float, float]:
    """Relative gaps (b = +1, b = -1) between the margin exponent and its
    primitive form.

    The exponent (w_hat' mu_b)^2 / (2 |w_hat|^2) of the fitted `sol` must
    equal the same ratio of the order-2 primitive moments of `fit_moments`.
    """
    moments = fit_moments(prims)
    gaps = []
    for num, entry in zip(moments.w_dot_mu, group_risk(sol)):
        primitive_side = num * num / (2.0 * moments.w_norm_sq)
        scale = max(abs(primitive_side), abs(entry.exponent), 1e-300)
        gaps.append(float(abs(primitive_side - entry.exponent) / scale))
    return tuple(gaps)


def wishart_interval(d: int, n: int, t: float) -> tuple[float, float]:
    """Two-sided band for 1/(u' A^{-1} u), A ~ Wishart(d, I_n).

    1/(u' A^{-1} u) is chi-square with d' = d - n + 1 degrees of freedom, and
    the Laurent-Massart bounds (Ann. Statist. 2000, Lemma 1) give the band
    [d' - 2 sqrt(t d'), d' + 2 sqrt(t d') + 2 t] with each tail having
    probability at most e^{-t}.  Requires integers d, n >= 1, a finite
    t >= 0 and d' > 2 max(t, 1); anything else raises ValueError.
    """
    d, n, t = (_coerce(name, v) for name, v in (("d", d), ("n", n), ("t", t)))
    d_prime = d - n + 1
    if not d_prime > 2.0 * max(t, 1.0):
        raise ValueError(
            f"need d - n + 1 > 2 max(t, 1): got d' = {_shown(d_prime)}, t = {t}"
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
    draws, seed, d, n, t = (
        _coerce(name, v) for name, v in (("draws", draws), ("seed", seed), ("d", d), ("n", n), ("t", t))
    )
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
    at.  The report is of one point; `_band_check` checks a stack.
    """
    lo, hi = band
    values, normalized, zero, passed = _band_check(prims, (config.n_plus, config.n_minus, config.d), band)
    limits = ((-hi, hi), (lo, hi))
    rows = tuple(
        BandRow(name, k, value, norm, *((0.0, 0.0) if z else limits[two_sided]), ok)
        for (name, k, two_sided), value, norm, z, ok in zip(
            _BAND_ROWS, values.tolist(), normalized.tolist(), zero.tolist(), passed.tolist()
        )
    )
    return BandReport(rows=rows, all_pass=bool(passed.all()))


def _band_check(prims: PrimitiveSet, sizes, band: tuple[float, float] = (0.5, 2.0)):
    """The band check of `verify_primitive_bounds` over a stack of points,
    each at its own mean norms, tau, weights and sizes (n_plus, n_minus, d),
    given as (..., 3) or one shared triple: the values, normalized values,
    zero-rate mask and pass flags, each (..., 95) in `_BAND_ROWS` order."""
    lo, hi = band
    batch = prims.det_a.shape[:-1]
    sizes = np.reshape(np.broadcast_to(sizes, batch + (3,)), (-1, 3))
    n, d = (np.reshape(v, batch + (1, 1)) for v in (sizes[:, 0] + sizes[:, 1], sizes[:, 2]))
    dt = d + np.asarray(prims.tau, dtype=np.float64)[..., None, None]
    m = np.asarray(prims.mu_norms, dtype=np.float64)
    m_i, m_j = m[..., :, None], m[..., None, :]

    def flat(arr):
        return np.reshape(arr, batch + (-1,))

    counts = _adjusted_counts(sizes[:, 0], sizes[:, 1], np.reshape(prims.delta, (-1, 2)).T)
    n_delta, n_mixed = (np.reshape(c, batch + (1, 1)) for c in counts)

    # rates (the same at every order) and values of each order's rows
    pair_rates = np.empty(batch + (2, 2, len(_PAIR_BANDS)))
    pair_rates[..., 0] = n / dt
    pair_rates[..., 1] = n * m_i * m_j / dt
    pair_rates[..., 2] = n * m_i / dt
    pair_rates[..., 3] = n_mixed / dt
    pair_rates[..., 4] = n_delta / dt
    pair_rates[..., 5] = np.sqrt(n * n_delta) * m_i / dt
    u_rates = np.empty(batch + (2, len(_U_BANDS)))
    n, d, dt = n[..., 0], d[..., 0], dt[..., 0]
    u_rates[..., 0] = np.sqrt(n) / dt
    u_rates[..., 1] = np.sqrt(n) * m / dt
    u_rates[..., 2] = n_delta[..., 0] * d / dt**2
    rates = np.concatenate([flat(pair_rates), 1.0 / dt, flat(u_rates)], axis=-1)
    pair_values = np.empty(batch + (2, 2, len(_PAIR_BANDS), 3))
    for slot, prim in enumerate((prims.s, prims.t, prims.h, prims.s_id_j, prims.s_id_jd, prims.h_i_jd)):
        pair_values[..., slot, :] = prim
    u_values = np.empty(batch + (2, len(_U_BANDS), 3))
    for slot, prim in enumerate((prims.s_ui, prims.h_iu, prims.o)):
        u_values[..., slot, :] = prim
    values = np.concatenate(
        [np.reshape(pair_values, batch + (-1, 3)), prims.s_uu[..., None, :], np.reshape(u_values, batch + (-1, 3))],
        axis=-2,
    )
    # in `_BAND_ROWS` order
    values = np.concatenate([flat(np.swapaxes(values, -1, -2)), prims.det_a], axis=-1)
    rates = np.concatenate([np.tile(rates, 3), np.ones(batch + (2,))], axis=-1)

    # a zero rate means a zero mean direction: the primitive must vanish
    zero = rates == 0.0
    normalized = np.divide(values, rates, out=np.zeros_like(values), where=~zero)
    inside = (np.where(_BAND_TWO_SIDED, lo, -hi) <= normalized) & (normalized <= hi)
    passed = np.where(zero, values == 0.0, inside)
    return values, normalized, zero, passed


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


# The constants (c_big, c_tilde) of the count-cap inequality.
AUX_C_BIG = 145.0
AUX_C_TILDE = 2.01


def check_aux_inequalities(config: ModelConfig) -> AuxInequalityReport:
    """Evaluate both scalar inequalities at the config's weights.

    Both hold at every valid config.  With x = 1/Delta_plus and
    z = 1/Delta_minus, `ModelConfig` gives 1 <= x <= z <= n and
    n_minus <= n_plus, and n_delta = n_plus x^2 + n_minus z^2,
    n_mixed = n_plus x + n_minus z.  The margin floor is
    n_mixed^2 >= n_minus n_delta (any |mu_c|), and
    n_mixed^2 - n_minus n_delta = n_plus x^2 (n_plus - n_minus)
    + 2 n_plus n_minus x z >= 0.  For the count cap, x, z <= n give
    n_delta / n <= n_mixed, and 1 <= n_mixed, so
    lhs = (c_tilde / sqrt(c_big)) (1 + n_delta / n)
    <= 2 (2.01 / sqrt(145)) n_mixed ~ 0.334 n_mixed < rhs = 0.5 n_mixed.
    """
    n = config.n
    mu_c_norm = abs(config.core_scale)
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
    """Largest relative discrepancy between two PrimitiveSets.

    Each table entry x'M_k^{-1}y is measured against its Cauchy-Schwarz
    bound sqrt(x'M_k^{-1}x y'M_k^{-1}y), the larger of the two sets', so an
    entry that is zero in exact arithmetic is held to the rounding of its
    row and column; o and det_a are compared entry by entry.  A difference
    where the scale is 0, or any NaN, gives inf.
    """

    def bound(tables):
        root = np.sqrt(np.abs(np.einsum("...iik->...ik", tables)))
        return root[..., :, None, :] * root[..., None, :, :]

    pairs = (
        (a.tables, b.tables, np.maximum(bound(a.tables), bound(b.tables))),
        (a.o, b.o, np.maximum(np.abs(a.o), np.abs(b.o))),
        (a.det_a, b.det_a, np.maximum(np.abs(a.det_a), np.abs(b.det_a))),
    )
    gap = 0.0
    for x, y, scale in pairs:
        diff = np.abs(x - y)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(diff, scale, out=np.zeros_like(diff), where=diff != 0)
        gap = max(gap, float(np.nan_to_num(ratio, nan=np.inf, posinf=np.inf).max()))
    return gap


def verify_primitives(
    stats: GramStats,
    config: ModelConfig,
    tau: float = 0.0,
    band: tuple[float, float] = (0.5, 2.0),
) -> dict:
    """The document `grouprisk verify-primitives` prints, for `stats` at tau.

    Checks in order: the direct-vs-recursive gap of `primitive_set_max_gap`
    (at most 1e-8), the risk identity of the ridge fit (at most 1e-8), the
    closed-form adjugate of each A_k against the capacitance
    C = I + R_k M_{k-1}^{-1} L_k, with M_{k-1}^{-1} L_k solved through a
    Cholesky factor (the residual C adj - det I over max|C| max|adj|, at
    most 1e-10), the bands of `verify_primitive_bounds` and the aux
    inequalities.  Both scales let rounding pass at d = n.
    `passed`, the exit code of `verify-primitives`, covers the mode gap,
    the identities, the adjugate and the aux inequalities; the bands are
    reported in `bands_all_pass` and do not enter it, because they hold
    only in the `check_assumptions` regime.
    """
    direct = compute_primitives(stats, tau=tau, delta=config.deltas, mode="direct")
    recursive = compute_primitives(stats, tau=tau, delta=config.deltas, mode="recursive")
    mode_gap = primitive_set_max_gap(direct, recursive)

    sol = fit_ridge(stats, config.deltas, tau)
    identity_gaps = dict(zip(("1", "-1"), risk_identity_check(direct, sol)))

    adj_gap = 0.0
    for k in (1, 2):
        L, R = stats.update_factors(k)
        solved = _spd_solve(_stage_factor(stats.stage_gram(k - 1) + tau * np.eye(stats.n)), L)
        det, adj = det_and_adj(direct, k)
        capacitance = np.eye(3) + R @ solved
        residual = capacitance @ adj - det * np.eye(3)
        scale = np.abs(capacitance).max() * np.abs(adj).max()
        adj_gap = max(adj_gap, float(np.abs(residual).max() / scale))

    bands = verify_primitive_bounds(direct, config, band=band)
    aux = check_aux_inequalities(config)
    passed = mode_gap <= 1e-8 and max(identity_gaps.values()) <= 1e-8 and adj_gap <= 1e-10 and aux.all_ok
    return {
        "mode_equivalence_max_gap": mode_gap,
        "risk_identity_gap": identity_gaps,
        "adjugate_identity_gap": adj_gap,
        "bands_all_pass": bands.all_pass,
        "band_failures": [r.to_dict() for r in bands.failures()],
        "aux_inequalities": asdict(aux),
        "passed": bool(passed),
    }
