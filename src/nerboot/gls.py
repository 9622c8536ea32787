"""Weighted least-squares estimation of the fixed effects (mu, beta).

The weight of cluster i is W_i = sigma_U^2 1 1' + sigma_V^2 diag(s_i1^2,
..., s_in_i^2).  Rather than iterating the coupled textbook displays for
mu-tilde and beta-tilde, the full (r+1)-dimensional GLS normal equations
with design (1, x_ij') are solved in one shot -- algebraically the same
thing (tested against the two-display form).  W_i^-1 is never formed:
with D_i = sigma_V^2 diag(s_i^2),

    W_i^-1 = D_i^-1 - lambda_i (s_i^-2)(s_i^-2)',
    lambda_i = sigma_U^2 / (sigma_V^2 (sigma_V^2 + sigma_U^2 a_i)),

so the normal equations assemble from cached design cross-products in
O(N r) per world.  They are built and solved for a whole block of worlds at
once: one stacked (B, r+1, r+1) system and one batched solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, SingularWeight
from .model import Dataset, _summaries_design
from .transform import _uncentered_design
from .variance import VarianceComponents


@dataclass(frozen=True)
class FixedEffects:
    mu: float
    beta: np.ndarray  # (r,)


@dataclass(frozen=True)
class ClusterWeight:
    """Dense W_i with its rank-one-structured inverse."""

    matrix: np.ndarray  # (n_i, n_i)
    _s: np.ndarray
    _sigma2_u: float
    _sigma2_v: float

    def inverse(self) -> np.ndarray:
        d_inv = 1.0 / (self._sigma2_v * self._s**2)
        denom = 1.0 + self._sigma2_u * float(np.sum(d_inv))
        v = d_inv  # D^-1 1
        return np.diag(d_inv) - (self._sigma2_u / denom) * np.outer(v, v)


def cluster_weights(d: Dataset, vc: VarianceComponents) -> list[ClusterWeight]:
    """Materialized W_i per cluster (diagnostic; estimation never builds them)."""
    if vc.sigma2_v <= 0:
        raise SingularWeight("sigma_V^2 must be positive for invertible weights")
    out = []
    for c in d.clusters:
        w = np.full((c.size, c.size), vc.sigma2_u)
        w[np.arange(c.size), np.arange(c.size)] += vc.sigma2_v * c.s**2
        out.append(
            ClusterWeight(matrix=w, _s=c.s, _sigma2_u=vc.sigma2_u, _sigma2_v=vc.sigma2_v)
        )
    return out


def normal_equations(d: Dataset, q_bar, zy, sigma2_u, sigma2_v):
    """Stacked GLS normal matrices (B, r+1, r+1) and right-hand sides (B, r+1).

    Row b uses the rescaled responses q_bar[b] = y / s, the cluster sums
    zy[b] = a_i y_bar_i and the variance components sigma2_u[b],
    sigma2_v[b].
    """
    design = _uncentered_design(d)
    s2u, s2v = sigma2_u[:, None], sigma2_v[:, None]
    lam = s2u / (s2v * (s2v + s2u * _summaries_design(d)["a"]))  # (B, n)
    zmat = design.zmat  # (n, r+1): sum_j s^-2 (1, x')' per cluster
    weighted = np.swapaxes(lam[:, :, None] * zmat, 1, 2)  # (B, r+1, n)
    normal = design.gram / s2v[:, :, None] - weighted @ zmat
    rhs = (q_bar @ design.p_bar_rows) / s2v - (lam * zy) @ zmat
    return normal, rhs


def _positive_definite(normal: np.ndarray) -> np.ndarray:
    """(B,) mask of the stacked matrices that are finite and admit a Cholesky
    factor.  The refit kernel's failure test; tests patch it to inject
    failures."""
    ok = np.isfinite(normal).all(axis=(1, 2))
    try:
        np.linalg.cholesky(normal[ok])
    except np.linalg.LinAlgError:  # rare: find the offending worlds one by one
        for b in np.flatnonzero(ok):
            try:
                np.linalg.cholesky(normal[b])
            except np.linalg.LinAlgError:
                ok[b] = False
    return ok


def solve_normal_equations(normal: np.ndarray, rhs: np.ndarray):
    """(coef (B, r+1), ok (B,)); rows with ok False hold no estimate."""
    ok = _positive_definite(normal)
    safe = np.where(ok[:, None, None], normal, np.eye(normal.shape[-1]))
    return np.linalg.solve(safe, rhs[:, :, None])[:, :, 0], ok


def fit_fixed_effects(d: Dataset, vc: VarianceComponents) -> FixedEffects:
    """Joint GLS solve for (mu, beta) with block weights W_i."""
    if vc.sigma2_v <= 0 or vc.sigma2_u < 0:
        raise SingularWeight(
            f"invalid variance components (sigma2_v={vc.sigma2_v}, "
            f"sigma2_u={vc.sigma2_u})"
        )
    w = 1.0 / d.s**2
    zy = np.add.reduceat(w * d.y, d.starts[:-1])  # a_i * ybar_i
    normal, rhs = normal_equations(
        d, (d.y / d.s)[None], zy[None], np.array([vc.sigma2_u]), np.array([vc.sigma2_v])
    )
    coef, ok = solve_normal_equations(normal, rhs)
    if not ok[0]:
        raise RankDeficient("GLS normal equations are singular")
    return FixedEffects(mu=float(coef[0, 0]), beta=coef[0, 1:])
