"""Design-only pieces of the two regressions behind the variance estimates.

The within regression removes the cluster effect by subtracting precision-
weighted cluster means: q_ij = s_ij^-1 (y_ij - y_bar_i) on the covariates
p_ij = s_ij^-1 (x_ij - x_bar_i).  Centering leaves each cluster's residuals
with covariance sigma_V^2 times a projection (the paper's T_i after one
observation per cluster is dropped), so SSE1 -- the generalized residual
sum of squares e' T^-1 e -- equals the ordinary residual sum of squares of
q on p over all N rows.  The uncentered regression rescales the raw model
by s_ij^-1 and augments the design with an intercept column, so its
ordinary residual sum of squares SSE2 obeys E(SSE2) = K sigma_U^2 +
(N - r_aug) sigma_V^2.

Both designs are factored once by QR and memoized on the dataset; a sum of
squares is then ||q||^2 - ||q Q||^2 per response row, which is how the
refit kernel computes SSE1 and SSE2 for a whole block of worlds at once.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveK, RankDeficient
from .model import Dataset, _summaries_design

RANK_RTOL = 1e-10  # relative singular-value threshold for rank checks


def _orthonormal_basis(mat: np.ndarray, message: str) -> np.ndarray:
    """Q of the thin QR of ``mat``; raises RankDeficient below full column rank."""
    q_mat, r_mat = np.linalg.qr(mat)
    svals = np.linalg.svd(r_mat, compute_uv=False)
    if svals[-1] <= RANK_RTOL * svals[0]:
        raise RankDeficient(message)
    return q_mat


class _UncenteredDesign:
    """QR of the intercept-augmented rescaled design, plus K constants."""

    def __init__(self, d: Dataset):
        s_inv = 1.0 / d.s
        x_aug = np.column_stack([np.ones(d.total), d.x])  # (N, r+1)
        p_bar_rows = s_inv[:, None] * x_aug
        self.q_mat = _orthonormal_basis(
            p_bar_rows, "augmented design P-bar is not of full row rank"
        )  # (N, r+1)
        self.p_bar_rows = p_bar_rows
        self.r_aug = d.r + 1

        w = s_inv**2
        self.k1 = float(np.sum(w))
        self.gram = p_bar_rows.T @ p_bar_rows  # sum_ij s^-2 x~ x~'
        self.zmat = np.add.reduceat(w[:, None] * x_aug, d.starts[:-1], axis=0)
        sol = np.linalg.solve(self.gram, self.zmat.T)  # (r+1, n)
        self.k2 = float(np.sum(self.zmat * sol.T))
        self.k = self.k1 - self.k2
        if self.k <= 0:
            raise NonPositiveK(f"K = K1 - K2 = {self.k} is not positive")


def _within_design(d: Dataset) -> np.ndarray:
    """Orthonormal basis (N, r) of the within design s^-1 (x - x_bar_i)."""
    if "within_design" not in d._cache:
        x_bar = _summaries_design(d)["x_bar"]
        p_rows = (d.x - np.repeat(x_bar, d.sizes, axis=0)) / d.s[:, None]
        d._cache["within_design"] = _orthonormal_basis(
            p_rows, "centered design P T^-1 P' has rank below the covariate dimension"
        )
    return d._cache["within_design"]


def _uncentered_design(d: Dataset) -> _UncenteredDesign:
    if "uncentered_design" not in d._cache:
        d._cache["uncentered_design"] = _UncenteredDesign(d)
    return d._cache["uncentered_design"]


def residual_ss(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Residual sum of squares of each row of q (B, N) on orthonormal columns
    ``basis`` (N, k); tiny negative rounding is clamped to 0."""
    z = q @ basis
    return np.maximum(np.sum(q * q, axis=1) - np.sum(z * z, axis=1), 0.0)
