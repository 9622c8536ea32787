"""Empirical BLUP of the cluster means and the naive leading-term MSE.

The predictor shrinks the direct cluster estimate toward the synthetic
regression part:

    theta_i-hat = mu-hat + x_under_i' beta-hat
                  + rho_i-hat (y_bar_i - mu-hat - x_bar_i' beta-hat),
    rho_i-hat   = sigma_U^2 / (sigma_U^2 + a_i^-1 sigma_V^2),

and the naive MSE is the leading term psi_0 = sigma_U^2 a_i^-1 sigma_V^2 /
(sigma_U^2 + a_i^-1 sigma_V^2) with estimates plugged in -- the quantity
whose systematic underestimation the bootstrap corrections repair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gls import FixedEffects
from .model import ClusterSummaries, Dataset
from .variance import VarianceComponents


@dataclass(frozen=True)
class Prediction:
    theta_hat: np.ndarray  # (n,) EBLUP per cluster
    rho: np.ndarray        # (n,) shrinkage weights in [0, 1]
    naive_mse: np.ndarray  # (n,) psi_0 with estimated components


def naive_mse(vc: VarianceComponents, a_i: float) -> float:
    """psi_0(sigma_U^2, sigma_V^2) for one cluster; 0 iff sigma_U^2 = 0."""
    if a_i <= 0:
        raise ValueError("a_i must be positive")
    if vc.sigma2_u == 0.0:
        return 0.0
    within = vc.sigma2_v / a_i
    return vc.sigma2_u * within / (vc.sigma2_u + within)


def predict(cs: ClusterSummaries, mu, beta, sigma2_u, sigma2_v) -> Prediction:
    """EBLUP, shrinkage factor and naive MSE per cluster.

    Broadcasts over a leading world axis: with mu, sigma2_u and sigma2_v of
    shape (B, 1), beta (B, r) and cs.y_bar (B, n), every field is (B, n).
    """
    within = sigma2_v / cs.a  # a_i^-1 sigma_V^2 > 0 under the ridge
    rho = sigma2_u / (sigma2_u + within)
    synthetic = mu + beta @ cs.x_under.T
    direct_gap = cs.y_bar - mu - beta @ cs.x_bar.T
    theta = synthetic + rho * direct_gap
    naive = sigma2_u * within / (sigma2_u + within)
    return Prediction(theta_hat=theta, rho=rho, naive_mse=naive)


def eblup(
    d: Dataset, cs: ClusterSummaries, fe: FixedEffects, vc: VarianceComponents
) -> Prediction:
    """Per-cluster EBLUP, shrinkage factor and naive MSE."""
    return predict(cs, fe.mu, fe.beta, vc.sigma2_u, vc.sigma2_v)
