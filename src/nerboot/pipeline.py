"""The refit kernel: the whole estimation chain on a block of worlds.

Every estimate nerboot reports -- the original fit, the truth simulation,
level one, the outer and the inner bootstrap worlds -- comes from
``refit_worlds``: a fixed design ``d`` and a (B, N) block of response rows
in, per-world arrays out.  Fit order: cluster summaries -> within
regression (SSE1, sigma_V^2) -> uncentered regression (SSE2, sigma_U^2) ->
GLS fixed effects -> EBLUP -> (optionally) fourth moments.  On a fixed
design each stage is a few quadratic forms in the responses plus one small
solve per world; everything that depends only on the design is built once
and memoized in ``d._cache``, so bootstrap refits reuse it.

A world fails when its GLS normal matrix is not positive-definite or its
EBLUP is not finite.  The kernel masks such worlds in ``ok`` and never
raises for them; ``fit_model``, the kernel on the dataset's own responses,
raises RankDeficient when that one world fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .gls import FixedEffects, normal_equations, solve_normal_equations
from .model import ClusterSummaries, Dataset, summarize
from .moments import FourthMoments, estimate_gamma_u, estimate_gamma_v
from .predictor import Prediction, predict
from .transform import _uncentered_design, _within_design, residual_ss
from .variance import DEFAULT_RIDGE, VarianceComponents, estimate_variances

# Worlds are drawn and refitted in blocks of max(1, CHUNK_ELEMENTS // N)
# response rows, which bounds the kernel's working memory on large designs.
CHUNK_ELEMENTS = 2**14


def block_size(d: Dataset) -> int:
    """Worlds per refit block on this design."""
    return max(1, CHUNK_ELEMENTS // d.total)


@dataclass(frozen=True)
class WorldFits:
    """Per-world estimates from one refit block; row b is world b."""

    sigma2_u: np.ndarray   # (B,)
    sigma2_v: np.ndarray   # (B,)
    sse1: np.ndarray       # (B,)
    sse2: np.ndarray       # (B,)
    mu: np.ndarray         # (B,)
    beta: np.ndarray       # (B, r)
    theta_hat: np.ndarray  # (B, n)
    rho: np.ndarray        # (B, n)
    naive_mse: np.ndarray  # (B, n)
    ok: np.ndarray         # (B,) False where the refit failed
    gamma_u: np.ndarray | None = None  # (B,), with fourth moments only
    gamma_v: np.ndarray | None = None


def refit_worlds(
    d: Dataset, y: np.ndarray, ridge=DEFAULT_RIDGE, *, with_fourth_moments: bool = False
) -> WorldFits:
    """Fit every response row of ``y`` (B, N) on the design of ``d``."""
    cs = summarize(d, y)
    q = (y - np.repeat(cs.y_bar, d.sizes, axis=1)) / d.s
    sse1 = residual_ss(q, _within_design(d))
    q_bar = y / d.s
    sse2 = residual_ss(q_bar, _uncentered_design(d).q_mat)
    sse1, sigma2_v, sigma2_u = estimate_variances(d, sse1, sse2, ridge)

    normal, rhs = normal_equations(d, q_bar, cs.a * cs.y_bar, sigma2_u, sigma2_v)
    coef, ok = solve_normal_equations(normal, rhs)
    mu, beta = coef[:, 0], coef[:, 1:]
    pred = predict(cs, mu[:, None], beta, sigma2_u[:, None], sigma2_v[:, None])
    ok &= np.isfinite(pred.theta_hat).all(axis=1)

    gamma_u = gamma_v = None
    if with_fourth_moments:
        resid = y - mu[:, None] - beta @ d.x.T
        gamma_v = estimate_gamma_v(d, resid, sigma2_v)
        gamma_u = estimate_gamma_u(d, resid, sigma2_u, sigma2_v, gamma_v)
    return WorldFits(
        sigma2_u=sigma2_u,
        sigma2_v=sigma2_v,
        sse1=sse1,
        sse2=sse2,
        mu=mu,
        beta=beta,
        theta_hat=pred.theta_hat,
        rho=pred.rho,
        naive_mse=pred.naive_mse,
        ok=ok,
        gamma_u=gamma_u,
        gamma_v=gamma_v,
    )


@dataclass(frozen=True)
class ModelFit:
    """Everything estimated from one dataset."""

    dataset: Dataset
    summaries: ClusterSummaries
    variance: VarianceComponents
    fixed_effects: FixedEffects
    prediction: Prediction
    fourth_moments: FourthMoments | None = None

    @property
    def theta_hat(self) -> np.ndarray:
        return self.prediction.theta_hat


def fit_model(
    d: Dataset, ridge=DEFAULT_RIDGE, *, with_fourth_moments: bool = True
) -> ModelFit:
    """Fit variance components, fixed effects and EBLUPs on a dataset."""
    w = refit_worlds(d, d.y[None, :], ridge, with_fourth_moments=with_fourth_moments)
    if not w.ok[0]:
        raise RankDeficient(
            "GLS normal equations are singular or the fit is not finite"
        )
    vc = VarianceComponents(
        sigma2_u=float(w.sigma2_u[0]),
        sigma2_v=float(w.sigma2_v[0]),
        sse1=float(w.sse1[0]),
        sse2=float(w.sse2[0]),
        k_constant=_uncentered_design(d).k,
    )
    fm = (
        FourthMoments(gamma_u=float(w.gamma_u[0]), gamma_v=float(w.gamma_v[0]))
        if with_fourth_moments
        else None
    )
    return ModelFit(
        dataset=d,
        summaries=summarize(d),
        variance=vc,
        fixed_effects=FixedEffects(mu=float(w.mu[0]), beta=w.beta[0]),
        prediction=Prediction(
            theta_hat=w.theta_hat[0], rho=w.rho[0], naive_mse=w.naive_mse[0]
        ),
        fourth_moments=fm,
    )
