"""The refit kernel: the whole estimation chain on a block of worlds.

Every estimate nerboot reports -- the original fit, the truth simulation,
level one, the outer and the inner bootstrap worlds -- comes from
``refit_worlds``: a fixed design ``d`` and a (B, N) block of response rows
in, one ``WorldFits`` out, every field with a leading world axis.  It is
the only fit type: ``fits.world(b)`` is the fit of world b alone.  Each
stage is a few quadratic forms in the responses plus one small solve per
world; everything that depends only on the design is built once in
``d.design`` (``model._Design``).  In order:

1. The weighted cluster means y_bar (``summarize``) and the residual sums
   of squares SSE1 (within regression) and SSE2 (uncentered regression), by
   ``residual_ss``.
2. Method-of-moments variance components (``estimate_variances``):
       sigma_V^2-hat = max(SSE1, B1 n^-B2) / (N - n - r)
       sigma_U^2-hat = max(K^-1 {SSE2 - (N - r_aug) sigma_V^2-hat}, 0)
   The ridge floor B1 n^-B2 (defaults B1 = 1e-6, B2 = 2) keeps sigma_V^2-hat
   positive, hence W_i = sigma_U^2 1 1' + sigma_V^2 diag(s_i^2) invertible.
3. GLS for (mu, beta): the (r+1)-dimensional normal equations with design
   (1, x_ij'), one stacked (B, r+1, r+1) system and one batched solve.
   W_i^-1 is never formed: with D_i = sigma_V^2 diag(s_i^2),
       W_i^-1 = D_i^-1 - lambda_i (s_i^-2)(s_i^-2)',
       lambda_i = sigma_U^2 / (sigma_V^2 (sigma_V^2 + sigma_U^2 a_i)),
   so the equations assemble from design cross-products in O(N r) per world.
4. EBLUP and naive MSE (``predict``):
       theta_i-hat = mu-hat + x_under_i' beta-hat
                     + rho_i-hat (y_bar_i - mu-hat - x_bar_i' beta-hat),
       rho_i-hat   = sigma_U^2 / (sigma_U^2 + a_i^-1 sigma_V^2);
   the naive MSE is the leading term psi_0 = rho_i-hat a_i^-1 sigma_V^2 with
   estimates plugged in, whose underestimation the bootstrap repairs.
5. Optionally, the fourth moments (``moments``).

A world fails when its GLS normal matrix is not positive-definite or its
EBLUP is not finite.  The kernel masks such worlds in ``ok`` and never
raises for them; ``fit_model``, the kernel's ``world(0)`` on the dataset's
own responses, raises RankDeficient when that one world fails.

Every Monte Carlo level -- the truth simulation, level one, the outer and
the inner level -- runs on the level engine ``refit_level``, which draws
and refits a level's worlds one block at a time; ``squared_error`` sums
(theta-hat - theta)^2 on top of it, per run of worlds that a block may
span.  Levels differ only in their draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .model import Dataset, summarize
from .moments import estimate_gamma_u, estimate_gamma_v

DEFAULT_RIDGE = (1e-6, 2.0)  # (B1, B2); B1 > 0, B2 >= 2

# Worlds are drawn and refitted in blocks of max(1, CHUNK_ELEMENTS // N)
# response rows, which bounds the kernel's working memory on large designs.
# 2^14 keeps each (B, N) float64 temporary within glibc's default mmap
# threshold of 128 KiB.  On the n = 60 study design, B = 182 cost 12% more
# per world than B = 91.  On the ragged n = 600 design (N = 4,201) a block
# holds 3 worlds; blocks of 8, 16 and 32 raised a desk-scale fit's peak RSS
# from 44.7 MB to 46.5, 48.6 and 52.2 MB with no resolved time gain (2 cores,
# one BLAS thread).  Do not raise it without a paired benchmark.
CHUNK_ELEMENTS = 2**14


def block_size(d: Dataset) -> int:
    """Worlds per refit block on this design."""
    return max(1, CHUNK_ELEMENTS // d.total)


def residual_ss(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Residual sum of squares of each row of q (B, N) on orthonormal columns
    ``basis`` (N, k); tiny negative rounding is clamped to 0."""
    z = q @ basis
    return np.maximum(np.sum(q * q, axis=1) - np.sum(z * z, axis=1), 0.0)


def ridge_floor(n: int, ridge=DEFAULT_RIDGE) -> float:
    """B1 n^-B2; raises ValueError unless B1 > 0 and B2 >= 2, both finite."""
    b1, b2 = ridge
    if not (0 < b1 < math.inf and 2 <= b2 < math.inf):
        raise ValueError("ridge parameters require finite B1 > 0 and B2 >= 2")
    return b1 * float(n) ** (-b2)


def estimate_variances(d: Dataset, sse1, sse2, ridge=DEFAULT_RIDGE):
    """Per-world (floored SSE1, sigma_V^2-hat, sigma_U^2-hat) from the two
    sums of squares, each an array over worlds."""
    sse1 = np.maximum(sse1, ridge_floor(d.n, ridge))
    sigma2_v = sse1 / (d.total - d.n - d.r)
    design = d.design
    sigma2_u = np.maximum((sse2 - (d.total - design.r_aug) * sigma2_v) / design.k, 0.0)
    return sse1, sigma2_v, sigma2_u


def normal_equations(d: Dataset, q_bar, zy, sigma2_u, sigma2_v):
    """Stacked GLS normal matrices (B, r+1, r+1) and right-hand sides (B, r+1).

    Row b uses the rescaled responses q_bar[b] = y / s, the cluster sums
    zy[b] = a_i y_bar_i and the variance components sigma2_u[b],
    sigma2_v[b].
    """
    design = d.design
    s2u, s2v = sigma2_u[:, None], sigma2_v[:, None]
    lam = s2u / (s2v * (s2v + s2u * design.a))  # (B, n)
    # sum_i lam_i z_i z_i' for every world at once: one (B, n) (n, (r+1)^2)
    # product with the per-cluster outer products of z_i = zmat[i]
    shrunk = (lam @ design.zz).reshape(-1, *design.gram.shape)
    normal = design.gram / s2v[:, :, None] - shrunk
    rhs = (q_bar @ design.p_bar_rows) / s2v - (lam * zy) @ design.zmat
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


def predict(d: Dataset, y_bar, mu, beta, sigma2_u, sigma2_v):
    """(EBLUP, shrinkage factor, naive MSE) per cluster of ``d``.

    Broadcasts over a leading world axis: with mu, sigma2_u and sigma2_v of
    shape (B, 1), beta (B, r) and y_bar (B, n), each is (B, n).
    """
    design = d.design
    within = sigma2_v / design.a  # a_i^-1 sigma_V^2 > 0 under the ridge
    rho = sigma2_u / (sigma2_u + within)
    theta = y_bar - mu - beta @ design.x_bar.T  # the direct gap
    theta *= rho
    theta += mu + beta @ design.x_under.T
    return theta, rho, rho * within  # psi_0 = rho_i a_i^-1 sigma_V^2


@dataclass(frozen=True)
class WorldFits:
    """Every estimate of a refit: each field has a leading world axis of
    length B (row b is world b), which ``world(b)`` drops."""

    sigma2_u: np.ndarray   # (B,) >= 0 by truncation
    sigma2_v: np.ndarray   # (B,) > 0 by the ridge floor
    sse1: np.ndarray       # (B,) floored at the ridge
    sse2: np.ndarray       # (B,)
    mu: np.ndarray         # (B,)
    beta: np.ndarray       # (B, r)
    theta_hat: np.ndarray  # (B, n) EBLUP per cluster
    rho: np.ndarray        # (B, n) shrinkage weights in [0, 1]
    naive_mse: np.ndarray  # (B, n) psi_0 with estimated components
    ok: np.ndarray         # (B,) False where the refit failed
    gamma_u: np.ndarray | None = None  # (B,), with fourth moments only
    gamma_v: np.ndarray | None = None

    def world(self, b: int) -> "WorldFits":
        """The fit of world b alone: every field without the world axis."""
        return WorldFits(
            **{k: None if v is None else v[b] for k, v in vars(self).items()}
        )


def refit_worlds(
    d: Dataset, y: np.ndarray, ridge=DEFAULT_RIDGE, *, with_fourth_moments: bool = False
) -> WorldFits:
    """Fit every response row of ``y`` (B, N) on the design of ``d``."""
    y_bar = summarize(d, y)
    design = d.design
    q = y - y_bar.take(design.cluster, axis=1)
    q /= d.s
    sse1 = residual_ss(q, design.within_basis)
    q_bar = np.divide(y, d.s, out=q)  # q is spent: reuse its buffer
    sse2 = residual_ss(q_bar, design.uncentered_basis)
    sse1, sigma2_v, sigma2_u = estimate_variances(d, sse1, sse2, ridge)

    normal, rhs = normal_equations(d, q_bar, design.a * y_bar, sigma2_u, sigma2_v)
    coef, ok = solve_normal_equations(normal, rhs)
    mu, beta = coef[:, 0], coef[:, 1:]
    theta, rho, naive = predict(
        d, y_bar, mu[:, None], beta, sigma2_u[:, None], sigma2_v[:, None]
    )
    ok &= np.isfinite(theta).all(axis=1)

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
        theta_hat=theta,
        rho=rho,
        naive_mse=naive,
        ok=ok,
        gamma_u=gamma_u,
        gamma_v=gamma_v,
    )


def refit_level(
    d: Dataset, draw, count: int, ridge=DEFAULT_RIDGE, *, with_fourth_moments=False
):
    """The level engine: draw and refit ``count`` worlds, one block of
    ``block_size`` worlds at a time, yielding (lo, theta, fits) per block.

    ``draw(lo, hi)`` returns the response rows (hi - lo, N) and the true
    theta (hi - lo, n) of worlds lo to hi - 1.
    """
    step = block_size(d)
    for lo in range(0, count, step):
        y, theta = draw(lo, min(lo + step, count))
        fits = refit_worlds(d, y, ridge, with_fourth_moments=with_fourth_moments)
        del y  # hold no block while suspended or building the next one
        yield lo, theta, fits
        del theta, fits


def runs(lo: int, hi: int, per: int):
    """(start, end) of the runs [k per, (k + 1) per) cut to [lo, hi)."""
    for start in [lo, *range(lo - lo % per + per, hi, per)]:
        yield start, min(hi, start - start % per + per)


def squared_error(d: Dataset, draw, count: int, ridge=DEFAULT_RIDGE, per=None):
    """Per-cluster sums of (theta-hat - theta)^2 over the worlds of
    ``refit_level`` that refit, and the numbers of worlds that failed, per
    run of ``per`` worlds (``runs``; by default one run of all ``count``):
    arrays (G, n) and (G,), G = ceil(count / per)."""
    per = per or count
    acc = np.zeros((-(-count // per), d.n))
    failed = np.zeros(len(acc), dtype=np.intp)
    for lo, theta, fits in refit_level(d, draw, count, ridge):
        err = np.where(fits.ok[:, None], fits.theta_hat - theta, 0.0)
        err *= err
        for start, end in runs(lo, lo + len(theta), per):
            acc[start // per] += np.sum(err[start - lo : end - lo], axis=0)
            failed[start // per] += np.count_nonzero(~fits.ok[start - lo : end - lo])
        del theta, fits, err  # not held while the next block is refitted
    return acc, failed


def fit_model(d: Dataset, ridge=DEFAULT_RIDGE) -> WorldFits:
    """Fit variance components, fixed effects, EBLUPs and fourth moments on
    a dataset: the kernel's fit of the dataset's own responses, as one world."""
    fit = refit_worlds(d, d.y[None, :], ridge, with_fourth_moments=True)
    if not fit.ok[0]:
        raise RankDeficient(
            "GLS normal equations are singular or the fit is not finite"
        )
    return fit.world(0)
