"""The refit kernel: the whole estimation chain on a batch of worlds, in
two stages.

Every estimate nerboot reports -- the original fit, the truth simulation,
level one, the outer and the inner bootstrap worlds -- comes from the same
two stages on a fixed design ``d``.  Every field of their ``WorldFits``
has a leading world axis: it is the only fit type, and ``fits.world(b)``
is the fit of world b alone.  Everything that depends only on the design
is built once in ``d.design`` (``model._Design``).

1. The N-level stage turns each world into its sufficient statistics
   (``Statistics``): the cluster sums zy = a_i y_bar_i, the coordinates
   z_u of s^-1 y on the uncentered design and the two sums of squares
       SSE2 = sum w y^2 - ||z_u||^2,  SSE1 = sum w (y - y_bar)^2 - ||z_w||^2,
   with both regressions' coordinates z = y @ ``proj`` from one GEMM.
   ``statistics`` reads response rows y.  ``draw_statistics`` reads the
   draws (U, V) of a mean-free world y_ij = U_i + s_ij V_ij and never forms
   y: with w = s^-2, zv the cluster sums of V/s and s ``proj`` = [Q_u | Q_w],
       zy = a U + zv,           sum w y^2 = sum a U^2 + 2 U.zv + sum V^2,
       z = U @ (cluster sums of proj) + V @ [Q_u | Q_w],
       sum w (y - y_bar)^2 = sum V^2 - sum zv^2 / a,
   so U cancels from SSE1 exactly.
2. The n-level stage, ``solve``, runs once per batch of worlds:
   a. Method-of-moments variance components (``estimate_variances``):
          sigma_V^2-hat = max(SSE1, B1 n^-B2) / (N - n - r)
          sigma_U^2-hat = max(K^-1 {SSE2 - (N - r_aug) sigma_V^2-hat}, 0)
      The ridge floor B1 n^-B2 (defaults B1 = 1e-6, B2 = 2) keeps
      sigma_V^2-hat positive, hence W_i = sigma_U^2 1 1' + sigma_V^2
      diag(s_i^2) invertible.
   b. GLS for (mu, beta): the (r+1)-dimensional normal equations with
      design (1, x_ij'), one stacked (B, r+1, r+1) system and one batched
      solve.  W_i^-1 is never formed: with D_i = sigma_V^2 diag(s_i^2),
          W_i^-1 = D_i^-1 - lambda_i (s_i^-2)(s_i^-2)',
          lambda_i = sigma_U^2 / (sigma_V^2 (sigma_V^2 + sigma_U^2 a_i)),
      so the equations assemble from z_u and zy in O(n r^2) per world.
   c. EBLUP and naive MSE (``predict``):
          theta_i-hat = mu-hat + x_under_i' beta-hat
                        + rho_i-hat (y_bar_i - mu-hat - x_bar_i' beta-hat),
          rho_i-hat   = sigma_U^2 / (sigma_U^2 + a_i^-1 sigma_V^2);
      the naive MSE is the leading term psi_0 = rho_i-hat a_i^-1
      sigma_V^2 with estimates plugged in, whose underestimation the
      bootstrap repairs.
``refit_worlds`` composes the two on response rows and optionally adds the
fourth moments (``moments``), from one set of per-cluster power sums of
the residuals.

A world fails when its GLS normal matrix is not positive-definite or its
EBLUP is not finite.  ``solve`` masks such worlds in ``ok`` and never
raises for them; ``fit_model``, the kernel's ``world(0)`` on the dataset's
own responses, raises RankDeficient when that one world fails.

The level engine ``refit_level`` runs the truth simulation, level one and
the inner level: it draws a level's worlds one draw block at a time, keeps
only their statistics and solves them one batch at a time;
``squared_error`` sums (theta-hat - theta)^2 on top of it, per run of
worlds that a batch may span.  Levels differ only in their draws.  The
outer level refits its draw blocks with ``refit_worlds``, since its fourth
moments need each world's residuals.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import RankDeficient
from .model import Dataset
from .moments import estimate_gamma_u, estimate_gamma_v, power_sums

DEFAULT_RIDGE = (1e-6, 2.0)  # (B1, B2); B1 > 0, B2 >= 2

# Worlds are drawn in blocks of max(1, CHUNK_ELEMENTS // N) worlds: 3 on the
# ragged n = 600 design (N about 4,200), 91 on the n = 60 study design.
# Larger draw blocks cost page faults and memory: in repeated desk-scale
# reports on the n = 600 design (one BLAS thread), blocks of 12 and 24 worlds
# raised the minor page faults from 14,800 to 21,000 and 26,000 per report,
# and blocks of 12, 16 and 24 raised peak RSS by 1.6, 2.7 and 4.4 MB.  The
# statistics of the draw blocks fill a batch of up to CHUNK_ELEMENTS // n
# worlds, rounded down to whole draw blocks (27 and 273 on those designs), and
# ``solve`` runs once per batch.  Do not raise it without a paired benchmark.
CHUNK_ELEMENTS = 2**14


def block_size(d: Dataset) -> int:
    """Worlds per draw block on this design."""
    return max(1, CHUNK_ELEMENTS // d.total)


def batch_size(d: Dataset) -> int:
    """Worlds per ``solve`` of the level engine: whole draw blocks, as many
    as fit in CHUNK_ELEMENTS // n worlds, and at least one."""
    step = block_size(d)
    return max(step, CHUNK_ELEMENTS // d.n // step * step)


def draw_blocks(d: Dataset, lo: int, hi: int):
    """(start, end) of the draw blocks of worlds lo to hi - 1."""
    step = block_size(d)
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)


def ridge_floor(n: int, ridge=DEFAULT_RIDGE) -> float:
    """B1 n^-B2; raises ValueError unless B1 > 0 and B2 >= 2, both finite."""
    b1, b2 = ridge
    if not (0 < b1 < math.inf and 2 <= b2 < math.inf):
        raise ValueError("ridge parameters require finite B1 > 0 and B2 >= 2")
    return b1 * float(n) ** (-b2)


class Statistics(NamedTuple):
    """The sufficient statistics of a block of worlds, each with a leading
    world axis: all that ``solve`` reads of a world."""

    zy: np.ndarray    # (B, n) cluster sums a_i y_bar_i
    zu: np.ndarray    # (B, r+1) coordinates on the uncentered design
    sse1: np.ndarray  # (B,) >= 0
    sse2: np.ndarray  # (B,) >= 0


def _split(d: Dataset, z):
    """The coordinates (z_u, z_w) of a projection product z (B, 2r+1)."""
    return z[:, : d.design.r_aug], z[:, d.design.r_aug :]


def _sse(ss, z):
    """A weighted sum of squares less ||z||^2, per world, clipped at 0."""
    return np.maximum(ss - np.einsum("bk,bk->b", z, z), 0.0)


def statistics(d: Dataset, y: np.ndarray) -> Statistics:
    """The statistics of the response rows ``y`` (B, N)."""
    design = d.design
    yw = y * design.w  # the block's one (B, N) temporary
    zy = np.add.reduceat(yw, d.starts[:-1], axis=1)  # a_i y_bar_i
    wy2 = np.einsum("bj,bj->b", yw, y)
    zu, zw = _split(d, y @ design.proj)
    # (y - y_bar)^2 in yw's buffer; mode "clip" lets take write there unbuffered
    centred = np.take(zy / design.a, design.cluster, axis=1, out=yw, mode="clip")
    centred = np.square(np.subtract(y, centred, out=yw), out=yw)
    return Statistics(zy, zu, _sse(centred @ design.w, zw), _sse(wy2, zu))


def draw_statistics(d: Dataset, u: np.ndarray, v: np.ndarray) -> Statistics:
    """The statistics of the mean-free worlds y_ij = U_i + s_ij V_ij from
    their draws ``u`` (B, n) and ``v`` (B, N), without forming y."""
    design = d.design
    zv = np.add.reduceat(v / d.s, d.starts[:-1], axis=1)  # cluster sums of V/s
    v2 = np.einsum("bj,bj->b", v, v)
    zu, zw = _split(d, v @ design.q)
    zu += u @ design.proj_sums  # Q_w / s sums to 0 over every cluster
    zy = design.a * u
    zy += zv
    wy2 = np.einsum("bi,bi->b", zy + zv, u) + v2
    ss1 = v2 - np.einsum("bi,bi->b", zv, zv / design.a)
    return Statistics(zy, zu, _sse(ss1, zw), _sse(wy2, zu))


def estimate_variances(d: Dataset, sse1, sse2, ridge=DEFAULT_RIDGE):
    """Per-world (floored SSE1, sigma_V^2-hat, sigma_U^2-hat) from the two
    sums of squares, each an array over worlds."""
    sse1 = np.maximum(sse1, ridge_floor(d.n, ridge))
    sigma2_v = sse1 / (d.total - d.n - d.r)
    design = d.design
    sigma2_u = np.maximum((sse2 - (d.total - design.r_aug) * sigma2_v) / design.k, 0.0)
    return sse1, sigma2_v, sigma2_u


def normal_equations(d: Dataset, xwy, zy, sigma2_u, sigma2_v):
    """Stacked GLS normal matrices (B, r+1, r+1) and right-hand sides (B, r+1).

    Row b uses the weighted cross-products xwy[b] = sum_ij w_ij y_ij
    (1, x_ij'), the cluster sums zy[b] = a_i y_bar_i and the variance
    components sigma2_u[b], sigma2_v[b].
    """
    design = d.design
    s2u, s2v = sigma2_u[:, None], sigma2_v[:, None]
    # lam = s2u / (s2v (s2v + s2u a)), (B, n), in one buffer
    lam = s2u * design.a
    lam += s2v
    lam *= s2v
    lam = np.divide(s2u, lam, out=lam)
    # sum_i lam_i z_i z_i' for every world at once: one (B, n) (n, (r+1)^2)
    # product with the per-cluster outer products of z_i = zmat[i]
    shrunk = (lam @ design.zz).reshape(-1, *design.gram.shape)
    normal = design.gram / s2v[:, :, None] - shrunk
    rhs = xwy / s2v - (lam * zy) @ design.zmat
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
    rho = sigma2_u + within
    rho = np.divide(sigma2_u, rho, out=rho)
    theta = y_bar - mu
    theta -= beta @ design.x_bar.T  # the direct gap
    theta *= rho
    synthetic = beta @ design.x_under.T
    synthetic += mu
    theta += synthetic
    within *= rho  # psi_0 = rho_i a_i^-1 sigma_V^2
    return theta, rho, within


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


def solve(d: Dataset, stats: Statistics, ridge=DEFAULT_RIDGE) -> WorldFits:
    """The n-level stage: variance components, GLS and EBLUP of every world
    of a batch from its ``statistics``, without fourth moments."""
    design = d.design
    sse1, sigma2_v, sigma2_u = estimate_variances(d, stats.sse1, stats.sse2, ridge)
    normal, rhs = normal_equations(
        d, stats.zu @ design.ru, stats.zy, sigma2_u, sigma2_v
    )
    coef, ok = solve_normal_equations(normal, rhs)
    mu, beta = coef[:, 0], coef[:, 1:]
    theta, rho, naive = predict(
        d, stats.zy / design.a, mu[:, None], beta, sigma2_u[:, None], sigma2_v[:, None]
    )
    ok &= np.isfinite(theta).all(axis=1)
    return WorldFits(
        sigma2_u=sigma2_u,
        sigma2_v=sigma2_v,
        sse1=sse1,
        sse2=stats.sse2,
        mu=mu,
        beta=beta,
        theta_hat=theta,
        rho=rho,
        naive_mse=naive,
        ok=ok,
    )


def refit_worlds(
    d: Dataset, y: np.ndarray, ridge=DEFAULT_RIDGE, *, with_fourth_moments: bool = False
) -> WorldFits:
    """Fit every response row of ``y`` (B, N) on the design of ``d``: both
    stages, and the fourth moments from the residuals if asked."""
    fits = solve(d, statistics(d, y), ridge)
    if not with_fourth_moments:
        return fits
    sums = power_sums(d, y - fits.mu[:, None] - fits.beta @ d.x.T)
    gamma_v = estimate_gamma_v(d, sums, fits.sigma2_v)
    gamma_u = estimate_gamma_u(d, sums, fits.sigma2_u, fits.sigma2_v, gamma_v)
    return dataclasses.replace(fits, gamma_u=gamma_u, gamma_v=gamma_v)


def refit_level(d: Dataset, draw, count: int, ridge=DEFAULT_RIDGE):
    """The level engine: draw ``count`` worlds one draw block at a time and
    solve their statistics one ``batch_size`` batch at a time, yielding
    (lo, theta, fits) per batch.

    ``draw(lo, hi)`` returns the worlds lo to hi - 1 as a list of
    (``Statistics``, true theta (B, n)) parts, in world order.
    """
    per_batch = batch_size(d)
    for lo in range(0, count, per_batch):
        blocks = draw_blocks(d, lo, min(lo + per_batch, count))
        stats, theta = zip(*[part for block in blocks for part in draw(*block)])
        fits = solve(d, Statistics(*map(np.concatenate, zip(*stats))), ridge)
        theta = np.concatenate(theta)
        del stats  # hold no block while suspended or building the next batch
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
        del theta, fits, err  # not held while the next batch is drawn
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
