"""The refit kernel: the whole estimation chain on a block of worlds, in
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
2. The n-level stage, ``solve``, runs once per block of worlds:
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
``refit_worlds`` composes the two on response rows and adds the fourth
moments (``moments``), from one set of per-cluster power sums of the
residuals.

A world fails when its GLS normal matrix is not positive-definite or its
EBLUP is not finite.  ``solve`` masks such worlds in ``ok`` and never
raises for them; ``fit_model``, the kernel's ``world(0)`` on the dataset's
own responses, raises RankDeficient when that one world fails.

The level engine ``squared_error`` runs the truth simulation, level one
and the inner level: it draws a level's mean-free worlds (U, V) one draw
block at a time, keeps only their ``draw_statistics``, solves each block
directly and sums (theta-hat - theta)^2, theta = U, per run of worlds that
a block may span.  Levels differ only in their draws.  The outer level
refits its draw blocks with ``refit_worlds``, since its fourth moments
need each world's residuals.
Every array whose size scales with the block -- the draws, the statistics
rows, the (B, n) arrays of ``solve``, the error rows, the outer level's y
and power sums -- comes from one ``Buffers`` per level call and is reused
from block to block; each kernel function makes a fresh set when it is
given none.
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

# A draw block is max(1, CHUNK_ELEMENTS // N) worlds: 15 on the ragged n = 600
# design (N about 4,200), 364 on the n = 60 study design, and the level engine
# solves each block directly.  A block's (B, N) float64 arrays are then about
# 512 KiB, above glibc's 128 KiB mmap and trim thresholds, so allocated and
# freed once per block each would fault in every 4 KiB page again.  Every
# block-sized array comes from the level's ``Buffers`` instead.  Minor faults
# per call, counted with getrusage after one warm-up call on the perfbench
# inputs (one BLAS thread), against per-block arrays in blocks of 91 and
# batches of 273 worlds: an 8-replicate serial study cell 28 against 14,800;
# its two pool workers 3,400 against 18,000 (an idle two-worker pool costs
# about 1,150); a desk-scale fit call 10 against 2,300-4,900.
CHUNK_ELEMENTS = 2**16
# the arena a level reserves; a level's block-sized arrays take at most about
# 5.5 times CHUNK_ELEMENTS float64 (the outer level on the n = 600 design)
ARENA_BYTES = 8 * CHUNK_ELEMENTS * 8


def block_size(d: Dataset) -> int:
    """Worlds per draw block on this design."""
    return max(1, CHUNK_ELEMENTS // d.total)


def draw_blocks(d: Dataset, count: int):
    """(start, end) of the draw blocks of worlds 0 to count - 1."""
    step = block_size(d)
    for start in range(0, count, step):
        yield start, min(start + step, count)


class Buffers:
    """The arrays of one level call whose size scales with its draw block,
    reused from block to block.

    ``take(key, shape, dtype)`` hands out an array in the key's memory,
    holding whatever was last written there, so its caller writes before
    it reads.  Two arrays live at once need two keys.  Only the keys
    "scratch" and "scratch2" are shared between functions: a function
    takes them for arrays that die before it returns, and holds neither
    across a call that takes it.  Each level call makes its own set, as do
    ``refit_worlds`` and ``fit_model``, so threads and pool workers share
    none.

    Every array is a slice of one arena of at least ``reserve`` bytes,
    which doubles when a block needs more; untouched reserve costs no
    memory.  A level reserves ARENA_BYTES: one allocation per level lifts
    glibc's dynamic mmap and trim thresholds above the level's whole working
    set, so a freed arena stays in the heap and the next level call finds
    its pages mapped.
    """

    def __init__(self, reserve=0):
        self._arena = np.empty(0, np.uint8)
        self._slots = {}  # key -> (offset, bytes) in the arena
        self._end = 0
        self._reserve = reserve
        self._views = {}  # (key, shape, dtype) -> the array handed out

    def take(self, key, shape, dtype=np.float64):
        view = self._views.get((key, shape, dtype))
        if view is not None:
            return view
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        offset, room = self._slots.get(key, (0, -1))
        if room < nbytes:  # a new slot; arrays of the old one keep their memory
            offset, room = self._end, -(-nbytes // 64) * 64
            self._slots[key] = offset, room
            self._end += room
            if self._end > len(self._arena):  # earlier takes keep the old arena
                self._arena = np.empty(max(self._reserve, 2 * self._end), np.uint8)
        view = self._arena[offset : offset + nbytes].view(dtype).reshape(shape)
        self._views[key, shape, dtype] = view
        return view


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


def statistics(d: Dataset, y: np.ndarray, buffers=None) -> Statistics:
    """The statistics of the response rows ``y`` (B, N)."""
    buffers = Buffers() if buffers is None else buffers
    design = d.design
    per_cluster = (len(y), d.n)
    yw = np.multiply(y, design.w, out=buffers.take("scratch", y.shape))
    zy = np.add.reduceat(  # a_i y_bar_i
        yw, d.starts[:-1], axis=1, out=buffers.take("zy", per_cluster)
    )
    wy2 = np.einsum("bj,bj->b", yw, y)
    zu, zw = _split(d, y @ design.proj)
    # (y - y_bar)^2 in yw's buffer; mode "clip" lets take write there unbuffered
    y_bar = np.divide(zy, design.a, out=buffers.take("scratch2", per_cluster))
    centred = np.take(y_bar, design.cluster, axis=1, out=yw, mode="clip")
    centred = np.square(np.subtract(y, centred, out=yw), out=yw)
    return Statistics(zy, zu, _sse(centred @ design.w, zw), _sse(wy2, zu))


def draw_statistics(
    d: Dataset, u: np.ndarray, v: np.ndarray, buffers=None
) -> Statistics:
    """The statistics of the mean-free worlds y_ij = U_i + s_ij V_ij from
    their draws ``u`` (B, n) and ``v`` (B, N), without forming y."""
    buffers = Buffers() if buffers is None else buffers
    design = d.design
    v_s = np.divide(v, d.s, out=buffers.take("scratch", v.shape))
    zv = np.add.reduceat(  # cluster sums of V/s
        v_s, d.starts[:-1], axis=1, out=buffers.take("scratch2", u.shape)
    )
    v2 = np.einsum("bj,bj->b", v, v)
    zu, zw = _split(d, v @ design.q)
    zu += u @ design.proj_sums  # Q_w / s sums to 0 over every cluster
    zy = np.multiply(design.a, u, out=buffers.take("zy", u.shape))
    zy += zv
    tmp = np.add(zy, zv, out=buffers.take("scratch", u.shape))
    wy2 = np.einsum("bi,bi->b", tmp, u) + v2
    tmp = np.divide(zv, design.a, out=tmp)
    ss1 = v2 - np.einsum("bi,bi->b", zv, tmp)
    return Statistics(zy, zu, _sse(ss1, zw), _sse(wy2, zu))


def estimate_variances(d: Dataset, sse1, sse2, ridge=DEFAULT_RIDGE):
    """Per-world (floored SSE1, sigma_V^2-hat, sigma_U^2-hat) from the two
    sums of squares, each an array over worlds."""
    sse1 = np.maximum(sse1, ridge_floor(d.n, ridge))
    sigma2_v = sse1 / (d.total - d.n - d.r)
    design = d.design
    sigma2_u = np.maximum((sse2 - (d.total - design.r_aug) * sigma2_v) / design.k, 0.0)
    return sse1, sigma2_v, sigma2_u


def normal_equations(d: Dataset, xwy, zy, sigma2_u, sigma2_v, buffers=None):
    """Stacked GLS normal matrices (B, r+1, r+1) and right-hand sides (B, r+1).

    Row b uses the weighted cross-products xwy[b] = sum_ij w_ij y_ij
    (1, x_ij'), the cluster sums zy[b] = a_i y_bar_i and the variance
    components sigma2_u[b], sigma2_v[b].
    """
    buffers = Buffers() if buffers is None else buffers
    design = d.design
    s2u, s2v = sigma2_u[:, None], sigma2_v[:, None]
    # lam = s2u / (s2v (s2v + s2u a)), (B, n), in one buffer
    lam = np.multiply(s2u, design.a, out=buffers.take("scratch2", zy.shape))
    lam += s2v
    lam *= s2v
    lam = np.divide(s2u, lam, out=lam)
    # sum_i lam_i z_i z_i' for every world at once: one (B, n) (n, (r+1)^2)
    # product with the per-cluster outer products of z_i = zmat[i]
    shrunk = (lam @ design.zz).reshape(-1, *design.gram.shape)
    normal = design.gram / s2v[:, :, None] - shrunk
    lam_zy = np.multiply(lam, zy, out=buffers.take("scratch", zy.shape))
    rhs = xwy / s2v - lam_zy @ design.zmat
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


def predict(d: Dataset, y_bar, mu, beta, sigma2_u, sigma2_v, buffers=None):
    """(EBLUP, shrinkage factor, naive MSE) per cluster of ``d``.

    Broadcasts over a leading world axis: with mu, sigma2_u and sigma2_v of
    shape (B, 1), beta (B, r) and y_bar (B, n), each is (B, n).
    """
    buffers = Buffers() if buffers is None else buffers
    design = d.design
    shape = np.broadcast_shapes(
        np.shape(y_bar), np.shape(mu), np.shape(sigma2_u), np.shape(sigma2_v),
        design.a.shape,
    )
    # a_i^-1 sigma_V^2 > 0 under the ridge
    within = np.divide(sigma2_v, design.a, out=buffers.take("naive", shape))
    rho = np.add(sigma2_u, within, out=buffers.take("rho", shape))
    rho = np.divide(sigma2_u, rho, out=rho)
    theta = np.subtract(y_bar, mu, out=buffers.take("theta", shape))
    product = buffers.take("scratch", np.shape(beta)[:-1] + design.a.shape)
    theta -= np.matmul(beta, design.x_bar.T, out=product)  # the direct gap
    theta *= rho
    synthetic = np.matmul(beta, design.x_under.T, out=product)
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


def solve(
    d: Dataset, stats: Statistics, ridge=DEFAULT_RIDGE, buffers=None
) -> WorldFits:
    """The n-level stage: variance components, GLS and EBLUP of every world
    of a block from its ``statistics``, without fourth moments."""
    buffers = Buffers() if buffers is None else buffers
    design = d.design
    sse1, sigma2_v, sigma2_u = estimate_variances(d, stats.sse1, stats.sse2, ridge)
    normal, rhs = normal_equations(
        d, stats.zu @ design.ru, stats.zy, sigma2_u, sigma2_v, buffers
    )
    coef, ok = solve_normal_equations(normal, rhs)
    mu, beta = coef[:, 0], coef[:, 1:]
    y_bar = buffers.take("scratch2", stats.zy.shape)
    y_bar = np.divide(stats.zy, design.a, out=y_bar)
    theta, rho, naive = predict(
        d, y_bar, mu[:, None], beta, sigma2_u[:, None], sigma2_v[:, None], buffers
    )
    finite = np.isfinite(theta, out=buffers.take("scratch", theta.shape, bool))
    ok &= finite.all(axis=1)
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
    d: Dataset, y: np.ndarray, ridge=DEFAULT_RIDGE, buffers=None
) -> WorldFits:
    """Fit every response row of ``y`` (B, N) on the design of ``d``: both
    stages, and the fourth moments from the residuals."""
    buffers = Buffers() if buffers is None else buffers
    fits = solve(d, statistics(d, y, buffers), ridge, buffers)
    resid = np.subtract(y, fits.mu[:, None], out=buffers.take("resid", y.shape))
    resid -= np.matmul(fits.beta, d.x.T, out=buffers.take("scratch", y.shape))
    sums = power_sums(d, resid, buffers)
    gamma_v = estimate_gamma_v(d, sums, fits.sigma2_v)
    gamma_u = estimate_gamma_u(d, sums, fits.sigma2_u, fits.sigma2_v, gamma_v)
    return dataclasses.replace(fits, gamma_u=gamma_u, gamma_v=gamma_v)


def runs(lo: int, hi: int, per: int):
    """(start, end) of the runs [k per, (k + 1) per) cut to [lo, hi)."""
    for start in [lo, *range(lo - lo % per + per, hi, per)]:
        yield start, min(hi, start - start % per + per)


def squared_error(d: Dataset, draw, count: int, ridge=DEFAULT_RIDGE, per=None):
    """The level engine: per-cluster sums of (theta-hat - theta)^2 over the
    ``count`` worlds of ``draw`` that refit, and the numbers of worlds that
    failed, per run of ``per`` worlds (``runs``; by default one run of all
    ``count``): arrays (G, n) and (G,), G = ceil(count / per).

    It draws the worlds one draw block at a time and solves each block
    directly from its ``draw_statistics``; ``draw(lo, hi, buffers)``
    returns the draws U (B, n), also the true theta, and V (B, N) of the
    mean-free worlds lo to hi - 1, in arrays of the level's ``buffers``.
    """
    per = per or count
    acc = np.zeros((-(-count // per), d.n))
    failed = np.zeros(len(acc), dtype=np.intp)
    buffers = Buffers(ARENA_BYTES)  # the level's, shared by its blocks
    for lo, hi in draw_blocks(d, count):
        theta, v = draw(lo, hi, buffers)
        fits = solve(d, draw_statistics(d, theta, v, buffers), ridge, buffers)
        err = buffers.take("scratch", theta.shape)
        err = np.subtract(fits.theta_hat, theta, out=err)
        err[~fits.ok] = 0.0
        err *= err
        for start, end in runs(lo, hi, per):
            acc[start // per] += np.sum(err[start - lo : end - lo], axis=0)
            failed[start // per] += np.count_nonzero(~fits.ok[start - lo : end - lo])
    return acc, failed


def fit_model(d: Dataset, ridge=DEFAULT_RIDGE) -> WorldFits:
    """Fit variance components, fixed effects, EBLUPs and fourth moments on
    a dataset: the kernel's fit of the dataset's own responses, as one world."""
    fit = refit_worlds(d, d.y[None, :], ridge)
    if not fit.ok[0]:
        raise RankDeficient(
            "GLS normal equations are singular or the fit is not finite"
        )
    return fit.world(0)
