"""The refit kernel: the whole estimation chain on a block of worlds, in
two stages.

Every estimate nerboot reports -- the original fit, the truth simulation,
level one, the outer and the inner bootstrap worlds -- comes from the same
two stages on a fixed design ``d``, from the draws (U, V) of mean-free
worlds y_ij = U_i + s_ij V_ij.  Every field of their ``WorldFits`` has a
leading world axis: it is the only fit type, and ``fits.world(b)`` is the
fit of world b alone.  Everything that depends only on the design is
built once in ``d.design`` (``model._Design``).  GLS and the EBLUP are
equivariant (Prasad & Rao, JASA 1990), so ``fit_model`` fits a dataset's
y as the world U = 0, V = r / s of its weighted least-squares residual
r = y - (1, x') b0 and adds b0 back: its sums of squares lose nothing to
the level of y.

1. The N-level stage, ``draw_statistics``, turns each world into its
   sufficient statistics (``Statistics``) without forming y: the cluster
   sums zy = a_i y_bar_i, the coordinates z_u of s^-1 y on the uncentered
   design and the two sums of squares
       SSE2 = sum w y^2 - ||z_u||^2,  SSE1 = sum w (y - y_bar)^2 - ||z_w||^2.
   With w = s^-2, zv the cluster sums of V/s and ``q`` = [Q_u | Q_w],
       zy = a U + zv,           sum w y^2 = sum a U^2 + 2 U.zv + sum V^2,
       z = U @ (cluster sums of q / s) + V @ [Q_u | Q_w],
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
``refit_worlds`` composes the two on the draws of a block of worlds and
adds the fourth moments (``moments``), from one set of per-cluster power
sums of the residuals s V + U_i - mu-hat - x' beta-hat.

A world fails when its GLS normal matrix is not positive-definite or its
EBLUP is not finite.  ``solve`` masks such worlds in ``ok`` and never
raises for them; ``fit_model``, the kernel's fit of the dataset's own
responses as one world, raises RankDeficient when that world fails.

The level engine ``squared_error`` runs the truth simulation, level one
and the inner level: it draws a level's mean-free worlds (U, V) one draw
block at a time, keeps only their ``draw_statistics``, solves each block
directly and sums (theta-hat - theta)^2, theta = U, per run of worlds that
a block may span.  Levels differ only in their draws.  On designs whose
draw block holds at most THREAD_BLOCK_WORLDS worlds, a thread pool of one
thread per usable CPU runs the blocks after the first (``level_threads``,
``_each_block``), and the caller adds their sums in block order, so every
output is that of one thread bit for bit.  ``refit_level`` refits the
outer level and a study's replicate worlds with ``refit_worlds``, block
by block on the calling thread alone: an outer level's first block takes
2.4-3.0 MB on the fit design, too much to split the level's arena.
Every array whose size scales with the block -- the draws, the statistics
rows, the (B, n) arrays of ``solve``, the error rows, the outer level's
residuals and power sums -- comes from a level call's ``Buffers`` and is
reused from block to block; each kernel function makes a fresh set when
it is given none.  Every set follows one rule: arenas of ARENA_BYTES, or
of one slot's bytes where that is more.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import queue
from concurrent.futures import ThreadPoolExecutor
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
# The arena every ``Buffers`` set reserves, a level's, a fit's or a split
# set's overflow alike: a whole draw block refitted with fourth moments takes
# 2.4-3.0 MB on the ragged n = 600 design and 4.01-4.06 MB on the n = 60 and
# n = 100 study designs.  numpy advises MADV_HUGEPAGE on allocations of
# 2**22 bytes or more (alloc.c); under THP mode "madvise" the first touch of
# such an arena faults a whole 2 MB page, even in a level that uses 84 KB.
ARENA_BYTES = 2**22 - 2**16
# The level engine runs its draw blocks on a pool of one thread per usable
# CPU on designs whose draw block holds at most this many worlds
# (N >= 2,048).  There a block's time goes to generator fills and numpy
# loops over (B, N) arrays, which release the GIL; with more, smaller worlds
# per block the per-world Python work holds it.  In the sweep over N in
# BENCH_24.json (desk-scale double bootstrap, 2 CPUs), two threads made it
# 1.47-1.73 times as fast with Student-t laws and 1.06-1.25 times with
# three-point laws from 9 to 32 worlds per block; from 50 to 109 worlds
# three-point runs took 0.83-1.0 times the speed, and from 218 (the n = 100
# and n = 60 study designs) both families 0.66-0.79 times.
THREAD_BLOCK_WORLDS = 32


def block_size(d: Dataset) -> int:
    """Worlds per draw block on this design."""
    return max(1, CHUNK_ELEMENTS // d.total)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def level_threads(d: Dataset, blocks: int) -> int:
    """The threads that run a level's ``blocks`` draw blocks after its
    first: one per usable CPU on designs whose draw block holds at most
    THREAD_BLOCK_WORLDS worlds, and one in a process that multiprocessing
    started, whose pool already fills the CPUs."""
    if block_size(d) > THREAD_BLOCK_WORLDS or multiprocessing.parent_process():
        return 1
    return max(1, min(usable_cpus(), blocks))


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
    across a call that takes it.  A level call makes one set, and one more
    per further pool thread, as does each kernel function called without
    one, so no two threads and no pool workers use a set at once.

    Every key's memory is a slot of an arena; a slot that does not fit
    opens a new arena of max(ARENA_BYTES, the slot's bytes), and every
    earlier slot keeps its memory, so a set touches no more than its slots
    and, below numpy's huge-page threshold, untouched reserve costs no
    memory.  One allocation per level lifts glibc's dynamic mmap and trim
    thresholds above the level's whole working set, so a freed arena stays
    in the heap and the next level call finds its pages mapped.  ``split``
    carves the sets of a level's further pool threads out of its arena.
    """

    def __init__(self):
        self._arena = np.empty(0, np.uint8)
        self._slots = {}  # key -> its memory, a slice of an arena
        self._end = 0  # bytes of the arena in slots
        self._views = {}  # (key, shape, dtype) -> the array handed out

    def split(self, count):
        """``count`` new sets, each with an arena of its own slot of this
        set's arena, as large as the part of it in slots so far and at least
        an equal share of the whole: each set, this one included, keeps the
        same spare room for arrays that later blocks add."""
        size = max(self._end, len(self._arena) // (count + 1)) // 64 * 64
        parts = []
        for k in range(count):
            part = Buffers()
            part._arena = self.take(("split", k), (size // 8,)).view(np.uint8)
            parts.append(part)
        return parts

    def take(self, key, shape, dtype=np.float64):
        view = self._views.get((key, shape, dtype))
        if view is not None:
            return view
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        slot = self._slots.get(key)
        if slot is None or slot.nbytes < nbytes:  # arrays of the old slot keep it
            room = -(-nbytes // 64) * 64
            if self._end + room > len(self._arena):
                self._arena, self._end = np.empty(max(ARENA_BYTES, room), np.uint8), 0
            slot = self._slots[key] = self._arena[self._end : self._end + room]
            self._end += room
        view = slot[:nbytes].view(dtype).reshape(shape)
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


def _sse(ss, z):
    """A weighted sum of squares less ||z||^2, per world, clipped at 0."""
    return np.maximum(ss - np.einsum("bk,bk->b", z, z), 0.0)


def draw_statistics(
    d: Dataset, u: np.ndarray, v: np.ndarray, buffers=None
) -> Statistics:
    """The statistics of the mean-free worlds y_ij = U_i + s_ij V_ij from
    their draws ``u`` (B, n) and ``v`` (B, N), without forming y."""
    buffers = Buffers() if buffers is None else buffers
    design = d.design
    # V/s in "scratch2", where a Student-t law's gamma draws were
    v_s = np.divide(v, d.s, out=buffers.take("scratch2", v.shape))
    zv = np.add.reduceat(  # cluster sums of V/s
        v_s, d.starts[:-1], axis=1, out=buffers.take("scratch", u.shape)
    )
    v2 = np.einsum("bj,bj->b", v, v)
    z = v @ design.q  # the coordinates [z_u | z_w]
    zu, zw = z[:, : design.r_aug], z[:, design.r_aug :]
    zu += u @ design.proj_sums  # Q_w / s sums to 0 over every cluster
    zy = np.multiply(design.a, u, out=buffers.take("zy", u.shape))
    zy += zv
    tmp = np.add(zy, zv, out=buffers.take("scratch2", u.shape))
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
        """The fit of world b alone: every field without the world axis, in
        memory of its own, so it outlives the buffers of its block."""
        return WorldFits(
            **{k: None if v is None else v[b].copy() for k, v in vars(self).items()}
        )


def solve(
    d: Dataset, stats: Statistics, ridge=DEFAULT_RIDGE, buffers=None
) -> WorldFits:
    """The n-level stage: variance components, GLS and EBLUP of every world
    of a block from its ``Statistics``, without fourth moments."""
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
    d: Dataset, u: np.ndarray, v: np.ndarray, ridge=DEFAULT_RIDGE, buffers=None
) -> WorldFits:
    """Fit the mean-free worlds y_ij = U_i + s_ij V_ij from their draws ``u``
    (B, n) and ``v`` (B, N): both stages, and the fourth moments from the
    residuals."""
    buffers = Buffers() if buffers is None else buffers
    fits = solve(d, draw_statistics(d, u, v, buffers), ridge, buffers)
    u_rows = buffers.take("scratch2", u.shape)  # contiguous, for take
    u_rows[...] = u
    resid = np.multiply(v, d.s, out=buffers.take("resid", v.shape))
    scratch = buffers.take("scratch", v.shape)
    resid += np.take(u_rows, d.design.cluster, axis=1, out=scratch, mode="clip")
    resid -= fits.mu[:, None]
    resid -= np.matmul(fits.beta, d.x.T, out=scratch)
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
    mean-free worlds lo to hi - 1, in arrays of the block's ``buffers``.
    ``draw`` may run on several threads at once (``_each_block``), never
    twice at once on one set of buffers.
    """
    per = per or count
    acc = np.zeros((-(-count // per), d.n))
    failed = np.zeros(len(acc), dtype=np.intp)

    def block(lo, hi, buffers):
        theta, v = draw(lo, hi, buffers)
        fits = solve(d, draw_statistics(d, theta, v, buffers), ridge, buffers)
        err = buffers.take("scratch", theta.shape)
        err = np.subtract(fits.theta_hat, theta, out=err)
        err[~fits.ok] = 0.0
        err *= err
        return [
            (
                start // per,
                np.sum(err[start - lo : end - lo], axis=0),
                np.count_nonzero(~fits.ok[start - lo : end - lo]),
            )
            for start, end in runs(lo, hi, per)
        ]

    def add(sums):
        for run, err, fails in sums:
            acc[run] += err
            failed[run] += fails

    _each_block(d, count, block, add)
    return acc, failed


def _each_block(d: Dataset, count: int, block, add) -> None:
    """``add(block(lo, hi, buffers))`` for every draw block of worlds 0 to
    count - 1, in block order.

    The calling thread runs the first block with the level's ``Buffers``,
    which builds ``d.design`` and sizes ``split``.  The others run on that
    set when ``level_threads`` gives one thread, else on a pool of that
    many, each block on a set it borrows for its run.  ``map`` yields the
    results in block order; once a block raises, it cancels the blocks not
    started and raises in the caller after the pool joins every thread.
    """
    blocks = list(draw_blocks(d, count))
    if not blocks:
        return
    buffers = Buffers()  # the level's, shared by its blocks
    add(block(*blocks[0], buffers))
    threads = level_threads(d, len(blocks) - 1)
    if threads == 1:
        for lo, hi in blocks[1:]:
            add(block(lo, hi, buffers))
        return
    free = queue.SimpleQueue()  # a set per pool thread
    for part in [buffers, *buffers.split(threads - 1)]:
        free.put(part)

    def borrowed(bounds):
        part = free.get()
        try:
            return block(*bounds, part)
        finally:
            free.put(part)

    with ThreadPoolExecutor(threads) as pool:
        for result in pool.map(borrowed, blocks[1:]):
            add(result)


def refit_level(d: Dataset, draw, count: int, ridge=DEFAULT_RIDGE):
    """The draws U (B, n) and the ``refit_worlds`` fits, fourth moments
    included, of each draw block of the ``count`` worlds of ``draw``, in
    block order.  They live in the level's ``Buffers``, so a caller copies
    what it keeps before it asks for the next block."""
    buffers = Buffers()  # the level's, shared by its blocks
    for lo, hi in draw_blocks(d, count):
        u, v = draw(lo, hi, buffers)
        yield u, refit_worlds(d, u, v, ridge, buffers)


def fit_model(d: Dataset, ridge=DEFAULT_RIDGE) -> WorldFits:
    """Fit variance components, fixed effects, EBLUPs and fourth moments on
    a dataset: its responses y refit as the world U = 0, V = r / s of their
    weighted least-squares residual r = y - (1, x') b0, shifted back by b0."""
    design = d.design
    # a column slice of the whole q / s: BLAS sums y @ proj over a contiguous
    # (N, r+1) array in another order, which moves the fit's last bits
    proj = design.q / d.s[:, None]
    b0 = np.linalg.solve(design.ru, d.y @ proj[:, : design.r_aug])
    v = (d.y - b0[0] - d.x @ b0[1:]) / d.s
    fit = refit_worlds(d, np.zeros((1, d.n)), v[None, :], ridge)
    if not fit.ok[0]:
        raise RankDeficient(
            "GLS normal equations are singular or the fit is not finite"
        )
    fit, shift = fit.world(0), b0[0] + design.x_under @ b0[1:]
    return dataclasses.replace(
        fit, mu=fit.mu + b0[0], beta=fit.beta + b0[1:], theta_hat=fit.theta_hat + shift
    )
