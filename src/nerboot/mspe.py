"""Bootstrap estimation of mean-squared prediction error, with bias
correction by the double bootstrap.

Level one draws cluster effects and noise from matched distributions built
on the fitted second and fourth moments, rebuilds responses on the original
design, refits the whole pipeline and averages squared prediction errors:
that Monte Carlo average u-hat estimates MSE_i with an O(n^-1) bias.  Level
two repeats the construction around each level-one fit (re-estimating the
fourth moments there too) to estimate that bias as v-hat - u-hat.  Besides
the plain correction 2 u-hat - v-hat, a positivity-preserving version is
provided:

    u + g(n (u - v))/n            if u >= v,
    u^2 / [u + g(n (v - u))/n]    if u < v,

with g a bounded odd function (arctan by default, or a clip at n * c).
Both branches agree at u = v and are strictly positive for u > 0.

Every bootstrap world gets its own random substream keyed by
(master_seed, level code, replicate index), with the level code always in
second position, so results are reproducible and independent of execution
order.  Each world draws U and then V from its own substream; the worlds of
a level are then refitted together, in blocks of ``pipeline.block_size``
response rows, by the one refit kernel ``pipeline.refit_worlds``.  The
block size depends only on the design.  Worlds whose refit fails
numerically are masked, skipped and counted; more than 1% failures at any
level aborts the run, since under the ridge safeguard failures signal a
pathological input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import streams
from .errors import DivisionGuard, TooManyFailures
from .gls import FixedEffects
from .mmdist import THREE_POINT, MatchedDistribution, make_distribution, sample
from .model import Dataset, _summaries_design
from .moments import FourthMoments
from .pipeline import ModelFit, block_size, fit_model, refit_worlds
from .variance import DEFAULT_RIDGE, VarianceComponents

FAILURE_TOLERANCE = 0.01  # max tolerated share of failed replicates per level

G_ARCTAN = "arctan"
G_CLIPPED = "clipped"


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate counts, matching family, g choice and master seed.

    Defaults are production scale; ``desk_scale`` gives the cheaper sizes
    used by the acceptance study.
    """

    b1: int = 400            # level-one worlds behind u-hat
    b2: int = 200            # outer worlds of the double bootstrap
    c: int = 100             # inner worlds per outer world
    family: str = THREE_POINT
    g_kind: str = G_ARCTAN
    c_clip: float = 1.0
    master_seed: int = 0
    ridge: tuple = DEFAULT_RIDGE

    def __post_init__(self):
        if min(self.b1, self.b2, self.c) < 1:
            raise ValueError("replicate counts b1, b2, c must all be >= 1")
        if self.g_kind not in (G_ARCTAN, G_CLIPPED):
            raise ValueError(f"g_kind must be '{G_ARCTAN}' or '{G_CLIPPED}'")
        if self.g_kind == G_CLIPPED and self.c_clip <= 0:
            raise ValueError("c_clip must be positive for the clipped g")
        if not 0 <= self.master_seed <= streams.MAX_SEED:
            raise ValueError("master_seed must fit in 64 bits")

    @classmethod
    def desk_scale(cls, master_seed: int = 0, **kw) -> "BootstrapConfig":
        kw.setdefault("b1", 100)
        kw.setdefault("b2", 50)
        kw.setdefault("c", 50)
        return cls(master_seed=master_seed, **kw)


@dataclass(frozen=True)
class DoubleBootstrapResult:
    mse_boot: np.ndarray          # u-hat, per cluster
    mse_double: np.ndarray        # v-hat, per cluster
    bias: np.ndarray              # v-hat - u-hat
    corrected_simple: np.ndarray  # 2 u-hat - v-hat
    corrected_robust: np.ndarray  # positivity-preserving correction
    failures: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MspeReport:
    """Per-cluster MSPE estimates plus the global fit behind them."""

    cluster_ids: tuple
    sizes: np.ndarray
    eblup: np.ndarray
    rho: np.ndarray
    naive: np.ndarray
    mse_boot: np.ndarray
    mse_double: np.ndarray
    bias_boot: np.ndarray
    mse_bc_simple: np.ndarray
    mse_bc_robust: np.ndarray
    mu: float
    beta: np.ndarray
    sigma2_u: float
    sigma2_v: float
    gamma_u: float
    gamma_v: float
    failures: dict


# ---------------------------------------------------------------------------
# robust correction algebra
# ---------------------------------------------------------------------------

def robust_correction(
    u_hat, v_hat, n_clusters: int, g_kind: str = G_ARCTAN, c_clip: float = 1.0
):
    """Positivity-preserving bias correction, vectorized over clusters."""
    u = np.asarray(u_hat, dtype=np.float64)
    v = np.asarray(v_hat, dtype=np.float64)
    n = float(n_clusters)
    gap = n * np.abs(u - v)
    if g_kind == G_ARCTAN:
        g_val = np.arctan(gap)
    elif g_kind == G_CLIPPED:
        g_val = np.minimum(gap, n * c_clip)
    else:
        raise ValueError(f"unknown g_kind {g_kind!r}")
    adjusted = u + g_val / n  # upper-branch value; lower-branch denominator
    lower = u < v
    if np.any(lower & (adjusted <= 0)):
        raise DivisionGuard("robust correction denominator is not positive")
    ratio = np.divide(u**2, adjusted, out=np.zeros_like(u), where=adjusted > 0)
    out = np.where(lower, ratio, adjusted)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# world generation
# ---------------------------------------------------------------------------

def _draw_worlds(
    d: Dataset,
    fe: FixedEffects,
    u_dist: MatchedDistribution,
    v_dist: MatchedDistribution,
    rngs: list,
):
    """Synthetic response rows (B, N) on the same design and the true theta
    (B, n); world b draws U before V from its own generator ``rngs[b]``."""
    u_star = np.empty((len(rngs), d.n))
    v_star = np.empty((len(rngs), d.total))
    for b, rng in enumerate(rngs):
        u_star[b] = sample(u_dist, rng, d.n)
        v_star[b] = sample(v_dist, rng, d.total)
    y_star = fe.mu + d.x @ fe.beta + np.repeat(u_star, d.sizes, axis=1) + d.s * v_star
    theta_star = fe.mu + _summaries_design(d)["x_under"] @ fe.beta + u_star
    return y_star, theta_star


def _draw_world(
    d: Dataset,
    fe: FixedEffects,
    u_dist: MatchedDistribution,
    v_dist: MatchedDistribution,
    rng: np.random.Generator,
):
    """One synthetic world on the same design: (dataset, true theta*)."""
    y_star, theta_star = _draw_worlds(d, fe, u_dist, v_dist, [rng])
    return d.with_responses(y_star[0]), theta_star[0]


def _matched(sigma2_u, gamma_u, sigma2_v, gamma_v, family: str):
    """Matched laws of the cluster effect and the noise, U first."""
    return (
        make_distribution(float(sigma2_u), float(gamma_u), family),
        make_distribution(float(sigma2_v), float(gamma_v), family),
    )


def bootstrap_world(
    d: Dataset,
    fe: FixedEffects,
    vc: VarianceComponents,
    fm: FourthMoments,
    rng: np.random.Generator,
    family: str = THREE_POINT,
):
    """One synthetic world around a fit: (synthetic dataset, true theta*)."""
    u_dist, v_dist = _matched(vc.sigma2_u, fm.gamma_u, vc.sigma2_v, fm.gamma_v, family)
    return _draw_world(d, fe, u_dist, v_dist, rng)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def _check_failures(failed: int, attempted: int, level: str) -> None:
    if attempted and failed / attempted > FAILURE_TOLERANCE:
        raise TooManyFailures(
            f"{failed}/{attempted} {level} bootstrap replicates failed to refit"
        )


def _blocks(d: Dataset, keys: list):
    step = block_size(d)
    return (keys[lo : lo + step] for lo in range(0, len(keys), step))


def _mean_squared_error(d, fe, u_dist, v_dist, ridge, keys: list):
    """Per-cluster mean of (theta-hat - theta)^2 over the keyed worlds that
    refit (None if none did), and the number that failed.  ``keys`` are
    full ``streams.substream`` arguments, one per world."""
    acc = np.zeros(d.n)
    failed = 0
    for block in _blocks(d, keys):
        rngs = [streams.substream(*key) for key in block]
        y_star, theta_star = _draw_worlds(d, fe, u_dist, v_dist, rngs)
        fits = refit_worlds(d, y_star, ridge)
        acc += np.sum((fits.theta_hat[fits.ok] - theta_star[fits.ok]) ** 2, axis=0)
        failed += int(np.count_nonzero(~fits.ok))
    done = len(keys) - failed
    return (acc / done if done else None), failed


def _fit_laws(fit: ModelFit, family: str):
    if fit.fourth_moments is None:
        raise ValueError("the bootstrap needs a fit with fourth moments")
    vc, fm = fit.variance, fit.fourth_moments
    return _matched(vc.sigma2_u, fm.gamma_u, vc.sigma2_v, fm.gamma_v, family)


def mse_single(
    d: Dataset, fit: ModelFit, cfg: BootstrapConfig, key_prefix: tuple = ()
) -> tuple[np.ndarray, int]:
    """Level-one bootstrap estimate u-hat of MSE_i; returns (u_hat, failures)."""
    u_dist, v_dist = _fit_laws(fit, cfg.family)
    keys = [(cfg.master_seed, streams.SINGLE, *key_prefix, b) for b in range(cfg.b1)]
    u_hat, failed = _mean_squared_error(
        d, fit.fixed_effects, u_dist, v_dist, cfg.ridge, keys
    )
    _check_failures(failed, cfg.b1, "level-one")
    if u_hat is None:
        raise TooManyFailures("every level-one bootstrap replicate failed")
    return u_hat, failed


def mse_double(
    d: Dataset, fit: ModelFit, cfg: BootstrapConfig, key_prefix: tuple = ()
) -> DoubleBootstrapResult:
    """u-hat, v-hat and the bias-corrected estimators.

    u-hat uses its own ``b1`` level-one replicates, independent of the
    ``b2`` outer worlds.  Each outer world is refitted in full (fourth
    moments included); its ``c`` inner worlds only need the refitted
    predictor.
    """
    u_hat, fail1 = mse_single(d, fit, cfg, key_prefix)
    u_dist, v_dist = _fit_laws(fit, cfg.family)

    vacc = np.zeros(d.n)
    outer_done = outer_failed = 0
    inner_attempted = inner_failed = 0
    outer = [(cfg.master_seed, streams.OUTER, *key_prefix, b) for b in range(cfg.b2)]
    for block in _blocks(d, outer):
        rngs = [streams.substream(*key) for key in block]
        y_star, _ = _draw_worlds(d, fit.fixed_effects, u_dist, v_dist, rngs)
        fits = refit_worlds(d, y_star, cfg.ridge, with_fourth_moments=True)
        for k, key in enumerate(block):
            if not fits.ok[k]:
                outer_failed += 1
                continue
            laws = _matched(
                fits.sigma2_u[k], fits.gamma_u[k], fits.sigma2_v[k], fits.gamma_v[k],
                cfg.family,
            )
            fe_star = FixedEffects(mu=float(fits.mu[k]), beta=fits.beta[k])
            inner = [
                (cfg.master_seed, streams.INNER, *key[2:], el) for el in range(cfg.c)
            ]
            v_b, failed = _mean_squared_error(d, fe_star, *laws, cfg.ridge, inner)
            inner_attempted += cfg.c
            inner_failed += failed
            if v_b is None:
                outer_failed += 1
                continue
            vacc += v_b
            outer_done += 1
    _check_failures(outer_failed, cfg.b2, "outer")
    _check_failures(inner_failed, inner_attempted, "inner")
    if outer_done == 0:
        raise TooManyFailures("every outer bootstrap replicate failed")

    v_hat = vacc / outer_done
    return DoubleBootstrapResult(
        mse_boot=u_hat,
        mse_double=v_hat,
        bias=v_hat - u_hat,
        corrected_simple=2.0 * u_hat - v_hat,
        corrected_robust=robust_correction(u_hat, v_hat, d.n, cfg.g_kind, cfg.c_clip),
        failures={
            "single": fail1,
            "outer": outer_failed,
            "inner": inner_failed,
        },
    )


def mspe_report(d: Dataset, cfg: BootstrapConfig) -> MspeReport:
    """Fit a dataset and assemble the full per-cluster MSPE report."""
    fit = fit_model(d, cfg.ridge, with_fourth_moments=True)
    res = mse_double(d, fit, cfg)
    return MspeReport(
        cluster_ids=d.cluster_ids,
        sizes=d.sizes,
        eblup=fit.prediction.theta_hat,
        rho=fit.prediction.rho,
        naive=fit.prediction.naive_mse,
        mse_boot=res.mse_boot,
        mse_double=res.mse_double,
        bias_boot=res.bias,
        mse_bc_simple=res.corrected_simple,
        mse_bc_robust=res.corrected_robust,
        mu=fit.fixed_effects.mu,
        beta=fit.fixed_effects.beta,
        sigma2_u=fit.variance.sigma2_u,
        sigma2_v=fit.variance.sigma2_v,
        gamma_u=fit.fourth_moments.gamma_u,
        gamma_v=fit.fourth_moments.gamma_v,
        failures=res.failures,
    )
