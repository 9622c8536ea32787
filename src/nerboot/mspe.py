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
order.  The PCG64 states of many worlds are derived in one
``streams.substream_states`` call -- all b1 level-one worlds, all b2 outer
worlds, and per refit block of outer worlds all their inner worlds,
ordered (b, l), which bounds the states held at once by the block size
times c.  Each world then reseeds one generator and draws U and then V
(``mmdist.sample_worlds``), bit for bit what its own ``streams.substream``
would give.

Every level runs on the level engine of ``pipeline``: the outer level
reads the block fits of ``refit_level``, while level one and each inner
level take ``squared_error``.  Worlds whose refit fails numerically are
masked, skipped and counted; more than 1% failures at any level aborts the
run, since under the ridge safeguard failures signal a pathological input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import streams
from .errors import DivisionGuard, TooManyFailures
from .mmdist import THREE_POINT, make_distribution, sample_worlds
from .model import Dataset
from .pipeline import (
    DEFAULT_RIDGE,
    FixedEffects,
    ModelFit,
    fit_model,
    refit_level,
    ridge_floor,
    squared_error,
)

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
        ridge_floor(2, self.ridge)  # raises ValueError for an invalid ridge

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

def _responses(d: Dataset, fe: FixedEffects, u_star, v_star):
    """Responses and true theta of worlds with cluster effects ``u_star``
    (..., n) and noise ``v_star`` (..., N): one world or a (B, .) block."""
    y_star = fe.mu + d.x @ fe.beta + np.repeat(u_star, d.sizes, axis=-1) + d.s * v_star
    theta_star = fe.mu + d.design.x_under @ fe.beta + u_star
    return y_star, theta_star


def _draw_worlds(d: Dataset, fe: FixedEffects, laws: tuple, states: list):
    """Synthetic response rows (B, N) on the same design and the true theta
    (B, n); world b draws U before V, from the matched ``laws`` (U, V), with
    the PCG64 state ``states[b]``."""
    u_star, v_star = sample_worlds(*laws, states, d.n, d.total)
    return _responses(d, fe, u_star, v_star)


def _keyed_draw(d: Dataset, fe: FixedEffects, laws: tuple, states: list):
    """The level engine's ``draw(lo, hi)`` for the worlds keyed by ``states``."""
    return lambda lo, hi: _draw_worlds(d, fe, laws, states[lo:hi])


def _matched(sigma2_u, gamma_u, sigma2_v, gamma_v, family: str):
    """Matched laws of the cluster effect and the noise, U first."""
    return (
        make_distribution(float(sigma2_u), float(gamma_u), family),
        make_distribution(float(sigma2_v), float(gamma_v), family),
    )


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------

def _check_failures(failed: int, attempted: int, level: str) -> None:
    if failed / attempted > FAILURE_TOLERANCE:
        raise TooManyFailures(
            f"{failed}/{attempted} {level} bootstrap replicates failed to refit"
        )


def _level_states(cfg: BootstrapConfig, level: int, key_prefix: tuple, *axes):
    """PCG64 states of the worlds keyed (level, *key_prefix, *index), one
    per index in the product of the ranges ``axes``, in row-major order."""
    grid = np.meshgrid(*[np.asarray(axis) for axis in axes], indexing="ij")
    index = np.stack(grid, axis=-1).reshape(-1, len(axes))
    return streams.substream_states(cfg.master_seed, level, *key_prefix, tails=index)


def _fit_laws(fit: ModelFit, family: str):
    if fit.fourth_moments is None:
        raise ValueError("the bootstrap needs a fit with fourth moments")
    vc, fm = fit.variance, fit.fourth_moments
    return _matched(vc.sigma2_u, fm.gamma_u, vc.sigma2_v, fm.gamma_v, family)


def mse_single(
    d: Dataset, fit: ModelFit, cfg: BootstrapConfig, key_prefix: tuple = ()
) -> tuple[np.ndarray, int]:
    """Level-one bootstrap estimate u-hat of MSE_i; returns (u_hat, failures)."""
    states = _level_states(cfg, streams.SINGLE, key_prefix, range(cfg.b1))
    draw = _keyed_draw(d, fit.fixed_effects, _fit_laws(fit, cfg.family), states)
    acc, failed = squared_error(d, draw, cfg.b1, cfg.ridge)
    _check_failures(failed, cfg.b1, "level-one")
    return acc / (cfg.b1 - failed), failed


def mse_double(
    d: Dataset, fit: ModelFit, cfg: BootstrapConfig, key_prefix: tuple = ()
) -> DoubleBootstrapResult:
    """u-hat, v-hat and the bias-corrected estimators.

    u-hat uses its own ``b1`` level-one replicates, independent of the
    ``b2`` outer worlds.  Each outer world is refitted in full (fourth
    moments included); its ``c`` inner worlds only need the refitted
    predictor.  An outer world whose every inner world fails counts as a
    failed outer world.
    """
    u_hat, fail1 = mse_single(d, fit, cfg, key_prefix)
    outer = _level_states(cfg, streams.OUTER, key_prefix, range(cfg.b2))
    draw = _keyed_draw(d, fit.fixed_effects, _fit_laws(fit, cfg.family), outer)

    vacc = np.zeros(d.n)
    outer_failed = inner_attempted = inner_failed = 0
    for lo, _, fits in refit_level(
        d, draw, cfg.b2, cfg.ridge, with_fourth_moments=True
    ):
        # the inner worlds (b, l) of the block's k-th outer world b are
        # rows k * c to (k + 1) * c
        rows = range(lo, lo + len(fits.ok))
        inner = _level_states(cfg, streams.INNER, key_prefix, rows, range(cfg.c))
        outer_failed += int(np.count_nonzero(~fits.ok))
        for k in np.flatnonzero(fits.ok):
            laws = _matched(
                fits.sigma2_u[k], fits.gamma_u[k], fits.sigma2_v[k], fits.gamma_v[k],
                cfg.family,
            )
            fe_star = FixedEffects(mu=float(fits.mu[k]), beta=fits.beta[k])
            worlds = inner[k * cfg.c : (k + 1) * cfg.c]
            acc, failed = squared_error(
                d, _keyed_draw(d, fe_star, laws, worlds), cfg.c, cfg.ridge
            )
            inner_attempted += cfg.c
            inner_failed += failed
            if failed == cfg.c:
                outer_failed += 1
            else:
                vacc += acc / (cfg.c - failed)
    _check_failures(outer_failed, cfg.b2, "outer")
    _check_failures(inner_failed, inner_attempted, "inner")

    v_hat = vacc / (cfg.b2 - outer_failed)
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
