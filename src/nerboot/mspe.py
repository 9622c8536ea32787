"""Bootstrap estimation of mean-squared prediction error, with bias
correction by the double bootstrap.

Level one draws worlds on the original design, with cluster effects and
noise from matched distributions built on the fitted second and fourth
moments, refits the whole pipeline and averages squared prediction errors:
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
order.  ``_level_states`` derives the seed words of a whole level in one
``streams.substream_states`` call: the b1 level-one worlds, the b2 outer
worlds, the inner worlds (b, l) of every outer world b that refits, and the
study's replicate worlds.  ``_draw_worlds`` hands each run of worlds' fresh
generators (``streams.replay``, bit for bit each world's
``streams.substream``) to ``mmdist.sample_worlds``, which draws U and then
V from each into the run's rows of the level's draw buffer.  Every world
is drawn mean-free by ``_keyed_draw``, which returns a block's draws
(U, V), and is refitted from them; no world forms y.  No world needs a
mean: GLS and the EBLUP are equivariant (Prasad & Rao, JASA 1990), so
theta-hat - theta and the failures do not depend on (mu, beta).

The double bootstrap is three flat levels on the kernel of ``pipeline``,
whose fits are ``WorldFits``.  Level one and the outer level draw around
the original fit.  The outer level refits its draw blocks with
``refit_worlds``, whose fourth moments read residuals, through
``pipeline.refit_level``, and keeps which worlds refit and their matched
laws; a study refits its replicate worlds through the same generator.
The inner level is then one pass: each inner world is drawn around its
own outer fit.  Truth, level-one and inner worlds differ only in their keys
and laws: the level engine ``squared_error`` refits them with theta = U, in
draw blocks that may span outer worlds, and sums them per outer world.
Worlds whose refit fails numerically are masked, skipped and counted; more
than 1% failures at any level aborts the run, since under the ridge
safeguard failures signal a pathological input.  ``mspe_report`` returns
the original fit and its ``DoubleBootstrapResult``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .errors import DivisionGuard, TooManyFailures
from .mmdist import FAMILIES, THREE_POINT, make_distribution, sample_worlds
from .model import Dataset
from .pipeline import (
    DEFAULT_RIDGE,
    WorldFits,
    fit_model,
    refit_level,
    ridge_floor,
    runs,
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
        for name in ("b1", "b2", "c"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if min(self.b1, self.b2, self.c) < 1:
            raise ValueError("replicate counts b1, b2, c must all be >= 1")
        if self.g_kind not in (G_ARCTAN, G_CLIPPED):
            raise ValueError(f"g_kind must be '{G_ARCTAN}' or '{G_CLIPPED}'")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {', '.join(FAMILIES)}")
        if self.g_kind == G_CLIPPED and not 0 < self.c_clip < math.inf:
            raise ValueError("c_clip must be finite and positive for the clipped g")
        streams._key(self.master_seed)  # raises ValueError for an invalid seed
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

def _draw_worlds(d: Dataset, laws: tuple, rngs: list, out, buffers):
    """The draws U (B, n) and V (B, N) of a run of worlds, as the column
    blocks of ``out`` (B, n + N), which they fill: world b draws U before
    V, from ``laws`` (U, V), with the generator ``rngs[b]``.  Every level
    draws its worlds here."""
    return sample_worlds(*laws, rngs, d.n, out, buffers)


def _laws(fits: WorldFits, family: str, k=()):
    """The laws (U, V) of worlds drawn around fit k of a block's fits (of a
    one-world fit by default), matched to its second and fourth moments."""
    if fits.gamma_u is None:
        raise ValueError("the bootstrap needs a fit with fourth moments")
    return tuple(
        make_distribution(float(z2[k]), float(z4[k]), family)
        for z2, z4 in ((fits.sigma2_u, fits.gamma_u), (fits.sigma2_v, fits.gamma_v))
    )


def _keyed_draw(d: Dataset, laws: list, states: np.ndarray, per: int):
    """The level engine's ``draw(lo, hi, buffers)`` for the worlds keyed by
    ``states``, world i from ``laws[i // per]``: the draws U (B, n) and V
    (B, N) of worlds lo to hi - 1, each run's worlds in their rows of the
    block's draw buffer.  Every world it draws is mean-free."""

    def draw(lo, hi, buffers):
        out = buffers.take("draws", (hi - lo, d.n + d.total))
        for start, end in runs(lo, hi, per):
            rngs = list(streams.replay(states[start:end]))
            rows = out[start - lo : end - lo]
            _draw_worlds(d, laws[start // per], rngs, rows, buffers)
        return out[:, : d.n], out[:, d.n :]

    return draw


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------

def _check_failures(failed: int, attempted: int, level: str) -> None:
    if failed / attempted > FAILURE_TOLERANCE:
        raise TooManyFailures(
            f"{failed}/{attempted} {level} bootstrap replicates failed to refit"
        )


def _level_states(master_seed: int, level: int, key_prefix: tuple, *axes):
    """Seed words of the worlds keyed (level, *key_prefix, *index), one row
    per index in the product of the integer axes ``axes`` (ranges or integer
    arrays), in row-major order.  Every level keys its worlds here."""
    grid = np.meshgrid(*[np.asarray(axis) for axis in axes], indexing="ij")
    index = np.stack(grid, axis=-1).reshape(-1, len(axes))
    return streams.substream_states(master_seed, level, *key_prefix, tails=index)


def mse_single(
    d: Dataset, fit: WorldFits, cfg: BootstrapConfig, key_prefix: tuple = ()
) -> tuple[np.ndarray, int]:
    """Level-one bootstrap estimate u-hat of MSE_i; returns (u_hat, failures)."""
    states = _level_states(cfg.master_seed, streams.SINGLE, key_prefix, range(cfg.b1))
    draw = _keyed_draw(d, [_laws(fit, cfg.family)], states, cfg.b1)
    (acc,), (failed,) = squared_error(d, draw, cfg.b1, cfg.ridge)
    _check_failures(failed, cfg.b1, "level-one")
    return acc / (cfg.b1 - failed), int(failed)


def _outer_level(d: Dataset, fit: WorldFits, cfg: BootstrapConfig, key_prefix: tuple):
    """Which of the b2 outer worlds refit, and the matched laws (U, V) of
    those that do, from their refits with fourth moments."""
    outer = _level_states(cfg.master_seed, streams.OUTER, key_prefix, range(cfg.b2))
    draw = _keyed_draw(d, [_laws(fit, cfg.family)], outer, cfg.b2)
    ok, laws = [], []
    for _, fits in refit_level(d, draw, cfg.b2, cfg.ridge):
        ok.append(fits.ok)
        laws += [_laws(fits, cfg.family, k) for k in np.flatnonzero(fits.ok)]
    return np.concatenate(ok), laws


def mse_double(
    d: Dataset, fit: WorldFits, cfg: BootstrapConfig, key_prefix: tuple = ()
) -> DoubleBootstrapResult:
    """u-hat, v-hat and the bias-corrected estimators.

    u-hat uses its own ``b1`` level-one replicates, independent of the
    ``b2`` outer worlds.  Each outer world is refitted in full (fourth
    moments included); its ``c`` inner worlds only need the refitted
    predictor.  An outer world whose every inner world fails counts as a
    failed outer world.
    """
    u_hat, fail1 = mse_single(d, fit, cfg, key_prefix)
    ok, laws = _outer_level(d, fit, cfg, key_prefix)
    # the inner worlds (b, l), l < c, of every outer world b that refits
    b = np.flatnonzero(ok)
    inner = _level_states(cfg.master_seed, streams.INNER, key_prefix, b, range(cfg.c))
    draw = _keyed_draw(d, laws, inner, cfg.c)
    acc, failed = squared_error(d, draw, len(inner), cfg.ridge, cfg.c)
    refit = failed < cfg.c
    outer_failed = cfg.b2 - int(np.count_nonzero(refit))
    inner_failed = int(failed.sum())
    _check_failures(outer_failed, cfg.b2, "outer")
    _check_failures(inner_failed, len(inner), "inner")

    inner_mse = acc[refit] / (cfg.c - failed[refit, None])
    v_hat = np.sum(inner_mse, axis=0) / (cfg.b2 - outer_failed)
    return DoubleBootstrapResult(
        mse_boot=u_hat,
        mse_double=v_hat,
        bias=v_hat - u_hat,
        corrected_simple=2.0 * u_hat - v_hat,
        corrected_robust=robust_correction(u_hat, v_hat, d.n, cfg.g_kind, cfg.c_clip),
        failures={"single": fail1, "outer": outer_failed, "inner": inner_failed},
    )


def mspe_report(d: Dataset, cfg: BootstrapConfig) -> tuple:
    """Fit a dataset and run its double bootstrap: (fit, DoubleBootstrapResult)."""
    fit = fit_model(d, cfg.ridge)
    return fit, mse_double(d, fit, cfg)
