"""Monte Carlo study harness: error models, truth simulation, RB/CV metrics.

The study design follows the standard benchmark: clusters of size 3, one
covariate drawn once from Uniform[1/2, 1] and then held fixed (all metrics
are per-cluster quantities conditional on the design), mu = 0, beta = 1,
s = 1, and variance ratios sigma_U^2/sigma_V^2 in {1/2, 1, 2} normalized so
the larger component is 1.  Eight error models pair the study laws of
``mmdist`` (normal, skewed, heavy-tailed and mixed-sign cases, each centered
analytically and scaled to the scenario variance).  Every world, of the
truth simulation or of a study replicate, is drawn mean-free like a
bootstrap world by ``mspe._keyed_draw``: replicate r from the seed words
of key (STUDY, r), all derived in one ``mspe._level_states`` call.  No
world forms y, since GLS and the EBLUP are equivariant.  A study refits
its replicate worlds in one pass with fourth moments
(``pipeline.refit_level``) and raises RankDeficient if any fails, before
any bootstrap starts; each replicate's task then bootstraps from its fit
alone on the shared design.
Records add the mean MU + x_under' BETA back to theta and theta-hat.

For each replicate the harness records the true and predicted mixed
effects together with the MSPE estimates, so relative bias

    RB_i = (mean_r MSEhat_i - SMSE_i) / SMSE_i,
    SMSE_i = mean_r (theta_hat_i - theta_i)^2,

and the coefficient of variation CV_i = sqrt(mean_r (MSEhat_i - SMSE_i)^2)
/ SMSE_i are recomputable from the replicate log without rerunning.
Replicates are independent across keyed substreams, so parallel execution
is bit-identical to serial.  Each study task carries its own state and the
module holds none, so studies may nest or run on several threads at once.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .model import Dataset, from_arrays
from .errors import RankDeficient
from .mmdist import make_study_law, sample
from .mspe import BootstrapConfig, _keyed_draw, _level_states, mse_double, mse_single
from .pipeline import refit_level, squared_error

# record-log columns, in file order
RECORD_COLUMNS = (
    "theta_true",
    "theta_hat",
    "naive",
    "mse_boot",
    "mse_double",
    "mse_bc_robust",
)

@dataclass(frozen=True)
class ErrorModel:
    """Laws of the cluster effect U and the noise V (centered, unit variance
    before scenario scaling)."""

    kind: str
    u_law: str
    v_law: str


_MODEL_TABLE = {
    "m1": ("normal", "normal"),
    "m2": ("sqrt_chi2_5", "sqrt_chi2_5"),
    "m3": ("chi2_5", "chi2_5"),
    "m4": ("chi2_10", "chi2_10"),
    "m5": ("exponential", "exponential"),
    "m6": ("chi2_5", "neg_chi2_5"),
    "m7": ("t6", "t6"),
    "m8": ("logistic", "logistic"),
}

MODEL_NAMES = tuple(_MODEL_TABLE)


def error_model(name: str) -> ErrorModel:
    key = name.lower()
    if key not in _MODEL_TABLE:
        raise ValueError(f"unknown error model {name!r}; expected one of {MODEL_NAMES}")
    u_law, v_law = _MODEL_TABLE[key]
    return ErrorModel(kind=key, u_law=u_law, v_law=v_law)


def draw_error(law: str, variance: float, rng: np.random.Generator, count: int):
    """i.i.d. draws from the named law, centered and scaled to ``variance``."""
    return sample(make_study_law(law, variance), rng, count)


# the fixed design of the study: clusters of N_I, one covariate from
# Uniform[X_LOW, X_HIGH], mean MU, slope BETA and unit scale S
N_I = 3
MU = 0.0
BETA = (1.0,)
S = 1.0
X_LOW = 0.5
X_HIGH = 1.0


@dataclass(frozen=True)
class Scenario:
    """One cell of the study grid: the number of clusters and the variance
    pair; the rest of the design is fixed."""

    n: int
    sigma2_u: float
    sigma2_v: float

    def __post_init__(self):
        try:
            operator.index(self.n)
        except TypeError:
            raise ValueError(f"n must be an integer (got {self.n!r})") from None
        if self.n < 2:
            raise ValueError(f"n must be at least 2 (got {self.n})")
        if not (0 <= self.sigma2_u < math.inf and 0 <= self.sigma2_v < math.inf):
            raise ValueError(f"variances must be finite and >= 0 (got {self})")

    @classmethod
    def from_ratio(cls, n: int, ratio: float) -> "Scenario":
        """Variance pair from the ratio sigma_U^2/sigma_V^2, normalized so
        max(sigma_U^2, sigma_V^2) = 1."""
        if not 0 < ratio < math.inf:
            raise ValueError(f"ratio must be finite and positive (got {ratio})")
        return cls(n=n, sigma2_u=min(1.0, ratio), sigma2_v=min(1.0, 1.0 / ratio))


def make_design(scenario: Scenario, rng: np.random.Generator) -> Dataset:
    """Draw the covariate design once and freeze it (responses start at 0)."""
    total = scenario.n * N_I
    x = rng.uniform(X_LOW, X_HIGH, size=(total, len(BETA)))
    labels = np.repeat(np.arange(scenario.n), N_I)
    return from_arrays(labels, x, np.zeros(total), np.full(total, S))


def _laws(scenario: Scenario, model: ErrorModel) -> tuple:
    """The (U, V) laws of the study worlds of one cell."""
    return (
        make_study_law(model.u_law, scenario.sigma2_u),
        make_study_law(model.v_law, scenario.sigma2_v),
    )


def run_truth(
    scenario: Scenario, model: ErrorModel, replicates: int, master_seed: int
):
    """Per-cluster SMSE from a pure truth simulation (no bootstrap).

    The worlds are those of ``run_study`` at the same master seed: the
    covariate design from key (DESIGN,), replicate r from key (STUDY, r).
    The level engine draws and refits them mean-free in blocks, so the
    result equals that study's ``smse`` up to rounding, whatever MU and BETA.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    design = make_design(scenario, streams.substream(master_seed, streams.DESIGN))
    words = _level_states(master_seed, streams.STUDY, (), range(replicates))
    draw = _keyed_draw(design, [_laws(scenario, model)], words, replicates)
    (acc,), (failed,) = squared_error(design, draw, replicates)
    if failed:
        raise RankDeficient("a truth-simulation refit failed")
    return acc / replicates


# ---------------------------------------------------------------------------
# full study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorMetrics:
    rb: np.ndarray   # (n,)
    cv: np.ndarray   # (n,)
    rb_median: float
    rb_mean: float
    rb_abs_median: float
    rb_abs_mean: float
    cv_median: float
    cv_mean: float
    underestimation_pct: float  # share of clusters with RB_i < 0, in percent


@dataclass(frozen=True)
class StudyResult:
    scenario: Scenario
    model: ErrorModel
    family: str
    replicates: int
    double: bool
    smse: np.ndarray            # (n,)
    metrics: dict               # estimator name -> EstimatorMetrics
    records: np.ndarray = field(repr=False)  # (replicates, n, 6) RECORD_COLUMNS


def _estimator_metrics(values: np.ndarray, smse: np.ndarray) -> EstimatorMetrics:
    """values: (replicates, n) MSPE estimates of one estimator."""
    rb = (values.mean(axis=0) - smse) / smse
    cv = np.sqrt(((values - smse) ** 2).mean(axis=0)) / smse
    return EstimatorMetrics(
        rb=rb,
        cv=cv,
        rb_median=float(np.median(rb)),
        rb_mean=float(np.mean(rb)),
        rb_abs_median=float(np.median(np.abs(rb))),
        rb_abs_mean=float(np.mean(np.abs(rb))),
        cv_median=float(np.median(cv)),
        cv_mean=float(np.mean(cv)),
        underestimation_pct=float(100.0 * np.mean(rb < 0)),
    )


def metrics_from_records(records: np.ndarray, double: bool) -> tuple:
    """(smse, metrics dict) recomputed from a replicate log."""
    theta_true = records[:, :, 0]
    theta_hat = records[:, :, 1]
    smse = ((theta_hat - theta_true) ** 2).mean(axis=0)
    metrics = {
        "naive": _estimator_metrics(records[:, :, 2], smse),
        "boot": _estimator_metrics(records[:, :, 3], smse),
    }
    if double:
        metrics["double"] = _estimator_metrics(records[:, :, 4], smse)
        metrics["robust"] = _estimator_metrics(records[:, :, 5], smse)
        simple = 2.0 * records[:, :, 3] - records[:, :, 4]
        metrics["simple"] = _estimator_metrics(simple, smse)
    return smse, metrics


def _bootstrap(state: tuple, rep: int, fit) -> tuple:
    """The bootstrap columns of replicate ``rep``'s record from its fit;
    ``state`` is everything else it reads."""
    design, cfg, double = state
    if double:
        res = mse_double(design, fit, cfg, key_prefix=(rep,))
        return res.mse_boot, res.mse_double, res.corrected_robust
    return (mse_single(design, fit, cfg, key_prefix=(rep,))[0],)


def run_study(
    scenario: Scenario,
    model: ErrorModel,
    cfg: BootstrapConfig,
    replicates: int,
    *,
    double: bool = True,
    jobs: int = 1,
    progress=None,
) -> StudyResult:
    """Run the full study on one (scenario, model) cell.

    All randomness derives from ``cfg.master_seed``; the output is
    bit-identical for any ``jobs`` value.  ``progress`` may be a callable
    taking (done, total), invoked as replicates complete.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    design = make_design(scenario, streams.substream(cfg.master_seed, streams.DESIGN))
    words = _level_states(cfg.master_seed, streams.STUDY, (), range(replicates))
    draw = _keyed_draw(design, [_laws(scenario, model)], words, replicates)
    records = np.full((replicates, scenario.n, len(RECORD_COLUMNS)), np.nan)
    shift = MU + design.design.x_under @ BETA
    fits = []
    for u, block in refit_level(design, draw, replicates, cfg.ridge):
        if not block.ok.all():
            raise RankDeficient("a study replicate's refit failed")
        rows = records[len(fits) : len(fits) + len(u)]
        rows[:, :, 0] = u + shift
        rows[:, :, 1] = block.theta_hat + shift
        rows[:, :, 2] = block.naive_mse
        fits += map(block.world, range(len(u)))

    # every task carries the design with its kernel arrays, which a pool pickles
    task = functools.partial(_bootstrap, (design, cfg, double))
    jobs = min(jobs, replicates)  # a fork pool starts all its workers at once
    with ProcessPoolExecutor(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        reps = range(replicates)
        columns = (
            pool.map(task, reps, fits, chunksize=max(1, replicates // (jobs * 8)))
            if pool
            else map(task, reps, fits)
        )
        for rep, cols in enumerate(columns):
            records[rep, :, 3 : 3 + len(cols)] = np.transpose(cols)
            if progress is not None:
                progress(rep + 1, replicates)

    smse, metrics = metrics_from_records(records, double)
    return StudyResult(
        scenario=scenario,
        model=model,
        family=cfg.family,
        replicates=replicates,
        double=double,
        smse=smse,
        metrics=metrics,
        records=records,
    )
