"""Monte Carlo study harness: error models, truth simulation, RB/CV metrics.

The study design follows the standard benchmark: clusters of size 3, one
covariate drawn once from Uniform[1/2, 1] and then held fixed (all metrics
are per-cluster quantities conditional on the design), mu = 0, beta = 1,
s = 1, and variance ratios sigma_U^2/sigma_V^2 in {1/2, 1, 2} normalized so
the larger component is 1.  Eight error models cover normal, skewed,
heavy-tailed and mixed-sign cases; every law is centered analytically and
scaled to the scenario variance.

For each replicate the harness records the true and predicted mixed
effects together with the MSPE estimates, so relative bias

    RB_i = (mean_r MSEhat_i - SMSE_i) / SMSE_i,
    SMSE_i = mean_r (theta_hat_i - theta_i)^2,

and the coefficient of variation CV_i = sqrt(mean_r (MSEhat_i - SMSE_i)^2)
/ SMSE_i are recomputable from the replicate log without rerunning.
Replicates are independent across keyed substreams, so parallel execution
is bit-identical to serial.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .model import Dataset, from_arrays, _summaries_design
from .mspe import BootstrapConfig, mse_double, mse_single
from .errors import RankDeficient
from .pipeline import block_size, fit_model, refit_worlds

# record-log columns, in file order
RECORD_COLUMNS = (
    "theta_true",
    "theta_hat",
    "naive",
    "mse_boot",
    "mse_double",
    "mse_bc_robust",
)

_SQRT_CHI2_5_MEAN = math.sqrt(2.0) * math.gamma(3.0) / math.gamma(2.5)
_SQRT_CHI2_5_SD = math.sqrt(5.0 - _SQRT_CHI2_5_MEAN**2)


def _std_normal(rng, size):
    return rng.standard_normal(size)


def _std_chi2_5(rng, size):
    return (rng.chisquare(5.0, size) - 5.0) / math.sqrt(10.0)


def _std_neg_chi2_5(rng, size):
    return -_std_chi2_5(rng, size)


def _std_chi2_10(rng, size):
    return (rng.chisquare(10.0, size) - 10.0) / math.sqrt(20.0)


def _std_exponential(rng, size):
    return rng.exponential(1.0, size) - 1.0


def _std_sqrt_chi2_5(rng, size):
    return (np.sqrt(rng.chisquare(5.0, size)) - _SQRT_CHI2_5_MEAN) / _SQRT_CHI2_5_SD


def _std_t6(rng, size):
    return rng.standard_t(6.0, size) / math.sqrt(1.5)


def _std_logistic(rng, size):
    return rng.logistic(0.0, 1.0, size) / (math.pi / math.sqrt(3.0))


LAWS = {
    "normal": _std_normal,
    "sqrt_chi2_5": _std_sqrt_chi2_5,
    "chi2_5": _std_chi2_5,
    "chi2_10": _std_chi2_10,
    "exponential": _std_exponential,
    "neg_chi2_5": _std_neg_chi2_5,
    "t6": _std_t6,
    "logistic": _std_logistic,
}


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
    if variance < 0:
        raise ValueError("variance must be >= 0")
    return LAWS[law](rng, count) * math.sqrt(variance)


@dataclass(frozen=True)
class Scenario:
    """Simulation design constants."""

    n: int = 60
    n_i: int = 3
    mu: float = 0.0
    beta: tuple = (1.0,)
    s: float = 1.0
    sigma2_u: float = 1.0
    sigma2_v: float = 1.0
    x_low: float = 0.5
    x_high: float = 1.0
    replicates: int = 500

    @classmethod
    def from_ratio(cls, n: int, ratio: float, **kw) -> "Scenario":
        """Variance pair from the ratio sigma_U^2/sigma_V^2, normalized so
        max(sigma_U^2, sigma_V^2) = 1."""
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        return cls(n=n, sigma2_u=min(1.0, ratio), sigma2_v=min(1.0, 1.0 / ratio), **kw)

    @property
    def r(self) -> int:
        return len(self.beta)

    @property
    def total(self) -> int:
        return self.n * self.n_i


def make_design(scenario: Scenario, rng: np.random.Generator) -> Dataset:
    """Draw the covariate design once and freeze it (responses start at 0)."""
    total = scenario.total
    x = rng.uniform(scenario.x_low, scenario.x_high, size=(total, scenario.r))
    labels = np.repeat(np.arange(scenario.n), scenario.n_i)
    s = np.full(total, scenario.s)
    return from_arrays(labels, x, np.zeros(total), s)


def _simulate_responses(design, scenario, model, rng):
    u = draw_error(model.u_law, scenario.sigma2_u, rng, scenario.n)
    v = draw_error(model.v_law, scenario.sigma2_v, rng, design.total)
    mean = scenario.mu + design.x @ np.asarray(scenario.beta)
    y = mean + np.repeat(u, design.sizes) + design.s * v
    theta = scenario.mu + _summaries_design(design)["x_under"] @ np.asarray(
        scenario.beta
    ) + u
    return design.with_responses(y), theta


def run_truth(scenario: Scenario, model: ErrorModel, replicates: int, rng):
    """Per-cluster SMSE from a pure truth simulation (no bootstrap).

    ``rng`` may be a Generator or an integer seed.  The covariate design is
    drawn once, then held fixed across replicates.  Replicates draw from
    ``rng`` in order and are refitted in blocks by the refit kernel.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    design = make_design(scenario, rng)
    acc = np.zeros(scenario.n)
    step = block_size(design)
    for lo in range(0, replicates, step):
        count = min(step, replicates - lo)
        y = np.empty((count, design.total))
        theta = np.empty((count, scenario.n))
        for k in range(count):
            d_rep, theta[k] = _simulate_responses(design, scenario, model, rng)
            y[k] = d_rep.y
        fits = refit_worlds(design, y)
        if not fits.ok.all():
            raise RankDeficient("a truth-simulation refit failed")
        acc += np.sum((fits.theta_hat - theta) ** 2, axis=0)
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


# worker state for process pools (populated by the pool initializer)
_WORKER: dict = {}


def _init_worker(design, scenario, model, cfg, double):
    _WORKER.update(
        design=design, scenario=scenario, model=model, cfg=cfg, double=double
    )


def _one_replicate(rep: int) -> np.ndarray:
    design = _WORKER["design"]
    scenario = _WORKER["scenario"]
    model = _WORKER["model"]
    cfg: BootstrapConfig = _WORKER["cfg"]
    double = _WORKER["double"]

    rng = streams.substream(cfg.master_seed, streams.STUDY, rep)
    d_rep, theta = _simulate_responses(design, scenario, model, rng)
    fit = fit_model(d_rep, cfg.ridge, with_fourth_moments=True)
    rec = np.empty((scenario.n, len(RECORD_COLUMNS)))
    rec[:, 0] = theta
    rec[:, 1] = fit.theta_hat
    rec[:, 2] = fit.prediction.naive_mse
    if double:
        res = mse_double(d_rep, fit, cfg, key_prefix=(rep,))
        rec[:, 3] = res.mse_boot
        rec[:, 4] = res.mse_double
        rec[:, 5] = res.corrected_robust
    else:
        rec[:, 3], _ = mse_single(d_rep, fit, cfg, key_prefix=(rep,))
        rec[:, 4] = np.nan
        rec[:, 5] = np.nan
    return rec


def run_study(
    scenario: Scenario,
    model: ErrorModel,
    cfg: BootstrapConfig,
    replicates: int | None = None,
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
    replicates = scenario.replicates if replicates is None else int(replicates)
    if replicates < 1:
        raise ValueError("need at least one replicate")
    design = make_design(scenario, streams.substream(cfg.master_seed, streams.DESIGN))
    # prebuild every design cache the refit kernel uses; workers receive them
    # with the design, whether they are forked or unpickle it
    fit_model(design, cfg.ridge, with_fourth_moments=True)

    records = np.empty((replicates, scenario.n, len(RECORD_COLUMNS)))
    if jobs <= 1:
        _init_worker(design, scenario, model, cfg, double)
        for rep in range(replicates):
            records[rep] = _one_replicate(rep)
            if progress is not None:
                progress(rep + 1, replicates)
    else:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(design, scenario, model, cfg, double),
        ) as pool:
            chunk = max(1, replicates // (jobs * 8))
            done = 0
            for rep, rec in enumerate(
                pool.map(_one_replicate, range(replicates), chunksize=chunk)
            ):
                records[rep] = rec
                done += 1
                if progress is not None:
                    progress(done, replicates)

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
