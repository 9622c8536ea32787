"""nerboot: nonparametric MSPE estimation for nested-error regression.

Empirical BLUPs of cluster means, method-of-moments variance components,
and moment-matching single/double bootstrap estimation of mean-squared
prediction error with positivity-preserving bias correction, plus a Monte
Carlo study harness.
"""

from .errors import (
    DataError,
    DimensionMismatch,
    DivisionGuard,
    EmptyCluster,
    InsufficientDegreesOfFreedom,
    KurtosisNotHeavy,
    MomentInfeasible,
    NerbootError,
    NonPositiveK,
    NonPositiveScale,
    NumericalError,
    RankDeficient,
    SingularWeight,
    TooManyFailures,
)
from .gls import ClusterWeight, FixedEffects, cluster_weights, fit_fixed_effects
from .mmdist import (
    MatchedDistribution,
    make_distribution,
    make_student_t,
    make_three_point,
    sample,
)
from .model import (
    Cluster,
    ClusterSummaries,
    Dataset,
    build_dataset,
    from_arrays,
    read_csv_dataset,
    summarize,
)
from .moments import FourthMoments, estimate_gamma_u, estimate_gamma_v
from .mspe import (
    BootstrapConfig,
    DoubleBootstrapResult,
    MspeReport,
    bootstrap_world,
    mse_double,
    mse_single,
    mspe_report,
    robust_correction,
)
from .pipeline import ModelFit, WorldFits, fit_model, refit_worlds
from .predictor import Prediction, eblup, naive_mse
from .simulate import (
    ErrorModel,
    EstimatorMetrics,
    Scenario,
    StudyResult,
    draw_error,
    error_model,
    make_design,
    metrics_from_records,
    run_study,
    run_truth,
)
from .variance import VarianceComponents

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "Cluster",
    "ClusterSummaries",
    "ClusterWeight",
    "DataError",
    "Dataset",
    "DimensionMismatch",
    "DivisionGuard",
    "DoubleBootstrapResult",
    "EmptyCluster",
    "ErrorModel",
    "EstimatorMetrics",
    "FixedEffects",
    "FourthMoments",
    "InsufficientDegreesOfFreedom",
    "KurtosisNotHeavy",
    "MatchedDistribution",
    "ModelFit",
    "MomentInfeasible",
    "MspeReport",
    "NerbootError",
    "NonPositiveK",
    "NonPositiveScale",
    "NumericalError",
    "Prediction",
    "RankDeficient",
    "Scenario",
    "SingularWeight",
    "StudyResult",
    "TooManyFailures",
    "VarianceComponents",
    "WorldFits",
    "bootstrap_world",
    "build_dataset",
    "cluster_weights",
    "draw_error",
    "eblup",
    "error_model",
    "estimate_gamma_u",
    "estimate_gamma_v",
    "fit_fixed_effects",
    "fit_model",
    "from_arrays",
    "make_design",
    "make_distribution",
    "make_student_t",
    "make_three_point",
    "metrics_from_records",
    "mse_double",
    "mse_single",
    "mspe_report",
    "naive_mse",
    "read_csv_dataset",
    "refit_worlds",
    "robust_correction",
    "run_study",
    "run_truth",
    "sample",
    "summarize",
]
