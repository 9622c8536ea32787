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
    TooManyFailures,
)
from .mmdist import (
    MatchedDistribution,
    make_distribution,
    make_student_t,
    make_three_point,
    sample,
)
from .model import (
    ClusterSummaries,
    Dataset,
    build_dataset,
    from_arrays,
    read_csv_dataset,
    summarize,
)
from .moments import estimate_gamma_u, estimate_gamma_v
from .mspe import (
    BootstrapConfig,
    DoubleBootstrapResult,
    mse_double,
    mse_single,
    mspe_report,
    robust_correction,
)
from .pipeline import WorldFits, fit_model, refit_worlds
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

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "ClusterSummaries",
    "DataError",
    "Dataset",
    "DimensionMismatch",
    "DivisionGuard",
    "DoubleBootstrapResult",
    "EmptyCluster",
    "ErrorModel",
    "EstimatorMetrics",
    "InsufficientDegreesOfFreedom",
    "KurtosisNotHeavy",
    "MatchedDistribution",
    "MomentInfeasible",
    "NerbootError",
    "NonPositiveK",
    "NonPositiveScale",
    "NumericalError",
    "RankDeficient",
    "Scenario",
    "StudyResult",
    "TooManyFailures",
    "WorldFits",
    "build_dataset",
    "draw_error",
    "error_model",
    "estimate_gamma_u",
    "estimate_gamma_v",
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
    "read_csv_dataset",
    "refit_worlds",
    "robust_correction",
    "run_study",
    "run_truth",
    "sample",
    "summarize",
]
