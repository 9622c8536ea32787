"""nerboot: nonparametric MSPE estimation for nested-error regression.

Empirical BLUPs of cluster means, method-of-moments variance components,
and moment-matching single/double bootstrap estimation of mean-squared
prediction error with positivity-preserving bias correction, plus a Monte
Carlo study harness (``nerboot.simulate``).  The package exports the
library surface; everything else stays in its submodule.
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
from .mmdist import make_distribution
from .model import Dataset, from_arrays, read_csv_dataset
from .mspe import (
    BootstrapConfig,
    DoubleBootstrapResult,
    mse_double,
    mse_single,
    mspe_report,
    robust_correction,
)
from .pipeline import WorldFits, fit_model

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "DataError",
    "Dataset",
    "DimensionMismatch",
    "DivisionGuard",
    "DoubleBootstrapResult",
    "EmptyCluster",
    "InsufficientDegreesOfFreedom",
    "KurtosisNotHeavy",
    "MomentInfeasible",
    "NerbootError",
    "NonPositiveK",
    "NonPositiveScale",
    "NumericalError",
    "RankDeficient",
    "TooManyFailures",
    "WorldFits",
    "fit_model",
    "from_arrays",
    "make_distribution",
    "mse_double",
    "mse_single",
    "mspe_report",
    "read_csv_dataset",
    "robust_correction",
]
