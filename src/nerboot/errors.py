"""Exception hierarchy shared across the estimation pipeline.

Two broad families matter to callers: data/shape problems detected while
building a dataset, and numerical failures raised during estimation.  The
command-line layer maps them to distinct exit codes.
"""


class NerbootError(Exception):
    """Base class for all library errors."""


class DataError(NerbootError):
    """Invalid input data (structure, shapes, domains)."""


class NumericalError(NerbootError):
    """Estimation failed for numerical reasons (rank, positivity, ...)."""


class EmptyCluster(DataError):
    """A cluster has fewer than two observations."""


class DimensionMismatch(DataError):
    """Covariate vectors of inconsistent dimension."""


class NonPositiveScale(DataError):
    """A scale factor s_ij <= 0."""


class InsufficientDegreesOfFreedom(DataError):
    """Total observations minus clusters does not exceed the covariate dimension."""


class RankDeficient(NumericalError):
    """A design matrix does not have full rank."""


class NonPositiveK(NumericalError):
    """The between-cluster contrast constant K = K1 - K2 is not positive."""


class SingularWeight(NumericalError):
    """A cluster weight matrix W_i cannot be inverted."""


class MomentInfeasible(DataError):
    """Requested (variance, fourth moment) pair violates z4 >= z2^2."""


class KurtosisNotHeavy(DataError):
    """Student-t matching requires kurtosis strictly above 3."""


class TooManyFailures(NumericalError):
    """More than the tolerated share of bootstrap replicates failed to refit."""


class DivisionGuard(NumericalError):
    """Denominator of the robust correction was not positive."""
