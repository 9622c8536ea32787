"""Method-of-moments variance-component estimation.

sigma_V^2 comes from the within regression, sigma_U^2 from the uncentered
one:

    sigma_V^2-hat = max(SSE1, B1 n^-B2) / (N - n - r)
    sigma_U^2-hat = max(K^-1 {SSE2 - (N - r_aug) sigma_V^2-hat}, 0)

The ridge floor B1 n^-B2 (defaults B1 = 1e-6, B2 = 2) keeps sigma_V^2-hat
strictly positive, hence all cluster weight matrices invertible.  The refit
kernel computes SSE1 and SSE2 for a block of worlds from cached QR factors
(``transform``) and applies these formulas row-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset
from .transform import _uncentered_design

DEFAULT_RIDGE = (1e-6, 2.0)  # (B1, B2); B1 > 0, B2 >= 2


@dataclass(frozen=True)
class VarianceComponents:
    sigma2_u: float  # >= 0 by truncation
    sigma2_v: float  # > 0 by ridge floor
    sse1: float
    sse2: float
    k_constant: float


def ridge_floor(n: int, ridge=DEFAULT_RIDGE) -> float:
    b1, b2 = ridge
    if b1 <= 0 or b2 < 2:
        raise ValueError("ridge parameters require B1 > 0 and B2 >= 2")
    return b1 * float(n) ** (-b2)


def estimate_variances(d: Dataset, sse1, sse2, ridge=DEFAULT_RIDGE):
    """Per-world (floored SSE1, sigma_V^2-hat, sigma_U^2-hat) from the two
    sums of squares, each an array over worlds."""
    sse1 = np.maximum(sse1, ridge_floor(d.n, ridge))
    sigma2_v = sse1 / (d.total - d.n - d.r)
    design = _uncentered_design(d)
    sigma2_u = np.maximum((sse2 - (d.total - design.r_aug) * sigma2_v) / design.k, 0.0)
    return sse1, sigma2_v, sigma2_u
