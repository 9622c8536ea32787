"""Fourth-moment estimation of the two error distributions.

Within-cluster contrasts of fitted residuals identify E(V^4): for the pair
statistic W_ij1j2(1, -1) the cluster effect cancels, and averaging its
fourth power over ordered pairs of distinct observations gives

    E{W-bar_4(1,-1)} = 2 a4 E(V^4) + 6 c_pair (E V^2)^2,

with pair-average coefficients a4 and c_pair.  The shortcut a4 =
N^-1 sum s^4 equals the exact pair average only for equal cluster sizes;
the exact coefficient sum_i (n_i - 1) sum_j s_ij^4 / sum_i n_i (n_i - 1)
is used here so the identity also holds for unbalanced designs (both
coefficients live in ``Dataset.design``).  E(U^4) then follows from raw
fourth powers of residuals.  Both estimators are truncated from below at
the squared variance estimates, which keeps every matched distribution
feasible.
"""

from __future__ import annotations

import numpy as np

from .model import Dataset


def _square(sigma2):
    """sigma2^2 rounded as ``float.__pow__`` rounds it (libm pow, not x * x,
    which can differ in the last bit), so that a floored fourth moment passes
    the matched-law check z4 >= z2**2 exactly."""
    return np.float_power(sigma2, 2)


def estimate_gamma_v(d: Dataset, resid: np.ndarray, sigma2_v):
    """Truncated estimator of E(V^4) from fourth-power pair contrasts.

    ``resid`` holds fitted residuals y_ij - mu-hat - x_ij' beta-hat, one row
    per world (or a single (N,) vector); ``sigma2_v`` matches its leading
    shape.  With per-cluster power sums S_k = sum_j e_ij^k,

        sum_{j1 != j2} (e_ij1 - e_ij2)^4 = 2 n_i S4 - 8 S1 S3 + 6 S2^2,

    so the ordered-pair average needs no pairwise tensors.
    """
    design = d.design
    e2 = resid * resid
    s1, s2, s3, s4 = (
        np.add.reduceat(p, d.starts[:-1], axis=-1)
        for p in (resid, e2, e2 * resid, e2 * e2)
    )
    pairs = 2.0 * d.sizes * s4 - 8.0 * s1 * s3 + 6.0 * s2 * s2
    w4 = np.sum(pairs, axis=-1) / design.pair_count
    raw = (w4 - 6.0 * design.c_pair * sigma2_v**2) / (2.0 * design.a4_pair)
    return np.maximum(raw, _square(sigma2_v))


def estimate_gamma_u(d: Dataset, resid: np.ndarray, sigma2_u, sigma2_v, gamma_v):
    """Truncated estimator of E(U^4) from raw fourth powers of residuals;
    broadcasts like ``estimate_gamma_v``."""
    design = d.design
    e2 = resid * resid
    resid4 = np.sum(e2 * e2, axis=-1)
    raw = (
        resid4 - 6.0 * sigma2_u * sigma2_v * design.sum_s2 - gamma_v * design.sum_s4
    ) / d.total
    return np.maximum(raw, _square(sigma2_u))
