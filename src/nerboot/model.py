"""Domain types for the two-level nested-error regression model.

Data are clustered observations (x_ij, y_ij, s_ij) with ragged cluster
sizes, generated by y_ij = mu + x_ij'beta + u_i + s_ij v_ij.  The dataset
owns validation of the structural requirements: every cluster holds at
least two observations, all scale factors are positive, and the pooled
degrees of freedom N - n exceed the covariate dimension r.

Observations are stored concatenated, grouped by cluster in first-appearance
order; ``Dataset.with_responses`` swaps the response vector while sharing
the design, including ``Dataset.design``: every array the refit kernel
derives from the design alone, built once.  That is what makes bootstrap
refits on a fixed design cheap.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    EmptyCluster,
    InsufficientDegreesOfFreedom,
    NonPositiveK,
    NonPositiveScale,
    RankDeficient,
)

RANK_RTOL = 1e-10  # relative singular-value threshold for rank checks


@dataclass(frozen=True)
class Dataset:
    """Clustered dataset with contiguous per-cluster storage.

    ``starts`` holds n+1 offsets into the concatenated arrays; cluster i
    occupies rows starts[i]:starts[i+1].  Instances are immutable; the
    ``_cache`` dict holds the memoized ``design`` and is shared by every
    response-swapped copy of the same design.
    """

    y: np.ndarray            # (N,)
    x: np.ndarray            # (N, r)
    s: np.ndarray            # (N,)
    starts: np.ndarray       # (n+1,) int
    cluster_ids: tuple       # (n,) original labels, first-appearance order
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- basic dimensions -------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.cluster_ids)

    @property
    def total(self) -> int:
        """N, the total number of observations."""
        return self.y.shape[0]

    @property
    def r(self) -> int:
        return self.x.shape[1]

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts)

    @property
    def design(self) -> "_Design":
        """The design-only arrays of the refit kernel, built on first use."""
        design = self._cache.get("design")
        if design is None:
            design = self._cache["design"] = _Design(self)
        return design

    def with_responses(self, y: np.ndarray) -> "Dataset":
        """Same design (x, s, clustering), new responses; caches are shared."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self.y.shape:
            raise DimensionMismatch(
                f"responses must have shape {self.y.shape}, got {y.shape}"
            )
        return Dataset(y, self.x, self.s, self.starts, self.cluster_ids, self._cache)


def _validate(d: Dataset) -> Dataset:
    if d.n < 2:
        raise DataError(f"need at least 2 clusters, got {d.n}")
    sizes = d.sizes
    if np.any(sizes < 2):
        bad = d.cluster_ids[int(np.argmax(sizes < 2))]
        raise EmptyCluster(f"cluster {bad!r} has fewer than 2 observations")
    if np.any(d.s <= 0) or not np.all(np.isfinite(d.s)):
        raise NonPositiveScale("every scale factor s_ij must be positive and finite")
    if not (np.all(np.isfinite(d.x)) and np.all(np.isfinite(d.y))):
        raise DataError("non-finite covariate or response values")
    if d.r < 1:
        raise DimensionMismatch("at least one covariate column is required")
    if d.total - d.n <= d.r:
        raise InsufficientDegreesOfFreedom(
            f"need N - n > r, got N={d.total}, n={d.n}, r={d.r}"
        )
    return d


def from_arrays(cluster_labels, x, y, s=None) -> Dataset:
    """Build a validated dataset from per-observation arrays.

    Rows may interleave clusters; they are regrouped contiguously, keeping
    first-appearance cluster order and the original order within clusters.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if s is None:
        s = np.ones_like(y)
    else:
        s = np.asarray(s, dtype=np.float64).reshape(-1)
    n_obs = y.shape[0]
    if x.shape[0] != n_obs or s.shape[0] != n_obs or len(cluster_labels) != n_obs:
        raise DimensionMismatch("cluster labels, x, y and s must have equal length")

    order_of: dict = {}
    for lab in cluster_labels:
        if hasattr(lab, "item"):
            lab = lab.item()
        if lab not in order_of:
            order_of[lab] = len(order_of)
    idx = np.fromiter((order_of[lab] for lab in cluster_labels), dtype=np.int64)
    perm = np.argsort(idx, kind="stable")
    counts = np.bincount(idx, minlength=len(order_of))
    starts = np.concatenate([[0], np.cumsum(counts)])
    d = Dataset(
        y=np.ascontiguousarray(y[perm]),
        x=np.ascontiguousarray(x[perm]),
        s=np.ascontiguousarray(s[perm]),
        starts=starts,
        cluster_ids=tuple(order_of.keys()),
    )
    return _validate(d)


def _orthonormal_basis(mat: np.ndarray, message: str):
    """(Q, R) of the thin QR of ``mat``; RankDeficient below full column rank."""
    q_mat, r_mat = np.linalg.qr(mat)
    svals = np.linalg.svd(r_mat, compute_uv=False)
    if svals[-1] <= RANK_RTOL * svals[0]:
        raise RankDeficient(message)
    return q_mat, r_mat


class _Design:
    """Every design-only array the refit kernel reads; all are read-only.

    Summaries: w = s^-2, the cluster sums ``zmat`` = sum_j w_ij (1, x_ij')'
    (a_i = sum_j w_ij and a_i x_bar_i), x_under, each row's cluster.

    ``proj`` (N, 2r+1) = [Q_u | Q_w] / s holds orthonormal bases, so that
    y @ proj gives both regressions' coordinates z of s^-1 y.  Q_u spans the
    uncentered rows P-bar = s^-1 (1, x') = Q_u ``ru``: SSE2 = sum w y^2 -
    ||z_u||^2 has E(SSE2) = K sigma_U^2 + (N - r_aug) sigma_V^2, K = K1 - K2
    (K1 = sum_i a_i) from ``gram`` and ``zmat``, which GLS reuses with ``zz``
    and the cross-products z_u ``ru``.  Q_w spans the within rows
    s^-1 (x - x_bar_i): centering at weighted cluster means leaves each
    cluster's residuals with covariance sigma_V^2 times a projection (the
    paper's T_i after one observation per cluster is dropped), so SSE1 =
    e' T^-1 e = sum w (y - y_bar)^2 - ||z_w||^2.  Each column of Q_w / s
    sums to 0 over every cluster, so z_w needs no centred y.  K is checked
    before the within rank: K <= 0 puts a cluster indicator in the span of
    (1, x), which also leaves the within design rank-deficient.

    Fourth moments: the ordered-pair coefficients of ``moments``.
    """

    def __init__(self, d: Dataset):
        lo = d.starts[:-1]
        sizes = d.sizes

        self.w = d.s**-2
        x_aug = np.column_stack([np.ones(d.total), d.x])  # (N, r+1)
        self.zmat = np.add.reduceat(self.w[:, None] * x_aug, lo, axis=0)  # (n, r+1)
        self.a = np.ascontiguousarray(self.zmat[:, 0])
        self.x_bar = self.zmat[:, 1:] / self.a[:, None]
        self.x_under = np.add.reduceat(d.x, lo, axis=0) / sizes[:, None]
        self.cluster = np.repeat(np.arange(d.n), sizes)  # of each observation

        p_bar = (1.0 / d.s)[:, None] * x_aug
        q_u, self.ru = _orthonormal_basis(
            p_bar, "augmented design P-bar is not of full row rank"
        )
        self.r_aug = d.r + 1
        self.k1 = float(np.sum(self.a))
        self.gram = p_bar.T @ p_bar  # sum_ij s^-2 x~ x~'
        # per-cluster outer products zmat_i zmat_i', flattened: (n, (r+1)^2)
        self.zz = (self.zmat[:, :, None] * self.zmat[:, None, :]).reshape(d.n, -1)
        sol = np.linalg.solve(self.gram, self.zmat.T)  # (r+1, n)
        self.k = self.k1 - float(np.sum(self.zmat * sol.T))
        if self.k <= 0:
            raise NonPositiveK(f"K = K1 - K2 = {self.k} is not positive")

        p_rows = (d.x - np.repeat(self.x_bar, sizes, axis=0)) / d.s[:, None]
        q_w, _ = _orthonormal_basis(
            p_rows, "centered design P T^-1 P' has rank below the covariate dimension"
        )
        self.proj = np.column_stack([q_u, q_w]) / d.s[:, None]  # (N, 2r+1)

        s2 = d.s**2
        s2_sum = np.add.reduceat(s2, lo)
        s4_sum = np.add.reduceat(s2**2, lo)
        self.pair_count = float(np.sum(sizes * (sizes - 1)))
        self.a4_pair = float(np.sum((sizes - 1) * s4_sum)) / self.pair_count
        self.c_pair = float(np.sum(s2_sum**2 - s4_sum)) / self.pair_count
        self.sum_s2 = float(np.sum(s2))
        self.sum_s4 = float(np.sum(s2**2))
        self.__setstate__(vars(self))

    def __setstate__(self, state):
        """Set ``state`` with every array read-only; unpickling (in spawn and
        forkserver workers) calls this too."""
        vars(self).update(state)
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def summarize(d: Dataset, y: np.ndarray) -> np.ndarray:
    """Per-cluster precision-weighted response means y_bar: shape (n,) for
    responses (N,), (B, n) for a (B, N) block of response rows on ``d``."""
    des = d.design
    return np.add.reduceat(des.w * y, d.starts[:-1], axis=-1) / des.a


# CSV ingestion: header ``cluster,y,s,x1,...,xr`` (s column optional, default 1);
# other columns, such as ``xtra``, are ignored
def read_csv_dataset(path) -> Dataset:
    """Read the CLI ingestion format into a Dataset."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "cluster" or "y" not in header:
            raise DataError(
                f"{path}: expected header 'cluster,y[,s],x1,...', got {header!r}"
            )
        col = {name: k for k, name in enumerate(header)}
        xcols = [k for k, name in enumerate(header) if re.fullmatch(r"x\d+", name)]
        if not xcols:
            raise DataError(f"{path}: no covariate columns x1,...,xr found")
        has_s = "s" in col
        labels, rows_x, rows_y, rows_s = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                labels.append(row[col["cluster"]].strip())
                rows_y.append(float(row[col["y"]]))
                rows_s.append(float(row[col["s"]]) if has_s else 1.0)
                rows_x.append([float(row[k]) for k in xcols])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{lineno}: bad row: {exc}") from None
    if not labels:
        raise DataError(f"{path}: no data rows")
    return from_arrays(labels, np.asarray(rows_x), rows_y, rows_s)
