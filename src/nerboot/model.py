"""Domain types for the two-level nested-error regression model.

Data are clustered observations (x_ij, y_ij, s_ij) with ragged cluster
sizes, generated by y_ij = mu + x_ij'beta + u_i + s_ij v_ij.  The dataset
owns validation of the structural requirements: every cluster holds at
least two observations, all scale factors are positive, and the pooled
degrees of freedom N - n exceed the covariate dimension r.

Observations are stored concatenated, grouped by cluster in first-appearance
order; ``Dataset.with_responses`` swaps the response vector while sharing
the design (and any design-derived factorization caches), which is what
makes bootstrap refits on a fixed design cheap.
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
    NonPositiveScale,
)


@dataclass(frozen=True)
class Cluster:
    """Observations of a single cluster: covariates, responses, scales."""

    x: np.ndarray  # (n_i, r)
    y: np.ndarray  # (n_i,)
    s: np.ndarray  # (n_i,)

    @property
    def size(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class Dataset:
    """Clustered dataset with contiguous per-cluster storage.

    ``starts`` holds n+1 offsets into the concatenated arrays; cluster i
    occupies rows starts[i]:starts[i+1].  Instances are immutable; the
    ``_cache`` dict memoizes design-only factorizations and is shared by
    every response-swapped copy of the same design.
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
    def clusters(self) -> tuple[Cluster, ...]:
        lo, hi = self.starts[:-1], self.starts[1:]
        return tuple(
            Cluster(self.x[a:b], self.y[a:b], self.s[a:b]) for a, b in zip(lo, hi)
        )

    def cluster(self, i: int) -> Cluster:
        a, b = self.starts[i], self.starts[i + 1]
        return Cluster(self.x[a:b], self.y[a:b], self.s[a:b])

    def with_responses(self, y: np.ndarray) -> "Dataset":
        """Same design (x, s, clustering), new responses; caches are shared."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self.y.shape:
            raise DimensionMismatch(
                f"responses must have shape {self.y.shape}, got {y.shape}"
            )
        return Dataset(y, self.x, self.s, self.starts, self.cluster_ids, self._cache)

    # -- labels for per-observation vectors --------------------------------
    @property
    def obs_cluster_index(self) -> np.ndarray:
        """(N,) integer cluster index of every observation."""
        return np.repeat(np.arange(self.n), self.sizes)


@dataclass(frozen=True)
class ClusterSummaries:
    """Per-cluster precision-weighted means and a_i = sum_j s_ij^-2.

    ``x_under`` is the unweighted covariate mean; with s_ij = 1 it equals
    the weighted mean ``x_bar`` and a_i = n_i.
    """

    a: np.ndarray        # (n,)
    x_bar: np.ndarray    # (n, r)  weighted by s^-2
    y_bar: np.ndarray    # (n,)
    x_under: np.ndarray  # (n, r)  unweighted


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


def build_dataset(raw) -> Dataset:
    """Build a dataset from records ``(cluster_id, x_vector, y, s)``.

    ``x_vector`` may be a scalar (r = 1) or a sequence of covariates; the
    dimension must be consistent across records.
    """
    labels, xs, ys, ss = [], [], [], []
    for rec in raw:
        cid, xv, yv, sv = rec
        labels.append(cid)
        xv = np.atleast_1d(np.asarray(xv, dtype=np.float64))
        xs.append(xv)
        ys.append(float(yv))
        ss.append(float(sv))
    if not labels:
        raise DataError("no records supplied")
    r = xs[0].shape[0]
    if any(v.shape != (r,) for v in xs):
        raise DimensionMismatch("covariate vectors of inconsistent dimension")
    return from_arrays(labels, np.vstack(xs), ys, ss)


def _summaries_design(d: Dataset) -> dict:
    """Design-only summary pieces, memoized on the dataset's shared cache."""
    cache = d._cache
    if "summaries_design" not in cache:
        lo = d.starts[:-1]
        w = d.s**-2
        a = np.add.reduceat(w, lo)
        x_bar = np.add.reduceat(w[:, None] * d.x, lo, axis=0) / a[:, None]
        x_under = np.add.reduceat(d.x, lo, axis=0) / d.sizes[:, None]
        for arr in (w, a, x_bar, x_under):
            arr.flags.writeable = False
        cache["summaries_design"] = {"w": w, "a": a, "x_bar": x_bar, "x_under": x_under}
    return cache["summaries_design"]


def summarize(d: Dataset, y=None) -> ClusterSummaries:
    """Per-cluster a_i, weighted means (x_bar, y_bar) and unweighted x_under.

    ``y`` defaults to the dataset's responses; a (B, N) block of response
    rows on the same design gives y_bar of shape (B, n).
    """
    des = _summaries_design(d)
    y = d.y if y is None else y
    y_bar = np.add.reduceat(des["w"] * y, d.starts[:-1], axis=-1) / des["a"]
    return ClusterSummaries(
        a=des["a"], x_bar=des["x_bar"], y_bar=y_bar, x_under=des["x_under"]
    )


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
