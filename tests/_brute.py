"""Scratch dense implementations used as oracles.

Everything here recomputes the estimators from their definitions with
explicit loops and dense matrices: no block factorizations, no caching, no
code shared with the library internals (the world draw calls
``mmdist.sample`` and reads ``d.design.x_under``; ``summarize`` reads
``d.design``'s weights and a_i).  Tests compare the fast paths against these.
Only here is a world's y formed, and only here does a dataset swap its
responses (``with_responses``).
"""

from typing import NamedTuple

import numpy as np

from nerboot.errors import DimensionMismatch
from nerboot.mmdist import sample
from nerboot.model import Dataset


class Cluster(NamedTuple):
    """Observations of a single cluster: covariates, responses, scales."""

    x: np.ndarray  # (n_i, r)
    y: np.ndarray  # (n_i,)
    s: np.ndarray  # (n_i,)
    size: int


def clusters(d):
    """The clusters of ``d``, cut from its contiguous storage by ``starts``."""
    bounds = zip(d.starts[:-1], d.starts[1:])
    return [Cluster(d.x[a:b], d.y[a:b], d.s[a:b], int(b - a)) for a, b in bounds]


def summaries(d):
    a, xbar, ybar, xunder = [], [], [], []
    for c in clusters(d):
        w = c.s**-2.0
        a.append(np.sum(w))
        xbar.append(np.sum(c.x * w[:, None], axis=0) / np.sum(w))
        ybar.append(np.sum(c.y * w) / np.sum(w))
        xunder.append(c.x.mean(axis=0))
    return np.array(a), np.array(xbar), np.array(ybar), np.array(xunder)


def summarize(d, y):
    """Per-cluster precision-weighted response means y_bar: shape (n,) for
    responses (N,), (B, n) for a (B, N) block of response rows on ``d``."""
    return np.add.reduceat(d.s**-2 * y, d.starts[:-1], axis=-1) / d.design.a


def centered_dense(d, dropped=None):
    """(P (r x N-n), q, dense T) dropping the given per-cluster index."""
    a, xbar, ybar, _ = summaries(d)
    p_cols, q_vals, blocks = [], [], []
    for i, c in enumerate(clusters(d)):
        drop = c.size - 1 if dropped is None else dropped[i]
        keep = [j for j in range(c.size) if j != drop]
        for j in keep:
            p_cols.append((c.x[j] - xbar[i]) / c.s[j])
            q_vals.append((c.y[j] - ybar[i]) / c.s[j])
        sinv = 1.0 / c.s[keep]
        blocks.append(np.eye(len(keep)) - np.outer(sinv, sinv) / a[i])
    m = sum(b.shape[0] for b in blocks)
    t = np.zeros((m, m))
    at = 0
    for b in blocks:
        k = b.shape[0]
        t[at : at + k, at : at + k] = b
        at += k
    return np.array(p_cols).T, np.array(q_vals), t


def sse1_dense(d, dropped=None):
    p, q, t = centered_dense(d, dropped)
    t_inv = np.linalg.inv(t)
    beta = np.linalg.solve(p @ t_inv @ p.T, p @ t_inv @ q)
    e = q - p.T @ beta
    return float(e @ t_inv @ e)


def uncentered_dense(d):
    p_cols, q_vals = [], []
    for c in clusters(d):
        for j in range(c.size):
            p_cols.append(np.concatenate([[1.0], c.x[j]]) / c.s[j])
            q_vals.append(c.y[j] / c.s[j])
    return np.array(p_cols).T, np.array(q_vals)


def sse2_dense(d):
    p_bar, q_bar = uncentered_dense(d)
    beta = np.linalg.solve(p_bar @ p_bar.T, p_bar @ q_bar)
    e = q_bar - p_bar.T @ beta
    return float(e @ e)


def k_constants_dense(d):
    p_bar, _ = uncentered_dense(d)
    gram = p_bar @ p_bar.T
    k1 = sum(float(np.sum(c.s**-2.0)) for c in clusters(d))
    k2 = 0.0
    for c in clusters(d):
        aug = np.column_stack([np.ones(c.size), c.x])
        z = np.sum((c.s**-2.0)[:, None] * aug, axis=0)
        k2 += float(z @ np.linalg.solve(gram, z))
    return k1, k2


def cluster_weights(d, sigma2_u, sigma2_v):
    """Dense W_i = sigma_U^2 1 1' + sigma_V^2 diag(s_i^2), one per cluster."""
    return [
        np.full((c.size, c.size), sigma2_u) + np.diag(sigma2_v * c.s**2)
        for c in clusters(d)
    ]


def rank_one_inverse(s, sigma2_u, sigma2_v):
    """W_i^-1 = D^-1 - sigma_U^2 / (1 + sigma_U^2 1'D^-1 1) D^-1 1 1' D^-1,
    D = sigma_V^2 diag(s^2) (Sherman-Morrison)."""
    d_inv = 1.0 / (sigma2_v * s**2)
    denom = 1.0 + sigma2_u * float(np.sum(d_inv))
    return np.diag(d_inv) - (sigma2_u / denom) * np.outer(d_inv, d_inv)


def with_responses(d, y):
    """The dataset of ``d``'s design (x, s, clustering) with responses ``y``;
    it shares ``d``'s design cache."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != d.y.shape:
        raise DimensionMismatch(f"responses must have shape {d.y.shape}, got {y.shape}")
    return Dataset(y, d.x, d.s, d.starts, d.cluster_ids, d._cache)


def draw_errors(d, u_dist, v_dist, rng):
    """The draws (U (n,), V (N,)) of one world on the design of ``d``, U
    drawn before V with one ``sample`` call each: the looped reference for
    the block draws of every level."""
    return sample(u_dist, rng, d.n), sample(v_dist, rng, d.total)


def draw_world(d, mu, beta, u_dist, v_dist, rng):
    """One synthetic world with fixed effects (mu, beta) on the design of
    ``d`` from ``draw_errors``: (dataset, true theta)."""
    u, v = draw_errors(d, u_dist, v_dist, rng)
    y = mu + d.x @ beta + np.repeat(u, d.sizes) + d.s * v
    theta = mu + d.design.x_under @ beta + u
    return with_responses(d, y), theta


def gls_dense(d, sigma2_u, sigma2_v):
    """Joint GLS with explicitly inverted dense W_i."""
    r = d.r
    g = np.zeros((r + 1, r + 1))
    rhs = np.zeros(r + 1)
    for c, w in zip(clusters(d), cluster_weights(d, sigma2_u, sigma2_v)):
        w_inv = np.linalg.inv(w)
        z = np.column_stack([np.ones(c.size), c.x])
        g += z.T @ w_inv @ z
        rhs += z.T @ w_inv @ c.y
    theta = np.linalg.solve(g, rhs)
    return float(theta[0]), theta[1:]


def gls_two_display(d, sigma2_u, sigma2_v):
    """The coupled textbook displays: global weighted means, then beta, then mu."""
    w_invs = [np.linalg.inv(w) for w in cluster_weights(d, sigma2_u, sigma2_v)]
    ones = [np.ones(c.size) for c in clusters(d)]
    denom = sum(o @ wi @ o for o, wi in zip(ones, w_invs))
    xbar_g = (
        sum(c.x.T @ wi @ o for c, wi, o in zip(clusters(d), w_invs, ones)) / denom
    )
    ybar_g = sum(c.y @ wi @ o for c, wi, o in zip(clusters(d), w_invs, ones)) / denom
    num = np.zeros((d.r, d.r))
    rhs = np.zeros(d.r)
    for c, wi, o in zip(clusters(d), w_invs, ones):
        xc = c.x - np.outer(o, xbar_g)
        num += xc.T @ wi @ xc
        rhs += xc.T @ wi @ (c.y - ybar_g * o)
    beta = np.linalg.solve(num, rhs)
    mu = (
        sum(o @ wi @ (c.y - c.x @ beta) for c, wi, o in zip(clusters(d), w_invs, ones))
        / denom
    )
    return float(mu), beta


def pair_moment_dense(d, mu, beta, k, s_coef, t_coef):
    total = 0.0
    count = 0
    for c in clusters(d):
        res = c.y - mu - c.x @ beta
        for j1 in range(c.size):
            for j2 in range(c.size):
                if j1 != j2:
                    total += (s_coef * res[j1] + t_coef * res[j2]) ** k
                    count += 1
    return total / count


def full_pipeline_dense(d, ridge=(1e-6, 2.0)):
    """Whole estimation chain, dense; returns a dict of every quantity."""
    n, total, r = d.n, d.total, d.r
    a, xbar, ybar, xunder = summaries(d)
    sse1 = max(sse1_dense(d), ridge[0] * n ** -ridge[1])
    s2v = sse1 / (total - n - r)
    sse2 = sse2_dense(d)
    k1, k2 = k_constants_dense(d)
    k = k1 - k2
    s2u = max((sse2 - (total - (r + 1)) * s2v) / k, 0.0)
    mu, beta = gls_dense(d, s2u, s2v)
    w4 = pair_moment_dense(d, mu, beta, 4, 1.0, -1.0)
    sizes = np.array([c.size for c in clusters(d)])
    s4sum = np.array([np.sum(c.s**4.0) for c in clusters(d)])
    s2sum = np.array([np.sum(c.s**2.0) for c in clusters(d)])
    paircnt = float(np.sum(sizes * (sizes - 1)))
    a4 = float(np.sum((sizes - 1) * s4sum)) / paircnt
    cpair = float(np.sum(s2sum**2 - s4sum)) / paircnt
    gv = max((w4 - 6.0 * cpair * s2v**2) / (2.0 * a4), s2v**2)
    res = np.concatenate([c.y - mu - c.x @ beta for c in clusters(d)])
    gu = max(
        (np.sum(res**4) - 6.0 * s2u * s2v * np.sum(s2sum) - gv * np.sum(s4sum))
        / total,
        s2u**2,
    )
    rho = s2u / (s2u + s2v / a)
    theta = mu + xunder @ beta + rho * (ybar - mu - xbar @ beta)
    psi0 = s2u * (s2v / a) / (s2u + s2v / a)
    return {
        "sigma2_v": s2v,
        "sigma2_u": s2u,
        "sse1": sse1,
        "sse2": sse2,
        "k": k,
        "mu": mu,
        "beta": beta,
        "gamma_v": gv,
        "gamma_u": gu,
        "rho": rho,
        "theta": theta,
        "psi0": psi0,
    }
