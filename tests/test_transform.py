import numpy as np
import pytest

import nerboot as nb
from nerboot.errors import RankDeficient
from nerboot.pipeline import fit_model

import _brute
from conftest import benchmark_dataset, random_ragged_dataset


def _pairs_dataset():
    # 3 clusters of 2 observations, unit scales
    rng = np.random.default_rng(11)
    labels = np.repeat(np.arange(3), 2)
    x = rng.normal(size=(6, 1))
    y = rng.normal(size=6)
    return nb.from_arrays(labels, x, y)


def _blocks(t, sizes):
    """Diagonal blocks of a dense T with one dropped observation per cluster."""
    ends = np.cumsum(sizes - 1)
    return [t[e - k : e, e - k : e] for e, k in zip(ends, sizes - 1)]


def test_pair_cluster_centering():
    d = _pairs_dataset()
    _, q, t = _brute.centered_dense(d)
    # one retained observation per cluster: q_i1 = (y_i1 - y_i2)/2, T_i = [[1/2]]
    assert q.shape == (3,)
    expected_q = (d.y[0::2] - d.y[1::2]) / 2.0
    np.testing.assert_allclose(q, expected_q, rtol=1e-12)
    np.testing.assert_allclose(t, 0.5 * np.eye(3), rtol=1e-12)


def test_triplet_block_is_deviation_covariance():
    d = benchmark_dataset(n=4, m=3)
    _, _, t = _brute.centered_dense(d)
    expected = np.array([[2.0 / 3.0, -1.0 / 3.0], [-1.0 / 3.0, 2.0 / 3.0]])
    for blk in _blocks(t, d.sizes):
        np.testing.assert_allclose(blk, expected, rtol=1e-12)


def test_block_covariance_matches_monte_carlo():
    # unequal scales: T_i must be the covariance of the retained centered
    # residuals e_j = V_j - s_j^-1 (sum_k s_k^-1 V_k)/a, sigma_V = 1
    s = np.array([1.0, 2.0, 4.0])
    d = nb.from_arrays(
        np.repeat([0, 1], 3),
        np.arange(6, dtype=float).reshape(-1, 1),
        np.zeros(6),
        np.tile(s, 2),
    )
    t0 = _blocks(_brute.centered_dense(d)[2], d.sizes)[0]
    a = np.sum(s**-2.0)
    rng = np.random.default_rng(99)
    draws = 1_000_000
    v = rng.standard_normal((draws, 3))
    vbar = (v @ (1.0 / s)) / a
    e = v[:, :2] - np.outer(vbar, 1.0 / s[:2])
    for j1 in range(2):
        for j2 in range(2):
            prods = e[:, j1] * e[:, j2]
            se = prods.std(ddof=1) / np.sqrt(draws)
            assert abs(prods.mean() - t0[j1, j2]) < 3 * se


def test_t_matrix_block_diagonal_zeros():
    # the dense T is block-diagonal, and each block is positive-definite with
    # smallest eigenvalue s_{i,drop}^-2 / a_i
    d = random_ragged_dataset(7)
    _, _, t = _brute.centered_dense(d)
    mask = np.zeros_like(t, dtype=bool)
    ends = np.cumsum(d.sizes - 1)
    for e, k in zip(ends, d.sizes - 1):
        mask[e - k : e, e - k : e] = True
    assert np.all(t[~mask] == 0.0)
    a, *_ = _brute.summaries(d)
    for i, (blk, c) in enumerate(zip(_blocks(t, d.sizes), _brute.clusters(d))):
        smallest = np.linalg.eigvalsh(blk)[0]
        assert smallest == pytest.approx(c.s[-1] ** -2.0 / a[i], rel=1e-10)


def test_centered_rank_deficient_when_x_constant_within_clusters():
    labels = np.repeat(np.arange(3), 3)
    x = np.repeat([[1.0], [2.0], [3.0]], 3, axis=0)  # constant inside clusters
    y = np.arange(9.0)
    d = nb.from_arrays(labels, x, y)
    with pytest.raises(RankDeficient):
        fit_model(d)


def test_uncentered_system_entries_and_rank():
    d = random_ragged_dataset(5)
    p_bar, _ = _brute.uncentered_dense(d)
    design = d.design
    assert design.r_aug == d.r + 1
    np.testing.assert_allclose(design.gram, p_bar @ p_bar.T, rtol=1e-12)
    # the uncentered columns of ``q`` are an orthonormal basis Q_u with
    # P-bar = Q_u ru
    q_u = design.q[:, : design.r_aug]
    np.testing.assert_allclose(q_u.T @ q_u, np.eye(design.r_aug), atol=1e-14)
    np.testing.assert_allclose(q_u @ design.ru, p_bar.T, rtol=1e-12, atol=1e-14)
    # each within column of q / s sums to 0 over every cluster, so the
    # within coordinates need no centred y
    proj = design.q / d.s[:, None]
    within = np.add.reduceat(proj[:, design.r_aug :], d.starts[:-1], axis=0)
    np.testing.assert_allclose(within, 0.0, atol=1e-14)

    # a constant covariate is collinear with the intercept row
    labels = np.repeat(np.arange(3), 3)
    d_const = nb.from_arrays(labels, np.full((9, 1), 2.0), np.arange(9.0))
    with pytest.raises(RankDeficient):
        d_const.design


def test_unit_scale_uncentered_columns():
    d = benchmark_dataset(n=3, m=3)
    design = d.design
    p_bar_rows = (design.q[:, : design.r_aug] / d.s[:, None]) @ design.ru
    np.testing.assert_allclose(p_bar_rows[:, 0], np.ones(d.total), rtol=1e-14)
    np.testing.assert_allclose(p_bar_rows[:, 1], d.x[:, 0], rtol=1e-14)


@pytest.mark.parametrize("seed", [0, 4, 8])
def test_sse1_invariant_to_dropped_observation(seed):
    # the T-form SSE1 of the oracle does not depend on which observation each
    # cluster drops, and equals the kernel's all-rows within regression
    d = random_ragged_dataset(seed)
    base = fit_model(d).sse1
    rng = np.random.default_rng(seed + 100)
    for _ in range(3):
        dropped = np.array([rng.integers(0, m) for m in d.sizes])
        alt = _brute.sse1_dense(d, dropped=dropped)
        assert abs(alt - base) <= 1e-8 * abs(base)


def test_sse1_matches_dense_oracle():
    for seed in (1, 2):
        d = random_ragged_dataset(seed)
        sse1 = fit_model(d).sse1
        assert sse1 == pytest.approx(_brute.sse1_dense(d), rel=1e-10)
