import numpy as np
import pytest

import nerboot as nb
from nerboot.pipeline import fit_model, ridge_floor

import _brute
from conftest import benchmark_dataset, random_ragged_dataset


def _variances(d):
    return fit_model(d)


def test_noise_free_data_hits_ridge_floor():
    # y exactly linear in x and constant within clusters: centered residual 0
    labels = np.repeat(np.arange(4), 3)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(12, 1))
    y = 2.0 + 3.0 * x[:, 0]
    d = nb.from_arrays(labels, x, y)
    vc = _variances(d)
    assert vc.sse1 == ridge_floor(d.n)
    assert vc.sigma2_v == ridge_floor(d.n) / (d.total - d.n - d.r)


def test_sigma2_v_matches_direct_solve_small_case():
    # 3 clusters of 2, unit scales: one centered equation per cluster
    rng = np.random.default_rng(123)
    labels = np.repeat(np.arange(3), 2)
    x = rng.normal(size=(6, 1))
    y = rng.normal(size=6)
    d = nb.from_arrays(labels, x, y)
    sigma2_v = _variances(d).sigma2_v
    expected = max(_brute.sse1_dense(d), ridge_floor(3)) / (6 - 3 - 1)
    assert sigma2_v == pytest.approx(expected, rel=1e-10)


def test_sse2_and_k_match_dense_oracle():
    for seed in (3, 9):
        d = random_ragged_dataset(seed, r=2)
        vc = _variances(d)
        assert vc.sse2 == pytest.approx(_brute.sse2_dense(d), rel=1e-10)
        k1, k2 = _brute.k_constants_dense(d)
        assert d.design.k == pytest.approx(k1 - k2, rel=1e-10)
        assert vc.sigma2_u >= 0.0


def test_k1_equals_total_for_unit_scales(benchmark_fixture):
    d = benchmark_fixture
    assert d.design.a.sum() == pytest.approx(d.total, rel=1e-12)


def test_sigma2_u_truncates_to_zero():
    # within-cluster noise present, between-cluster signal removed exactly
    rng = np.random.default_rng(14)
    labels = np.repeat(np.arange(6), 3)
    x = rng.uniform(size=(18, 1))
    y = rng.standard_normal(18)
    y -= np.repeat([y[k : k + 3].mean() for k in range(0, 18, 3)], 3)
    d = nb.from_arrays(labels, x, y)
    vc = _variances(d)
    assert vc.sse2 < (d.total - (d.r + 1)) * vc.sigma2_v
    assert vc.sigma2_u == 0.0


def test_sigma2_v_invariant_to_linear_shift():
    # adding c (1 + x gamma) to y leaves both variance components alone and
    # moves theta-hat by c (1 + x_under gamma); c = 100 makes the uncentered
    # sum of squares sum w y^2 - ||z_u||^2 cancel in about four more digits
    d = random_ragged_dataset(6)
    base = _variances(d)
    assert base.sigma2_u > 0
    gamma = 0.5
    for c, rtol in ((5.0, 1e-8), (100.0, 1e-10)):
        fit = _variances(_brute.with_responses(d, d.y + c * (1.0 + gamma * d.x[:, 0])))
        assert fit.sigma2_v == pytest.approx(base.sigma2_v, rel=rtol)
        assert fit.sigma2_u == pytest.approx(base.sigma2_u, rel=rtol)
        moved = fit.theta_hat - c * (1.0 + gamma * d.design.x_under[:, 0])
        np.testing.assert_allclose(moved, base.theta_hat, rtol=rtol)


def test_unbiasedness_smoke_monte_carlo():
    # light version of the acceptance run: 500 replicates, n = 30
    rng = np.random.default_rng(2024)
    design = benchmark_dataset(n=30, m=3, seed=51)
    reps = 500
    vals = np.empty(reps)
    for k in range(reps):
        u = rng.standard_normal(30)
        v = rng.standard_normal(90)
        y = design.x[:, 0] + np.repeat(u, 3) + v
        fit = fit_model(_brute.with_responses(design, y))
        vals[k] = fit.sigma2_v
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 1.0) < 3 * se


def test_consistency_sweep_rmse_nonincreasing():
    sizes = (20, 80, 320)
    rmse = []
    for n in sizes:
        design = benchmark_dataset(n=n, m=3, seed=1000 + n)
        rng = np.random.default_rng(n)
        errs = []
        for _ in range(120):
            u = rng.standard_normal(n)
            v = rng.standard_normal(3 * n)
            y = design.x[:, 0] + np.repeat(u, 3) + v
            fit = fit_model(_brute.with_responses(design, y))
            errs.append(
                (fit.sigma2_u - 1.0) ** 2 + (fit.sigma2_v - 1.0) ** 2
            )
        rmse.append(np.sqrt(np.mean(errs)))
    assert rmse[0] >= rmse[1] >= rmse[2]
