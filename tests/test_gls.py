from types import SimpleNamespace

import numpy as np
import pytest

import nerboot as nb
from nerboot.pipeline import (
    Buffers,
    fit_model,
    normal_equations,
    solve_normal_equations,
)

import _brute
from conftest import benchmark_dataset, random_ragged_dataset


def _gls_system(d, sigma2_u, sigma2_v):
    """The kernel's normal equations for the dataset's own responses, as
    a block of one world with the given variance components."""
    aug = np.column_stack([np.ones(d.total), d.x])
    return normal_equations(
        d,
        ((d.s**-2 * d.y) @ aug)[None],
        (d.design.a * _brute.summarize(d, d.y))[None],
        np.array([sigma2_u]),
        np.array([sigma2_v]),
        Buffers(),
    )


def _gls(d, sigma2_u, sigma2_v):
    """GLS (mu, beta) with given variance components, through the kernel."""
    coef, ok = solve_normal_equations(*_gls_system(d, sigma2_u, sigma2_v))
    assert ok[0]
    return SimpleNamespace(mu=float(coef[0, 0]), beta=coef[0, 1:])


def test_reduces_to_ols_when_no_cluster_effect():
    d = benchmark_dataset(n=20, m=3, seed=3)
    fe = _gls(d, 0.0, 1.0)
    z = np.column_stack([np.ones(d.total), d.x])
    coef, *_ = np.linalg.lstsq(z, d.y, rcond=None)
    assert fe.mu == pytest.approx(coef[0], rel=1e-10, abs=1e-12)
    np.testing.assert_allclose(fe.beta, coef[1:], rtol=1e-10)


def test_cluster_weight_entries():
    d = nb.from_arrays(list("aabb"), [0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0])
    w = _brute.cluster_weights(d, 1.0, 1.0)
    np.testing.assert_allclose(w[0], [[2.0, 1.0], [1.0, 2.0]], rtol=1e-15)
    w0 = _brute.cluster_weights(d, 0.0, 2.0)[0]
    np.testing.assert_allclose(w0, 2.0 * np.eye(2), rtol=1e-15)


@pytest.mark.parametrize("seed", [0, 1])
def test_rank_one_inverse_matches_dense_solve(seed):
    # the rank-one form of W_i^-1 equals the dense inverse, and the kernel's
    # normal matrix, assembled from it, equals sum_i Z_i' W_i^-1 Z_i
    d = random_ragged_dataset(seed)
    normal = np.zeros((d.r + 1, d.r + 1))
    for c, w in zip(_brute.clusters(d), _brute.cluster_weights(d, 0.7, 1.3)):
        dense = np.linalg.inv(w)
        rank_one = _brute.rank_one_inverse(c.s, 0.7, 1.3)
        np.testing.assert_allclose(rank_one, dense, atol=1e-12, rtol=1e-12)
        z = np.column_stack([np.ones(c.size), c.x])
        normal += z.T @ dense @ z
    kernel, _ = _gls_system(d, 0.7, 1.3)
    np.testing.assert_allclose(kernel[0], normal, rtol=1e-12)


def test_matches_dense_gls_oracle():
    for seed in (2, 5):
        d = random_ragged_dataset(seed, r=2)
        fe = _gls(d, 0.8, 1.1)
        mu, beta = _brute.gls_dense(d, 0.8, 1.1)
        assert fe.mu == pytest.approx(mu, rel=1e-10)
        np.testing.assert_allclose(fe.beta, beta, rtol=1e-10)


def test_matches_two_display_form():
    # the coupled textbook displays agree with the joint solve
    for seed in (4, 6):
        d = random_ragged_dataset(seed)
        fe = _gls(d, 0.5, 2.0)
        mu, beta = _brute.gls_two_display(d, 0.5, 2.0)
        assert fe.mu == pytest.approx(mu, rel=1e-10)
        np.testing.assert_allclose(fe.beta, beta, rtol=1e-10)


def test_noiseless_interpolation():
    d = benchmark_dataset(n=10, m=3, seed=8)
    y = 1.5 + 0.5 * d.x[:, 0]
    d2 = _brute.with_responses(d, y)
    fe = _gls(d2, 1.0, 1.0)
    assert fe.mu == pytest.approx(1.5, abs=1e-10)
    assert fe.beta[0] == pytest.approx(0.5, abs=1e-10)


def test_equivariance_under_linear_shift():
    d = random_ragged_dataset(10, r=2)
    vc = (0.6, 0.9)
    fe = _gls(d, *vc)
    shift = np.array([1.5, -2.0])
    d2 = _brute.with_responses(d, d.y + 4.0 + d.x @ shift)
    fe2 = _gls(d2, *vc)
    assert fe2.mu - fe.mu == pytest.approx(4.0, rel=1e-8)
    np.testing.assert_allclose(fe2.beta - fe.beta, shift, rtol=1e-8)


def test_invariant_to_common_variance_scaling():
    d = random_ragged_dataset(12)
    fe = _gls(d, 0.6, 0.9)
    fe2 = _gls(d, 0.6 * 7.0, 0.9 * 7.0)
    assert fe.mu == pytest.approx(fe2.mu, rel=1e-8)
    np.testing.assert_allclose(fe.beta, fe2.beta, rtol=1e-8)


def test_unbiased_on_benchmark_design():
    # mu = 0, beta = 1 data: mean of estimates within 3 MC standard errors
    design = benchmark_dataset(n=100, m=3, seed=17)
    rng = np.random.default_rng(55)
    reps = 500
    betas = np.empty(reps)
    mus = np.empty(reps)
    for k in range(reps):
        u = rng.standard_normal(100)
        v = rng.standard_normal(300)
        y = design.x[:, 0] + np.repeat(u, 3) + v
        fit = fit_model(_brute.with_responses(design, y))
        mus[k] = fit.mu
        betas[k] = fit.beta[0]
    assert abs(betas.mean() - 1.0) < 3 * betas.std(ddof=1) / np.sqrt(reps)
    assert abs(mus.mean()) < 3 * mus.std(ddof=1) / np.sqrt(reps)


def test_beta_consistency_with_growing_n():
    # RMSE of beta-hat shrinks as the cluster count grows
    rmse = []
    for n in (60, 240, 960):
        design = benchmark_dataset(n=n, m=3, seed=70 + n)
        rng = np.random.default_rng(n)
        errs = []
        for _ in range(150):
            u = rng.standard_normal(n)
            v = rng.standard_normal(3 * n)
            y = design.x[:, 0] + np.repeat(u, 3) + v
            fit = fit_model(_brute.with_responses(design, y))
            errs.append((fit.beta[0] - 1.0) ** 2)
        rmse.append(np.sqrt(np.mean(errs)))
    assert rmse[0] > rmse[1] > rmse[2]
