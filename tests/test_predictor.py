from types import SimpleNamespace

import numpy as np
import pytest

from nerboot.pipeline import Buffers, predict, ridge_floor

import _brute


def eblup(d, fe, sigma2_u, sigma2_v):
    theta_hat, rho, naive_mse = predict(
        d, _brute.summarize(d, d.y), fe.mu, fe.beta, sigma2_u, sigma2_v, Buffers()
    )
    return SimpleNamespace(theta_hat=theta_hat, rho=rho, naive_mse=naive_mse)


def naive_mse(sigma2_u, sigma2_v, a):
    """psi_0 of ``predict`` for clusters with a_i = ``a`` (an array)."""
    a = np.asarray(a, dtype=float)
    zeros = np.zeros((a.size, 1))
    d = SimpleNamespace(design=SimpleNamespace(a=a, x_bar=zeros, x_under=zeros))
    return predict(d, zeros[:, 0], 0.0, np.zeros(1), sigma2_u, sigma2_v, Buffers())[2]


def test_shrinkage_factor_values(benchmark_fixture):
    d = benchmark_fixture
    fe = SimpleNamespace(mu=0.0, beta=np.array([1.0]))
    pred = eblup(d, fe, 1.0, 1.0)
    np.testing.assert_allclose(pred.rho, 0.75, rtol=1e-12)  # a_i = 3
    np.testing.assert_allclose(pred.naive_mse, 0.25, rtol=1e-12)


def test_zero_cluster_variance_gives_synthetic_predictor(benchmark_fixture):
    d = benchmark_fixture
    fe = SimpleNamespace(mu=0.3, beta=np.array([0.7]))
    pred = eblup(d, fe, 0.0, 1.0)
    assert np.all(pred.rho == 0.0)
    assert np.all(pred.naive_mse == 0.0)
    np.testing.assert_allclose(
        pred.theta_hat, 0.3 + d.design.x_under[:, 0] * 0.7, rtol=1e-12
    )


def test_ridge_floor_keeps_rho_near_one(benchmark_fixture):
    d = benchmark_fixture
    fe = SimpleNamespace(mu=0.0, beta=np.array([1.0]))
    floor_v = ridge_floor(60) / (180 - 60 - 1)
    pred = eblup(d, fe, 1.0, floor_v)
    assert np.all(pred.rho > 0.999)


def test_naive_mse_examples():
    assert naive_mse(1.0, 1.0, [3.0])[0] == pytest.approx(0.25, rel=1e-12)
    assert naive_mse(0.0, 1.0, [3.0])[0] == 0.0
    assert naive_mse(2.0, 1.0, [1.0])[0] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_naive_mse_harmonic_bound_and_monotonicity():
    rng = np.random.default_rng(77)
    for _ in range(500):
        u, v, a = rng.uniform(0.01, 5.0, size=3)
        val = naive_mse(u, v, [a])[0]
        assert val <= min(u, v / a) + 1e-15
        assert naive_mse(u * 1.5, v, [a])[0] >= val  # nondecreasing in sigma_U^2


def test_endpoint_interpolation(benchmark_fixture):
    d = benchmark_fixture
    fe = SimpleNamespace(mu=0.1, beta=np.array([0.9]))
    synthetic = fe.mu + d.design.x_under @ fe.beta
    direct_gap = _brute.summarize(d, d.y) - fe.mu - d.design.x_bar @ fe.beta

    pred0 = eblup(d, fe, 0.0, 1.0)  # rho = 0 exactly
    np.testing.assert_allclose(pred0.theta_hat, synthetic, rtol=1e-12)

    pred1 = eblup(d, fe, 1e12, 1.0)  # rho -> 1
    np.testing.assert_allclose(pred1.theta_hat, synthetic + direct_gap, rtol=1e-9)
