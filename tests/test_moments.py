import numpy as np
import pytest

import nerboot as nb
from nerboot import mmdist
from nerboot.moments import estimate_gamma_u, estimate_gamma_v, power_sums
from nerboot.pipeline import Buffers, fit_model

import _brute
from conftest import benchmark_dataset, random_ragged_dataset


def test_first_power_vanishes_for_balanced_fit(benchmark_fixture):
    d = benchmark_fixture
    fe = fit_model(d)
    scale = float(np.mean(np.abs(d.y)))
    # balanced design, unit scales: GLS residuals sum to zero exactly
    for s_coef, t_coef in ((1.0, 1.0), (2.0, -0.5)):
        val = _brute.pair_moment_dense(d, fe.mu, fe.beta, 1, s_coef, t_coef)
        assert abs(val) < 1e-10 * scale


def test_pair_contrast_matches_double_loop_oracle():
    # the power-sum form of gamma_v-hat equals its definition through the
    # double-loop pair average of (e_ij1 - e_ij2)^4
    for seed in (0, 3):
        d = random_ragged_dataset(seed)
        resid = d.y - 0.2 - d.x @ np.array([0.8])
        w4 = _brute.pair_moment_dense(d, 0.2, np.array([0.8]), 4, 1.0, -1.0)
        design = d.design
        sigma2_v = 0.3
        want = (w4 - 6.0 * design.c_pair * sigma2_v**2) / (2.0 * design.a4_pair)
        assert want > sigma2_v**2  # the untruncated branch
        got = estimate_gamma_v(d, power_sums(d, resid, Buffers()), sigma2_v)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_contrast_of_exact_errors_estimates_twice_sigma2_v():
    # residuals replaced by exact errors u_i + v_ij, s = 1:
    # E(V_j1 - V_j2)^2 = 2 sigma_V^2
    rng = np.random.default_rng(10)
    n, m = 4000, 3
    labels = np.repeat(np.arange(n), m)
    x = rng.uniform(0.5, 1.0, size=(n * m, 1))
    u = np.repeat(rng.standard_normal(n), m)
    v = rng.standard_normal(n * m)
    d = nb.from_arrays(labels, x, u + v)
    got = _brute.pair_moment_dense(d, 0.0, np.array([0.0]), 2, 1.0, -1.0)
    # MC band: ordered-pair average of (v1 - v2)^2 over n clusters
    assert got == pytest.approx(2.0, abs=0.1)


def test_gamma_v_truncation_branch():
    d = benchmark_dataset(n=5, m=3, seed=2)
    fe = fit_model(d)
    # huge sigma2_v forces the raw expression negative
    sums = power_sums(d, d.y - fe.mu - d.x @ fe.beta, Buffers())
    val = estimate_gamma_v(d, sums, sigma2_v=100.0)
    assert val == 100.0**2


def test_floored_gamma_is_feasible_for_matching():
    # with glibc, x * x rounds one bit below x**2 at this sigma^2: the floor
    # must be the value the matched-law check z4 >= z2**2 compares against
    sigma2 = np.array([0.7257929380218189])
    d = benchmark_dataset(n=5, m=3, seed=2)
    sums = power_sums(d, np.zeros((1, d.total)), Buffers())
    gamma_v = estimate_gamma_v(d, sums, sigma2)
    gamma_u = estimate_gamma_u(d, sums, sigma2, sigma2, gamma_v)
    for gamma in (gamma_v, gamma_u):
        mmdist.make_three_point(float(sigma2[0]), float(gamma[0]))


def test_gamma_u_truncation_with_zero_sigma_u():
    labels = np.repeat(np.arange(3), 3)
    x = np.linspace(0.0, 1.0, 9).reshape(-1, 1)
    y = 2.0 * x[:, 0] + 1e-9 * np.sin(np.arange(9.0))  # nearly exact fit
    d = nb.from_arrays(labels, x, y)
    fit = fit_model(d)
    assert fit.sigma2_u == 0.0
    assert fit.gamma_u == 0.0


def test_moment_conditions_always_hold():
    for seed in range(6):
        d = random_ragged_dataset(seed)
        fit = fit_model(d)
        assert fit.gamma_v >= fit.sigma2_v**2
        assert fit.gamma_u >= fit.sigma2_u**2


def _gamma_estimates(n, seed, reps=200):
    design = benchmark_dataset(n=n, m=3, seed=seed)
    rng = np.random.default_rng(seed)
    gus, gvs = [], []
    for _ in range(reps):
        u = rng.standard_normal(n)
        v = rng.standard_normal(3 * n)
        y = design.x[:, 0] + np.repeat(u, 3) + v
        fit = fit_model(_brute.with_responses(design, y))
        gus.append(fit.gamma_u)
        gvs.append(fit.gamma_v)
    return np.array(gus), np.array(gvs)


def test_gamma_estimates_concentrate_near_normal_kurtosis():
    gus, gvs = _gamma_estimates(n=200, seed=31, reps=400)
    assert abs(gvs.mean() - 3.0) < 0.2
    assert abs(gus.mean() - 3.0) < 0.3


def test_gamma_concentrates_for_three_point_noise():
    # V three-point with p = 1/3 has E V^4 = 3 like the normal
    rng = np.random.default_rng(8)
    n, m = 200, 3
    design = benchmark_dataset(n=n, m=m, seed=9)
    dist = mmdist.make_three_point(1.0, 3.0)
    vals = []
    for _ in range(300):
        u = rng.standard_normal(n)
        v = mmdist.sample(dist, rng, n * m)
        y = design.x[:, 0] + np.repeat(u, m) + v
        fit = fit_model(_brute.with_responses(design, y))
        vals.append(fit.gamma_v)
    assert abs(np.mean(vals) - 3.0) < 0.2


def test_exact_error_fourth_moment_identity():
    # E(u + s v)^4 = gamma_u + 6 s^2 su sv + s^4 gamma_v, via the estimator
    # applied to exact errors with known fixed effects and moments
    rng = np.random.default_rng(21)
    n, m = 20000, 3
    labels = np.repeat(np.arange(n), m)
    s = np.tile([1.0, 1.5, 2.0], n)
    x = rng.uniform(size=(n * m, 1))
    u = np.repeat(rng.standard_normal(n), m)
    v = rng.standard_normal(n * m)
    errors = u + s * v
    d = nb.from_arrays(labels, x, errors, s)
    # known fixed effects mu = 0, beta = 0: the residuals are the errors
    sums = power_sums(d, d.y, Buffers())
    got = estimate_gamma_u(d, sums, sigma2_u=1.0, sigma2_v=1.0, gamma_v=3.0)
    # only the mean of errors^4 is random here; self-calibrated 4-sigma band
    se = (errors**4).std(ddof=1) / np.sqrt(errors.size)
    assert got == pytest.approx(3.0, abs=4 * se)


def test_root_n_rate_smoke():
    gus_80, gvs_80 = _gamma_estimates(n=80, seed=301, reps=150)
    gus_320, gvs_320 = _gamma_estimates(n=320, seed=302, reps=150)

    def rmse(vals):
        return np.sqrt(np.mean((vals - 3.0) ** 2))

    # quartering n should halve the RMSE, within 25% slack
    assert rmse(gvs_320) <= 0.5 * rmse(gvs_80) * 1.25
    assert rmse(gus_320) <= 0.5 * rmse(gus_80) * 1.25
