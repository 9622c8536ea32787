import logging
import math

import numpy as np
import pytest

from nerboot.errors import KurtosisNotHeavy, MomentInfeasible
from nerboot.mmdist import (
    STUDENT_T,
    THREE_POINT,
    make_distribution,
    make_student_t,
    make_three_point,
    sample,
)


def _three_point_moments(dist):
    p, atom = dist.params["p"], dist.params["atom"]
    probs = np.array([1.0 - p, p / 2.0, p / 2.0])
    atoms = np.array([0.0, atom, -atom])
    return [float(np.sum(probs * atoms**k)) for k in (1, 2, 3, 4)]


def test_three_point_example_atoms():
    dist = make_three_point(1.0, 3.0)
    assert dist.params["p"] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert dist.params["atom"] == pytest.approx(math.sqrt(3.0), rel=1e-15)
    m1, m2, m3, m4 = _three_point_moments(dist)
    assert (m1, m3) == (0.0, 0.0)
    assert m2 == pytest.approx(1.0, abs=1e-15)
    assert m4 == pytest.approx(3.0, abs=1e-14)


def test_three_point_rademacher_limit():
    dist = make_three_point(1.0, 1.0)
    assert dist.params["p"] == 1.0
    draws = sample(dist, np.random.default_rng(0), 1000)
    assert set(np.unique(draws)) == {-1.0, 1.0}


def test_three_point_degenerate_point_mass():
    dist = make_three_point(0.0, 0.0)
    draws = sample(dist, np.random.default_rng(1), 500)
    assert np.all(draws == 0.0)
    dist2 = make_three_point(0.0, 7.0)  # any z4 >= 0 allowed at z2 = 0
    assert np.all(sample(dist2, np.random.default_rng(2), 100) == 0.0)


def test_three_point_exact_moments_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        z2 = rng.uniform(0.01, 5.0)
        z4 = z2**2 * rng.uniform(1.0, 10.0)
        m1, m2, m3, m4 = _three_point_moments(make_three_point(z2, z4))
        assert abs(m1) < 1e-12
        assert abs(m2 - z2) < 1e-12 * max(1.0, z2)
        assert abs(m3) < 1e-12
        assert abs(m4 - z4) < 1e-12 * max(1.0, z4)


def test_infeasible_moments_rejected():
    with pytest.raises(MomentInfeasible):
        make_three_point(1.0, 0.5)
    with pytest.raises(MomentInfeasible):
        make_three_point(-1.0, 1.0)
    with pytest.raises(MomentInfeasible):
        make_student_t(2.0, 1.0)


@pytest.mark.parametrize("make", [make_three_point, make_student_t])
@pytest.mark.parametrize(
    "z2, z4", [(math.nan, 3.0), (1.0, math.nan), (math.inf, math.inf), (1.0, math.inf)]
)
def test_non_finite_moments_rejected(make, z2, z4):
    with pytest.raises(MomentInfeasible, match="finite"):
        make(z2, z4)


@pytest.mark.parametrize("count", [1, 9, 1000])
def test_sample_replays_the_generator_calls(count):
    """Bit for bit the family's draws written out by hand: three-point maps
    one uniform per draw, Student-t takes all normals and then all gammas."""
    tp = make_three_point(1.3, 4.0)
    p, atom = tp.params["p"], tp.params["atom"]
    u = np.random.default_rng(count).random(count)
    expected = np.where(u < p / 2, atom, np.where(u < p, -atom, 0.0))
    np.testing.assert_array_equal(sample(tp, np.random.default_rng(count), count), expected)

    t = make_student_t(1.0, 7.0)
    df, scale = t.params["df"], t.params["scale"]
    rng = np.random.default_rng(count)
    z = rng.standard_normal(count)
    chi2 = rng.gamma(df / 2.0, 2.0, count)
    expected = scale * z / np.sqrt(chi2 / df)
    np.testing.assert_array_equal(sample(t, np.random.default_rng(count), count), expected)


def test_student_t_parameter_solve():
    dist = make_student_t(1.0, 6.0)
    assert dist.params["df"] == pytest.approx(6.0, rel=1e-12)
    assert dist.params["scale"] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    dist2 = make_student_t(2.0, 24.0)  # kurtosis 6 again
    assert dist2.params["df"] == pytest.approx(6.0, rel=1e-12)
    assert dist2.params["scale"] == pytest.approx(math.sqrt(2.0 * 2.0 / 3.0), rel=1e-12)


def test_student_t_requires_heavy_tails():
    with pytest.raises(KurtosisNotHeavy):
        make_student_t(1.0, 3.0)
    with pytest.raises(KurtosisNotHeavy):
        make_student_t(1.0, 2.9)


def test_student_t_empirical_moments():
    dist = make_student_t(1.0, 6.0)
    draws = sample(dist, np.random.default_rng(7), 1_000_000)
    for power, target in ((2, 1.0), (4, 6.0)):
        vals = draws**power
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3 * se


def test_three_point_empirical_moments():
    dist = make_three_point(1.0, 3.0)
    draws = sample(dist, np.random.default_rng(8), 1_000_000)
    for power, target in ((1, 0.0), (2, 1.0), (4, 3.0)):
        vals = draws**power
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3 * se


def test_sampler_determinism():
    dist = make_three_point(2.0, 9.0)
    a = sample(dist, np.random.default_rng(123), 1000)
    b = sample(dist, np.random.default_rng(123), 1000)
    np.testing.assert_array_equal(a, b)


def test_family_fallback(caplog):
    with caplog.at_level(logging.DEBUG, logger="nerboot.mmdist"):
        dist = make_distribution(1.0, 2.0, family=STUDENT_T)  # kurtosis 2 <= 3
    assert dist.family == THREE_POINT
    assert any("falling back" in rec.message for rec in caplog.records)

    heavy = make_distribution(1.0, 6.0, family=STUDENT_T)
    assert heavy.family == STUDENT_T
    default = make_distribution(1.0, 6.0)
    assert default.family == THREE_POINT

    with pytest.raises(ValueError):
        make_distribution(1.0, 3.0, family="pearson")
