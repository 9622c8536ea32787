import numpy as np
import pytest

import nerboot as nb
from nerboot.errors import NonPositiveK, SingularWeight
from nerboot.gls import fit_fixed_effects
from nerboot.mspe import BootstrapConfig
from nerboot.streams import substream
from nerboot.transform import _uncentered_design
from nerboot.variance import VarianceComponents, ridge_floor


def test_non_positive_k_detected():
    # covariate = cluster indicator: span(1, x) contains both cluster
    # directions, so K2 = K1 and K = 0
    labels = np.repeat([0, 1], 3)
    x = np.repeat([[1.0], [0.0]], 3, axis=0)
    y = np.arange(6.0)
    d = nb.from_arrays(labels, x, y)
    with pytest.raises(NonPositiveK):
        _uncentered_design(d)


def test_singular_weight_rejected():
    d = nb.from_arrays(
        np.repeat([0, 1], 2), np.arange(4.0).reshape(-1, 1), np.arange(4.0)
    )
    bad = VarianceComponents(
        sigma2_u=1.0, sigma2_v=0.0, sse1=0.0, sse2=0.0, k_constant=1.0
    )
    with pytest.raises(SingularWeight):
        fit_fixed_effects(d, bad)
    with pytest.raises(SingularWeight):
        nb.cluster_weights(d, bad)


def test_ridge_parameter_validation():
    with pytest.raises(ValueError):
        ridge_floor(10, (0.0, 2.0))  # B1 must be positive
    with pytest.raises(ValueError):
        ridge_floor(10, (1e-6, 1.5))  # B2 must be >= 2
    assert ridge_floor(10, (1e-6, 2.0)) == pytest.approx(1e-8)


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(b1=0)
    with pytest.raises(ValueError):
        BootstrapConfig(g_kind="tanh")
    with pytest.raises(ValueError):
        BootstrapConfig(g_kind="clipped", c_clip=0.0)
    with pytest.raises(ValueError):
        BootstrapConfig(master_seed=-1)
    desk = BootstrapConfig.desk_scale(master_seed=3)
    assert (desk.b1, desk.b2, desk.c) == (100, 50, 50)


def test_substream_rejects_bad_seed():
    with pytest.raises(ValueError):
        substream(-5, 1)
    a = substream(9, 1, 2).random(4)
    b = substream(9, 1, 2).random(4)
    np.testing.assert_array_equal(a, b)
