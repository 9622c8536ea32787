import numpy as np
import pytest

import nerboot as nb
from nerboot.errors import NonPositiveK
from nerboot.mspe import BootstrapConfig
from nerboot.pipeline import ridge_floor
from nerboot.simulate import Scenario, error_model, run_truth
from nerboot.streams import substream, substream_states


def test_non_positive_k_detected():
    # covariate = cluster indicator: span(1, x) contains both cluster
    # directions, so K2 = K1 and K = 0
    labels = np.repeat([0, 1], 3)
    x = np.repeat([[1.0], [0.0]], 3, axis=0)
    y = np.arange(6.0)
    d = nb.from_arrays(labels, x, y)
    with pytest.raises(NonPositiveK):
        d.design
    with pytest.raises(NonPositiveK):
        nb.fit_model(d)


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
    for c_clip in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            BootstrapConfig(g_kind="clipped", c_clip=c_clip)
    with pytest.raises(ValueError):
        BootstrapConfig(family="bogus")
    with pytest.raises(ValueError):
        BootstrapConfig(master_seed=-1)
    desk = BootstrapConfig.desk_scale(master_seed=3)
    assert (desk.b1, desk.b2, desk.c) == (100, 50, 50)


@pytest.mark.parametrize("name", ["b1", "b2", "c", "master_seed"])
@pytest.mark.parametrize("value", [2.5, 2.0])
def test_bootstrap_config_rejects_non_integers(name, value):
    # a float seed would silently draw the streams of its integer part, and a
    # float count would fail deep inside the bootstrap; the seed is checked by
    # the key rule of ``streams``
    message = "seed and key components" if name == "master_seed" else name
    with pytest.raises(ValueError, match=f"^{message} must be"):
        BootstrapConfig(**{name: value})
    cfg = BootstrapConfig(**{name: np.int64(2)})  # numpy integers are integers
    assert getattr(cfg, name) == 2


def test_substream_rejects_bad_seed():
    with pytest.raises(ValueError):
        substream(-5, 1)
    message = "seed and key components must be integers"
    scenario, model = Scenario.from_ratio(5, 1.0), error_model("m1")
    for seed in (1.5, 1.0, "1"):
        with pytest.raises(ValueError, match=message):
            substream(seed, 1)
        with pytest.raises(ValueError, match=message):
            substream_states(seed, 1, tails=np.zeros((2, 1), int))
        with pytest.raises(ValueError, match=message):
            run_truth(scenario, model, 2, master_seed=seed)
    # a key component is never truncated to its integer part
    for key in ((1.5,), (1, 2.0), (np.float64(3.0),)):
        with pytest.raises(ValueError, match=message):
            substream(3, *key)
    a = substream(9, 1, 2).random(4)
    b = substream(9, 1, 2).random(4)
    np.testing.assert_array_equal(a, b)
