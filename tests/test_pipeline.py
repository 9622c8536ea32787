import dataclasses

import numpy as np
import pytest

import nerboot
from nerboot.pipeline import WorldFits, block_size, fit_model, refit_worlds

import _brute
from conftest import random_ragged_dataset


def _response_block(d, worlds, seed):
    """The dataset's responses plus ``worlds - 1`` redrawn response rows."""
    rng = np.random.default_rng(seed)
    effects = np.repeat(rng.standard_normal((worlds, d.n)), d.sizes, axis=1)
    y = d.x.sum(axis=1) + effects + d.s * rng.standard_normal((worlds, d.total))
    y[0] = d.y
    return y


@pytest.mark.parametrize("seed", range(8))
def test_kernel_sse1_and_gamma_v_match_oracle(seed):
    # random ragged designs with unequal scales; every world of the block
    # against the dense T-form SSE1 and the double-loop gamma_v
    d = random_ragged_dataset(seed, n=12, r=1 + seed % 2)
    y = _response_block(d, 4, seed)
    fits = refit_worlds(d, y, with_fourth_moments=True)
    assert fits.ok.all()
    for b in range(len(y)):
        world = d.with_responses(y[b])
        want = _brute.full_pipeline_dense(world)
        assert fits.sse1[b] == pytest.approx(_brute.sse1_dense(world), rel=1e-12)
        assert fits.gamma_v[b] == pytest.approx(want["gamma_v"], rel=1e-12)


def test_block_matches_single_world_fits():
    d = random_ragged_dataset(21, n=10, r=2)
    y = _response_block(d, 5, 3)
    y[2, 4] = np.nan  # a world whose normal matrix is not finite
    fits = refit_worlds(d, y, with_fourth_moments=True)
    np.testing.assert_array_equal(fits.ok, [True, True, False, True, True])
    for b in np.flatnonzero(fits.ok):
        one = fit_model(d.with_responses(y[b]))
        world = fits.world(b)
        for f in dataclasses.fields(WorldFits):
            got, want = getattr(world, f.name), getattr(one, f.name)
            assert np.shape(got) == np.shape(want), f.name
            np.testing.assert_allclose(
                np.asarray(got, float), np.asarray(want, float), rtol=1e-12
            )


def test_design_is_built_once_shared_and_read_only():
    d = random_ragged_dataset(5, n=12)
    fit_model(d)
    design = d.design
    step = block_size(d)
    y = _response_block(d, 2 * step + 3, 9)
    for lo in range(0, len(y), step):  # three refit blocks
        assert refit_worlds(d, y[lo : lo + step], with_fourth_moments=True).ok.all()
    copies = [d.with_responses(row) for row in y[:3]]
    for copy in copies:
        fit_model(copy)
        assert copy._cache is d._cache and copy.design is design
    assert list(d._cache) == ["design"]
    arrays = {k: v for k, v in vars(design).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {
        "w", "a", "x_bar", "x_under", "cluster", "proj", "ru", "gram", "zmat", "zz",
    }
    for arr in arrays.values():
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


def test_every_export_resolves():
    missing = [name for name in nerboot.__all__ if not hasattr(nerboot, name)]
    assert missing == []
    assert len(set(nerboot.__all__)) == len(nerboot.__all__)


def test_readme_library_quickstart_runs():
    # the README's "Library quickstart" and run_study snippets, through the
    # names they use, on a small design at desk sizes
    import nerboot as nb
    from nerboot import simulate as sim

    assert len(nb.__all__) <= 25
    d0 = random_ragged_dataset(4, n=10, r=2)
    labels, x, y, s = np.repeat(np.arange(d0.n), d0.sizes), d0.x, d0.y, d0.s

    d = nb.from_arrays(labels, x, y, s)
    fit = nb.fit_model(d)
    assert fit.theta_hat.shape == fit.naive_mse.shape == (10,)
    cfg = nb.BootstrapConfig.desk_scale(master_seed=12345)
    fit, res = nb.mspe_report(d, cfg)
    assert np.all(res.corrected_robust > 0)

    scen = sim.Scenario.from_ratio(n=10, ratio=1.0)
    cfg = nb.BootstrapConfig.desk_scale(master_seed=7)
    study = sim.run_study(scen, sim.error_model("m1"), cfg, replicates=2, jobs=1)
    for name in ("naive", "robust"):
        assert np.isfinite(study.metrics[name].rb_median)
