import numpy as np
import pytest

from nerboot.pipeline import fit_model, refit_worlds

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
        pairs = [
            (fits.sigma2_u[b], one.variance.sigma2_u),
            (fits.sigma2_v[b], one.variance.sigma2_v),
            (fits.sse2[b], one.variance.sse2),
            (fits.mu[b], one.fixed_effects.mu),
            (fits.beta[b], one.fixed_effects.beta),
            (fits.theta_hat[b], one.theta_hat),
            (fits.rho[b], one.prediction.rho),
            (fits.naive_mse[b], one.prediction.naive_mse),
            (fits.gamma_u[b], one.fourth_moments.gamma_u),
            (fits.gamma_v[b], one.fourth_moments.gamma_v),
        ]
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=1e-12)
