import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import nerboot
import nerboot.pipeline
from nerboot.errors import RankDeficient
from nerboot.pipeline import (
    Statistics,
    WorldFits,
    block_size,
    draw_statistics,
    fit_model,
    refit_worlds,
    ridge_floor,
    solve,
    squared_error,
)

import _brute
from conftest import random_ragged_dataset


def _response_block(d, worlds, seed):
    """The dataset's responses plus ``worlds - 1`` redrawn response rows."""
    rng = np.random.default_rng(seed)
    effects = np.repeat(rng.standard_normal((worlds, d.n)), d.sizes, axis=1)
    y = d.x.sum(axis=1) + effects + d.s * rng.standard_normal((worlds, d.total))
    y[0] = d.y
    return y


def _refit_rows(d, y):
    """The kernel's refit of response rows y (B, N): the worlds U = 0,
    V = y / s."""
    return refit_worlds(d, np.zeros((len(y), d.n)), y / d.s)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_sse1_and_gamma_v_match_oracle(seed):
    # random ragged designs with unequal scales; every world of the block
    # against the dense T-form SSE1 and the double-loop gamma_v
    d = random_ragged_dataset(seed, n=12, r=1 + seed % 2)
    y = _response_block(d, 4, seed)
    fits = _refit_rows(d, y)
    assert fits.ok.all()
    for b in range(len(y)):
        world = _brute.with_responses(d, y[b])
        want = _brute.full_pipeline_dense(world)
        assert fits.sse1[b] == pytest.approx(_brute.sse1_dense(world), rel=1e-12)
        assert fits.gamma_v[b] == pytest.approx(want["gamma_v"], rel=1e-12)


def test_block_matches_single_world_fits():
    d = random_ragged_dataset(21, n=10, r=2)
    y = _response_block(d, 5, 3)
    y[2, 4] = np.nan  # a world whose normal matrix is not finite
    fits = _refit_rows(d, y)
    np.testing.assert_array_equal(fits.ok, [True, True, False, True, True])
    for b in np.flatnonzero(fits.ok):
        one = fit_model(_brute.with_responses(d, y[b]))
        world = fits.world(b)
        for f in dataclasses.fields(WorldFits):
            got, want = getattr(world, f.name), getattr(one, f.name)
            assert np.shape(got) == np.shape(want), f.name
            np.testing.assert_allclose(
                np.asarray(got, float), np.asarray(want, float), rtol=1e-12
            )


def _mean_free_draws(d, worlds, seed):
    """U (worlds, n) and V (worlds, N) of mean-free worlds, and their
    responses y = U_i + s V."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((worlds, d.n))
    v = rng.standard_t(5.0, size=(worlds, d.total))
    return u, v, u[:, d.design.cluster] + d.s * v


def _assert_close(got, want, rtol=1e-12):
    """Entries within rtol of ``want``, relative to its largest magnitude
    (cross-products of mean-free worlds may sit near 0)."""
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


def test_draw_statistics_match_responses_and_dense_oracle():
    # a ragged r = 2 design with unequal scales: the statistics read from
    # (U, V) equal those of y = U_i + s V read as the world (0, y / s), and
    # both equal the dense sums
    d = random_ragged_dataset(17, n=12, r=2)
    assert np.ptp(d.s) > 0.5 and np.ptp(d.sizes) > 0
    u, v, y = _mean_free_draws(d, 6, 3)
    from_draws = draw_statistics(d, u, v)
    from_y = draw_statistics(d, np.zeros_like(u), y / d.s)
    for got, want in zip(from_draws, from_y):
        _assert_close(got, want)
    aug = np.column_stack([np.ones(d.total), d.x])
    for b in range(len(y)):
        world = _brute.with_responses(d, y[b])
        a, _, y_bar, _ = _brute.summaries(world)
        for stats in (from_draws, from_y):
            assert stats.sse1[b] == pytest.approx(_brute.sse1_dense(world), rel=1e-12)
            assert stats.sse2[b] == pytest.approx(_brute.sse2_dense(world), rel=1e-12)
            _assert_close(stats.zy[b], a * y_bar)
            _assert_close(stats.zu[b] @ d.design.ru, (y[b] / d.s**2) @ aug)


@st.composite
def _ragged_worlds(draw):
    """A random ragged design (3-10 clusters of 2-5 rows, r = 1-2, s in
    [0.5, 2]), the draws U and V of three mean-free worlds on it, and a
    mean (mu, beta) with entries up to 1e6 in magnitude."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=3, max_size=10))
    r = draw(st.integers(1, 2))
    shift = st.floats(-1e6, 1e6)
    mu, beta = draw(shift), np.array(draw(st.lists(shift, min_size=r, max_size=r)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    x = rng.normal(size=(len(labels), r))
    s = rng.uniform(0.5, 2.0, size=len(labels))
    d = nerboot.from_arrays(labels, x, np.zeros(len(labels)), s)
    u = rng.standard_normal((3, d.n))
    v = rng.standard_t(5.0, size=(3, d.total))
    return d, u, v, mu, beta


def _fits(d, y):
    """``fit_model`` of each response row of y; the example is rejected
    when one fails."""
    try:
        return [fit_model(_brute.with_responses(d, row)) for row in y]
    except RankDeficient:
        reject()


def _assert_same_fit(got, want, tol, theta_shift=0.0):
    """The variance components, fourth moments and EBLUPs less
    ``theta_shift`` of fit ``got`` within ``tol`` of those of ``want``, in
    units of want's scale sigma_U^2-hat + sigma_V^2-hat (its square for the
    fourth moments, its root for theta-hat)."""
    scale = want.sigma2_u + want.sigma2_v
    for name, unit in [("sigma2_u", scale), ("sigma2_v", scale),
                       ("gamma_u", scale**2), ("gamma_v", scale**2)]:
        assert abs(getattr(got, name) - getattr(want, name)) <= tol * unit, name
    moved = got.theta_hat - theta_shift
    assert np.all(np.abs(moved - want.theta_hat) <= tol * np.sqrt(scale))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(_ragged_worlds())
def test_mean_free_worlds_refit_as_shifted_worlds(worlds):
    # the statistics read from (U, V) are those of the formed y, and adding
    # mu + x beta to y leaves the variance components and fourth moments
    # alone and moves theta-hat by mu + x_under beta: the invariance that
    # lets every truth and bootstrap world be drawn without a mean, and
    # that fits data recorded at a large level as well as at level 0
    d, u, v, mu, beta = worlds
    y = u[:, d.design.cluster] + d.s * v
    from_y = draw_statistics(d, np.zeros_like(u), y / d.s)
    for got, want in zip(draw_statistics(d, u, v), from_y):
        _assert_close(got, want, rtol=1e-10)
    offset = mu + d.design.x_under @ beta
    for row, fit in zip(y, _fits(d, y)):
        shifted = fit_model(_brute.with_responses(d, row + mu + d.x @ beta))
        _assert_same_fit(shifted, fit, 1e-8, offset)


@pytest.mark.parametrize("seed", range(4))
def test_original_fit_survives_a_large_response_offset(seed):
    # data recorded at a level of 1e8, y + c (1 + x' gamma) with |gamma| <= 1:
    # the sums of squares of y itself would cancel to noise at this level
    d = random_ragged_dataset(seed, n=12, r=1 + seed % 2)
    gamma = np.random.default_rng(seed).uniform(-1.0, 1.0, d.r)
    c = 1e8
    shifted = fit_model(_brute.with_responses(d, d.y + c * (1.0 + d.x @ gamma)))
    offset = c * (1.0 + d.design.x_under @ gamma)
    _assert_same_fit(shifted, fit_model(d), 1e-6, offset)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(_ragged_worlds(), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_fit_scales_with_responses_and_ignores_row_order(worlds, c, seed):
    # y -> c y scales sigma-hat^2 by c^2, gamma-hat by c^4 and theta-hat by
    # c while the ridge floor does not bind; permuting the rows (from_arrays
    # regroups them) changes nothing but the order of the clusters
    d, u, v, _, _ = worlds
    y = u[:, d.design.cluster] + d.s * v
    labels = np.repeat(np.arange(d.n), d.sizes)
    perm = np.random.default_rng(seed).permutation(d.total)
    for row, fit in zip(y, _fits(d, y)):
        scaled = fit_model(_brute.with_responses(d, c * row))
        assume(min(fit.sse1, scaled.sse1) > ridge_floor(d.n))
        want = dataclasses.replace(
            fit,
            sigma2_u=c**2 * fit.sigma2_u,
            sigma2_v=c**2 * fit.sigma2_v,
            gamma_u=c**4 * fit.gamma_u,
            gamma_v=c**4 * fit.gamma_v,
            theta_hat=c * fit.theta_hat,
        )
        _assert_same_fit(scaled, want, 1e-10)
        shuffled = nerboot.from_arrays(labels[perm], d.x[perm], row[perm], d.s[perm])
        order = np.array(shuffled.cluster_ids)
        want = dataclasses.replace(fit, theta_hat=fit.theta_hat[order])
        _assert_same_fit(fit_model(shuffled), want, 1e-10)


def test_one_batched_solve_equals_per_block_solves():
    d = random_ragged_dataset(23, n=10, r=2)
    u, v, _ = _mean_free_draws(d, 9, 5)
    blocks = [draw_statistics(d, u[lo : lo + 3], v[lo : lo + 3]) for lo in (0, 3, 6)]
    batch = solve(d, Statistics(*map(np.concatenate, zip(*blocks))))
    per_block = [solve(d, stats) for stats in blocks]
    assert batch.ok.all()
    for f in dataclasses.fields(WorldFits):
        got = getattr(batch, f.name)
        if got is None:
            assert all(getattr(fits, f.name) is None for fits in per_block)
            continue
        want = np.concatenate([getattr(fits, f.name) for fits in per_block])
        np.testing.assert_allclose(got, want, rtol=1e-13, err_msg=f.name)


def test_nan_in_one_inner_world_masks_that_world_only():
    # inner worlds are mean-free and refitted from their draws: a NaN in one
    # world's V fails that world alone, counted once in its run of c worlds,
    # and every other world of the batch keeps its exact squared error
    d = random_ragged_dataset(29, n=8, r=2)
    c, bad = 4, 13
    u, v, _ = _mean_free_draws(d, 6 * c, 7)
    poisoned = v.copy()
    poisoned[bad, 2] = np.nan

    def draw(v):
        return lambda lo, hi, buffers: (u[lo:hi], v[lo:hi])

    clean, clean_failed = squared_error(d, draw(v), len(u), per=c)
    per_world, _ = squared_error(d, draw(v), len(u), per=1)
    assert not clean_failed.any()
    acc, failed = squared_error(d, draw(poisoned), len(u), per=c)
    np.testing.assert_array_equal(failed, np.eye(6, dtype=int)[bad // c])
    others = np.arange(6) != bad // c
    np.testing.assert_array_equal(acc[others], clean[others])
    np.testing.assert_allclose(
        acc[bad // c], clean[bad // c] - per_world[bad], rtol=1e-12
    )


def test_design_is_built_once_shared_and_read_only():
    d = random_ragged_dataset(5, n=12)
    fit_model(d)
    design = d.design
    step = block_size(d)
    y = _response_block(d, 2 * step + 3, 9)
    for lo in range(0, len(y), step):  # three refit blocks
        assert _refit_rows(d, y[lo : lo + step]).ok.all()
    copies = [_brute.with_responses(d, row) for row in y[:3]]
    for copy in copies:
        fit_model(copy)
        assert copy._cache is d._cache and copy.design is design
    assert list(d._cache) == ["design"]
    arrays = {k: v for k, v in vars(design).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {
        "a", "x_bar", "x_under", "cluster", "ru", "gram", "zmat", "zz", "q",
        "proj_sums",
    }
    for arr in arrays.values():
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


def test_fit_model_opens_one_arena_per_call(monkeypatch):
    # the fit reserves its one world's arrays from the design; unreserved,
    # each slot that outgrew the last opened a new arena (three on a ragged
    # n = 600 design)
    arenas = []
    real = nerboot.pipeline.Buffers.take

    def logged(self, key, shape, dtype=np.float64):
        view = real(self, key, shape, dtype)
        arenas.append(self._arena)
        return view

    monkeypatch.setattr("nerboot.pipeline.Buffers.take", logged)
    rng = np.random.default_rng(5)
    sizes = rng.integers(2, 13, size=600)
    labels, total = np.repeat(np.arange(600), sizes), int(sizes.sum())
    x, y = rng.uniform(size=(total, 3)), rng.normal(size=total)
    designs = [random_ragged_dataset(3, n=2), random_ragged_dataset(8, n=40, r=3)]
    for d in [nerboot.from_arrays(labels, x, y), *designs]:
        arenas.clear()
        fit_model(d)
        assert arenas and all(arena is arenas[0] for arena in arenas)


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
