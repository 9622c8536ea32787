import dataclasses
import itertools
import math

import numpy as np
import pytest

import nerboot as nb
import nerboot.mspe
import nerboot.pipeline
import nerboot.streams as streams
from nerboot.errors import DivisionGuard, TooManyFailures
from nerboot.mspe import (
    BootstrapConfig,
    _draw_worlds,
    mse_double,
    mse_single,
    mspe_report,
    robust_correction,
)
from nerboot.pipeline import Buffers, block_size, fit_model

import _brute
from conftest import benchmark_dataset, random_ragged_dataset


@pytest.fixture(scope="module")
def fitted():
    d = benchmark_dataset(n=20, m=3, seed=14)
    return d, fit_model(d)


# ---------------------------------------------------------------------------
# robust correction algebra
# ---------------------------------------------------------------------------

def test_correction_fixed_point_at_equal_estimates():
    for g in ("arctan", "clipped"):
        assert robust_correction(0.3, 0.3, 60, g_kind=g) == 0.3


def test_correction_numeric_examples():
    # direct evaluation of both branches with g = arctan, n = 60
    upper = 0.25 + math.atan(60 * 0.05) / 60
    assert robust_correction(0.25, 0.20, 60) == pytest.approx(upper, abs=1e-6)
    assert upper == pytest.approx(0.2708174295, abs=1e-9)

    lower = 0.20**2 / (0.20 + math.atan(60 * 0.05) / 60)
    assert robust_correction(0.20, 0.25, 60) == pytest.approx(lower, abs=1e-6)
    assert lower == pytest.approx(0.1811451210, abs=1e-9)


def test_correction_positive_for_random_inputs():
    rng = np.random.default_rng(5)
    size = 100_000
    u = rng.uniform(1e-8, 10.0, size)
    v = np.abs(rng.uniform(-5.0, 10.0, size))
    n = int(rng.integers(2, 500))
    for g in ("arctan", "clipped"):
        out = robust_correction(u, v, n, g_kind=g, c_clip=0.7)
        assert np.all(out > 0.0)


def test_correction_branch_continuity():
    u = 0.4
    for v in (u - 1e-9, u + 1e-9):
        assert abs(robust_correction(u, v, 60) - u) < 1e-8


def test_correction_division_guard():
    # pathological negative u-hat exposes the guarded denominator
    with pytest.raises(DivisionGuard):
        robust_correction(-0.1, 0.5, 60)


# ---------------------------------------------------------------------------
# world generation
# ---------------------------------------------------------------------------

def _fit_laws(fit):
    return (
        nb.make_distribution(fit.sigma2_u, fit.gamma_u),
        nb.make_distribution(fit.sigma2_v, fit.gamma_v),
    )


def test_world_moments_match_fit(fitted):
    d, fit = fitted
    rng = np.random.default_rng(2)
    laws = _fit_laws(fit)
    n_worlds = 20_000
    u_all = np.empty((n_worlds, d.n))
    for k in range(n_worlds):
        d_star, theta_star = _brute.draw_world(d, fit.mu, fit.beta, *laws, rng)
        u_all[k] = theta_star - (
            fit.mu + d.design.x_under @ fit.beta
        )
    flat = u_all.ravel()
    for power, target in (
        (1, 0.0),
        (2, fit.sigma2_u),
        (4, fit.gamma_u),
    ):
        vals = flat**power
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3 * se


def test_world_point_mass_when_sigma_u_zero(fitted):
    d, fit = fitted
    point_mass = dataclasses.replace(fit, sigma2_u=0.0, gamma_u=0.0)
    d_star, theta_star = _brute.draw_world(
        d, fit.mu, fit.beta, *_fit_laws(point_mass), np.random.default_rng(0)
    )
    synthetic = fit.mu + d.design.x_under @ fit.beta
    np.testing.assert_allclose(theta_star, synthetic, rtol=1e-12)


def test_world_determinism(fitted):
    d, fit = fitted
    args = (d, fit.mu, fit.beta, *_fit_laws(fit))
    d1, t1 = _brute.draw_world(*args, np.random.default_rng(99))
    d2, t2 = _brute.draw_world(*args, np.random.default_rng(99))
    np.testing.assert_array_equal(d1.y, d2.y)
    np.testing.assert_array_equal(t1, t2)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def test_single_replicate_is_one_squared_deviation(fitted):
    d, fit = fitted
    cfg = BootstrapConfig(b1=1, b2=1, c=1, master_seed=31)
    u_hat, failures = mse_single(d, fit, cfg)
    assert failures == 0

    # replay the engine's substream for world b = 0
    u_dist = nb.make_distribution(fit.sigma2_u, fit.gamma_u)
    v_dist = nb.make_distribution(fit.sigma2_v, fit.gamma_v)
    rng = streams.substream(31, streams.SINGLE, 0)
    d_star, theta_star = _brute.draw_world(d, fit.mu, fit.beta, u_dist, v_dist, rng)
    refit = fit_model(d_star)
    np.testing.assert_allclose(u_hat, (refit.theta_hat - theta_star) ** 2, rtol=1e-12)


def test_engine_determinism(fitted):
    d, fit = fitted
    cfg = BootstrapConfig(b1=8, b2=3, c=4, master_seed=7)
    r1 = mse_double(d, fit, cfg)
    r2 = mse_double(d, fit, cfg)
    np.testing.assert_array_equal(r1.mse_boot, r2.mse_boot)
    np.testing.assert_array_equal(r1.corrected_robust, r2.corrected_robust)


def test_double_bootstrap_identities(fitted):
    d, fit = fitted
    cfg = BootstrapConfig(b1=10, b2=4, c=5, master_seed=3)
    res = mse_double(d, fit, cfg)
    np.testing.assert_array_equal(res.bias, res.mse_double - res.mse_boot)
    np.testing.assert_array_equal(
        res.corrected_simple, 2.0 * res.mse_boot - res.mse_double
    )
    np.testing.assert_array_equal(
        res.corrected_robust,
        robust_correction(res.mse_boot, res.mse_double, d.n, cfg.g_kind, cfg.c_clip),
    )
    assert np.all(res.mse_boot >= 0.0)
    assert np.all(res.mse_double >= 0.0)
    assert np.all(res.corrected_robust > 0.0)


def test_double_bootstrap_across_blocks_matches_looped_oracle(monkeypatch, fitted):
    # refit blocks of two outer worlds: each block derives its own outer and
    # inner streams, and v-hat equals the per-world substream loop
    d, fit = fitted
    cfg = BootstrapConfig(b1=3, b2=5, c=3, master_seed=2**40 + 1)
    monkeypatch.setattr("nerboot.pipeline.block_size", lambda d: 2)
    res = mse_double(d, fit, cfg)
    monkeypatch.undo()
    assert res.failures == {"single": 0, "outer": 0, "inner": 0}

    u_dist = nb.make_distribution(fit.sigma2_u, fit.gamma_u)
    v_dist = nb.make_distribution(fit.sigma2_v, fit.gamma_v)
    vacc = np.zeros(d.n)
    for b in range(cfg.b2):
        rng = streams.substream(cfg.master_seed, streams.OUTER, b)
        d_star, _ = _brute.draw_world(d, fit.mu, fit.beta, u_dist, v_dist, rng)
        outer = fit_model(d_star)
        laws = (
            nb.make_distribution(outer.sigma2_u, outer.gamma_u),
            nb.make_distribution(outer.sigma2_v, outer.gamma_v),
        )
        for el in range(cfg.c):
            rng = streams.substream(cfg.master_seed, streams.INNER, b, el)
            d_in, theta = _brute.draw_world(d, outer.mu, outer.beta, *laws, rng)
            refit = fit_model(d_in)
            vacc += (refit.theta_hat - theta) ** 2 / cfg.c
    np.testing.assert_allclose(res.mse_double, vacc / cfg.b2, rtol=1e-10)


def _looped_double_bootstrap(d, fit, cfg):
    """u-hat, v-hat and failure counts of ``mse_double`` by a loop over the
    keyed worlds, each drawn around its fit's own (mu-hat, beta-hat)."""

    def laws(fit):
        return (
            nb.make_distribution(fit.sigma2_u, fit.gamma_u, cfg.family),
            nb.make_distribution(fit.sigma2_v, fit.gamma_v, cfg.family),
        )

    def refit(around, *key):
        d_star, theta = _brute.draw_world(
            d, around.mu, around.beta, *laws(around),
            streams.substream(cfg.master_seed, *key),
        )
        try:
            return fit_model(d_star), theta
        except nb.RankDeficient:
            return None, theta

    failures = {"single": 0, "outer": 0, "inner": 0}
    uacc = np.zeros(d.n)
    for b in range(cfg.b1):
        world, theta = refit(fit, streams.SINGLE, b)
        failures["single"] += world is None
        uacc += 0.0 if world is None else (world.theta_hat - theta) ** 2
    vacc = np.zeros(d.n)
    for b in range(cfg.b2):
        outer, _ = refit(fit, streams.OUTER, b)
        inner_keys = range(cfg.c) if outer else ()
        inner = [refit(outer, streams.INNER, b, el) for el in inner_keys]
        ok = [(world.theta_hat - theta) ** 2 for world, theta in inner if world]
        failures["outer"] += not ok
        failures["inner"] += len(inner) - len(ok)
        vacc += np.mean(ok, axis=0) if ok else 0.0
    u_hat = uacc / (cfg.b1 - failures["single"])
    return u_hat, vacc / (cfg.b2 - failures["outer"]), failures


@pytest.mark.parametrize(
    "seed, family",
    [(25, "three_point"), (31, "student_t")],
    ids=["sigma2_u_truncated", "student_t"],
)
def test_mean_free_worlds_match_looped_oracle(seed, family):
    # bootstrap worlds are drawn without the fit's mean mu + x' beta; the
    # oracle draws every world around its fit's own (mu-hat, beta-hat)
    d = random_ragged_dataset(seed, n=12, r=2)
    fit = fit_model(d)
    assert abs(fit.mu) + np.abs(fit.beta).sum() > 0.5
    cfg = BootstrapConfig(b1=30, b2=8, c=6, family=family, master_seed=seed)
    if family == "three_point":
        assert fit.sigma2_u == 0.0
    else:
        assert {law.family for law in nerboot.mspe._laws(fit, family)} == {family}
    res = mse_double(d, fit, cfg)
    u_hat, v_hat, failures = _looped_double_bootstrap(d, fit, cfg)
    assert res.failures == failures
    np.testing.assert_allclose(res.mse_boot, u_hat, rtol=1e-12)
    np.testing.assert_allclose(res.mse_double, v_hat, rtol=1e-12)


def test_seed_stream_equivalence(fitted):
    # two disjoint seed streams at b1 = 2000 agree within combined MC error
    d, fit = fitted
    cfg_a = BootstrapConfig(b1=2000, b2=1, c=1, master_seed=100)
    cfg_b = BootstrapConfig(b1=2000, b2=1, c=1, master_seed=200)
    u_a, _ = mse_single(d, fit, cfg_a)
    u_b, _ = mse_single(d, fit, cfg_b)

    # oracle SE: per-world squared deviations collected manually on stream a
    u_dist = nb.make_distribution(fit.sigma2_u, fit.gamma_u)
    v_dist = nb.make_distribution(fit.sigma2_v, fit.gamma_v)
    per_world = np.empty((2000, d.n))
    for b in range(2000):
        rng = streams.substream(100, streams.SINGLE, b)
        d_star, theta_star = _brute.draw_world(
            d, fit.mu, fit.beta, u_dist, v_dist, rng
        )
        refit = fit_model(d_star)
        per_world[b] = (refit.theta_hat - theta_star) ** 2
    np.testing.assert_allclose(per_world.mean(axis=0), u_a, rtol=1e-12)
    se = per_world.std(axis=0, ddof=1) / math.sqrt(2000.0)
    assert np.all(np.abs(u_a - u_b) < 3.0 * np.sqrt(2.0) * se)


def test_level_one_tracks_independent_truth_simulation():
    # u-hat on one benchmark dataset concentrates near the SMSE measured by
    # an independent 5000-replicate truth run on the same design (up to the
    # parameter-estimation noise of that single dataset)
    import nerboot.simulate as sim

    scen = sim.Scenario.from_ratio(n=60, ratio=1.0)
    laws = sim._laws(scen, sim.error_model("m1"))
    rng = np.random.default_rng(314)
    design = sim.make_design(scen, rng)
    buffers = Buffers()
    out = np.empty((1, design.n + design.total))

    def responses(rng):
        u, v = _draw_worlds(design, laws, [rng], out, buffers)
        return sim._with_responses(design, u, v)

    acc = np.zeros(60)
    for _ in range(5000):
        (y,), (theta,) = responses(rng)
        fit = fit_model(design.with_responses(y))
        acc += (fit.theta_hat - theta) ** 2
    smse = acc / 5000

    (y_one,), _ = responses(np.random.default_rng(3141))
    d_one = design.with_responses(y_one)
    fit_one = fit_model(d_one)
    cfg = BootstrapConfig(b1=2000, b2=1, c=1, master_seed=8)
    u_hat, _ = mse_single(d_one, fit_one, cfg)
    assert abs(u_hat.mean() - smse.mean()) < 0.12 * smse.mean()


def test_too_many_failures(monkeypatch, fitted):
    # the kernel's failure test is the injection seam: every 10th world fails
    d, fit = fitted
    calls = {"k": 0}
    real = nerboot.pipeline._positive_definite

    def flaky(normal):
        ok = real(normal)
        for b in range(len(ok)):
            calls["k"] += 1
            if calls["k"] % 10 == 0:
                ok[b] = False
        return ok

    monkeypatch.setattr("nerboot.pipeline._positive_definite", flaky)
    cfg = BootstrapConfig(b1=50, b2=1, c=1, master_seed=1)
    with pytest.raises(TooManyFailures):
        mse_single(d, fit, cfg)


def test_failed_world_is_masked_and_excluded(monkeypatch, fitted):
    # one world of a block gets a non-finite draw of V, hence a non-finite
    # normal matrix: it is counted, left out of u-hat, and the rest of its
    # block is untouched
    d, fit = fitted
    cfg = BootstrapConfig(b1=100, b2=1, c=1, master_seed=4)
    bad = 37
    seen = {"worlds": 0}
    real = nerboot.mspe._draw_worlds

    def poisoned(*args):
        u_star, v_star = real(*args)
        lo = seen["worlds"]
        seen["worlds"] += len(u_star)
        if lo <= bad < seen["worlds"]:
            v_star[bad - lo, 0] = np.nan
        return u_star, v_star

    monkeypatch.setattr("nerboot.mspe._draw_worlds", poisoned)
    u_hat, failures = mse_single(d, fit, cfg)
    monkeypatch.undo()
    assert failures == 1

    u_dist = nb.make_distribution(fit.sigma2_u, fit.gamma_u)
    v_dist = nb.make_distribution(fit.sigma2_v, fit.gamma_v)
    acc = np.zeros(d.n)
    for b in range(cfg.b1):
        if b == bad:
            continue
        rng = streams.substream(4, streams.SINGLE, b)
        d_star, theta_star = _brute.draw_world(
            d, fit.mu, fit.beta, u_dist, v_dist, rng
        )
        refit = fit_model(d_star)
        acc += (refit.theta_hat - theta_star) ** 2
    np.testing.assert_allclose(u_hat, acc / (cfg.b1 - 1), rtol=1e-12)


def _poison_draws(monkeypatch, rows_by_call):
    """Give the worlds ``rows_by_call[j]`` of the j-th block draw a
    non-finite draw of V, so that they fail to refit."""
    real = nerboot.mspe._draw_worlds
    calls = itertools.count()

    def poisoned(*args):
        u_star, v_star = real(*args)
        v_star[rows_by_call.get(next(calls), []), 0] = np.nan
        return u_star, v_star

    monkeypatch.setattr("nerboot.mspe._draw_worlds", poisoned)


# at b1 = 2, b2 = 100, c = 2 on the fitted design (one refit block per
# level) the block draws are level one (call 0), the outer worlds (call 1),
# then the inner worlds of each outer world that refits, in order
FIRST_INNER = 2


def test_outer_world_whose_inner_worlds_all_fail_counts_once(monkeypatch, fitted):
    d, fit = fitted
    cfg = BootstrapConfig(b1=2, b2=100, c=2, master_seed=6)
    _poison_draws(monkeypatch, {FIRST_INNER + 37: [0, 1]})
    res = mse_double(d, fit, cfg)
    monkeypatch.undo()
    assert res.failures == {"single": 0, "outer": 1, "inner": 2}

    u_dist = nb.make_distribution(fit.sigma2_u, fit.gamma_u)
    v_dist = nb.make_distribution(fit.sigma2_v, fit.gamma_v)
    vacc = np.zeros(d.n)
    for b in range(cfg.b2):
        if b == 37:
            continue
        rng = streams.substream(cfg.master_seed, streams.OUTER, b)
        d_star, _ = _brute.draw_world(d, fit.mu, fit.beta, u_dist, v_dist, rng)
        outer = fit_model(d_star)
        laws = (
            nb.make_distribution(outer.sigma2_u, outer.gamma_u),
            nb.make_distribution(outer.sigma2_v, outer.gamma_v),
        )
        for el in range(cfg.c):
            rng = streams.substream(cfg.master_seed, streams.INNER, b, el)
            d_in, theta = _brute.draw_world(d, outer.mu, outer.beta, *laws, rng)
            refit = fit_model(d_in)
            vacc += (refit.theta_hat - theta) ** 2 / cfg.c
    np.testing.assert_allclose(res.mse_double, vacc / (cfg.b2 - 1), rtol=1e-10)


@pytest.mark.parametrize("family", ["three_point", "student_t"])
def test_level_buffers_are_written_before_read_and_never_escape(monkeypatch, family):
    # every array the level buffers hand out starts as garbage (NaN, -1 or
    # True): a read before write changes a result, and no result may share
    # memory with a buffer; blocks of 4 worlds straddle the runs of c worlds
    import nerboot.simulate as sim

    d = random_ragged_dataset(31, n=12, r=2)
    fit = fit_model(d)
    cfg = BootstrapConfig(b1=9, b2=5, c=3, master_seed=5, family=family)
    scen, model = sim.Scenario.from_ratio(6, 0.5), sim.error_model("m3")
    monkeypatch.setattr("nerboot.pipeline.block_size", lambda d: 4)

    def run():
        return mse_double(d, fit, cfg), sim.run_truth(scen, model, 11, 5)

    default = run()
    arenas = {}
    real = nerboot.pipeline.Buffers.take

    def garbage(self, key, shape, dtype=np.float64):
        view = real(self, key, shape, dtype)
        view.fill({"f": np.nan, "i": -1, "b": True}[view.dtype.kind])
        root = view
        while root.base is not None:
            root = root.base
        arenas[id(root)] = root
        return view

    monkeypatch.setattr("nerboot.pipeline.Buffers.take", garbage)
    res, truth = run()
    want, want_truth = default
    assert arenas and res.failures == want.failures
    arrays = [f.name for f in dataclasses.fields(res) if f.name != "failures"]
    pairs = [(getattr(res, name), getattr(want, name)) for name in arrays]
    for got, expected in pairs + [(truth, want_truth)]:
        np.testing.assert_array_equal(got, expected)
        assert not any(np.shares_memory(got, arena) for arena in arenas.values())


def test_every_outer_world_failing_aborts(monkeypatch, fitted):
    # the kernel's second call refits the one block of outer worlds; when
    # none refits, the inner level has no worlds and the outer level aborts
    d, fit = fitted
    cfg = BootstrapConfig(b1=2, b2=100, c=2, master_seed=6)
    assert cfg.b1 <= block_size(d) and cfg.b2 <= block_size(d)
    real = nerboot.pipeline._positive_definite
    calls = itertools.count()

    def outer_block_fails(normal):
        ok = real(normal)
        return ok & (next(calls) != 1)

    monkeypatch.setattr("nerboot.pipeline._positive_definite", outer_block_fails)
    with pytest.raises(TooManyFailures, match="100/100 outer"):
        mse_double(d, fit, cfg)


def _pcg_state(rng):
    return rng.bit_generator.state["state"]["state"]


def test_v_hat_does_not_depend_on_the_refit_block_size(monkeypatch):
    # the inner worlds of a block of outer worlds are refitted in chunks that
    # straddle outer worlds (c divides none of the block sizes); one outer
    # and one inner world, found by their keyed generators, fail to refit
    d = random_ragged_dataset(7, n=8, r=2)
    fit = fit_model(d)
    cfg = BootstrapConfig(b1=4, b2=100, c=3, master_seed=2**33 + 5)
    assert all(size % cfg.c for size in (2, 7, block_size(d)))
    bad_outer, bad_inner = 17, (40, 2)
    bad = {
        _pcg_state(streams.substream(cfg.master_seed, streams.OUTER, bad_outer)),
        _pcg_state(streams.substream(cfg.master_seed, streams.INNER, *bad_inner)),
    }
    real = nerboot.mspe._draw_worlds

    def poisoned(d, laws, rngs, *out):
        rows = [k for k, rng in enumerate(rngs) if _pcg_state(rng) in bad]
        u_star, v_star = real(d, laws, rngs, *out)
        v_star[rows, 0] = np.nan
        return u_star, v_star

    monkeypatch.setattr("nerboot.mspe._draw_worlds", poisoned)
    default = mse_double(d, fit, cfg)
    assert default.failures == {"single": 0, "outer": 1, "inner": 1}
    for size in (1, 2, 7):
        monkeypatch.setattr("nerboot.pipeline.block_size", lambda d, size=size: size)
        res = mse_double(d, fit, cfg)
        assert res.failures == default.failures
        np.testing.assert_allclose(res.mse_double, default.mse_double, rtol=1e-12)
    monkeypatch.undo()

    u_dist = nb.make_distribution(fit.sigma2_u, fit.gamma_u)
    v_dist = nb.make_distribution(fit.sigma2_v, fit.gamma_v)
    vacc = np.zeros(d.n)
    for b in range(cfg.b2):
        if b == bad_outer:
            continue
        rng = streams.substream(cfg.master_seed, streams.OUTER, b)
        d_star, _ = _brute.draw_world(d, fit.mu, fit.beta, u_dist, v_dist, rng)
        outer = fit_model(d_star)
        laws = (
            nb.make_distribution(outer.sigma2_u, outer.gamma_u),
            nb.make_distribution(outer.sigma2_v, outer.gamma_v),
        )
        inner = [el for el in range(cfg.c) if (b, el) != bad_inner]
        for el in inner:
            rng = streams.substream(cfg.master_seed, streams.INNER, b, el)
            d_in, theta = _brute.draw_world(d, outer.mu, outer.beta, *laws, rng)
            vacc += (fit_model(d_in).theta_hat - theta) ** 2 / len(inner)
    np.testing.assert_allclose(default.mse_double, vacc / (cfg.b2 - 1), rtol=1e-12)


@pytest.mark.parametrize(
    "rows_by_call, message",
    [
        # outer world 5 fails to refit, and every inner world of another
        ({1: [5], FIRST_INNER + 37: [0, 1]}, "2/100 outer"),
        # one outer world loses both inner worlds, another loses one
        ({FIRST_INNER + 37: [0, 1], FIRST_INNER + 50: [1]}, "3/200 inner"),
    ],
)
def test_one_failure_over_the_tolerance_aborts(
    monkeypatch, fitted, rows_by_call, message
):
    d, fit = fitted
    cfg = BootstrapConfig(b1=2, b2=100, c=2, master_seed=6)
    _poison_draws(monkeypatch, rows_by_call)
    with pytest.raises(TooManyFailures, match=message):
        mse_double(d, fit, cfg)


def test_mspe_report_consistency(fitted):
    d, _ = fitted
    cfg = BootstrapConfig(b1=6, b2=3, c=3, master_seed=12)
    fit, res = mspe_report(d, cfg)
    assert fit.theta_hat.shape == res.mse_boot.shape == (len(d.cluster_ids),)
    np.testing.assert_array_equal(res.bias, res.mse_double - res.mse_boot)
    assert np.all(res.corrected_robust > 0.0)
    assert res.failures == {"single": 0, "outer": 0, "inner": 0}
    assert fit.sigma2_v > 0.0
    assert fit.gamma_v >= fit.sigma2_v**2
