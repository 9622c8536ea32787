import itertools
import math

import numpy as np
import pytest

import nerboot.pipeline
from nerboot.errors import RankDeficient
from nerboot.mmdist import STUDY_LAWS
from nerboot.mspe import BootstrapConfig, mse_double
from nerboot.pipeline import fit_model
from nerboot.simulate import (
    RECORD_COLUMNS,
    Scenario,
    _estimator_metrics,
    draw_error,
    error_model,
    make_design,
    metrics_from_records,
    run_study,
    run_truth,
)

import _brute


def test_error_model_table():
    m6 = error_model("m6")
    assert (m6.u_law, m6.v_law) == ("chi2_5", "neg_chi2_5")
    assert error_model("M1").u_law == "normal"
    with pytest.raises(ValueError):
        error_model("m9")


def test_draw_error_reconstructions():
    # chi2_5 standardization is (X - 5)/sqrt(10); t6 is T * sqrt(4/6)
    draws = draw_error("chi2_5", 1.0, np.random.default_rng(3), 1000)
    raw = np.random.default_rng(3).chisquare(5.0, 1000)
    np.testing.assert_allclose(draws, (raw - 5.0) / math.sqrt(10.0), rtol=1e-12)

    draws_t = draw_error("t6", 1.0, np.random.default_rng(4), 1000)
    raw_t = np.random.default_rng(4).standard_t(6.0, 1000)
    np.testing.assert_allclose(draws_t, raw_t / math.sqrt(1.5), rtol=1e-12)

    neg = draw_error("neg_chi2_5", 2.0, np.random.default_rng(5), 1000)
    pos = draw_error("chi2_5", 2.0, np.random.default_rng(5), 1000)
    np.testing.assert_allclose(neg, -pos, rtol=1e-12)


_SQRT_CHI2_5_MEAN = math.sqrt(2.0) * math.gamma(3.0) / math.gamma(2.5)

# each study law's standardized draws, written out by hand from numpy's
# generator calls
STANDARDIZED = {
    "normal": lambda rng, k: rng.standard_normal(k),
    "sqrt_chi2_5": lambda rng, k: (np.sqrt(rng.chisquare(5.0, k)) - _SQRT_CHI2_5_MEAN)
    / math.sqrt(5.0 - _SQRT_CHI2_5_MEAN**2),
    "chi2_5": lambda rng, k: (rng.chisquare(5.0, k) - 5.0) / math.sqrt(10.0),
    "chi2_10": lambda rng, k: (rng.chisquare(10.0, k) - 10.0) / math.sqrt(20.0),
    "exponential": lambda rng, k: rng.exponential(1.0, k) - 1.0,
    "neg_chi2_5": lambda rng, k: -((rng.chisquare(5.0, k) - 5.0) / math.sqrt(10.0)),
    "t6": lambda rng, k: rng.standard_t(6.0, k) / math.sqrt(1.5),
    "logistic": lambda rng, k: rng.logistic(0.0, 1.0, k) / (math.pi / math.sqrt(3.0)),
}


@pytest.mark.parametrize("law", sorted(STUDY_LAWS))
def test_study_laws_replay_the_generator_calls(law):
    assert set(STANDARDIZED) == set(STUDY_LAWS)
    for variance, count in ((1.0, 1), (1.7, 9), (0.3, 1000)):
        expected = STANDARDIZED[law](np.random.default_rng(count), count)
        drawn = draw_error(law, variance, np.random.default_rng(count), count)
        np.testing.assert_array_equal(drawn, expected * math.sqrt(variance))


def test_draw_error_rejects_a_negative_variance_or_an_unknown_law():
    with pytest.raises(ValueError, match="variance must be >= 0"):
        draw_error("normal", -1.0, np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match="unknown study law"):
        draw_error("three_point", 1.0, np.random.default_rng(0), 3)


@pytest.mark.parametrize("law", sorted(STUDY_LAWS))
def test_all_laws_centered_and_scaled(law):
    draws = draw_error(law, 1.7, np.random.default_rng(11), 400_000)
    se_mean = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean()) < 4 * se_mean
    sq = draws**2
    se_var = sq.std(ddof=1) / math.sqrt(len(draws))
    assert abs(sq.mean() - 1.7) < 4 * se_var


def test_normal_law_variance_tight():
    draws = draw_error("normal", 1.0, np.random.default_rng(12), 1_000_000)
    assert abs(draws.var() - 1.0) < 0.01


def test_zero_variance_draws():
    assert np.all(draw_error("normal", 0.0, np.random.default_rng(0), 100) == 0.0)


def test_scenario_ratio_normalization():
    assert Scenario.from_ratio(60, 1.0).sigma2_u == 1.0
    s_half = Scenario.from_ratio(60, 0.5)
    assert (s_half.sigma2_u, s_half.sigma2_v) == (0.5, 1.0)
    s_two = Scenario.from_ratio(60, 2.0)
    assert (s_two.sigma2_u, s_two.sigma2_v) == (1.0, 0.5)
    with pytest.raises(ValueError):
        Scenario.from_ratio(60, -1.0)


@pytest.mark.parametrize(
    "n, sigma2_u, sigma2_v",
    [
        (6, math.nan, 1.0), (6, 1.0, math.inf), (6, -1.0, 1.0), (6, 1.0, -0.5),
        (1, 1.0, 1.0), (2.5, 1.0, 1.0),
        # sigma2_v None: Scenario.from_ratio(n, ratio=sigma2_u)
        pytest.param(60, math.nan, None, id="from_ratio-60-nan"),
        pytest.param(60, math.inf, None, id="from_ratio-60-inf"),
    ],
)
def test_scenario_rejects_bad_inputs(n, sigma2_u, sigma2_v):
    # unchecked, a nan or infinite variance reaches the study and fails there
    # as a singular GLS system, with RuntimeWarnings; a float n fails late,
    # in make_design; a nan ratio ran as ratio 1 and an infinite one gave
    # sigma_V^2 = 0
    with pytest.raises(
        ValueError, match="at least 2|must be finite and >= 0|integer|finite and positive"
    ):
        if sigma2_v is None:
            Scenario.from_ratio(n, sigma2_u)
        else:
            Scenario(n=n, sigma2_u=sigma2_u, sigma2_v=sigma2_v)


def test_make_design_shape():
    scen = Scenario.from_ratio(n=12, ratio=1.0)
    d = make_design(scen, np.random.default_rng(0))
    assert d.n == 12
    assert np.all(d.sizes == 3)
    assert np.all((d.x >= 0.5) & (d.x <= 1.0))


def test_run_truth_zero_noise_scenario():
    scen = Scenario(n=10, sigma2_u=0.0, sigma2_v=0.0)
    smse = run_truth(scen, error_model("m1"), replicates=20, master_seed=4)
    np.testing.assert_allclose(smse, 0.0, atol=1e-18)


@pytest.mark.filterwarnings("error")
def test_run_truth_rejects_zero_replicates():
    # a zero count would divide by zero: an all-NaN SMSE and a RuntimeWarning
    with pytest.raises(ValueError, match="at least one replicate"):
        run_truth(Scenario.from_ratio(5, 1.0), error_model("m1"), 0, 3)


def test_run_truth_determinism():
    scen = Scenario.from_ratio(n=15, ratio=1.0)
    a = run_truth(scen, error_model("m3"), replicates=50, master_seed=9)
    b = run_truth(scen, error_model("m3"), replicates=50, master_seed=9)
    np.testing.assert_array_equal(a, b)


def test_run_truth_ignores_the_study_mean(monkeypatch):
    # theta-hat - theta does not depend on (mu, beta), so truth worlds are
    # drawn mean-free: a huge mean cannot cancel into rounding error
    scen, law = Scenario.from_ratio(n=20, ratio=0.5), error_model("m3")
    default = run_truth(scen, law, replicates=40, master_seed=11)
    monkeypatch.setattr("nerboot.simulate.MU", 1e6)
    monkeypatch.setattr("nerboot.simulate.BETA", (1e6,))
    np.testing.assert_array_equal(run_truth(scen, law, 40, 11), default)


def test_run_truth_exceeds_leading_term():
    # true MSE is psi_0 + O(1/n) with a positive 1/n part; psi_0 = 0.25 here
    scen = Scenario.from_ratio(n=60, ratio=1.0)
    smse = run_truth(scen, error_model("m1"), replicates=1500, master_seed=123)
    assert smse.mean() > 0.25
    assert smse.mean() == pytest.approx(0.25, abs=0.02)


@pytest.mark.parametrize(
    "n, model, ratio, seed",
    [(20, "m3", 0.5, 11), (60, "m1", 1.0, 20060401)],  # the latter: criterion 6
)
def test_run_truth_draws_the_worlds_of_run_study(n, model, ratio, seed):
    scen, law = Scenario.from_ratio(n=n, ratio=ratio), error_model(model)
    cfg = BootstrapConfig(b1=1, b2=1, c=1, master_seed=seed)
    study = run_study(scen, law, cfg, 40, double=False, jobs=1)
    np.testing.assert_allclose(run_truth(scen, law, 40, seed), study.smse, rtol=1e-12)


def test_oracle_estimator_has_zero_rb_cv():
    smse = np.array([0.2, 0.3, 0.4])
    values = np.tile(smse, (50, 1))  # estimator that returns SMSE exactly
    m = _estimator_metrics(values, smse)
    np.testing.assert_allclose(m.rb, 0.0, atol=1e-13)
    np.testing.assert_allclose(m.cv, 0.0, atol=1e-13)


def test_run_truth_refit_failure_is_rank_deficient(monkeypatch):
    real = nerboot.pipeline._positive_definite

    def last_world_fails(normal):
        ok = real(normal)
        ok[-1] = False
        return ok

    monkeypatch.setattr("nerboot.pipeline._positive_definite", last_world_fails)
    with pytest.raises(RankDeficient):
        run_truth(Scenario.from_ratio(n=8, ratio=1.0), error_model("m1"), 5, 3)


def test_run_study_records_and_metric_identity():
    scen = Scenario.from_ratio(n=10, ratio=1.0)
    cfg = BootstrapConfig(b1=4, b2=2, c=2, master_seed=77)
    study = run_study(scen, error_model("m1"), cfg, replicates=12, double=True)
    assert study.records.shape == (12, 10, len(RECORD_COLUMNS))
    assert set(study.metrics) == {"naive", "boot", "double", "robust", "simple"}

    # independent recomputation of RB from the raw records, exact equality
    theta_true = study.records[:, :, 0]
    theta_hat = study.records[:, :, 1]
    smse = np.mean((theta_hat - theta_true) ** 2, axis=0)
    rb_naive = (study.records[:, :, 2].mean(axis=0) - smse) / smse
    np.testing.assert_array_equal(study.metrics["naive"].rb, rb_naive)
    np.testing.assert_array_equal(study.smse, smse)

    smse2, metrics2 = metrics_from_records(study.records, double=True)
    np.testing.assert_array_equal(smse2, study.smse)
    np.testing.assert_array_equal(
        metrics2["robust"].rb, study.metrics["robust"].rb
    )


def test_run_study_single_only():
    scen = Scenario.from_ratio(n=8, ratio=2.0)
    cfg = BootstrapConfig(b1=3, b2=1, c=1, master_seed=5)
    study = run_study(scen, error_model("m5"), cfg, replicates=6, double=False)
    assert set(study.metrics) == {"naive", "boot"}
    assert np.all(np.isnan(study.records[:, :, 4]))


@pytest.mark.parametrize("replicates, jobs", [(0, 1), (2, 0), (2, -2)])
def test_run_study_rejects_counts_below_one(replicates, jobs):
    scen = Scenario.from_ratio(n=8, ratio=1.0)
    cfg = BootstrapConfig(b1=3, b2=1, c=1, master_seed=5)
    with pytest.raises(ValueError, match="at least one"):
        run_study(scen, error_model("m1"), cfg, replicates=replicates, jobs=jobs)


def test_run_study_parallel_matches_serial():
    scen = Scenario.from_ratio(n=10, ratio=1.0)
    cfg = BootstrapConfig(b1=4, b2=2, c=2, master_seed=31)
    serial = run_study(scen, error_model("m7"), cfg, replicates=10, double=True, jobs=1)
    parallel = run_study(
        scen, error_model("m7"), cfg, replicates=10, double=True, jobs=2
    )
    np.testing.assert_array_equal(serial.records, parallel.records)


class _FakePool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    the tasks in this process, starting none."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *items, chunksize=1):
        return map(fn, *items)


@pytest.mark.parametrize(
    "replicates, jobs, workers", [(2, 16, [2]), (1, 4, []), (5, 3, [3])]
)
def test_run_study_pool_has_at_most_one_worker_per_replicate(
    monkeypatch, replicates, jobs, workers
):
    # a fork pool starts all max_workers processes at its first task; one
    # worker is no pool at all
    scen = Scenario.from_ratio(n=6, ratio=1.0)
    cfg = BootstrapConfig(b1=3, b2=2, c=2, master_seed=8)
    serial = run_study(scen, error_model("m3"), cfg, replicates, jobs=1)
    monkeypatch.setattr(_FakePool, "made", [])
    monkeypatch.setattr("nerboot.simulate.ProcessPoolExecutor", _FakePool)
    pooled = run_study(scen, error_model("m3"), cfg, replicates, jobs=jobs)
    assert _FakePool.made == workers
    np.testing.assert_array_equal(pooled.records, serial.records)


def test_pickled_design_gives_identical_replicates(monkeypatch):
    # spawn and forkserver workers receive a task's payload pickled: the
    # design with its prebuilt kernel caches, and the replicate's fit, in
    # memory of its own; they must give bit-identical records
    import pickle

    from nerboot import simulate

    scen = Scenario.from_ratio(n=10, ratio=0.5)
    model = error_model("m3")
    cfg = BootstrapConfig(b1=4, b2=2, c=3, master_seed=17)
    want = run_study(scen, model, cfg, replicates=3).records
    real, payloads = simulate._bootstrap, []

    def pickled(state, rep, fit):
        assert all(
            value.base is None
            for value in vars(fit).values()
            if isinstance(value, np.ndarray)
        )
        state, fit = pickle.loads(pickle.dumps((state, fit)))
        design = state[0]
        assert set(design._cache) == {"design"}
        assert not design.design.q.flags.writeable
        payloads.append(rep)
        columns = real(state, rep, fit)
        assert set(design._cache) == {"design"}  # nothing left to build in a worker
        return columns

    monkeypatch.setattr("nerboot.simulate._bootstrap", pickled)
    got = run_study(scen, model, cfg, replicates=3).records
    assert payloads == [0, 1, 2]
    np.testing.assert_array_equal(got, want)


def test_a_failed_replicate_refit_raises_before_any_bootstrap(monkeypatch):
    # replicates refit in draw blocks of 2; the last, in the third block,
    # fails: no pool starts and no bootstrap task runs
    monkeypatch.setattr("nerboot.pipeline.block_size", lambda d: 2)
    real = nerboot.pipeline._positive_definite
    calls = itertools.count()

    def third_block_fails(normal):
        ok = real(normal)
        if next(calls) == 2:
            ok[-1] = False
        return ok

    monkeypatch.setattr("nerboot.pipeline._positive_definite", third_block_fails)
    monkeypatch.setattr(_FakePool, "made", [])
    monkeypatch.setattr("nerboot.simulate.ProcessPoolExecutor", _FakePool)
    started = []
    monkeypatch.setattr("nerboot.simulate._bootstrap", lambda *task: started.append(1))
    scen = Scenario.from_ratio(n=8, ratio=1.0)
    cfg = BootstrapConfig(b1=3, b2=2, c=2, master_seed=12)
    with pytest.raises(RankDeficient, match="study replicate"):
        run_study(scen, error_model("m1"), cfg, replicates=5, jobs=2)
    assert next(calls) == 3  # the refit pass reached the third block
    assert started == [] and _FakePool.made == []


@pytest.mark.parametrize("ratio, model", [(0.5, "m3"), (2.0, "m7")])
def test_records_equal_the_looped_oracle(ratio, model):
    # the oracle forms each replicate's y around (MU, BETA) from its keyed
    # draws and fits it as a dataset; at ratio 0.5 some fits truncate
    # sigma_U^2 to 0
    from nerboot import simulate, streams

    scen, law = Scenario.from_ratio(n=10, ratio=ratio), error_model(model)
    cfg = BootstrapConfig(b1=6, b2=3, c=4, master_seed=23)
    replicates = 40
    study = run_study(scen, law, cfg, replicates)
    design = make_design(scen, streams.substream(cfg.master_seed, streams.DESIGN))
    mean, laws = (simulate.MU, np.array(simulate.BETA)), simulate._laws(scen, law)
    want, truncated = [], 0
    for rep in range(replicates):
        rng = streams.substream(cfg.master_seed, streams.STUDY, rep)
        d_rep, theta = _brute.draw_world(design, *mean, *laws, rng)
        fit = fit_model(d_rep, cfg.ridge)
        truncated += fit.sigma2_u == 0.0
        res = mse_double(d_rep, fit, cfg, key_prefix=(rep,))
        want.append(
            [theta, fit.theta_hat, fit.naive_mse, res.mse_boot, res.mse_double,
             res.corrected_robust]
        )
    want = np.transpose(want, (0, 2, 1))
    assert truncated > 0 or ratio > 1
    for col in range(len(RECORD_COLUMNS)):
        scale = np.abs(want[:, :, col]).max()
        np.testing.assert_allclose(
            study.records[:, :, col], want[:, :, col], rtol=0, atol=1e-12 * scale
        )


def test_study_started_from_a_progress_callback_leaves_the_outer_study_intact():
    # each task carries its own state: a study run inside another's progress
    # callback (same n, another model and seed) must not leak into it
    scen = Scenario.from_ratio(n=6, ratio=1.0)
    outer_cfg = BootstrapConfig(b1=3, b2=2, c=2, master_seed=41)
    inner_cfg = BootstrapConfig(b1=4, b2=2, c=2, master_seed=42)
    solo = run_study(scen, error_model("m3"), outer_cfg, replicates=3)
    inner_solo = run_study(scen, error_model("m7"), inner_cfg, replicates=2)

    inner = []

    def progress(done, total):
        if done == 1:
            inner.append(run_study(scen, error_model("m7"), inner_cfg, replicates=2))

    nested = run_study(
        scen, error_model("m3"), outer_cfg, replicates=3, progress=progress
    )
    np.testing.assert_array_equal(nested.records, solo.records)
    np.testing.assert_array_equal(inner[0].records, inner_solo.records)


def test_studies_on_several_threads_match_their_solo_runs():
    # more threads than cores, switching often: no study may read another's
    # state
    import sys
    import threading

    scen = Scenario.from_ratio(n=6, ratio=1.0)
    cells = [
        (error_model(name), BootstrapConfig(b1=3, b2=2, c=2, master_seed=seed))
        for name, seed in (("m3", 51), ("m7", 52), ("m1", 53))
    ]
    solo = [run_study(scen, model, cfg, replicates=3).records for model, cfg in cells]
    got = [None] * len(cells)

    def run(k):
        got[k] = run_study(scen, *cells[k], replicates=3).records

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cells))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for records, want in zip(got, solo):
        np.testing.assert_array_equal(records, want)
