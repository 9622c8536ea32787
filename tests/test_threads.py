"""The level engine on several threads: the same sums, failure counts and
aborts as on one, exceptions raised in the caller, buffer sets split with
room for later blocks, one arena per level call below numpy's huge-page
threshold at 2 CPUs and none at or above it on any CPU count, and no
thread left behind by a level call or started in a study's pool
workers."""

import os
import threading
import time

import numpy as np
import pytest

import nerboot.mspe
import nerboot.simulate
from nerboot import streams
from nerboot.cli import build_parser
from nerboot.errors import TooManyFailures
from nerboot.mspe import (
    BootstrapConfig,
    _keyed_draw,
    _laws,
    _level_states,
    mse_double,
)
from nerboot.mmdist import make_distribution
from nerboot.pipeline import (
    ARENA_BYTES,
    THREAD_BLOCK_WORLDS,
    Buffers,
    block_size,
    draw_statistics,
    fit_model,
    level_threads,
    refit_level,
    solve,
    squared_error,
    usable_cpus,
)
from nerboot.simulate import Scenario, error_model, make_design, run_study

import _brute
from conftest import random_ragged_dataset

SERIAL, THREADED = 0, 10**9  # THREAD_BLOCK_WORLDS forcing one or all CPUs
BOOTSTRAP = nerboot.simulate._bootstrap


@pytest.fixture
def three_cpus_blocks_of_3(monkeypatch):
    """Draw blocks of 3 worlds and three usable CPUs; returns a setter of
    the engine's bound, SERIAL or THREADED."""
    monkeypatch.setattr("nerboot.pipeline.block_size", lambda d: 3)
    monkeypatch.setattr("nerboot.pipeline.usable_cpus", lambda: 3)
    return lambda bound: monkeypatch.setattr(
        "nerboot.pipeline.THREAD_BLOCK_WORLDS", bound
    )


def _logged(draw, bad=(), sleep=1e-3):
    """``draw`` that gives the worlds ``bad`` a non-finite V draw, records
    the threads that drew, and sleeps so that every thread takes blocks."""
    drawn_by = set()

    def logged(lo, hi, buffers):
        drawn_by.add(threading.get_ident())
        time.sleep(sleep)
        u, v = draw(lo, hi, buffers)
        v[[j - lo for j in bad if lo <= j < hi], 0] = np.nan
        return u, v

    return logged, drawn_by


@pytest.mark.parametrize("family", ["three_point", "student_t"])
def test_threaded_engine_equals_serial_bit_for_bit(three_cpus_blocks_of_3, family):
    # runs of c = 4 worlds straddle blocks of 3; one world fails in each of
    # runs 1 and 7
    d = random_ragged_dataset(41, n=12, r=2)
    fit = fit_model(d)
    c, runs = 4, 10
    states = _level_states(9, streams.INNER, (), range(runs), range(c))
    draw = _keyed_draw(d, [_laws(fit, family)] * runs, states, c)
    got = {}
    for bound in (SERIAL, THREADED):
        three_cpus_blocks_of_3(bound)
        logged, drawn_by = _logged(draw, bad=(5, 29))
        before = threading.active_count()
        got[bound] = squared_error(d, logged, runs * c, per=c), len(drawn_by)
        assert threading.active_count() == before
    (serial, serial_threads), (threaded, threads) = got[SERIAL], got[THREADED]
    assert serial_threads == 1 and threads > 1
    np.testing.assert_array_equal(threaded[0], serial[0])
    np.testing.assert_array_equal(threaded[1], serial[1])
    assert serial[1].tolist() == [0, 1, 0, 0, 0, 0, 0, 1, 0, 0]


@pytest.mark.parametrize("family", ["three_point", "student_t"])
def test_threaded_double_bootstrap_equals_serial_and_aborts_alike(
    monkeypatch, three_cpus_blocks_of_3, family
):
    d = random_ragged_dataset(43, n=12, r=2)
    fit = fit_model(d)
    cfg = BootstrapConfig(b1=10, b2=8, c=5, master_seed=77, family=family)
    runs = {}
    for bound in (SERIAL, THREADED):
        three_cpus_blocks_of_3(bound)
        before = threading.active_count()
        runs[bound] = mse_double(d, fit, cfg)
        assert threading.active_count() == before
    for name in ("mse_boot", "mse_double", "corrected_robust"):
        np.testing.assert_array_equal(
            getattr(runs[THREADED], name), getattr(runs[SERIAL], name)
        )

    # one of the 40 inner worlds fails: 2.5% aborts the run on any thread count
    real = nerboot.mspe._keyed_draw

    def keyed_draw(d, laws, states, per):
        draw = real(d, laws, states, per)
        return _logged(draw, bad=(13,), sleep=0)[0] if per == cfg.c else draw

    monkeypatch.setattr("nerboot.mspe._keyed_draw", keyed_draw)
    for bound in (SERIAL, THREADED):
        three_cpus_blocks_of_3(bound)
        with pytest.raises(TooManyFailures, match="1/40 inner"):
            mse_double(d, fit, cfg)


class _Halt(BaseException):
    """Not an Exception: what a KeyboardInterrupt or SystemExit would do."""


@pytest.mark.parametrize("error", [LookupError, _Halt])
def test_a_block_raising_on_a_helper_thread_raises_in_the_caller(
    three_cpus_blocks_of_3, error
):
    three_cpus_blocks_of_3(THREADED)
    d = random_ragged_dataset(47, n=8, r=2)
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((60, d.n)), rng.standard_normal((60, d.total))
    caller, drawn = threading.get_ident(), []

    def draw(lo, hi, buffers):
        drawn.append(lo)
        time.sleep(1e-3)
        if threading.get_ident() != caller:
            raise error(f"block at {lo}")
        return u[lo:hi], v[lo:hi]

    before = threading.active_count()
    with pytest.raises(error, match="block at"):
        squared_error(d, draw, len(u))
    assert threading.active_count() == before
    assert len(drawn) < len(u) // 3  # no thread took every remaining block


def _bootstrap_in_worker(state, rep, fit):
    """A study replicate's bootstrap that checks the worker runs its levels
    on one thread and ends with the threads it started with."""
    before = threading.active_count()
    assert level_threads(state[0], 10) == 1
    columns = BOOTSTRAP(state, rep, fit)
    assert threading.active_count() == before
    return columns


def test_pool_workers_never_start_threads(monkeypatch):
    # the forked workers inherit a bound that would thread their design
    monkeypatch.setattr("nerboot.pipeline.THREAD_BLOCK_WORLDS", THREADED)
    monkeypatch.setattr("nerboot.pipeline.usable_cpus", lambda: 2)
    scen, model = Scenario.from_ratio(n=6, ratio=0.5), error_model("m3")
    cfg = BootstrapConfig(b1=3, b2=2, c=2, master_seed=19)
    serial = run_study(scen, model, cfg, replicates=4).records
    monkeypatch.setattr("nerboot.simulate._bootstrap", _bootstrap_in_worker)
    before = threading.active_count()
    pooled = run_study(scen, model, cfg, replicates=4, jobs=2).records
    assert threading.active_count() == before
    np.testing.assert_array_equal(pooled, serial)


def _ragged_fit_design():
    """A ragged n = 600 design as the fit workload's: 15 worlds a block."""
    rng = np.random.default_rng(5)
    sizes = rng.integers(2, 13, size=600)
    labels, total = np.repeat(np.arange(600), sizes), int(sizes.sum())
    x, y = rng.uniform(size=(total, 3)), rng.normal(size=total)
    return nerboot.from_arrays(labels, x, y)


def test_only_designs_with_small_blocks_use_threads(monkeypatch):
    monkeypatch.setattr("nerboot.pipeline.usable_cpus", lambda: 2)
    for n in (60, 100):  # the study designs stay serial
        design = make_design(Scenario.from_ratio(n, 0.5), np.random.default_rng(n))
        assert block_size(design) > THREAD_BLOCK_WORLDS
        assert level_threads(design, 100) == 1
    d = _ragged_fit_design()
    assert block_size(d) <= THREAD_BLOCK_WORLDS
    assert level_threads(d, 100) == 2
    assert level_threads(d, 1) == 1  # never more threads than blocks


def test_usable_cpus_read_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpus() == 1
    args = ["simulate", "--model", "m1"]
    assert build_parser().parse_args(args).jobs == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 8
    assert build_parser().parse_args(args).jobs == 8


def test_split_sets_take_three_point_masks_after_a_student_t_block():
    # an inner level whose first block draws Student-t worlds and a later
    # block three-point ones, whose transform takes the "code" masks
    d = _ragged_fit_design()
    states = _level_states(5, streams.INNER, (), range(block_size(d)))

    def solve_block(family, buffers):
        law = make_distribution(1.0, 6.0, family)
        draw = _keyed_draw(d, [(law, law)], states, len(states))
        u, v = draw(0, len(states), buffers)
        solve(d, draw_statistics(d, u, v, buffers), buffers=buffers)

    level = Buffers()
    solve_block("student_t", level)
    sets = [level, *level.split(1)]
    arenas = [part._arena for part in sets]
    for part in sets[1:]:
        solve_block("student_t", part)
    for part in sets:
        solve_block("three_point", part)
    # every set keeps room for the masks: no arena opened after the split
    assert all(part._arena is arena for part, arena in zip(sets, arenas))


@pytest.fixture
def opened_arenas(monkeypatch):
    """Logs ``Buffers.take``: a dict from every set that took an array to
    the sizes of the arenas its takes opened, in order."""
    opened = {}
    real = Buffers.take

    def logged(self, key, shape, dtype=np.float64):
        arena = self._arena
        view = real(self, key, shape, dtype)
        opened.setdefault(self, [])
        if self._arena is not arena:
            opened[self].append(len(self._arena))
        return view

    monkeypatch.setattr("nerboot.pipeline.Buffers.take", logged)
    return opened


def _design(n):
    """The ragged n = 600 fit design, 1,024 clusters of 2 (32 worlds a
    block), or the study design of n clusters."""
    if n == 600:
        return _ragged_fit_design()
    if n == 1024:
        rng = np.random.default_rng(7)
        x, y = rng.uniform(0.5, 1.0, size=(2 * n, 1)), rng.normal(size=2 * n)
        return nerboot.from_arrays(np.repeat(np.arange(n), 2), x, y)
    return make_design(Scenario.from_ratio(n, 0.5), np.random.default_rng(n))


def _t_fit(d, seed):
    """The fit of ``d``'s design to heavy-tailed responses: t5 cluster
    effects and t6 noise, whose fitted kurtoses keep Student-t laws."""
    rng = np.random.default_rng(seed)
    y = np.repeat(rng.standard_t(5, size=d.n), d.sizes)
    y += d.s * rng.standard_t(6, size=d.total)
    return fit_model(_brute.with_responses(d, y))


@pytest.mark.parametrize("family", ["three_point", "student_t"])
@pytest.mark.parametrize("n", [600, 60, 100])
def test_the_level_arena_holds_an_outer_block_below_the_huge_page_rule(
    opened_arenas, n, family
):
    # numpy advises MADV_HUGEPAGE on every allocation of 2**22 bytes or more
    # (the huge-page rule of numpy/_core/src/multiarray/alloc.c); under the
    # kernel's THP mode "madvise" the first touch of such an arena faults a
    # whole 2 MB page, however little of it a level uses
    assert ARENA_BYTES < 2**22
    # and the reserve still holds a whole outer block refitted: 2.8 MB on
    # the ragged n = 600 design, 4.0-4.1 MB on the study designs
    d = _design(n)
    fit = _t_fit(d, n)
    states = _level_states(3, streams.OUTER, (), range(block_size(d)))
    draw = _keyed_draw(d, [_laws(fit, family)], states, len(states))
    opened_arenas.clear()
    next(refit_level(d, draw, len(states)))
    assert list(opened_arenas.values()) == [[ARENA_BYTES]]


@pytest.mark.parametrize("n", [600, 60, 100])
def test_a_desk_double_bootstrap_opens_one_arena_per_level(
    monkeypatch, opened_arenas, n
):
    # level one, the outer and the inner level each open one arena, and no
    # set split from one for a second thread opens another: the ragged
    # n = 600 design under Student-t laws, where level one and the inner
    # level run on two threads, and the study designs under three-point laws
    monkeypatch.setattr("nerboot.pipeline.usable_cpus", lambda: 2)
    d = _design(n)
    family, sets = ("student_t", 5) if n == 600 else ("three_point", 3)
    fit = _t_fit(d, n)
    assert {law.family for law in _laws(fit, family)} == {family}
    opened_arenas.clear()
    cfg = BootstrapConfig.desk_scale(master_seed=n, family=family)
    mse_double(d, fit, cfg)
    assert len(opened_arenas) == sets
    arenas = [size for sizes in opened_arenas.values() for size in sizes]
    assert arenas == [ARENA_BYTES] * 3


@pytest.mark.parametrize("family", ["three_point", "student_t"])
@pytest.mark.parametrize("n, cpus", [(1024, 2), (600, 4), (600, 8)])
def test_a_desk_double_bootstrap_opens_no_huge_page_arena(
    monkeypatch, opened_arenas, n, cpus, family
):
    # a set that outgrows its arena opens another, never one of 2**22 bytes
    # or more: on clusters of 2 at 2 CPUs, a first block of 2.8 MB leaves no
    # room for its split set and an outer block takes more than the reserve;
    # on the ragged n = 600 design at 4 and 8 CPUs, the split sets overflow
    monkeypatch.setattr("nerboot.pipeline.usable_cpus", lambda: cpus)
    d = _design(n)
    assert level_threads(d, 100) == cpus
    fit = _t_fit(d, n)
    assert {law.family for law in _laws(fit, family)} == {family}
    opened_arenas.clear()
    mse_double(d, fit, BootstrapConfig.desk_scale(master_seed=n, family=family))
    arenas = [size for sizes in opened_arenas.values() for size in sizes]
    assert len(arenas) > 3 and max(arenas) < 2**22  # some level overflowed


def test_a_slot_opens_an_arena_of_the_reserve_or_of_its_own_size(opened_arenas):
    buffers = Buffers()
    small = buffers.take("small", (8,))
    big = buffers.take("big", (ARENA_BYTES // 8 + 1,))
    buffers.take("next", (8,))
    assert opened_arenas[buffers] == [ARENA_BYTES, ARENA_BYTES + 64, ARENA_BYTES]
    assert not np.shares_memory(small, big)  # earlier slots keep their memory
