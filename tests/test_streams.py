import numpy as np
import pytest

import nerboot as nb
from nerboot import streams
from nerboot.mmdist import (
    STUDENT_T,
    make_distribution,
    make_student_t,
    make_three_point,
)
from nerboot.mspe import _draw_worlds

import _brute
from conftest import benchmark_dataset

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
PREFIXES = ((), (streams.SINGLE,), (streams.INNER, 0), (streams.OUTER, 2**32, 2**70))
TAILS = np.array([[0, 0], [1, 5], [2**32 - 1, 3], [2**31, 2**32 - 1]], dtype=np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_states_replay_default_rng(seed):
    for prefix in PREFIXES:
        for tails in (TAILS, TAILS[:, :1], np.arange(4)[:, None]):
            states = streams.substream_states(seed, *prefix, tails=tails)
            assert len(states) == len(tails)
            for row, rng in zip(tails.tolist(), streams.replay(states)):
                expected = np.random.default_rng([seed, *prefix, *row]).random(7)
                np.testing.assert_array_equal(rng.random(7), expected)


def test_replayed_generators_are_independent_objects():
    # every generator is collected before any draws: each keeps its own stream
    states = streams.substream_states(9, streams.STUDY, tails=np.arange(5)[:, None])
    generators = list(streams.replay(states))
    for t, rng in enumerate(generators):
        expected = streams.substream(9, streams.STUDY, t).random(4)
        np.testing.assert_array_equal(rng.random(4), expected)


def test_batched_states_reject_what_default_rng_rejects():
    with pytest.raises(ValueError):
        np.random.default_rng([3, streams.SINGLE, -1])
    with pytest.raises(ValueError):
        streams.substream_states(3, streams.SINGLE, -1, tails=np.zeros((2, 1), int))
    with pytest.raises(ValueError):
        streams.substream_states(3, streams.SINGLE, tails=np.array([[0], [-1]]))
    with pytest.raises(ValueError):
        streams.substream_states(-3, streams.SINGLE, tails=np.zeros((2, 1), int))
    # a trailing component of two entropy words would change the layout
    with pytest.raises(ValueError):
        streams.substream_states(3, streams.SINGLE, tails=np.array([[1], [2**32]]))
    assert len(streams.substream_states(3, tails=np.zeros((0, 1), int))) == 0


@pytest.mark.parametrize(
    "case", ["fallback_u", "three_point", "student_t", "t_then_tp"]
)
def test_block_draws_equal_looped_oracle(case):
    d = benchmark_dataset(n=12, m=3, seed=4)
    mu, beta = 0.3, np.array([1.2])
    heavy_t = make_student_t(0.7, 0.7**2 * 6.0)
    laws = {
        # kurtosis 2 < 3: student_t falls back to three-point for U only
        "fallback_u": (
            make_distribution(0.5, 0.5, STUDENT_T),
            make_distribution(0.7, 0.7**2 * 6.0, STUDENT_T),
        ),
        "three_point": (make_three_point(0.5, 0.5), make_three_point(0.7, 1.4)),
        "student_t": (make_student_t(0.5, 0.5**2 * 4.0), heavy_t),
        "t_then_tp": (heavy_t, make_three_point(0.7, 1.4)),
    }[case]
    if case == "fallback_u":
        assert [law.family for law in laws] == ["three_point", "student_t"]
    keys = [(2**40 + 9, streams.INNER, 3, b, el) for b in range(3) for el in range(4)]
    tails = np.array([key[3:] for key in keys])
    states = streams.substream_states(2**40 + 9, streams.INNER, 3, tails=tails)
    y_star, theta_star = _draw_worlds(d, mu, beta, laws, states)
    for k, key in enumerate(keys):
        d_star, theta = _brute.draw_world(d, mu, beta, *laws, streams.substream(*key))
        np.testing.assert_array_equal(y_star[k], d_star.y)
        np.testing.assert_array_equal(theta_star[k], theta)
