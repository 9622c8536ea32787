import numpy as np
import pytest

import nerboot as nb
from nerboot import streams
from nerboot.mmdist import (
    STUDENT_T,
    make_distribution,
    make_student_t,
    make_study_law,
    make_three_point,
)
from nerboot.mspe import _draw_worlds
from nerboot.pipeline import Buffers
from nerboot.simulate import Scenario, _laws, error_model

import _brute
from conftest import benchmark_dataset

STUDY = ("m3", "m6", "m7", "m8")  # the study laws of U and V cover all eight
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
    # default_rng raises TypeError for a float component; it is not truncated
    with pytest.raises(TypeError):
        np.random.default_rng([3, 2.9])
    with pytest.raises(ValueError):
        streams.substream_states(3, 2.9, tails=np.zeros((2, 1), int))
    # a key needs a trailing component, or every row would be the same key
    with pytest.raises(ValueError):
        streams.substream_states(3, streams.SINGLE, tails=np.zeros((2, 0), int))
    # a trailing component of two entropy words would change the layout
    with pytest.raises(ValueError):
        streams.substream_states(3, streams.SINGLE, tails=np.array([[1], [2**32]]))
    assert len(streams.substream_states(3, tails=np.zeros((0, 1), int))) == 0


class _CountingGenerator:
    """A generator that counts the calls of its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return call


# generator calls per world: U's last call and V's first make one call when
# they are the same method with the same arguments (m6: chi2_5 and
# neg_chi2_5 both draw chisquare(5); chisquare(5) and chisquare(10) do not)
CALLS_PER_WORLD = {
    "fallback_u": 3, "three_point": 1, "student_t": 4, "t_then_tp": 3,
    "m3": 1, "m6": 1, "m7": 1, "m8": 1, "point_mass_u": 1, "chi2_5_10": 2,
}


@pytest.mark.parametrize(
    "case",
    ["fallback_u", "three_point", "student_t", "t_then_tp", "m3", "m6", "m7", "m8",
     "point_mass_u", "chi2_5_10"],
)
def test_block_draws_equal_looped_oracle(case):
    d = benchmark_dataset(n=12, m=3, seed=4)
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
        **{m: _laws(Scenario.from_ratio(12, 0.5), error_model(m)) for m in STUDY},
        # sigma_U^2 truncated to 0: U is a point mass (p = 0) that still draws
        "point_mass_u": (make_three_point(0.0, 0.0), make_three_point(0.7, 1.4)),
        "chi2_5_10": (make_study_law("chi2_5", 0.5), make_study_law("chi2_10", 0.7)),
    }[case]
    if case == "fallback_u":
        assert [law.family for law in laws] == ["three_point", "student_t"]
    keys = [(2**40 + 9, streams.INNER, 3, b, el) for b in range(3) for el in range(4)]
    tails = np.array([key[3:] for key in keys])
    states = streams.substream_states(2**40 + 9, streams.INNER, 3, tails=tails)
    rngs = [_CountingGenerator(rng) for rng in streams.replay(states)]
    buffers = Buffers()
    out = np.empty((len(rngs), d.n + d.total))
    u_star, v_star = _draw_worlds(d, laws, rngs, out, buffers)
    assert [rng.calls for rng in rngs] == [CALLS_PER_WORLD[case]] * len(keys)
    # the oracle draws U and V with one ``sample`` call each
    for k, key in enumerate(keys):
        u, v = _brute.draw_errors(d, *laws, streams.substream(*key))
        np.testing.assert_array_equal(u_star[k], u)
        np.testing.assert_array_equal(v_star[k], v)
