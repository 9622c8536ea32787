"""Moment-matching resampling distributions.

A matched distribution is any zero-mean law with prescribed variance z2
and fourth moment z4 (feasible whenever z2^2 <= z4).  Two families are
provided:

* three-point: atoms {0, +-sqrt(z2/p)} with P(0) = 1 - p and p = z2^2/z4;
  covers every feasible pair, including the degenerate point mass needed
  when the between-cluster variance estimate is truncated to zero.
* rescaled Student's t with fractional degrees of freedom, available only
  for kurtosis z4/z2^2 > 3; the df solve is r = (4 kappa - 6)/(kappa - 3)
  and the scale sqrt(z2 (r - 2)/r) fixes the variance.

Only these two moments matter to the bootstrap bias correction to first
order, which is why the family choice is a detail rather than a model
assumption.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import KurtosisNotHeavy, MomentInfeasible

log = logging.getLogger(__name__)

THREE_POINT = "three_point"
STUDENT_T = "student_t"
FAMILIES = (THREE_POINT, STUDENT_T)


@dataclass(frozen=True)
class MatchedDistribution:
    family: str
    z2: float
    z4: float
    params: dict


def _check_feasible(z2: float, z4: float) -> None:
    if not (math.isfinite(z2) and math.isfinite(z4)):
        raise MomentInfeasible(f"moments must be finite, got z2={z2}, z4={z4}")
    if z2 < 0:
        raise MomentInfeasible(f"variance z2 must be >= 0, got {z2}")
    if z4 < z2**2:
        raise MomentInfeasible(f"need z4 >= z2^2, got z2={z2}, z4={z4}")
    if z2 > 0 and z4 <= 0:
        raise MomentInfeasible(f"z4 must be positive when z2 > 0, got {z4}")


def make_three_point(z2: float, z4: float) -> MatchedDistribution:
    """Three-point law: 0 w.p. 1-p, +-sqrt(z2/p) w.p. p/2, p = z2^2/z4.

    z2 = 0 degenerates to a point mass at zero (p = 0 by convention).
    """
    _check_feasible(z2, z4)
    if z2 == 0.0:
        p, atom = 0.0, 0.0
    else:
        p = z2**2 / z4
        atom = math.sqrt(z2 / p)
    return MatchedDistribution(
        family=THREE_POINT, z2=float(z2), z4=float(z4), params={"p": p, "atom": atom}
    )


def make_student_t(z2: float, z4: float) -> MatchedDistribution:
    """Rescaled Student's t matching (z2, z4); needs kurtosis above 3."""
    _check_feasible(z2, z4)
    if z2 <= 0:
        raise KurtosisNotHeavy("student_t matching requires z2 > 0")
    kurt = z4 / z2**2
    if kurt <= 3.0:
        raise KurtosisNotHeavy(
            f"student_t matching requires z4/z2^2 > 3, got {kurt:.6g}"
        )
    df = (4.0 * kurt - 6.0) / (kurt - 3.0)  # > 4, not necessarily an integer
    scale = math.sqrt(z2 * (df - 2.0) / df)
    return MatchedDistribution(
        family=STUDENT_T, z2=float(z2), z4=float(z4), params={"df": df, "scale": scale}
    )


def make_distribution(
    z2: float, z4: float, family: str = THREE_POINT
) -> MatchedDistribution:
    """Family dispatch with the documented fallback.

    When ``student_t`` is requested but the kurtosis is not above 3 (or the
    law is degenerate), the three-point family is used instead; the
    substitution is logged at DEBUG level.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == STUDENT_T:
        try:
            return make_student_t(z2, z4)
        except KurtosisNotHeavy:
            log.debug(
                "student_t infeasible for z2=%g, z4=%g; falling back to three_point",
                z2,
                z4,
            )
    return make_three_point(z2, z4)


def _three_point_values(dist: MatchedDistribution, u):
    # one table lookup: index 0 (atom) below p/2, 1 (-atom) below p, 2 (0) from p on
    p, atom = dist.params["p"], dist.params["atom"]
    return np.array([atom, -atom, 0.0])[np.add(u >= 0.5 * p, u >= p, dtype=np.intp)]


def _student_t_values(dist: MatchedDistribution, z, chi2):
    # gamma-mixture representation of t_df, exact for fractional df
    return dist.params["scale"] * z / np.sqrt(chi2 / dist.params["df"])


def _raw_block(dist: MatchedDistribution, worlds: int, count: int) -> list:
    """Buffers for the generator output of ``count`` draws, one row per world."""
    calls = 1 if dist.family == THREE_POINT else 2
    return [np.empty((worlds, count)) for _ in range(calls)]


def _draw_raw(dist: MatchedDistribution, rng, raw: list, b: int) -> None:
    """World b's generator calls, in order: the family's only sampling code."""
    if dist.family == THREE_POINT:
        rng.random(out=raw[0][b])
        return
    rng.standard_normal(out=raw[0][b])
    count = raw[1].shape[1]
    raw[1][b] = rng.gamma(shape=dist.params["df"] / 2.0, scale=2.0, size=count)


def _values(dist: MatchedDistribution, raw: list):
    if dist.family == THREE_POINT:
        return _three_point_values(dist, *raw)
    return _student_t_values(dist, *raw)


def sample(dist: MatchedDistribution, rng: np.random.Generator, count: int):
    """``count`` i.i.d. draws; deterministic given the generator state.  The
    one-world case of the block draw of ``sample_worlds``."""
    raw = _raw_block(dist, 1, count)
    _draw_raw(dist, rng, raw, 0)
    return _values(dist, raw)[0]


def sample_worlds(
    u_dist: MatchedDistribution,
    v_dist: MatchedDistribution,
    states: np.ndarray,
    count_u: int,
    count_v: int,
):
    """U (B, count_u) and V (B, count_v) draws for a block of worlds; world b
    draws from its own generator, seeded by row b of ``states`` (the seed
    words of ``streams.substream_states``, see ``streams.replay``).

    Each world makes the generator calls of ``sample(u_dist, rng, count_u)``
    and then of ``sample(v_dist, rng, count_v)``, so its draws equal that
    pair of calls bit for bit; the transforms run once on the whole block.
    """
    worlds = len(states)
    u_raw = _raw_block(u_dist, worlds, count_u)
    v_raw = _raw_block(v_dist, worlds, count_v)
    for b, rng in enumerate(streams.replay(states)):
        _draw_raw(u_dist, rng, u_raw, b)
        _draw_raw(v_dist, rng, v_raw, b)
    return _values(u_dist, u_raw), _values(v_dist, v_raw)
