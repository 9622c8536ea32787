"""The laws the library draws from, and the one sampler that draws them.

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

The study's eight error laws (``STUDY_LAWS``) share the table of laws: each
is one generator call, centered and scaled analytically to unit variance,
then to its sd.  ``sample_worlds`` draws a pair of ``Law``s for a block of
worlds, one generator per world; ``sample`` is its one-world case.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import KurtosisNotHeavy, MomentInfeasible

log = logging.getLogger(__name__)

THREE_POINT = "three_point"
STUDENT_T = "student_t"
FAMILIES = (THREE_POINT, STUDENT_T)


@dataclass(frozen=True)
class Law:
    """A zero-mean law: its entry in the table of laws and the parameters
    its generator calls and transform read."""

    family: str
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


def make_three_point(z2: float, z4: float) -> Law:
    """Three-point law: 0 w.p. 1-p, +-sqrt(z2/p) w.p. p/2, p = z2^2/z4.

    z2 = 0 degenerates to a point mass at zero (p = 0 by convention).
    """
    _check_feasible(z2, z4)
    if z2 == 0.0:
        p, atom = 0.0, 0.0
    else:
        p = z2**2 / z4
        atom = math.sqrt(z2 / p)
    return Law(family=THREE_POINT, params={"p": p, "atom": atom})


def make_student_t(z2: float, z4: float) -> Law:
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
    return Law(family=STUDENT_T, params={"df": df, "scale": scale})


def make_distribution(z2: float, z4: float, family: str = THREE_POINT) -> Law:
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


def _three_point_values(params, u):
    # one table lookup: index 0 (atom) below p/2, 1 (-atom) below p, 2 (0) from p on
    p, atom = params["p"], params["atom"]
    return np.array([atom, -atom, 0.0])[np.add(u >= 0.5 * p, u >= p, dtype=np.intp)]


def _student_t_values(params, z, half_chi2):
    # gamma-mixture representation of t_df, exact for fractional df; the
    # chi-square is twice a standard gamma of shape df/2
    return params["scale"] * z / np.sqrt(2.0 * half_chi2 / params["df"])


def _standard(call, center, spread):
    """A study law's entry: one generator call, then (x - center) / spread
    scaled by the law's standard deviation ``sd``."""
    return (call,), lambda params, x: (x - center) / spread * params["sd"]


def _fill(method: str, *args):
    """The generator call ``method(*args, size)``, copied into a world's row."""
    return lambda rng, row, _: np.copyto(row, getattr(rng, method)(*args, row.size))


_SQRT_CHI2_5_MEAN = math.sqrt(2.0) * math.gamma(3.0) / math.gamma(2.5)

# law -> (one world's generator calls, in order, each filling that world's
# row of its own (B, count) buffer; the transform of a block's buffers)
_LAWS = {
    THREE_POINT: ((lambda rng, row, params: rng.random(out=row),), _three_point_values),
    STUDENT_T: (
        (
            lambda rng, row, params: rng.standard_normal(out=row),
            lambda rng, row, params: rng.standard_gamma(params["df"] / 2.0, out=row),
        ),
        _student_t_values,
    ),
    # the study's error laws, each centered and of unit variance before sd
    "normal": _standard(lambda rng, row, _: rng.standard_normal(out=row), 0.0, 1.0),
    "sqrt_chi2_5": _standard(
        lambda rng, row, _: np.sqrt(rng.chisquare(5.0, row.size), out=row),
        _SQRT_CHI2_5_MEAN,
        math.sqrt(5.0 - _SQRT_CHI2_5_MEAN**2),
    ),
    "chi2_5": _standard(_fill("chisquare", 5.0), 5.0, math.sqrt(10.0)),
    "chi2_10": _standard(_fill("chisquare", 10.0), 10.0, math.sqrt(20.0)),
    "exponential": _standard(_fill("exponential", 1.0), 1.0, 1.0),
    "neg_chi2_5": _standard(_fill("chisquare", 5.0), 5.0, -math.sqrt(10.0)),
    "t6": _standard(_fill("standard_t", 6.0), 0.0, math.sqrt(1.5)),
    "logistic": _standard(_fill("logistic", 0.0, 1.0), 0.0, math.pi / math.sqrt(3.0)),
}

STUDY_LAWS = tuple(name for name in _LAWS if name not in FAMILIES)


def make_study_law(name: str, variance: float) -> Law:
    """The study law ``name``, scaled to ``variance``."""
    if name not in STUDY_LAWS:
        raise ValueError(f"unknown study law {name!r}; expected one of {STUDY_LAWS}")
    if variance < 0:
        raise ValueError("variance must be >= 0")
    return Law(family=name, params={"sd": math.sqrt(variance)})


def sample(law: Law, rng: np.random.Generator, count: int):
    """``count`` i.i.d. draws; deterministic given the generator state.  The
    one-world case of ``sample_worlds``, with no V draws."""
    return sample_worlds(law, law, [rng], count, 0)[0][0]


def sample_worlds(u_law: Law, v_law: Law, rngs: list, count_u: int, count_v: int):
    """U (B, count_u) and V (B, count_v) draws for a block of worlds, world b
    drawing from its own generator ``rngs[b]``: the only code that calls a
    law's generator methods.

    Each world makes the generator calls of ``sample(u_law, rng, count_u)``
    and then of ``sample(v_law, rng, count_v)``, so its draws equal that
    pair of calls bit for bit; each world writes its own rows of
    preallocated buffers, and the transforms run once on the whole block.
    """
    blocks, steps = [], []
    for law, count in ((u_law, count_u), (v_law, count_v)):
        calls, _ = _LAWS[law.family]
        raw = [np.empty((len(rngs), count)) for _ in calls]
        blocks.append(raw)
        steps += [(call, buffer, law.params) for call, buffer in zip(calls, raw)]
    for b, rng in enumerate(rngs):
        for call, buffer, params in steps:
            call(rng, buffer[b], params)
    return tuple(
        _LAWS[law.family][1](law.params, *raw)
        for law, raw in zip((u_law, v_law), blocks)
    )
