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
worlds, one generator per world, into the caller's buffers, and runs the
transforms in place; ``sample`` is its one-world case.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import KurtosisNotHeavy, MomentInfeasible
from .pipeline import Buffers

log = logging.getLogger(__name__)

THREE_POINT = "three_point"
STUDENT_T = "student_t"
FAMILIES = (THREE_POINT, STUDENT_T)


@dataclass(frozen=True)
class Law:
    """A zero-mean law: its entry in the table of laws, the parameters its
    transform reads and one world's generator calls, in order, as data."""

    family: str
    params: dict
    calls: tuple


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
    return Law(THREE_POINT, {"p": p, "atom": atom}, (("random", ()),))


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
    calls = (("standard_normal", ()), ("standard_gamma", (df / 2.0,)))
    return Law(STUDENT_T, {"df": df, "scale": scale}, calls)


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


# Every transform works in place: it turns a block's uniform or standard
# draws (its first argument) into the law's values, with any scratch array
# from ``buffers``.

def _three_point_values(params, buffers, u):
    # atom below p/2, -atom below p, 0 from p on: atom times the int8 code
    # 2 [u < p/2] - [u < p], in 1, -1 and 0, each product exact
    p, atom = params["p"], params["atom"]
    code = np.less(u, 0.5 * p, out=buffers.take("code", u.shape, bool)).view(np.int8)
    code += code
    code -= np.less(u, p, out=buffers.take("scratch", u.shape, bool)).view(np.int8)
    np.multiply(code, atom, out=u)


def _student_t_values(params, buffers, z, half_chi2):
    # gamma-mixture representation of t_df, exact for fractional df; the
    # chi-square is twice a standard gamma of shape df/2: scale z / sqrt(chi2 / df)
    half_chi2 *= 2.0
    half_chi2 /= params["df"]
    np.sqrt(half_chi2, out=half_chi2)
    z *= params["scale"]
    z /= half_chi2


def _standard(center, spread, root=False):
    """A study law's transform: ((x, or its root) - center) / spread * sd."""

    def transform(p, buffers, x):
        if root:
            np.sqrt(x, out=x)
        x -= center
        x /= spread
        x *= p["sd"]

    return transform


_SQRT_CHI2_5_MEAN = math.sqrt(2.0) * math.gamma(3.0) / math.gamma(2.5)

# the study's error laws: name -> (one world's generator call, its transform)
_STUDY = {
    "normal": (("standard_normal", ()), _standard(0.0, 1.0)),
    "sqrt_chi2_5": (
        ("chisquare", (5.0,)),
        _standard(_SQRT_CHI2_5_MEAN, math.sqrt(5.0 - _SQRT_CHI2_5_MEAN**2), root=True),
    ),
    "chi2_5": (("chisquare", (5.0,)), _standard(5.0, math.sqrt(10.0))),
    "chi2_10": (("chisquare", (10.0,)), _standard(10.0, math.sqrt(20.0))),
    "exponential": (("exponential", (1.0,)), _standard(1.0, 1.0)),
    "neg_chi2_5": (("chisquare", (5.0,)), _standard(5.0, -math.sqrt(10.0))),
    "t6": (("standard_t", (6.0,)), _standard(0.0, math.sqrt(1.5))),
    "logistic": (("logistic", (0.0, 1.0)), _standard(0.0, math.pi / math.sqrt(3.0))),
}

STUDY_LAWS = tuple(_STUDY)

# law -> the transform of a block's draws, one (B, count) array per call
_LAWS = {THREE_POINT: _three_point_values, STUDENT_T: _student_t_values}
_LAWS.update((name, transform) for name, (_, transform) in _STUDY.items())

_FILLS_OUT = {"random", "standard_normal", "standard_gamma"}  # take out=


def make_study_law(name: str, variance: float) -> Law:
    """The study law ``name``, scaled to ``variance``."""
    if name not in STUDY_LAWS:
        raise ValueError(f"unknown study law {name!r}; expected one of {STUDY_LAWS}")
    if variance < 0:
        raise ValueError("variance must be >= 0")
    return Law(name, {"sd": math.sqrt(variance)}, (_STUDY[name][0],))


def sample(law: Law, rng: np.random.Generator, count: int):
    """``count`` i.i.d. draws; deterministic given the generator state.  The
    one-world case of ``sample_worlds``, with no V draws."""
    out = np.empty((1, count))
    sample_worlds(law, law, [rng], count, out, Buffers())
    return out[0]


def sample_worlds(u_law: Law, v_law: Law, rngs: list, count_u: int, out, buffers):
    """U (B, count_u) and V (B, count_v) draws for a block of worlds, world b
    drawing from its own generator ``rngs[b]``: the only code that calls a
    law's generator methods.  Returns U and V as the column blocks of
    ``out`` (B, count_u + count_v), which it fills.

    Each world's draws equal those of ``sample(u_law, rng, count_u)`` and
    then ``sample(v_law, rng, count_v)`` bit for bit, though it makes U's
    last call and V's first as one call when they are the same method with
    the same arguments into adjacent columns: each method fills element by
    element and caches no state.  A law's first call fills its columns of
    ``out`` and its second those of ``buffers``' "scratch2", of out's shape;
    the transforms then run in place, once on the whole block.
    """
    spans = ((u_law, 0, count_u), (v_law, count_u, out.shape[1]))
    raw = [[], []]  # each law's call columns, in call order
    fills = []  # [method, args, buffer, first column, end column]
    for (law, lo, hi), columns in zip(spans, raw):
        for j, (method, args) in enumerate(law.calls):
            buffer = out if j == 0 else buffers.take(f"scratch{j + 1}", out.shape)
            columns.append(buffer[:, lo:hi])
            last = fills[-1] if fills else None
            if last and last[2] is buffer and last[:2] == [method, args]:
                last[4] = hi  # adjacent columns: U's last call is its first
            elif hi > lo:
                fills.append([method, args, buffer, lo, hi])
    steps = [(m, a, m in _FILLS_OUT, buf[:, lo:hi]) for m, a, buf, lo, hi in fills]
    for b, rng in enumerate(rngs):
        for method, args, in_place, target in steps:
            if in_place:
                getattr(rng, method)(*args, out=target[b])
            else:
                target[b] = getattr(rng, method)(*args, target.shape[1])
    for (law, _, _), columns in zip(spans, raw):
        _LAWS[law.family](law.params, buffers, *columns)
    return out[:, :count_u], out[:, count_u:]
