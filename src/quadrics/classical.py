"""Line-quadric intersection by the quadratic-coefficient route.

Substituting the parametric line x(t) = x_A + s*t into x^T Q x = 0 gives

    a*t^2 + 2*b*t + c = 0,   a = s^T Q s,  b = s^T Q x_A,  c = x_A^T Q x_A

(half-b convention), with discriminant D = b^2 - a*c.  This module is the
baseline and the oracle for the separated formulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .geometry import HomogeneousDirection, HomogeneousPoint
from .quadric import QuadricMatrix, bilinear_form, quadratic_form

__all__ = [
    "LINEAR_EPS",
    "TANGENT_EPS",
    "QuadraticCoeffs",
    "Miss",
    "Tangent",
    "Two",
    "LinearHit",
    "Degenerate",
    "IntersectionResult",
    "coefficients",
    "coefficient_terms",
    "solve",
    "intersect_classical",
    "hit_parameters",
]

# Relative threshold below which the t^2 coefficient counts as zero (the
# equation degenerates to linear, e.g. rays along a paraboloid's axis).
LINEAR_EPS = 1e-12
# Relative half-width of the tangency band on the discriminant.
TANGENT_EPS = 1e-10


@dataclass(frozen=True, slots=True)
class QuadraticCoeffs:
    """Coefficients of a*t^2 + 2*b*t + c = 0 (note the half-b convention)."""

    a: float
    b: float
    c: float


@dataclass(frozen=True, slots=True)
class Miss:
    """No real intersection: D < 0."""

    d: float


@dataclass(frozen=True, slots=True)
class Tangent:
    """Double root: |D| within the tangency band."""

    t: float
    d: float


@dataclass(frozen=True, slots=True)
class Two:
    """Two crossings, t1 <= t2."""

    t1: float
    t2: float
    d: float


@dataclass(frozen=True, slots=True)
class LinearHit:
    """Degenerate quadratic (a ~ 0) with a single root of 2*b*t + c = 0."""

    t: float


@dataclass(frozen=True, slots=True)
class Degenerate:
    """a ~ 0 and b ~ 0: no usable root (constant equation)."""


IntersectionResult = Union[Miss, Tangent, Two, LinearHit, Degenerate]


def coefficients(
    q: QuadricMatrix, point: HomogeneousPoint, direction: HomogeneousDirection
) -> QuadraticCoeffs:
    """a = s^T Q s, b = s^T Q x_A, c = x_A^T Q x_A via the symmetric expansion."""
    terms = coefficient_terms(q.coefficients(), point.as_tuple(), direction.as_tuple())
    return QuadraticCoeffs(*terms)


def coefficient_terms(q: Iterable, x: Sequence, s: Sequence) -> tuple:
    """(a, b, c) of `coefficients` from Q's coefficients and the 4-vectors x_A and s.

    q and the components of x and s are what `quadratic_form` takes: floats,
    or a (10, objects) table and arrays for every (line, object) pair.
    """
    return quadratic_form(q, s), bilinear_form(q, s, x), quadratic_form(q, x)


def solve(
    coeffs: QuadraticCoeffs, a_scale: float, discriminant: float | None = None
) -> IntersectionResult:
    """Classify and solve a*t^2 + 2*b*t + c = 0.

    Roots use the cancellation-safe form q = -(b + sign(b)*sqrt(D)),
    t1 = q/a, t2 = c/q instead of the textbook formula, which loses the
    small root when b^2 >> a*c.

    `a_scale` is the magnitude against which a ~ 0 is judged; the
    intersection routes pass max|Q_ij|*||s||^2.  `discriminant`
    substitutes an externally computed D for both classification and root
    extraction; the result then reports that value.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    if abs(a) <= LINEAR_EPS * a_scale:
        # 2*b*t + c = 0
        if abs(b) > LINEAR_EPS * max(a_scale, abs(c)):
            return LinearHit(t=-c / (2.0 * b))
        return Degenerate()

    d = b * b - a * c if discriminant is None else discriminant
    d_scale = max(b * b, abs(a * c))
    band = TANGENT_EPS * d_scale
    if d < -band:
        return Miss(d=d)
    if abs(d) <= band:
        return Tangent(t=-b / a, d=d)

    root = math.sqrt(d)
    qq = -(b + math.copysign(root, b))
    t1 = qq / a
    t2 = c / qq
    if t2 < t1:
        t1, t2 = t2, t1
    return Two(t1=t1, t2=t2, d=d)


def _a_scale(q: QuadricMatrix, direction: HomogeneousDirection) -> float:
    s = direction.as_tuple()
    s_sq = s[0] * s[0] + s[1] * s[1] + s[2] * s[2] + s[3] * s[3]
    return q.max_abs_coefficient() * s_sq


def intersect_classical(
    q: QuadricMatrix, point: HomogeneousPoint, direction: HomogeneousDirection
) -> IntersectionResult:
    """Full baseline intersection: coefficients, then classification/roots.

    Both roots are always reported; callers filter (e.g. t >= 0 for rays).
    """
    return solve(coefficients(q, point, direction), a_scale=_a_scale(q, direction))


def hit_parameters(result: IntersectionResult) -> tuple[float, ...]:
    """Line parameters at which the surface is crossed (empty for Miss/Degenerate)."""
    if isinstance(result, Two):
        return (result.t1, result.t2)
    if isinstance(result, (Tangent, LinearHit)):
        return (result.t,)
    return ()
