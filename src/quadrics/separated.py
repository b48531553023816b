"""Line-quadric intersection with the line's contribution factored out.

The discriminant of the intersection quadratic factors as

    b^2 - a*c = s^T Q^T R Q x_A,      R = x_A (x) s - s (x) x_A,

where (x) is the outer product, so R is an antisymmetric 4x4 matrix that
depends only on the line.  Building R (and a few derived quantities) once
per ray moves work out of the per-surface loop; for spheres the per-surface
cost collapses further to a cross product and two dot products: the line's
moment and |dir|^2 (`line_moment`) are built once per line, and
`moment_discriminant` is the per-sphere step.

R is kept as its six independent entries (`RMatrix`).  It can be built from
a point and a direction, from two points, or from the 2x2 sub-determinants
of the endpoint matrix; the three entry points share one arithmetic body,
`line_entries`, so they agree entry for entry, exactly.  `line_entries`,
`compound_entries`, `compound_weights`, `line_moment` and
`moment_discriminant` take plain tuples, so the batched kernels run the
same bodies on arrays of lines, of spheres and tables of quadrics.  The
early reject that spares a pair its coefficient work, `early_reject`,
likewise takes a float or an array.

R's six entries p are the line's Plucker coordinates, p = x ^ s, the 2x2
minors of [x s], and by Cauchy-Binet

    D = -p^T C p,

with C = C_2(Q) the second compound of Q (Pottmann and Wallner,
Computational Line Geometry, 2001).  Every separated D is this one form,
weight * C[I, J] over the pairs (I, J) of `COMPOUND_ORDER`, the weights
from `compound_weights` and the entries from `compound_entries`: the
scalar `discriminant_separated` adds the terms left to right, render's
kernels the six its camera rays leave in the same order, and bench's
lifted kernels multiply 21 weights per line by 21 entries per object.  The cross products of the sphere path
(`line_moment`, `moment_discriminant`) are `geometry.cross_terms`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .classical import (
    TANGENT_EPS,
    IntersectionResult,
    Miss,
    _a_scale,
    coefficients,
    solve,
)
from .geometry import HomogeneousDirection, HomogeneousPoint, Vec3, cross_terms
from .quadric import COEFFICIENT_ENTRIES, QuadricMatrix

__all__ = [
    "RMatrix",
    "RayCache",
    "EndpointMatrix",
    "make_ray_cache",
    "r_from_point_dir",
    "r_from_two_points",
    "r_from_subdeterminants",
    "line_entries",
    "discriminant_separated",
    "COMPOUND_ORDER",
    "compound_entries",
    "compound_weights",
    "line_moment",
    "moment_discriminant",
    "sphere_discriminant",
    "sphere_discriminant_projective",
    "early_reject",
    "intersect_separated",
]


@dataclass(frozen=True, slots=True)
class RMatrix:
    """Six independent entries of an antisymmetric 4x4 line matrix.

    Materialized form has a null diagonal and R = -R^T exactly, because the
    mirrored entries are the same stored floats negated.
    """

    r12: float
    r13: float
    r14: float
    r23: float
    r24: float
    r34: float

    def entries(self) -> tuple[float, float, float, float, float, float]:
        return (self.r12, self.r13, self.r14, self.r23, self.r24, self.r34)


@dataclass(frozen=True, slots=True)
class EndpointMatrix:
    """2x4 matrix whose rows are two homogeneous points spanning a line."""

    row_a: tuple[float, float, float, float]
    row_b: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        for row in (self.row_a, self.row_b):
            if len(row) != 4:
                raise ValueError("EndpointMatrix rows must have 4 entries")
            for v in row:
                if not math.isfinite(v):
                    raise ValueError(f"EndpointMatrix: non-finite entry {v!r}")


# The axes (i, j), i < j, of R's six entries, in the order of `line_entries`.
_LINE_AXES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# The 21 index pairs (I, J), I <= J, into `line_entries`, in the order of
# `compound_entries`.
COMPOUND_ORDER = tuple((a, b) for a in range(6) for b in range(a, 6))
# Q's entry (i, j) as a position among its 10 coefficients, either way round.
_POSITION = {e: k for k, (i, j) in enumerate(COEFFICIENT_ENTRIES) for e in ((i, j), (j, i))}


@functools.cache
def _compound_terms(pairs: tuple) -> tuple:
    """Per (I, J) of `pairs`, I = (i, j) and J = (k, l): the positions of q_ik, q_jl, q_il, q_jk."""
    return tuple(
        tuple(_POSITION[e] for e in ((i, k), (j, l), (i, l), (j, k)))
        for (i, j), (k, l) in ((_LINE_AXES[a], _LINE_AXES[b]) for a, b in pairs)
    )


def line_entries(x: Sequence, s: Sequence) -> tuple:
    """R's six entries (r12, r13, r14, r23, r24, r34), r_ij = x_i*s_j - s_i*x_j.

    They are the line's Plucker coordinates, the 2x2 minors of [x s].  x
    and s are homogeneous 4-vectors whose components are floats or arrays
    that broadcast together, so one body serves a single line and a batch.
    """
    x0, x1, x2, x3 = x
    s0, s1, s2, s3 = s
    return (
        x0 * s1 - s0 * x1,
        x0 * s2 - s0 * x2,
        x0 * s3 - s0 * x3,
        x1 * s2 - s1 * x2,
        x1 * s3 - s1 * x3,
        x2 * s3 - s2 * x3,
    )


def compound_entries(q: Iterable, pairs: tuple = COMPOUND_ORDER) -> list:
    """Q's second compound C: its entries C[I, J] for (I, J) in `pairs`, by default all 21.

    C[I, J] = q_ik q_jl - q_il q_jk for the axes I = (i, j) and J = (k, l) of
    R's entries (`line_entries`), the 2x2 minor of Q on rows I and columns
    J.  By Cauchy-Binet, det([x s]^T Q [x s]) = a c - b^2 = p^T C p, with p
    the line's entries, so b^2 - a c = -p^T C p: the line enters through R
    alone, the surface through C alone (Pottmann and Wallner, Computational
    Line Geometry, 2001).  q unpacks into Q's 10 coefficients in
    `quadric.COEFFICIENT_ORDER`; floats, `Fraction`s and the rows of a
    (10, objects) table all serve.  `pairs` is a tuple of pairs of
    `COMPOUND_ORDER`.
    """
    q = tuple(q)
    return [q[ik] * q[jl] - q[il] * q[jk] for ik, jl, il, jk in _compound_terms(pairs)]


def compound_weights(p: Sequence, pairs: Sequence = COMPOUND_ORDER) -> list:
    """The line's weight on C[I, J] for (I, J) in `pairs`: -p^T C p = sum of weight * C[I, J].

    p is the line's six entries (`line_entries`).  The weight is
    p_I (k p_J), k = -1 on the diagonal and -2 off it, where p^T C p holds
    both C[I, J] and C[J, I]; k's products are exact.  p's components are
    floats, `Fraction`s or arrays that broadcast together.
    """
    return [p[a] * ((-1 if a == b else -2) * p[b]) for a, b in pairs]


def r_from_point_dir(point: HomogeneousPoint, direction: HomogeneousDirection) -> RMatrix:
    """R = x_A (x) s - s (x) x_A, i.e. r_ij = x_i*s_j - s_i*x_j."""
    return RMatrix(*line_entries(point.as_tuple(), direction.as_tuple()))


def r_from_two_points(point_a: HomogeneousPoint, point_b: HomogeneousPoint) -> RMatrix:
    """Line matrix from two homogeneous points: the endpoint matrix with rows x_A, x_B."""
    return r_from_subdeterminants(EndpointMatrix(point_a.as_tuple(), point_b.as_tuple()))


def r_from_subdeterminants(m: EndpointMatrix) -> RMatrix:
    """Line matrix from the 2x2 column sub-determinants of the endpoint matrix.

    det[col_i | col_j] = x_Ai*x_Bj - x_Bi*x_Aj is computed as the r_ij of
    r_from_point_dir with s = x_B - x_A componentwise, so the constructions
    agree entry for entry, exactly.
    """
    a = m.row_a
    r = line_entries(a, [bi - ai for ai, bi in zip(a, m.row_b)])
    if all(e == 0.0 for e in r):
        raise ValueError("degenerate line: endpoint matrix is rank deficient")
    return RMatrix(*r)


@dataclass(frozen=True, slots=True)
class RayCache:
    """Everything about one line that the per-surface tests reuse.

    `moment` is dir3 x point.xyz(), the line's moment vector: it is the
    cross-product vector behind the 3x3 block of R, and the sphere fast path
    turns it into dir3 x (point.xyz() - center) with a single subtraction.
    """

    point: HomogeneousPoint
    direction: HomogeneousDirection
    dir3: Vec3
    moment: Vec3
    dir_norm_sq: float
    r: RMatrix


def make_ray_cache(point: HomogeneousPoint, direction: HomogeneousDirection) -> RayCache:
    """Precompute the per-line quantities; rejects directions with no spatial part."""
    dir3 = direction.xyz()
    if dir3.x == 0.0 and dir3.y == 0.0 and dir3.z == 0.0:
        raise ValueError("degenerate direction: spatial part is zero")
    moment, dir_norm_sq = line_moment(point.as_tuple(), direction.as_tuple())
    return RayCache(
        point=point,
        direction=direction,
        dir3=dir3,
        moment=Vec3(*moment),
        dir_norm_sq=dir_norm_sq,
        r=r_from_point_dir(point, direction),
    )


def line_moment(x: Sequence, s: Sequence) -> tuple:
    """(dir3 x x3, |dir3|^2) of the line through x along s, the sphere path's per-line terms.

    dir3 and x3 are the first three components of s and x, and the cross
    product is `geometry.cross_terms`.  x and s are
    homogeneous 4-vectors whose components are floats or arrays that
    broadcast together, as in `line_entries`; w is not read.
    """
    s0, s1, s2, _ = s
    return cross_terms(s, x), s0 * s0 + s1 * s1 + s2 * s2


def discriminant_separated(q: QuadricMatrix, cache: RayCache) -> float:
    """D = -p^T C p of one line: 0.0 plus weight * C[I, J], left to right in `COMPOUND_ORDER`.

    The weights are `compound_weights` of R's entries p, the entries
    `compound_entries` of Q.  A term whose weight is exactly 0 is skipped:
    it adds nothing in exact arithmetic, and skipping it keeps 0 * inf out
    of D where an entry overflows.  Equals b^2 - a*c of the classical route
    up to floating-point rounding.
    """
    d = 0.0
    for w, c in zip(compound_weights(cache.r.entries()), compound_entries(q.coefficients())):
        if w:
            d += w * c
    return d


def sphere_discriminant(center: Vec3, radius: float, cache: RayCache) -> float:
    """Discriminant against a sphere, reusing the cached per-line moment.

    With delta = cache.point.xyz() - center, computes r^2*|dir|^2 - |dir x delta|^2,
    where dir x delta = moment - dir x center costs one cross product and a
    subtraction per sphere (`moment_discriminant`).  The Lagrange form is
    used instead of the equivalent triple-product chain
    dir . [(dir x delta) x delta + r^2*dir]; both equal the classical
    b^2 - a*c for the translated sphere.  Raises ValueError when the result
    is not finite (an overflowing radius or cross product).
    """
    if not radius > 0.0:
        raise ValueError(f"sphere_discriminant: non-positive radius {radius!r}")
    if cache.point.w != 1.0 or cache.direction.sw != 0.0:
        raise ValueError("sphere_discriminant needs a Euclidean ray (w_A = 1, s_w = 0)")
    d = moment_discriminant(
        center.as_tuple(), radius * radius, cache.moment.as_tuple(), cache.dir3.as_tuple(),
        cache.dir_norm_sq,
    )
    if not math.isfinite(d):
        raise ValueError(f"sphere_discriminant: non-finite result {d!r}")
    return d


def moment_discriminant(center: Sequence, r_sq, moment: Sequence, dir3: Sequence, dir_norm_sq):
    """r^2*|dir|^2 - |moment - dir x center|^2, component by component.

    `moment` and `dir_norm_sq` are `line_moment`'s; dir x center is
    `geometry.cross_terms`.  Every argument's components are floats or
    arrays that broadcast together: (3, spheres) centres against per-ray
    columns give every (ray, sphere) pair with no (rays, spheres, 3)
    temporary.
    """
    mx, my, mz = (m - t for m, t in zip(moment, cross_terms(dir3, center)))
    return r_sq * dir_norm_sq - (mx * mx + my * my + mz * mz)


def sphere_discriminant_projective(
    center: Vec3, radius: float, point: HomogeneousPoint, direction: HomogeneousDirection
) -> float:
    """Sphere discriminant straight from projective coordinates.

    Division-free by contract: no component is normalized by w anywhere in
    this path (audited in the tests).  Substituting the projective line into
    the sphere equation scaled by (w_A + s_w*t)^2 gives a quadratic with

        a' = |sig'|^2 - r^2*s_w^2      sig' = dir3 - s_w*center
        b' = sig'.delta - r^2*s_w*w_A  delta = point.xyz() - w_A*center
        c' = |delta|^2 - r^2*w_A^2

    and D' = b'^2 - a'*c', whose sign matches the Euclidean classification
    (for s_w = 0, D' = w_A^2 * D).
    """
    if not radius > 0.0:
        raise ValueError(f"sphere_discriminant_projective: non-positive radius {radius!r}")
    r_sq = radius * radius
    w_a = point.w
    s_w = direction.sw
    sig_x = direction.sx - s_w * center.x
    sig_y = direction.sy - s_w * center.y
    sig_z = direction.sz - s_w * center.z
    dx = point.x - w_a * center.x
    dy = point.y - w_a * center.y
    dz = point.z - w_a * center.z
    a = sig_x * sig_x + sig_y * sig_y + sig_z * sig_z - r_sq * (s_w * s_w)
    b = sig_x * dx + sig_y * dy + sig_z * dz - r_sq * (s_w * w_a)
    c = dx * dx + dy * dy + dz * dz - r_sq * (w_a * w_a)
    return b * b - a * c


def early_reject(d):
    """True where the separated discriminant d rejects its pair as a Miss: d < -TANGENT_EPS.

    d is a float or an array, judged elementwise; NaN is not rejected.
    """
    return d < -TANGENT_EPS


def intersect_separated(q: QuadricMatrix, cache: RayCache) -> IntersectionResult:
    """Full intersection driven by the separated discriminant.

    A clearly negative D (`early_reject`) rejects the pair before any
    coefficient work; only surviving pairs pay for a, b, c and root
    extraction.  The reported discriminant is the separated one.
    """
    d = discriminant_separated(q, cache)
    if early_reject(d):
        return Miss(d=d)
    coeffs = coefficients(q, cache.point, cache.direction)
    return solve(coeffs, a_scale=_a_scale(q, cache.direction), discriminant=d)
