"""Shared helpers for the test suite."""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from quadrics import HomogeneousDirection, HomogeneousPoint, Mat3, Mat4, QuadricMatrix

IDENTITY4 = Mat4(
    (1.0, 0.0, 0.0, 0.0,
     0.0, 1.0, 0.0, 0.0,
     0.0, 0.0, 1.0, 0.0,
     0.0, 0.0, 0.0, 1.0)
)


def coefficient_table(matrices) -> np.ndarray:
    """(10, objects) table of already built matrices, as the kernels take it."""
    return np.array([q.coefficients() for q in matrices]).reshape(-1, 10).T.copy()


def random_rotation(rng: np.random.Generator) -> Mat3:
    """Uniform-ish random proper rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    m = (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )
    return Mat3(tuple(float(v) for v in m))


def random_quadric(rng: np.random.Generator, span: float = 2.0) -> QuadricMatrix:
    while True:
        coeffs = rng.uniform(-span, span, size=10)
        if np.any(coeffs != 0.0):
            return QuadricMatrix(*[float(c) for c in coeffs])


def random_ray(
    rng: np.random.Generator, origin_span: float = 10.0, dir_span: float = 10.0
) -> tuple[HomogeneousPoint, HomogeneousDirection]:
    p = HomogeneousPoint(*[float(v) for v in rng.uniform(-origin_span, origin_span, size=3)], 1.0)
    while True:
        s = rng.uniform(-dir_span, dir_span, size=3)
        if np.any(s != 0.0):
            return p, HomogeneousDirection(*[float(v) for v in s], 0.0)


def point_at(point: HomogeneousPoint, direction: HomogeneousDirection, t: float) -> HomogeneousPoint:
    return HomogeneousPoint(
        point.x + t * direction.sx,
        point.y + t * direction.sy,
        point.z + t * direction.sz,
        point.w + t * direction.sw,
    )


def form_term_scale(q: QuadricMatrix, v: tuple[float, float, float, float]) -> float:
    """Sum of absolute expansion terms of v^T Q v; the natural rounding scale."""
    x, y, z, w = v
    return (
        abs(q.a11 * x * x) + abs(q.a22 * y * y) + abs(q.a33 * z * z) + abs(q.a44 * w * w)
        + 2.0 * (abs(q.a12 * x * y) + abs(q.a13 * x * z) + abs(q.a23 * y * z)
                 + abs(q.a14 * x * w) + abs(q.a24 * y * w) + abs(q.a34 * z * w))
    )


def exact_terms(q, x, s) -> tuple[Fraction, Fraction, Fraction]:
    """a = s^T Q s, b = s^T Q x and c = x^T Q x, exactly.

    q holds Q's 10 coefficients in `COEFFICIENT_ORDER`, x and s are
    homogeneous 4-vectors, all floats: every float is a rational, so
    `Fraction` arithmetic gives the exact values of the forms for the very
    inputs the kernels see.  Q is laid out here as its full symmetric 4x4
    matrix, so no code is shared with either route.
    """
    a11, a22, a33, a44, a12, a13, a23, a14, a24, a34 = (Fraction(float(v)) for v in q)
    m = ((a11, a12, a13, a14), (a12, a22, a23, a24), (a13, a23, a33, a34), (a14, a24, a34, a44))
    xf = [Fraction(float(v)) for v in x]
    sf = [Fraction(float(v)) for v in s]
    ms = [sum(m[i][j] * sf[j] for j in range(4)) for i in range(4)]
    mx = [sum(m[i][j] * xf[j] for j in range(4)) for i in range(4)]
    return (
        sum(sf[i] * ms[i] for i in range(4)),
        sum(xf[i] * ms[i] for i in range(4)),
        sum(xf[i] * mx[i] for i in range(4)),
    )


def exact_discriminant(q, x, s) -> Fraction:
    """b^2 - a*c of `exact_terms`, exactly; its sign is the true classification."""
    a, b, c = exact_terms(q, x, s)
    return b * b - a * c
