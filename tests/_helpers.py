"""Shared helpers for the test suite."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from quadrics import (
    HomogeneousDirection, HomogeneousPoint, Mat3, Mat4, QuadricMatrix, Vec3, kernels,
)
from quadrics.classical import TANGENT_EPS
from quadrics.scene import Scene, SceneObject

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
    homogeneous 4-vectors, floats or Fractions: every float is a rational,
    so `Fraction` arithmetic gives the exact values of the forms for the
    very inputs the kernels see.  Q is laid out here as its full symmetric
    4x4 matrix, so no code is shared with either route.
    """
    a11, a22, a33, a44, a12, a13, a23, a14, a24, a34 = (Fraction(v) for v in q)
    m = ((a11, a12, a13, a14), (a12, a22, a23, a24), (a13, a23, a33, a34), (a14, a24, a34, a44))
    xf = [Fraction(v) for v in x]
    sf = [Fraction(v) for v in s]
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


def camera_relative(objects, origin: Vec3) -> tuple[SceneObject, ...]:
    """The objects moved to centres c - origin, the scene render's kernels see."""
    return tuple(SceneObject(o.kind, o.center - origin, o.rot) for o in objects)


def scaled_world_matrix(obj: SceneObject) -> QuadricMatrix:
    """`obj.world_matrix()` times 2^(1 - e), e the binary exponent of its largest |coefficient|.

    The same surface, its largest |coefficient| in [1, 2): the scale
    `kernels._world_table` gives each column, written here on floats with
    `math.frexp` and `math.ldexp`, so that the scalar reference shares no
    code with the kernels' scale.
    """
    q = obj.world_matrix()
    _, e = math.frexp(max(map(abs, q)))
    return QuadricMatrix(*(math.ldexp(c, 1 - e) for c in q))


def image_rays(scene: Scene) -> tuple[np.ndarray, tuple]:
    """(world table, pixel directions) of the image as one `nearest_hits` call: render's inputs."""
    cam = scene.camera
    table = kernels.render_tables(scene.objects, cam.origin.as_tuple())
    x, y, z = cam.pixel_directions(np.arange(cam.width), np.arange(cam.height)[:, None])
    return table, (x.ravel(), y.ravel(), z.ravel())


def kept_mask(table: np.ndarray, direction, method: str) -> np.ndarray:
    """Stage 1's kept pairs, from `kernels.kept_pairs`, as a (rays, objects) mask.

    Checks that `kept_pairs` yields one (ri, oi) per tile of
    `kernels.tiles`, in order, each with the tile's rays only.
    """
    rays, objects = len(direction[0]), table.shape[1]
    kept = np.zeros((rays, objects), bool)
    with np.errstate(all="ignore"):
        _, pairs = kernels.kept_pairs(table, direction, method)
        for sl, (ri, oi) in zip(kernels.tiles(rays, objects), pairs, strict=True):
            assert ((sl.start <= ri) & (ri < sl.stop)).all()
            kept[ri, oi] = True
    return kept


def exact_lit_pixels(scene: Scene) -> list[bool | None]:
    """Per pixel, row-major: whether its ray meets an object at t > 0, exactly; None in the band.

    For spheres and ellipsoids (a > 0).  Each pair is solved in the
    object's own frame, where the ray is Rot^T (o - c) + t Rot^T s, from the
    float camera origin o, pixel direction s, centre c and rotation Rot and
    the kind's float coefficients, in `Fraction`s: no code of either route,
    and no camera-relative shift, is involved.  A positive root exists when
    b^2 - a c >= 0 and b < 0 or c < 0.  A pixel no object hits is None when
    some pair lies inside the tangency band, |b^2 - a c| <= TANGENT_EPS
    max(b^2, |a c|), where either answer is the kernels' to give.
    """
    cam = scene.camera
    origin = [Fraction(v) for v in cam.origin.as_tuple()]
    frames = []
    for obj in scene.objects:
        m = obj.rot.m if obj.rot is not None else Mat3.identity().m
        rot_t = [[Fraction(m[3 * k + i]) for k in range(3)] for i in range(3)]
        offset = [o - Fraction(c) for o, c in zip(origin, obj.center.as_tuple())]
        x = [sum(r * v for r, v in zip(row, offset)) for row in rot_t]
        frames.append((obj.kind.coefficients(), rot_t, (*x, 1)))
    lit = []
    for row in range(cam.height):
        for col in range(cam.width):
            s = [Fraction(v) for v in cam.pixel_directions(col, row)]
            hit = band = False
            for q, rot_t, x in frames:
                direction = [sum(r * v for r, v in zip(row_t, s)) for row_t in rot_t]
                a, b, c = exact_terms(q, x, (*direction, 0))
                assert a > 0
                d = b * b - a * c
                hit = hit or (d >= 0 and (b < 0 or c < 0))
                band = band or abs(d) <= Fraction(TANGENT_EPS) * max(b * b, abs(a * c))
            lit.append(True if hit else None if band else False)
    return lit


def wrong_pixels(scene: Scene, pixels: bytes) -> list[int]:
    """Indices of the pixels whose lit state differs from `exact_lit_pixels`, band pixels aside."""
    truth = exact_lit_pixels(scene)
    return [i for i, (v, t) in enumerate(zip(pixels, truth)) if t is not None and (v > 0) != t]
