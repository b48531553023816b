"""Batched intersection kernels over tiles of (rays x objects).

Objects are a struct-of-arrays table: row k holds the k-th of the 10
quadric coefficients, in `COEFFICIENT_ORDER`, for every object.
`world_table` builds it from scene objects, every world matrix at once and
bit-identical to `SceneObject.world_matrix`.  A ray component is either an
array with one entry per ray or a plain float shared by every ray (a camera
origin, w = 1, s_w = 0).  Inside a tile the per-ray arrays become columns,
so numpy broadcasting evaluates all (ray, object) pairs of the tile at once,
and a term that depends on the objects alone is computed once per tile, not
once per pair.

Every formula keeps the operand order of its scalar counterpart in
`quadric`, `classical` and `separated`.  numpy float64 ufuncs round exactly
as Python floats do, so each pair gets the scalar kernels' value bit for
bit; the scalar functions stay the reference the tests compare against.
The tile loops run under `np.errstate(all="ignore")`: overflow gives inf and
NaN silently, as Python float arithmetic does, and the branches of `solve`
that a pair does not take are evaluated for every pair, then discarded.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, Union

import numpy as np

from .classical import LINEAR_EPS, TANGENT_EPS

if TYPE_CHECKING:
    from .scene import SceneObject

__all__ = [
    "METHODS",
    "TILE_PAIRS",
    "world_table",
    "tiles",
    "map_ranges",
    "coefficients",
    "line_matrix",
    "ray_cache",
    "discriminant_separated",
    "sphere_discriminant",
    "nearest_root",
    "nearest_hits",
    "classical_hit_counts",
    "separated_hit_counts",
]

# The two routes every detection entry point (render, bench, CLI) accepts.
METHODS = ("classical", "separated")

# Pairs evaluated per tile.  A tile is whole rays against every object, so
# it holds max(1, TILE_PAIRS // objects) rays, and a float64 temporary is
# 64 KiB.  On the benchmark workloads 4096 was slower with 1000 objects and
# 16384 was no faster but used more memory.
TILE_PAIRS = 8192

Component = Union[float, np.ndarray]
Vec4 = Sequence[Component]


# to_mat4 layout: entry (i, j) of the symmetric matrix is coefficient _SYMMETRIC[i][j].
_SYMMETRIC = np.array([[0, 4, 5, 7], [4, 1, 6, 8], [5, 6, 2, 9], [7, 8, 9, 3]])
# Entry (i, j) of each coefficient in COEFFICIENT_ORDER: the diagonal, then i < j.
_ROWS = np.array([0, 1, 2, 3, 0, 0, 1, 0, 1, 2])
_COLS = np.array([0, 1, 2, 3, 1, 2, 2, 3, 3, 3])


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`geometry.compose` on (n, 4, 4) stacks: acc = 0.0, then acc + a_ik * b_kj for k = 0..3."""
    acc = np.zeros(a.shape)
    for k in range(4):
        acc = acc + a[:, :, k, None] * b[:, None, k, :]
    return acc


def world_table(objects: Sequence[SceneObject], index: Sequence[int] | None = None) -> np.ndarray:
    """(10, objects) table of every `SceneObject.world_matrix()`, built at once.

    With `index`, the table holds only `objects[i]` for i in `index`, in
    that order; errors still name each object by its position in `objects`.

    T (the translation, after the transposed rotation where there is one),
    Q0 T, T^T (Q0 T) and the (i, j)/(j, i) averaging of `quadric.transform`
    run on (objects, 4, 4) stacks through `_compose`, which keeps the scalar
    summation order and every term, products with 0 and 1 included, so
    signed zeros and rounding match the scalar build bit for bit.  Raises
    ValueError where the scalar build would: a non-finite entry of T, Q0 T
    or the product, or an object whose coefficients are all zero.
    """
    if index is None:
        index = range(len(objects))
    objects = [objects[i] for i in index]
    n = len(objects)
    if n == 0:
        return np.empty((10, 0))
    q0 = np.array([o.kind.coefficients() for o in objects])
    t = np.zeros((n, 4, 4))
    t[:, range(4), range(4)] = 1.0
    t[:, :3, 3] = -np.array([o.center.as_tuple() for o in objects])
    rotated = [i for i, o in enumerate(objects) if o.rot is not None]
    with np.errstate(all="ignore"):
        if rotated:
            # rotation(rot^T): the transposed 3x3 block, w row and column untouched.
            r = np.zeros((len(rotated), 4, 4))
            rot = np.array([objects[i].rot.m for i in rotated]).reshape(-1, 3, 3)
            r[:, :3, :3] = rot.transpose(0, 2, 1)
            r[:, 3, 3] = 1.0
            t[rotated] = _compose(r, t[rotated])
        q0_t = _compose(q0[:, _SYMMETRIC], t)
        p = _compose(t.transpose(0, 2, 1), q0_t)
        table = p[:, _ROWS, _COLS]
        table[:, 4:] = 0.5 * (table[:, 4:] + p[:, _COLS[4:], _ROWS[4:]])
    # One check covers T, Q0 T and the product: every entry of each reaches
    # the table through products and sums, and x * inf, x * NaN and a sum
    # with either are never finite.
    for bad, what in (
        (~np.isfinite(table).all(axis=1), "world matrix: non-finite coefficient"),
        ((table == 0.0).all(axis=1), "all coefficients zero"),
    ):
        if bad.any():
            raise ValueError(f"object {index[int(np.argmax(bad))]}: {what}")
    return table.T.copy()


def tiles(rays: int, objects: int) -> Iterator[slice]:
    """Consecutive ray ranges of about TILE_PAIRS pairs each."""
    step = max(1, TILE_PAIRS // max(1, objects))
    return (slice(lo, lo + step) for lo in range(0, rays, step))


def map_ranges(fn: Callable[[range], object], n: int, workers: int) -> list:
    """fn(r) for each of at most `workers` consecutive ranges covering range(n), in order.

    Ranges hold ceil(n / workers) items, the last one the rest.  One worker
    runs `fn` in this process; more run it in a pool of one process per range.
    """
    per = -(-n // workers)
    ranges = [range(lo, min(lo + per, n)) for lo in range(0, n, per)]
    if workers == 1:
        return [fn(r) for r in ranges]
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        return list(pool.map(fn, ranges))


def _take(vec: Sequence[Component], index) -> tuple:
    """The per-ray components of `vec` indexed by `index`; shared floats pass through."""
    return tuple(v[index] if isinstance(v, np.ndarray) else v for v in vec)


_COLUMN = np.s_[:, None]


def _quadratic_form(q, v: Vec4):
    a11, a22, a33, a44, a12, a13, a23, a14, a24, a34 = q
    x, y, z, w = v
    return (
        a11 * x * x + a22 * y * y + a33 * z * z + a44 * w * w
        + 2.0 * (a12 * x * y + a13 * x * z + a23 * y * z
                 + a14 * x * w + a24 * y * w + a34 * z * w)
    )


def _bilinear_form(q, u: Vec4, v: Vec4):
    a11, a22, a33, a44, a12, a13, a23, a14, a24, a34 = q
    ux, uy, uz, uw = u
    vx, vy, vz, vw = v
    return (
        a11 * ux * vx + a22 * uy * vy + a33 * uz * vz + a44 * uw * vw
        + a12 * (ux * vy + uy * vx)
        + a13 * (ux * vz + uz * vx)
        + a23 * (uy * vz + uz * vy)
        + a14 * (ux * vw + uw * vx)
        + a24 * (uy * vw + uw * vy)
        + a34 * (uz * vw + uw * vz)
    )


def _apply(q, v: Vec4) -> tuple:
    a11, a22, a33, a44, a12, a13, a23, a14, a24, a34 = q
    x, y, z, w = v
    return (
        a11 * x + a12 * y + a13 * z + a14 * w,
        a12 * x + a22 * y + a23 * z + a24 * w,
        a13 * x + a23 * y + a33 * z + a34 * w,
        a14 * x + a24 * y + a34 * z + a44 * w,
    )


def coefficients(q, point: Vec4, direction: Vec4) -> tuple:
    """Classical (a, b, c) of a*t^2 + 2*b*t + c = 0, as `classical.coefficients`."""
    return (
        _quadratic_form(q, direction),
        _bilinear_form(q, direction, point),
        _quadratic_form(q, point),
    )


def line_matrix(point: Vec4, direction: Vec4) -> tuple:
    """(r12, r13, r14, r23, r24, r34) per ray, as `separated.r_from_point_dir`."""
    x, y, z, w = point
    sx, sy, sz, sw = direction
    return (
        x * sy - sx * y,
        x * sz - sx * z,
        x * sw - sx * w,
        y * sz - sy * z,
        y * sw - sy * w,
        z * sw - sz * w,
    )


def ray_cache(point: Vec4, direction: Vec4) -> tuple:
    """Per-ray (R entries, moment dir3 x origin3, |dir3|^2), as `separated.make_ray_cache`."""
    x, y, z, _ = point
    sx, sy, sz, _ = direction
    moment = (sy * z - sz * y, sz * x - sx * z, sx * y - sy * x)
    return line_matrix(point, direction), moment, sx * sx + sy * sy + sz * sz


def discriminant_separated(q, r: Sequence[Component], point: Vec4, direction: Vec4):
    """D = s^T Q R Q x_A, as `separated.discriminant_separated`."""
    u = _apply(q, direction)
    v = _apply(q, point)
    r12, r13, r14, r23, r24, r34 = r
    return (
        r12 * (u[0] * v[1] - u[1] * v[0])
        + r13 * (u[0] * v[2] - u[2] * v[0])
        + r14 * (u[0] * v[3] - u[3] * v[0])
        + r23 * (u[1] * v[2] - u[2] * v[1])
        + r24 * (u[1] * v[3] - u[3] * v[1])
        + r34 * (u[2] * v[3] - u[3] * v[2])
    )


def sphere_discriminant(centers: np.ndarray, r_sq: np.ndarray, moment, dir3, dir_norm_sq):
    """r^2*|dir|^2 - |moment - dir x center|^2 per pair, as `separated.sphere_discriminant`.

    `centers` is (spheres, 3); the cross product is taken component by
    component, so no (rays, spheres, 3) temporary is built.
    """
    cx, cy, cz = centers.T
    sx, sy, sz = dir3
    mx = moment[0] - (sy * cz - sz * cy)
    my = moment[1] - (sz * cx - sx * cz)
    mz = moment[2] - (sx * cy - sy * cx)
    return r_sq * dir_norm_sq - (mx * mx + my * my + mz * mz)


def _positive(mask, t):
    return np.where(mask & (t > 0.0), t, np.nan)


def nearest_root(a, b, c, a_scale, d=None):
    """`classical.solve` for every pair, reduced to its nearest root at t > 0.

    NaN where the pair has none (Miss, Degenerate, or every root at t <= 0).
    `d`, when given, replaces b^2 - a*c as in `solve(discriminant=...)`.
    Python's max(x, y) is y only when y > x, hence the np.where forms.
    """
    linear = abs(a) <= LINEAR_EPS * a_scale
    c_abs = abs(c)
    linear_hit = linear & (abs(b) > LINEAR_EPS * np.where(c_abs > a_scale, c_abs, a_scale))
    bb = b * b
    if d is None:
        d = bb - a * c
    ac = abs(a * c)
    band = TANGENT_EPS * np.where(ac > bb, ac, bb)
    quadratic = ~linear & ~(d < -band)
    tangent = quadratic & (abs(d) <= band)
    two = quadratic & ~tangent
    qq = -(b + np.copysign(np.sqrt(d), b))
    single = np.where(linear_hit, -c / (2.0 * b), -b / a)
    return np.fmin(
        _positive(linear_hit | tangent, single),
        np.fmin(_positive(two, qq / a), _positive(two, c / qq)),
    )


def nearest_hits(table: np.ndarray, point: Vec4, direction: Vec4, method: str) -> np.ndarray:
    """Per ray, the nearest positive t over every object; NaN when none is crossed.

    Equals, per ray, the minimum over objects of the positive
    `hit_parameters` of `intersect_classical` or `intersect_separated`.  The
    separated route compacts the pairs that survive d >= -TANGENT_EPS and
    computes a, b, c and roots for those alone.
    """
    rays = len(direction[0])
    objects = table.shape[1]
    max_abs = np.abs(table).max(axis=0)
    sx, sy, sz, sw = direction
    s_sq = sx * sx + sy * sy + sz * sz + sw * sw
    out = np.empty(rays)
    with np.errstate(all="ignore"):
        for sl in tiles(rays, objects):
            pt, dr = _take(point, sl), _take(direction, sl)
            a_scale = max_abs * s_sq[sl, None]
            if method == "classical":
                a, b, c = coefficients(table, _take(pt, _COLUMN), _take(dr, _COLUMN))
                t = nearest_root(a, b, c, a_scale)
            else:
                r = _take(line_matrix(pt, dr), _COLUMN)
                d = discriminant_separated(table, r, _take(pt, _COLUMN), _take(dr, _COLUMN))
                ri, oi = np.nonzero(~(d < -TANGENT_EPS))
                a, b, c = coefficients(table[:, oi], _take(pt, ri), _take(dr, ri))
                t = np.full(d.shape, np.nan)
                t[ri, oi] = nearest_root(a, b, c, a_scale[ri, oi], d[ri, oi])
            out[sl] = np.fmin.reduce(t, axis=1)
    return out


def classical_hit_counts(table: np.ndarray, point: Vec4, direction: Vec4) -> np.ndarray:
    """Per ray, the number of objects with b^2 - a*c >= 0."""
    rays = len(direction[0])
    counts = np.empty(rays, dtype=np.int64)
    with np.errstate(all="ignore"):
        for sl in tiles(rays, table.shape[1]):
            rows = (sl, None)
            a, b, c = coefficients(table, _take(point, rows), _take(direction, rows))
            counts[sl] = np.count_nonzero(b * b - a * c >= 0.0, axis=1)
    return counts


def separated_hit_counts(
    centers: np.ndarray,
    r_sq: np.ndarray,
    generic: np.ndarray,
    point: Vec4,
    direction: Vec4,
    cache: tuple,
) -> np.ndarray:
    """Per ray, the number of objects with a nonnegative separated discriminant.

    Spheres (`centers`, `r_sq`) take the moment fast path, the objects of
    the `generic` coefficient table the R-factored form.  `cache` is
    `ray_cache(point, direction)`; the sphere path needs Euclidean rays.
    """
    rays = len(direction[0])
    r, moment, dir_norm_sq = cache
    counts = np.zeros(rays, dtype=np.int64)
    with np.errstate(all="ignore"):
        for sl in tiles(rays, len(r_sq) + generic.shape[1]):
            rows = (sl, None)
            if len(r_sq):
                d = sphere_discriminant(
                    centers, r_sq, _take(moment, rows), _take(direction[:3], rows),
                    dir_norm_sq[rows],
                )
                counts[sl] += np.count_nonzero(d >= 0.0, axis=1)
            if generic.shape[1]:
                d = discriminant_separated(
                    generic, _take(r, rows), _take(point, rows), _take(direction, rows)
                )
                counts[sl] += np.count_nonzero(d >= 0.0, axis=1)
    return counts
