"""Batched intersection kernels over tiles of (rays x objects).

Objects are a struct-of-arrays table: row k holds the k-th of the 10
quadric coefficients, in `COEFFICIENT_ORDER`, for every object.
`world_table` builds it from scene objects, every world matrix at once and
bit-identical to `SceneObject.world_matrix`; Q's 4x4 layout is read from
`quadric.COEFFICIENT_ENTRIES`.  A ray component is either an array with one
entry per ray or a plain float shared by every ray.  Render's rays share
one camera origin: `nearest_hits`, `keep_pairs` and `cull_radii` take it as
three floats and the pixel directions as three arrays, and the pair forms
receive them as (x, y, z, 1) and (sx, sy, sz, 0).  Bench's rays each have
an origin, with w = 1 and s_w = 0 as floats.  Inside a tile the per-ray
arrays become columns, so numpy broadcasting evaluates all (ray, object)
pairs of the tile at once, and a term that depends on the objects alone is
computed once per tile, not once per pair.

The pair formulas are not written here: render's tiles run the
reference's own tuple-level forms on arrays, `classical.coefficient_terms`
(a, b, c) and `separated.line_entries` / `factored_discriminant` (R and
s^T Q R Q x), which unpack a (10, objects) table as they unpack a
`QuadricMatrix`, and bench's sphere tiles run `separated.line_moment` and
`moment_discriminant` on arrays of rays and spheres; render's separated
early reject is `separated.early_reject`.  numpy float64 ufuncs round
exactly as Python floats do, so each pair gets the scalar kernels' value
bit for bit by construction.  What is batched here, the
classification in `nearest_root`, keeps the operand order of `solve`, and
the tests compare both.  The tile loops run under `np.errstate(all="ignore")`:
overflow gives inf and NaN silently, as Python float arithmetic does, and
the branches of `solve` that a pair does not take are evaluated for every
pair, then discarded.

Bench's hit counts use lifted forms instead.  a, b, c and s^T Q R Q x are
linear and quadratic forms in Q's 10 coefficients, so a ray becomes, once
per call, a vector of weights (`classical_lift`, `separated_lift`), and a
tile of rays x objects is one matrix product with the coefficient table or
its 55 pairwise products (`pair_products`); both routes' counts run in one
tile loop.  The lifts read each weight off Q's layout,
`quadric.COEFFICIENT_ENTRIES`: coefficient (i, j) weighs u_i v_j + u_j v_i
in u^T Q v, and Q_k v holds v_j in row i and v_i in row j.  A test pins
both lifts to the reference forms run on the 10x10 unit table, number for
number.  `separated_tables` owns the separated route's split: a `Sphere`
with no rotation takes the moment fast path, every other object the lifted
form.  A BLAS product sums in its own order, so these kernels are not
bit-identical to the scalar ones per pair.  What holds, and the tests
check: equal hit counts with the per-pair forms on generated scenes, and
each lifted D within a derived rounding bound of the exact b^2 - a c, so
the same sign wherever the exact value lies outside it.

`nearest_hits` runs in two stages.  Stage 1 (`keep_pairs`, per tile)
tests each pair against a conservative bounding sphere of its column and
keeps only those it cannot rule out; an unbounded column (see
`render_tables`) keeps every pair.  Stage 2 roots every kept pair in one
batch.  It runs as soon as TILE_PAIRS pairs are kept and after the last
tile, so memory stays bounded, and once per call on most images.  The cull
drops only pairs whose kernel result is provably a Miss (see
`cull_radii`), so it never decides a result.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, Union

import numpy as np

from .classical import LINEAR_EPS, TANGENT_EPS, coefficient_terms
from .quadric import COEFFICIENT_ENTRIES, Sphere
from .separated import (
    early_reject, factored_discriminant, line_bilinear, line_entries, moment_discriminant,
)

if TYPE_CHECKING:
    from .scene import SceneObject

__all__ = [
    "METHODS",
    "TILE_PAIRS",
    "world_table",
    "render_tables",
    "tiles",
    "map_ranges",
    "nearest_root",
    "cull_radii",
    "keep_pairs",
    "nearest_hits",
    "classical_lift",
    "classical_counts",
    "separated_tables",
    "separated_lift",
    "pair_products",
    "separated_counts",
]

# The two routes every detection entry point (render, bench, CLI) accepts.
METHODS = ("classical", "separated")

# Pairs evaluated per tile.  A tile is whole rays against every object, so
# it holds max(1, TILE_PAIRS // objects) rays, and a float64 temporary is 64
# KiB.  `nearest_hits` roots its kept pairs once they reach TILE_PAIRS, so a
# stage-2 batch holds fewer than TILE_PAIRS pairs plus one tile's.  On the
# benchmark workloads 4096 was slower with 1000 objects and 16384 was no
# faster but used more memory.
TILE_PAIRS = 8192

# The four axes e_i along the first and along the second of three axes:
# `line_bilinear` on the two gives R's (4, 4) matrix, e_i^T R e_k, per ray.
_AXES = tuple(np.eye(4)[i].reshape(4, 1, 1) for i in range(4))
_AXES_ACROSS = tuple(np.eye(4)[i].reshape(1, 4, 1) for i in range(4))
# Coefficient index pairs (a, b), a <= b, of the 55 products of `pair_products`.
_PAIR_A, _PAIR_B = np.triu_indices(10)
_CROSS = _PAIR_A != _PAIR_B

Component = Union[float, np.ndarray]
Vec4 = Sequence[Component]
# Render's rays: one camera origin (x, y, z) and the pixels' (sx, sy, sz) arrays.
Origin = Sequence[float]
Directions = Sequence[np.ndarray]

# Entry (i, j), i <= j, of each coefficient of Q's symmetric 4x4 matrix.
_ROWS, _COLS = np.array(COEFFICIENT_ENTRIES).T
_NON_FINITE = "world matrix: non-finite coefficient"


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`geometry.compose` on (n, 4, 4) stacks: acc = 0.0, then acc + a_ik * b_kj for k = 0..3."""
    acc = np.zeros(a.shape)
    for k in range(4):
        acc = acc + a[:, :, k, None] * b[:, None, k, :]
    return acc


def _placements(objects: Sequence[SceneObject]) -> tuple:
    """Fundamental coefficients (n, 10), centres (n, 3), rotated indices, rotations (r, 3, 3)."""
    rotated = [i for i, o in enumerate(objects) if o.rot is not None]
    return (
        np.array([o.kind.coefficients() for o in objects]).reshape(-1, 10),
        np.array([o.center.as_tuple() for o in objects]).reshape(-1, 3),
        rotated,
        np.array([objects[i].rot.m for i in rotated]).reshape(-1, 3, 3),
    )


def world_table(objects: Sequence[SceneObject]) -> np.ndarray:
    """(10, objects) table of every `SceneObject.world_matrix()`, built at once.

    T (the translation, after the transposed rotation where there is one),
    Q0 T, T^T (Q0 T) and the (i, j)/(j, i) averaging of `quadric.transform`
    run on (objects, 4, 4) stacks through `_compose`, which keeps the scalar
    summation order and every term, products with 0 and 1 included, so
    signed zeros and rounding match the scalar build bit for bit.  Raises
    ValueError where the scalar build would: a non-finite entry of T, Q0 T
    or the product, or an object whose coefficients are all zero.
    """
    return _world_table(_placements(objects), range(len(objects)))


def _world_table(placed: tuple, index: Sequence[int]) -> np.ndarray:
    """`world_table` from `placed`, the `_placements` of the objects at positions `index`.

    An error names its object by that position.
    """
    q0, centers, rotated, rot = placed
    n = len(q0)
    if n == 0:
        return np.empty((10, 0))
    q0_mat = np.empty((n, 4, 4))
    q0_mat[:, _ROWS, _COLS] = q0_mat[:, _COLS, _ROWS] = q0
    t = np.zeros((n, 4, 4))
    t[:, range(4), range(4)] = 1.0
    t[:, :3, 3] = -centers
    with np.errstate(all="ignore"):
        if rotated:
            # rotation(rot^T): the transposed 3x3 block, w row and column untouched.
            r = np.zeros((len(rotated), 4, 4))
            r[:, :3, :3] = rot.transpose(0, 2, 1)
            r[:, 3, 3] = 1.0
            t[rotated] = _compose(r, t[rotated])
        p = _compose(t.transpose(0, 2, 1), _compose(q0_mat, t))
        table = p[:, _ROWS, _COLS]
        off = _ROWS != _COLS
        table[:, off] = 0.5 * (table[:, off] + p[:, _COLS[off], _ROWS[off]])
    # One check covers T, Q0 T and the product: every entry of each reaches
    # the table through products and sums, and x * inf, x * NaN and a sum
    # with either are never finite.
    for bad, what in (
        (~np.isfinite(table).all(axis=1), _NON_FINITE),
        ((table == 0.0).all(axis=1), "all coefficients zero"),
    ):
        if bad.any():
            raise ValueError(f"object {index[int(np.argmax(bad))]}: {what}")
    return table.T.copy()


def render_tables(objects: Sequence[SceneObject]) -> tuple[np.ndarray, np.ndarray]:
    """(`world_table(objects)`, bounding spheres) of `nearest_hits`, from one pass over the objects.

    The bounding spheres are a (7, objects) table of terms for the stage-1
    cull; NaN columns are unbounded.  Both tables are built from one
    `_placements`, so the world table equals `world_table(objects)` bit for
    bit.
    """
    placed = _placements(objects)
    return _world_table(placed, range(len(objects))), _bounding_spheres(placed)


def _bounding_spheres(placed: tuple) -> np.ndarray:
    """(7, objects) bounding-sphere table of `render_tables` from the objects' `_placements`.

    Boundedness is read off the kind's fundamental `coefficients()`: a
    column is bounded when a11, a22, a33 > 0, a44 < 0 and the six
    off-diagonal coefficients are 0 (spheres and ellipsoids, and a raw
    quadric of that form).  Such a surface is (x - c)^T M (x - c) = nu with
    M = Rot A Rot^T, A = diag(a11, a22, a33), nu = -a44 and c = obj.center,
    so it lies within R^2 = nu / min(a11, a22, a33) of c when Rot is a
    rotation.  Rot is only orthonormal within eps = max|Rot^T Rot - I|, so
    the eigenvalues of M lie in [m (1 - k), lam (1 + k)] with k = 3 eps,
    m = min(a_ii) and lam = max(a_ii) (Gershgorin on Rot^T Rot).

    Rows: centre x, y, z, then m (1 - k), lam (1 + k), tau (1 + k) with
    tau = a11 + a22 + a33, and nu.  k also carries 2^-45 for the rounding of
    these products; a rotation with k > 1/4 leaves its column unbounded.
    """
    q0, centers, rotated, rot = placed
    diag = q0[:, :3]
    eps = np.zeros(len(q0))
    eps[rotated] = abs(rot.transpose(0, 2, 1) @ rot - np.eye(3)).max(axis=(1, 2), initial=0.0)
    k = 3.0 * eps + 2.0 ** -45
    m = diag.min(axis=1)
    bounded = (m > 0.0) & (q0[:, 3] < 0.0) & ~q0[:, 4:].any(axis=1) & (k <= 0.25)
    table = np.array([
        *centers.T,
        m * (1.0 - k),
        diag.max(axis=1) * (1.0 + k),
        diag.sum(axis=1) * (1.0 + k),
        -q0[:, 3],
    ]).reshape(7, -1)
    table[:, ~bounded] = np.nan
    return table


def _tile_rays(objects: int) -> int:
    return max(1, TILE_PAIRS // max(1, objects))


def tiles(rays: int, objects: int) -> Iterator[slice]:
    """Consecutive ray ranges of about TILE_PAIRS pairs each."""
    step = _tile_rays(objects)
    return (slice(lo, lo + step) for lo in range(0, rays, step))


def map_ranges(fn: Callable[[range], object], n: int, workers: int) -> list:
    """fn(r) for each of at most `workers` consecutive ranges covering range(n), in order.

    Ranges hold ceil(n / workers) items, the last one the rest.  They run in
    a pool of one process per range, but never more processes than this
    process may run on CPUs (`os.sched_getaffinity`); a pool that would hold
    fewer than two processes is not started, and `fn` runs in this process
    (one worker, one range, one usable CPU, or n = 0, which gives no range,
    so []).  The ranges do not depend on the pool size.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    per = max(1, -(-n // workers))
    ranges = [range(lo, min(lo + per, n)) for lo in range(0, n, per)]
    processes = min(len(ranges), len(os.sched_getaffinity(0)))
    if processes < 2:
        return [fn(r) for r in ranges]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(fn, ranges))


def _take(vec: Sequence[np.ndarray], index) -> tuple:
    """Each per-ray array of `vec` indexed by `index`."""
    return tuple(v[index] for v in vec)


_COLUMN = np.s_[:, None]


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


def cull_radii(
    spheres: np.ndarray, max_abs: np.ndarray, origin: Origin, direction: Directions
) -> np.ndarray:
    """Stage-1 squared radius R'^2 of each column for these rays; +inf where every pair is kept.

    `spheres` is from `render_tables`, `max_abs` each column's largest
    |coefficient| in the kernels' table, `origin` the camera's (x, y, z)
    and `direction` the pixels' (sx, sy, sz) arrays.  `keep_pairs` drops a
    pair only when its line misses the sphere of radius R' about c, and R'
    is derived so that both routes then classify the pair as Miss.  Below,
    x + t s is a ray, x the camera origin, v = x - c, rho the distance from
    c to the line, u = 2^-53, m, lam, tau, nu the rows of `spheres` and
    R^2 = nu / m.  |s| is taken over all the call's rays (max |s|_1,
    min |s|^2), so R' is one number per column; the call needs at least one
    ray.

    1. Exact discriminant.  In the inner product <p, q> = p^T M q, the
       quadric gives a = <s, s> >= m |s|^2, b = <s, v>, c = <v, v> - nu and
       b^2 - a c = <s,v>^2 - <s,s><v,v> + nu <s,s> <= a (nu - m rho^2),
       because <s,s><v,v> - <s,v>^2 = <s,s> min_t <v + t s, v + t s>.
    2. Tangency band.  b^2 <= a lam |v|^2 and |a c| <= a (lam |v|^2 + nu),
       so TANGENT_EPS max(b^2, |ac|) <= a m TANGENT_EPS (lam / m V^2 + R^2)
       with V = |x - c|.
    3. Rounding.  Both routes' d, and the b^2 and |ac| of the band, lie
       within E = 2^-44 (A_sx^2 + A_s A_x) of the exact values, where A_s,
       A_sx, A_x sum the absolute terms of a, b, c over T^T Q0 T (T the
       placement): the world-table build, the forms, and the separated
       product s^T Q R Q x (whose absolute terms sum to at most
       2 (A_sx^2 + A_s A_x)) account for about 150u of the 512u.  Row i < 3
       of |T| takes |s| to at most sqrt(1 + k) |s| and (|x|, 1) to at most
       sqrt(1 + k) L with L = |x| + |c|, so A_s <= tau |s|^2,
       A_sx <= tau |s| L, A_x <= tau L^2 + nu and
       E / (a m) <= 2^-44 tau (2 tau L^2 + nu) / m^2.
       The kernels work in world coordinates, so this term grows with the
       distance of camera and object from the origin, and far-placed
       objects keep more pairs.
    4. Range.  With g = max(1, max|Q|) max(1, |s|_1) max(1, 1 + |x|_1), no
       intermediate of either route exceeds 2^5 g^4, so g <= 2^250 rules
       out overflow; underflow adds at most 2^-1050 g^4 to d and
       2^-1050 g^2 to a.
    5. Linear branch.  |a| > LINEAR_EPS max|Q| |s|^2 holds for every ray when
       m > LINEAR_EPS max|Q| + 2^-44 tau + 2^-1050 g^2 / min |s|^2;
       otherwise (far centres, for one) the column keeps every pair.

    So rho^2 > need = R^2 + TANGENT_EPS (lam / m V^2 + R^2)
    + 2^-44 tau (2 tau L^2 + nu) / m^2 + 2^-1050 g^4 / (m^2 min |s|^2)
    gives d < -band: a Miss on both routes, whose early reject only rejects
    more.  The test (s.w)^2 < |s|^2 (|w|^2 - R'^2) with w = c - x, in
    floats, errs by less than 27u |s|^2 (|w|^2 + R'^2), and |w| <= V, so
    R'^2 = (need + 2^-45 V^2)(1 + 2^-45) + 2^-1060 covers it, and the
    relative error of this function's own arithmetic.  Any non-finite term
    makes R'^2 inf or NaN, and `keep_pairs` keeps every pair of that column.
    """
    cx, cy, cz, m, lam, tau, nu = spheres
    x, y, z = origin
    sx, sy, sz = direction
    with np.errstate(all="ignore"):
        l_sq = np.sqrt(x * x + y * y + z * z) + np.sqrt(cx * cx + cy * cy + cz * cz)
        l_sq *= l_sq
        wx, wy, wz = cx - x, cy - y, cz - z
        v_sq = wx * wx + wy * wy + wz * wz
        s_sq = (sx * sx + sy * sy + sz * sz).min()
        g = np.maximum(max_abs, 1.0) * max(1.0, (abs(sx) + abs(sy) + abs(sz)).max())
        g *= 1.0 + (abs(x) + abs(y) + abs(z))
        g_sq = g * g
        r_sq = nu / m
        need = (
            r_sq
            + TANGENT_EPS * (lam / m * v_sq + r_sq)
            + 2.0 ** -44 * tau * (2.0 * tau * l_sq + nu) / m / m
            + 2.0 ** -1050 * g_sq * g_sq / m / m / s_sq
        )
        r_prime_sq = (need + 2.0 ** -45 * v_sq) * (1.0 + 2.0 ** -45) + 2.0 ** -1060
        linear_free = m > LINEAR_EPS * max_abs + 2.0 ** -44 * tau + 2.0 ** -1050 * g_sq / s_sq
        decides = linear_free & (g <= 2.0 ** 250)
    return np.where(decides, r_prime_sq, np.inf)


def keep_pairs(
    centers: np.ndarray, r_sq: np.ndarray, origin: Origin, direction: Directions
) -> tuple:
    """Stage 1: (ray, column) indices of the pairs whose line may meet the sphere about each centre.

    `centers` is (3, columns), `r_sq` each column's R'^2 from `cull_radii`,
    `origin` the camera's x as three floats and `direction` the rays' s as
    three arrays.  A pair is dropped when (s.w)^2 < |s|^2 (|w|^2 - R'^2)
    with w = c - x, the paper's sphere discriminant
    |s|^2 R'^2 - |s x w|^2 < 0 written by the Lagrange identity; the one
    origin makes w and |w|^2 - R'^2 per-column terms.  NaN keeps the pair,
    and so does an origin inside the sphere.
    """
    x, y, z = origin
    sx, sy, sz = _take(direction, _COLUMN)
    wx, wy, wz = centers[0] - x, centers[1] - y, centers[2] - z
    h = wx * wx + wy * wy + wz * wz - r_sq
    sw = sx * wx + sy * wy + sz * wz
    return np.nonzero(~(sw * sw < (sx * sx + sy * sy + sz * sz) * h))


def _joined(groups: list) -> tuple:
    return tuple(np.concatenate(column) for column in zip(*groups))


def nearest_hits(
    table: np.ndarray, origin: Origin, direction: Directions, method: str, spheres: np.ndarray
) -> np.ndarray:
    """Per ray, the nearest positive t over every object; NaN when none is crossed.

    The rays are render's: one camera `origin` (x, y, z) as floats, and
    `direction` the pixels' (sx, sy, sz) as arrays.  Equals, per ray, the
    minimum over objects of the positive `hit_parameters` of
    `intersect_classical` or `intersect_separated` for the homogeneous ray
    (x, y, z, 1) + t (sx, sy, sz, 0), the vectors the pair forms receive.
    `spheres` is the bounding-sphere table of `render_tables`.  Stage 1 runs
    per tile and roots nothing.  Every column goes through `keep_pairs`,
    except that the separated route filters the columns `cull_radii` leaves
    undecided by their discriminant with `separated.early_reject`; on the
    classical route their infinite R'^2 or NaN centre keeps every pair.
    Stage 2 roots the kept pairs once they reach TILE_PAIRS, and after the
    last tile, so a batch holds fewer than TILE_PAIRS pairs plus one tile's.
    The separated route first gives the pairs `keep_pairs` kept their d and
    the same early reject; then every pair gets a, b, c and `nearest_root`
    in one pass, and each ray keeps its minimum.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    rays = len(direction[0])
    if not rays:
        return np.empty(0)
    max_abs = np.abs(table).max(axis=0)
    sx, sy, sz = direction
    s_sq = sx * sx + sy * sy + sz * sz
    r_sq = cull_radii(spheres, max_abs, origin, direction)
    dense = ~(r_sq < np.inf) & (method == "separated")
    cull_cols, dense_cols = np.flatnonzero(~dense), np.flatnonzero(dense)
    centers, r_sq = spheres[:3, cull_cols], r_sq[cull_cols]
    dense_table = table[:, dense_cols]
    point = (*origin, 1.0)
    out = np.full(rays, np.nan)
    culled, kept, pending = [], [], 0
    with np.errstate(all="ignore"):
        for sl in tiles(rays, table.shape[1]):
            s = _take(direction, sl)
            ri, oi = keep_pairs(centers, r_sq, origin, s)
            culled.append((ri + sl.start, cull_cols[oi]))
            pending += len(ri)
            if len(dense_cols):
                dr = (*_take(s, _COLUMN), 0.0)
                d = factored_discriminant(dense_table, line_entries(point, dr), point, dr)
                ri, oi = np.nonzero(~early_reject(d))
                kept.append((ri + sl.start, dense_cols[oi], d[ri, oi]))
                pending += len(ri)
            if pending >= TILE_PAIRS or (pending and sl.stop >= rays):
                ri, oi = _joined(culled)
                d = None
                if method == "separated":
                    dr = (*_take(direction, ri), 0.0)
                    d = factored_discriminant(table[:, oi], line_entries(point, dr), point, dr)
                    survive = ~early_reject(d)
                    kept.append((ri[survive], oi[survive], d[survive]))
                    ri, oi, d = _joined(kept)
                culled, kept, pending = [], [], 0
                a, b, c = coefficient_terms(table[:, oi], point, (*_take(direction, ri), 0.0))
                np.fmin.at(out, ri, nearest_root(a, b, c, max_abs[oi] * s_sq[ri], d))
    return out


def _form_weights(u: Vec4, v: Vec4) -> list:
    """Each coefficient's weight in u^T Q v, in `COEFFICIENT_ORDER`, read off Q's layout.

    Coefficient k sits at entries (i, j) and (j, i) of Q
    (`quadric.COEFFICIENT_ENTRIES`), so its weight is u_i v_j, plus u_j v_i
    when i != j: the terms `quadric.bilinear_form` multiplies it by.
    """
    return [u[i] * v[j] if i == j else u[i] * v[j] + u[j] * v[i] for i, j in COEFFICIENT_ENTRIES]


def classical_lift(point: Vec4, direction: Vec4) -> np.ndarray:
    """(rays, 3, 10): each ray's a, b and c as linear forms in Q's 10 coefficients.

    Entry (k, i) is the weight of coefficient i in the ray's k-th term:
    `_form_weights` of (s, s), (s, x) and (x, x), so a ray's rows times a
    (10, objects) table are its a, b and c against every object.  Components
    are floats or (rays,) arrays; floats alone give one ray.  For finite
    rays the weights equal `classical.coefficient_terms` run on the 10x10
    unit table (a zero weight's sign aside), which the tests check: the
    unit table only adds exact zeros to these products and sums, and
    2 (u_i u_j) = u_i u_j + u_j u_i exactly.
    """
    # Filled in place, in the layout `classical_counts` reads: a transposed
    # copy allocated a second buffer, 720 KiB at 3000 rays, above glibc's
    # mmap threshold, which page-faulted afresh on each call (0.7 ms of a
    # 2.7 ms bench call).
    lifted = np.empty((np.broadcast(*point, *direction).size, 3, 10))
    for row, (u, v) in enumerate(((direction, direction), (direction, point), (point, point))):
        for k, weight in enumerate(_form_weights(u, v)):
            lifted[:, row, k] = weight
    return lifted


def _count_tiles(counts: np.ndarray, objects: int, discriminant: Callable) -> None:
    """Add to `counts` each ray's number of D >= 0 over `objects` objects: bench's one tile loop.

    The rays run in `tiles`; `discriminant(sl)` gives D on the (rays,
    objects) tile of the ray range sl.  Floating-point errors stay silent:
    overflow gives inf and NaN, and NaN counts as no hit.
    """
    with np.errstate(all="ignore"):
        for sl in tiles(len(counts), objects):
            counts[sl] += np.count_nonzero(discriminant(sl) >= 0.0, axis=1)


def classical_counts(table: np.ndarray, lifted: np.ndarray) -> np.ndarray:
    """Per ray of `classical_lift`, the number of objects with b^2 - a*c >= 0.

    Each tile is one product (3 x rays, 10) @ (10, objects), then b^2 - a*c,
    in buffers allocated once per call.
    """
    rays, objects = len(lifted), table.shape[1]
    counts = np.zeros(rays, dtype=np.int64)
    rows = min(rays, _tile_rays(objects))
    abc = np.empty((rows, 3, objects))
    bb, ac = np.empty((2, rows, objects))

    def discriminant(sl: slice) -> np.ndarray:
        block = lifted[sl]
        m = len(block)
        np.matmul(block.reshape(3 * m, 10), table, out=abc[:m].reshape(3 * m, objects))
        a, b, c = abc[:m, 0], abc[:m, 1], abc[:m, 2]
        np.multiply(b, b, out=bb[:m])
        np.multiply(a, c, out=ac[:m])
        return np.subtract(bb[:m], ac[:m], out=bb[:m])

    _count_tiles(counts, objects, discriminant)
    return counts


def separated_tables(objects: Sequence[SceneObject]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centres as (3, spheres), r^2, generic coefficient table): the tables of `separated_counts`.

    A `Sphere` with no rotation takes the moment fast path; every other
    object goes, in scene order, into a (10, objects) table built as
    `world_table` builds it.  Raises ValueError where `world_table(objects)`
    would, with its message, naming the first failing object by its
    position in `objects`: a fast-path sphere fails when its world matrix's
    a44 = |c|^2 - r^2, summed in `_compose`'s order, is not finite, the only
    coefficient of such a sphere that can leave the floats.
    """
    centers, r_sq, generic = [], [], []

    def generic_table() -> np.ndarray:
        return _world_table(_placements([objects[i] for i in generic]), generic)

    for i, obj in enumerate(objects):
        if isinstance(obj.kind, Sphere) and obj.rot is None:
            x, y, z = obj.center.as_tuple()
            r_sq.append(obj.kind.r * obj.kind.r)
            if not math.isfinite(0.0 + x * x + y * y + z * z - r_sq[-1]):
                generic_table()  # an earlier failing object is named first
                raise ValueError(f"object {i}: {_NON_FINITE}")
            centers.append((x, y, z))
        else:
            generic.append(i)
    return (
        np.array(centers, dtype=np.float64).reshape(-1, 3).T,
        np.array(r_sq, dtype=np.float64),
        generic_table(),
    )


def _applied(v: Vec4) -> np.ndarray:
    """(4, 10, rays): Q_k v for each unit quadric Q_k of Q's layout.

    Coefficient k at (i, j) (`quadric.COEFFICIENT_ENTRIES`) puts v_j in row
    i and v_i in row j of Q_k v, and zeros elsewhere: `quadric.apply` on
    the unit quadric, for finite v (a zero's sign aside).
    """
    out = np.zeros((4, 10, np.broadcast(*v).size))
    for k, (i, j) in enumerate(COEFFICIENT_ENTRIES):
        out[i, k] = v[j]
        out[j, k] = v[i]
    return out


def separated_lift(point: Vec4, direction: Vec4) -> np.ndarray:
    """(rays, 55): each ray's weights on the coefficient products of `pair_products`.

    D = u^T R v with u = Q s and v = Q x, both linear in Q's coefficients,
    so D is a quadratic form in them: D = sum over a, b of q_a q_b W_ab, with
    W_ab = u(e_a)^T R v(e_b) over the unit quadrics e_a.  `_applied` reads
    U and V, the u(e_a) and v(e_b) of every a, b, off Q's layout as (4, 10)
    per ray; `separated.line_bilinear` on pairs of axes gives R as (4, 4),
    so W = U^T R V.  Folding W_ab + W_ba (a < b) and W_aa pairs each product
    once.  For finite rays U and V equal `quadric.apply` on the 10x10 unit
    table, so the weights equal those of the unit-table forms, which the
    tests check.
    """
    r = line_bilinear(line_entries(point, direction), _AXES, _AXES_ACROSS)
    u, v = _applied(direction), _applied(point)
    w = u.transpose(2, 1, 0) @ r.transpose(2, 0, 1) @ v.transpose(2, 0, 1)
    folded = w[:, _PAIR_A, _PAIR_B]
    folded[:, _CROSS] += w[:, _PAIR_B[_CROSS], _PAIR_A[_CROSS]]
    return folded


def pair_products(table: np.ndarray) -> np.ndarray:
    """(55, objects): the products q_a q_b, a <= b, of each column's coefficients."""
    return table[_PAIR_A] * table[_PAIR_B]


def separated_counts(
    centers: np.ndarray,
    r_sq: np.ndarray,
    generic: np.ndarray,
    direction: Vec4,
    weights: np.ndarray | None,
    terms: tuple,
) -> np.ndarray:
    """Per ray, the number of objects with a nonnegative separated discriminant.

    The first three arguments are `separated_tables(objects)`.  Spheres
    (`centers`, `r_sq`) take the moment fast path,
    `separated.moment_discriminant` on (ray, sphere) tiles; `terms` is
    `separated.line_moment(point, direction)`, and the sphere path needs
    Euclidean rays.  The objects of the `generic` coefficient table take the
    lifted form: each tile is one product `weights` @ `pair_products(generic)`
    into a buffer allocated once per call.  `weights` is `separated_lift`,
    read only when `generic` has columns.  Each half runs its own tiles of
    about TILE_PAIRS pairs.
    """
    rays, objects = len(direction[0]), generic.shape[1]
    moment, dir_norm_sq = terms
    counts = np.zeros(rays, dtype=np.int64)

    def spheres(sl: slice) -> np.ndarray:
        rows = (sl, None)
        return moment_discriminant(
            centers, r_sq, _take(moment, rows), _take(direction[:3], rows), dir_norm_sq[rows]
        )

    def lifted(sl: slice) -> np.ndarray:
        w = weights[sl]
        return np.matmul(w, products, out=d[:len(w)])

    if len(r_sq):
        _count_tiles(counts, len(r_sq), spheres)
    if objects:
        products = pair_products(generic)
        d = np.empty((min(rays, _tile_rays(objects)), objects))
        _count_tiles(counts, objects, lifted)
    return counts

