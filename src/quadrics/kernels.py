"""Batched intersection kernels over tiles of (rays x objects).

Objects are a struct-of-arrays table: row k holds the k-th of the 10
quadric coefficients, in `COEFFICIENT_ORDER`, for every object.
`render_tables` and `bench_tables` build it from scene objects through
`_world_table`, every world matrix at once, each column
`SceneObject.world_matrix` bit for bit times the power of two that puts
its largest |coefficient| in [1, 2): the same surface, on which no value
of the kernels that read the table leaves the floats.  Q's 4x4 layout is
read from `quadric.COEFFICIENT_ENTRIES`.  A ray component is either an
array with one entry per ray or a plain float shared by every ray.
Render works in camera-relative coordinates: `render_tables`, the one
place the camera origin enters render's kernels, subtracts it from every
centre, so every pixel's ray starts at (0, 0, 0, 1).  `nearest_hits`
takes the pixel directions as three arrays, and the pair forms receive
the rays as (0, 0, 0, 1) and (sx, sy, sz, 0).  Bench's rays each have an
origin, in world coordinates, with w = 1 and s_w = 0 as floats.  Inside
a tile the per-ray arrays become columns, so numpy
broadcasting evaluates all (ray, object) pairs of the tile at once, and a
term that depends on the objects alone is computed once per tile, not
once per pair.

The pair formulas are the reference's own tuple-level forms, run on
arrays: the separated D = -p^T C p of `separated.compound_weights` and
`compound_entries`, which unpack a (10, objects) table as they unpack a
`QuadricMatrix`, and, in bench's sphere fallback, `separated.line_moment`
and `moment_discriminant`, the body of `separated.sphere_discriminant`;
every cross product among them, and in `sphere_lift`, is
`geometry.cross_terms`.  Render's rays start at the camera, which makes
most terms of these forms exact zeros, and render's stage 2 adds only
the others, in the scalar order.  Only six of the 21 weights of
-p^T C p are not 0 (`_CAMERA_PAIRS`), so the separated route takes those
six entries of every column once per call, and the six weights of every
ray (`_camera_discriminant`, in the order of `discriminant_separated`).
Only 6 terms of a, 3 of b and 1 of c of `classical.coefficient_terms`
are not 0 (`_camera_terms`, in the operand order of
`quadric.quadratic_form` and `bilinear_form`); it runs `coefficient_terms`
itself on a pair whose a, b or c is exactly 0, whose sign the dropped
zeros decide.  numpy float64
ufuncs round exactly as Python floats do, so each pair gets the scalar
kernels' value bit for bit by construction.  What is batched here, the
classification in `nearest_root`, keeps the operand order of `solve`, and
the tests compare both.  The tile loops run under
`np.errstate(all="ignore")`: overflow gives inf and NaN silently, as
Python float arithmetic does, and the branches of `solve` that a pair does
not take are evaluated for every pair, then discarded.

Bench's hit counts use lifted forms instead, so a ray becomes, once per
call, a vector of weights and a tile of rays x objects is one matrix
product.  Classical: a, b and c are linear forms in Q's 10 coefficients,
and `classical_lift` reads each weight off Q's layout,
`quadric.COEFFICIENT_ENTRIES` (coefficient (i, j) weighs u_i v_j + u_j v_i
in u^T Q v); a test pins it to `coefficient_terms` run on the 10x10 unit
table, number for number.  `classical_counts` copies each tile's rows into
a rows, then b, then c, so its one product gives a, b and c as three
contiguous (rays, objects) blocks, on which b^2 - a c runs.  Separated:
R's six entries p are the line's Plucker coordinates, and s^T Q R Q x =
-p^T C p with C Q's second compound, so `separated_lift` gives each ray
the 21 weights -p_I p_J of `separated.compound_weights` and
`separated_counts` multiplies them by the (21, objects) table of
`separated.compound_entries`, built once per call.

`bench_tables` owns both routes' split, read off the placements: an
unrotated object whose fundamental coefficients are (1, 1, 1, a44 < 0,
0, ..., 0) is a plain sphere, whatever its kind, and every other object
goes into the coefficient table.  On a plain sphere both routes' D is one
polynomial, linear in 11 monomials of its centre and radius, which
`bench_tables` lays out as the sphere table, so both routes lift each ray
once more into 11 weights (`sphere_lift`) and run one route-independent
kernel, one product per tile of rays x spheres (`sphere_counts`).  Every
count runs in one tile loop, `_count_tiles`, which owns the tiles' buffer
of D.  A BLAS product sums in its own order, so these kernels are not
bit-identical to the scalar ones per pair.  What holds, and the tests
check: equal hit counts with the per-pair forms on generated scenes, and
each lifted D within a derived rounding bound of the exact b^2 - a c, so
the same sign wherever the exact value lies outside it.  The sphere product carries its bound: a
pair it cannot decide falls back to the one per-pair form,
`moment_discriminant`, so its counts equal that form's on every input,
on both routes.

`nearest_hits` runs in two stages.  Stage 1, `kept_pairs`, is one rule on
both routes, run per tile over every column: a filter that never decides
a result.  Each route evaluates its own D on every pair as a lifted
product, and a pair is dropped only when d < -T, with T the bound
`miss_bound` derives per column, once per call, relative to the column's
own coefficients, one T for both routes: it drops only pairs whose
`nearest_root` result is provably a Miss, whatever the scene's units.
Miss, Tangent and Two are decided in `nearest_root` alone, as in
`classical.solve`.  BLAS sums in its own order, so stage 1 keeps no d.
Stage 2 roots every kept pair in one batch, from a, b and c in the scalar
order (`_camera_terms`) and, on the separated route, D from the six terms
in the scalar order (`_camera_discriminant`): on every pair it roots the
separated route adds six terms where the classical one computes
b^2 - a c, and both root the same pairs.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, Union

import numpy as np

from .classical import LINEAR_EPS, TANGENT_EPS, coefficient_terms
from .geometry import cross_terms
from .quadric import COEFFICIENT_ENTRIES
from .separated import (
    compound_entries, compound_weights, line_entries, line_moment, moment_discriminant,
)

if TYPE_CHECKING:
    from .scene import SceneObject

__all__ = [
    "METHODS",
    "TILE_PAIRS",
    "render_tables",
    "tiles",
    "map_ranges",
    "nearest_root",
    "miss_bound",
    "kept_pairs",
    "nearest_hits",
    "bench_tables",
    "sphere_lift",
    "sphere_counts",
    "classical_lift",
    "classical_counts",
    "separated_lift",
    "separated_counts",
]

# The two routes every detection entry point (render, bench, CLI) accepts.
METHODS = ("classical", "separated")

# Pairs evaluated per tile.  A tile is whole rays against every object:
# `_tile_rays` gives it TILE_PAIRS // objects rays, but at least
# TILE_PAIRS // 256 (32) and, unless it is one ray, at most 4 * TILE_PAIRS
# pairs.  So scenes of up to 256 objects have tiles of about TILE_PAIRS
# pairs, a float64 (tile rays, objects) array of 64 KiB, and the largest
# buffer, `classical_counts`' a, b and c, holds at most 3 * 4 * TILE_PAIRS
# floats, 768 KiB.  The floor spreads a tile's fixed cost (its product,
# comparison and count) over more rays: at 750 objects, on a 2-core Xeon,
# the separated product cost 1.06 ns a pair at 10 rays and 0.83 at 32, the
# count 0.95 and 0.70.  A larger TILE_PAIRS alone does not serve: 16384 and
# 32768 made 10 spheres x 3000 rays slower (x0.93-0.98), their tiles of
# 1638-3000 rows passing glibc's 128 KiB mmap threshold.  The cap keeps the
# a, b, c buffer small: a 64-ray floor made it 1.15 MB and classical lost
# its gain.  `nearest_hits` roots its kept pairs once they reach
# TILE_PAIRS, so a stage-2 batch holds fewer than TILE_PAIRS pairs plus one
# tile's.
TILE_PAIRS = 8192

Component = Union[float, np.ndarray]
Vec4 = Sequence[Component]
# Render's rays: the pixels' (sx, sy, sz) arrays, each from the camera at _CAMERA.
Directions = Sequence[np.ndarray]
_CAMERA = (0.0, 0.0, 0.0, 1.0)
# The pairs of `separated.COMPOUND_ORDER` whose two Plucker axes, (0, 3),
# (1, 3) and (2, 3), both hold w: from _CAMERA every other weight of
# -p^T C p is 0, so render's separated D is these six terms.
_CAMERA_PAIRS = ((2, 2), (2, 4), (2, 5), (4, 4), (4, 5), (5, 5))

# Entry (i, j), i <= j, of each coefficient of Q's symmetric 4x4 matrix.
_ROWS, _COLS = np.array(COEFFICIENT_ENTRIES).T
# Q's 3x3 block, the coefficients a = s^T Q s reads when s_w = 0: `classical._a_scale`'s.
_BLOCK = [k for k, (_, j) in enumerate(COEFFICIENT_ENTRIES) if j < 3]
# a14, a24 and a34, the coefficients b = s^T Q x reads from the camera.
_LINEAR = slice(7, 10)


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`geometry.compose` on (4, 4, n) stacks: acc = 0.0, then acc + a_ik * b_kj for k = 0..3.

    The objects run along the last axis, so each step is one pass over
    contiguous rows of n objects.
    """
    acc = np.zeros(a.shape)
    for k in range(4):
        acc += a[:, k, None] * b[None, k]
    return acc


def _placements(objects: Sequence[SceneObject]) -> tuple:
    """Fundamental coefficients (n, 10), centres (n, 3), rotated mask (n,), rotations (r, 3, 3).

    The rotations are those of the rotated objects, in scene order.
    """
    n = len(objects)
    rotations = [o.rot.m for o in objects if o.rot is not None]
    return (
        np.fromiter(chain.from_iterable(o.kind.coefficients() for o in objects), float, 10 * n)
        .reshape(n, 10),
        np.fromiter(chain.from_iterable(o.center.as_tuple() for o in objects), float, 3 * n)
        .reshape(n, 3),
        np.fromiter((o.rot is not None for o in objects), bool, n),
        np.fromiter(chain.from_iterable(rotations), float, 9 * len(rotations)).reshape(-1, 3, 3),
    )


def _subset(placed: tuple, keep: np.ndarray) -> tuple:
    """The `_placements` of the objects where the mask `keep` is true, in order."""
    q0, centers, rotated, rot = placed
    return q0[keep], centers[keep], rotated[keep], rot[keep[rotated]]


def _world_table(placed: tuple, index: Sequence[int]) -> np.ndarray:
    """(10, objects) table of every `SceneObject.world_matrix()` of `placed`, each scaled.

    `placed` is the `_placements` of the objects at positions `index`.
    T (the translation, after the transposed rotation where there is one),
    Q0 T, T^T (Q0 T) and the (i, j)/(j, i) averaging of `quadric.transform`
    run on (4, 4, objects) stacks through `_compose`, which keeps the scalar
    summation order and every term, products with 0 and 1 included, so
    signed zeros and rounding match the scalar build bit for bit.  Raises
    ValueError where the scalar build would: a non-finite entry of T, Q0 T
    or the product, or an object whose coefficients are all zero.  The error
    names the first such object by its position in `index`.

    Each column is then multiplied by 2^(1 - e), e the binary exponent of
    its largest |coefficient|, which puts that in [1, 2): Q and 2^k Q are
    one surface, every value the kernels form from the column keeps the
    unscaled Q's bits, times a power of two, wherever those stayed normal
    floats, and none leaves the floats: not in render (`miss_bound`, step
    0), nor in bench's lifted forms on bench's rays.  Render's table and
    bench's generic table are built here, so only this function scales.

    An entry more than 2^1022 below its column's largest can become
    subnormal or 0, and the kernels then see the scaled Q.  The parser
    allows that: a `quadric` line takes any finite coefficients; shape
    parameters in [2^-511, 2^511] (`quadric._PARAM_MAX`) let one
    ellipsoid's 1/a^2 span 2^2044 (`ellipsoid 3 2^510 2^-400` loses its
    2^-1020 beside an a44 near 2^807); `scene._PLACEMENT_MAX`, 2^1021, lets
    a far object's a44 reach 2^1021 whatever its smallest 1/a^2.  An
    unrotated sphere keeps every bit: its 3x3 block is 1 and |a44| <= 2^1022.
    """
    q0, centers, rotated, rot = placed
    n = len(q0)
    if n == 0:
        return np.empty((10, 0))
    q0_mat = np.empty((4, 4, n))
    q0_mat[_ROWS, _COLS] = q0_mat[_COLS, _ROWS] = q0.T
    t = np.zeros((4, 4, n))
    t[range(4), range(4)] = 1.0
    t[:3, 3] = -centers.T
    with np.errstate(all="ignore"):
        if len(rot):
            # rotation(rot^T): the transposed 3x3 block, w row and column untouched.
            r = np.zeros((4, 4, len(rot)))
            r[:3, :3] = rot.transpose(2, 1, 0)
            r[3, 3] = 1.0
            t[:, :, rotated] = _compose(r, t[:, :, rotated])
        p = _compose(t.transpose(1, 0, 2), _compose(q0_mat, t))
        table = p[_ROWS, _COLS]
        off = _ROWS != _COLS
        table[off] = 0.5 * (table[off] + p[_COLS[off], _ROWS[off]])
    # One check covers T, Q0 T and the product: every entry of each reaches
    # the table through products and sums, and x * inf, x * NaN and a sum
    # with either are never finite.
    for bad, what in (
        (~np.isfinite(table).all(axis=0), "world matrix: non-finite coefficient"),
        ((table == 0.0).all(axis=0), "all coefficients zero"),
    ):
        if bad.any():
            raise ValueError(f"object {index[int(np.argmax(bad))]}: {what}")
    _, e = np.frexp(np.abs(table).max(axis=0))
    return np.ldexp(table, 1 - e, out=table)


def render_tables(objects: Sequence[SceneObject], origin: Sequence[float]) -> np.ndarray:
    """The table of `nearest_hits`: each scaled world matrix about the camera at `origin`.

    Every centre becomes c - origin, the one float subtraction of
    `Vec3.__sub__` per component (a `General` object's centre 0 becomes
    0 - origin), and `_world_table` builds each object's
    `SceneObject.world_matrix()` at that centre, bit for bit, and scales it.
    """
    q0, centers, rotated, rot = _placements(objects)
    placed = (q0, centers - np.array(origin, dtype=np.float64), rotated, rot)
    return _world_table(placed, range(len(objects)))


def _tile_rays(objects: int) -> int:
    """A tile's rays against `objects` objects: the rule of the `TILE_PAIRS` comment."""
    objects = max(1, objects)
    return max(1, min(max(TILE_PAIRS // objects, TILE_PAIRS // 256), 4 * TILE_PAIRS // objects))


def tiles(rays: int, objects: int) -> Iterator[slice]:
    """Consecutive ray ranges of `_tile_rays(objects)` rays each, the last one the rest."""
    step = _tile_rays(objects)
    return (slice(lo, lo + step) for lo in range(0, rays, step))


def map_ranges(fn: Callable[[range], object], n: int, workers: int) -> list:
    """fn(r) for each of at most `workers` consecutive ranges covering range(n), in order.

    Ranges hold ceil(n / workers) items, the last one the rest.  They run in
    a pool of one process per range, but never more processes than this
    process may run on CPUs (`os.sched_getaffinity`, or `os.cpu_count` where
    the platform has no affinity call); a pool that would hold fewer than
    two processes is not started, and `fn` runs in this process (one
    worker, one range, one usable CPU, or n = 0, which gives no range, so
    []).  The CPUs are counted only for two ranges or more.  The ranges do
    not depend on the pool size.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    per = max(1, -(-n // workers))
    ranges = [range(lo, min(lo + per, n)) for lo in range(0, n, per)]
    if len(ranges) > 1:
        affinity = getattr(os, "sched_getaffinity", None)
        processes = min(len(ranges), len(affinity(0)) if affinity else os.cpu_count() or 1)
        if processes > 1:
            with ProcessPoolExecutor(max_workers=processes) as pool:
                return list(pool.map(fn, ranges))
    return [fn(r) for r in ranges]


def _take(vec: Sequence[Component], index) -> tuple:
    """Each per-ray array of `vec` indexed by `index`; a float component is shared by every ray."""
    return tuple(v[index] if isinstance(v, np.ndarray) else v for v in vec)


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


def miss_bound(table: np.ndarray, a_scale: np.ndarray, s_sq: np.ndarray):
    """Stage-1 bound T of each column for these rays, on both routes: d < -T is a Miss, inf keeps all.

    `table` is the table of `render_tables`, so every column's largest
    |coefficient| lies in [1, 2), `a_scale` each column's largest
    |coefficient| of Q's 3x3 block, A, and `s_sq` the rays' sx^2 + sy^2 +
    sz^2 in floats, for one ray or more, each ray's (sx, sy, sz) a
    direction of `Camera.pixel_directions`; it runs under the errstate of
    `nearest_hits`.
    `kept_pairs` drops a pair only when its route's stage-1 d, a lifted
    product in BLAS's order, is below -T: on the separated route the six
    terms of -p^T C p that the camera leaves, after which stage 2 hands
    `nearest_root` the same six terms summed in the scalar order
    (`_camera_discriminant`); on the classical route b^2 - a a44 with a
    and b lifted, after which stage 2 computes b^2 - a c from the
    scalar-order a, b and c.  T is derived so that `nearest_root` then
    returns NaN: the filter never decides a result.  From the camera at
    x = 0 a pair's exact terms are a = s^T Q s over the 3x3 block, b = l.s
    with l = (a14, a24, a34), c = a44 and D = b^2 - a c.  L = max|l_i|,
    M = max(L^2, A |a44|), |s|_1 and |s|^2 are the pair's ray's, S is the
    largest |s|^2 of the call in floats, so T is one number per column,
    u = 2^-53 and gamma_n = n u / (1 - n u).

    0. Range.  With g = 2 max(1, 4 S), at least max(1, max|Q|) max(1, |s|_1)
       as max|Q| < 2 and |s|_1^2 <= 3 |s|^2, no intermediate of either d,
       a, b, c or the band exceeds 2^5 g^4, so g <= 2^250 rules out
       overflow, and the camera bounds S: as vfov < 180, `Camera.frame`'s
       half_h = tan(radians(vfov) / 2) <= tan(fl(pi/2)), about 1.6e16
       < 2^54, and half_w = half_h width / height < 2^115, since a row of
       width float64 directions fits in memory (width < 2^61).
       `pixel_directions` gives forward + u right + v up, unit vectors with
       |u| <= half_w and |v| <= half_h, so |s_i| < 2^116, S < 2^234 and
       g < 2^237.  Underflow, where a product errs by at most 2^-1075 and
       a sum is exact, moves each of either d, a |a44|, b^2, the band and
       the terms of T by less than 2^-1060 g^4.
    1. Band.  |a| <= A |s|_1^2 and |b| <= L |s|_1 exactly, and the floats'
       a and b sum 5 and 3 rounded terms in the scalar order, so the band,
       TANGENT_EPS max(b^2, |a c|) in floats, is at most
       (1 + gamma_8) TANGENT_EPS M |s|_1^2 <= 3 (1 + gamma_8) TANGENT_EPS M |s|^2.
       A d below that, handed to `nearest_root`, is d < -band: neither
       Tangent nor Two.
    2. Linear branch.  Where `nearest_root` takes it, |a| <= LINEAR_EPS A
       |s|^2 (1 + gamma_5) in floats, so the exact |a| is at most
       (LINEAR_EPS + 2^-47) A |s|^2 and D >= -|a| |a44| >=
       -(LINEAR_EPS + 2^-47) M |s|^2.  Each product of a weight and an
       entry in the six terms of the separated D is rounded at most 9
       times, and their absolute values sum to at most
       |s|_1^2 (A |a44| + L^2) <= 6 M |s|^2, so by step 3 both separated
       values are at least -(LINEAR_EPS + 2^-45) M |s|^2, and so is the
       classical d: far above -T, as LINEAR_EPS is TANGENT_EPS / 100, and
       a pair on the linear branch is never dropped.
    3. Lifted d.  Separated: the six products of step 2 and at most 5
       additions, in any order, so each term passes through at most 14
       roundings and the lifted d, like stage 2's scalar-order D, lies
       within gamma_14 6 M |s|^2 of D (Higham, lemma 3.1).  Classical: the
       lifted a sums, in any order, 6 products of a coefficient and a
       weight s_i s_i or 2 s_i s_j, rounded once, so it lies within
       gamma_7 A |s|_1^2 of the exact a, and the lifted b sums 3 products
       of a coefficient and an exact s_i, within gamma_3 L |s|_1.  With the
       roundings of b^2, a a44 and their difference, the lifted d lies
       within gamma_17 M |s|_1^2 of D; stage 2's b^2 - a c, from step 1's
       a and b, within gamma_15 M |s|_1^2.  A fused multiply-add only
       rounds less.  On either route the two values lie less than
       2^-45 M S apart (2 gamma_14 6 and gamma_32 3 are below 2^-45.5), so
       where the lifted d < -T, stage 2's value is below -T + 2^-45 M S,
       below -band by step 1, as T carries 2^-45 M S.
    4. T = (3 (1 + 2^-40) TANGENT_EPS + 2^-45) M S + 2^-1050 g^4, in floats.
       The exact |s|^2 is at most S / (1 - gamma_3) and M within one
       rounding; with the 5 roundings of T and the 8 of step 1, every factor
       lies far inside 1 + 2^-40, and 2^-1050 g^4 covers step 0's
       underflow.

    Multiplying the scene's lengths, Q or the directions by a power of two
    multiplies every d, the band and M S by one factor, exactly while no
    value leaves the normal floats, so the pairs kept do not depend on the
    units.  An infinite T keeps every pair.  By step 0 no T, d, weight or
    entry leaves the floats: |w| <= 2 S and |C[I, J]| <= 2 max|Q|^2 < 8.
    """
    s = s_sq.max(initial=0.0)
    g = 2.0 * max(1.0, 4.0 * s)
    m = np.maximum(abs(table[_LINEAR]).max(axis=0) ** 2, a_scale * abs(table[3]))
    return (3.0 * (1.0 + 2.0 ** -40) * TANGENT_EPS + 2.0 ** -45) * s * m + 2.0 ** -1050 * g ** 4


def _batches(pairs: Iterator[tuple]) -> Iterator[tuple]:
    """The (ri, oi) of consecutive tiles, joined once they hold TILE_PAIRS pairs; the rest last."""
    batch, pending = [], 0
    for tile in pairs:
        batch.append(tile)
        pending += len(tile[0])
        if pending >= TILE_PAIRS:
            yield tuple(map(np.concatenate, zip(*batch)))
            batch, pending = [], 0
    if pending:
        yield tuple(map(np.concatenate, zip(*batch)))


def _camera_discriminant(weights: np.ndarray, block: np.ndarray) -> np.ndarray:
    """D = 0.0 plus weight * C[I, J] over `_CAMERA_PAIRS`, left to right: `discriminant_separated`.

    `weights` and `block` are (6, pairs) rows of `compound_weights` and
    `compound_entries`, gathered for the pairs stage 2 roots, so this is
    the D that `nearest_root` receives on the separated route; stage 1
    never computes it.  The scalar sum skips a zero weight; here the block
    of a `render_tables` table is finite (`miss_bound`, step 0), so a zero
    weight gives a term of +-0, which cannot change a sum that starts at
    +0.0, and both sums agree bit for bit.
    """
    d = 0.0
    for w, c in zip(weights, block):
        d += w * c
    return d


def _camera_terms(table: np.ndarray, s: Sequence[np.ndarray]) -> tuple:
    """`coefficient_terms(table, _CAMERA, (*s, 0.0))` bit for bit, from the terms the camera leaves.

    Column k of the (10, pairs) `table` meets ray k of `s`, the rays'
    (sx, sy, sz).  From x = (0, 0, 0, 1) and s_w = 0 only 6 terms of a, 3
    of b and 1 of c are not exact zeros; they keep the operand order and
    grouping of `quadric.quadratic_form` and `bilinear_form`.  A dropped
    term (a_k s_i) 0.0 is a +-0, as a_k s_i is finite (`miss_bound`, step
    0), and adding it leaves a nonzero partial sum as it was.  The sign of
    a sum that comes out exactly 0 can depend on the dropped zeros, and
    `solve` reads the sign of b: a pair whose a, b or c is 0 runs
    `coefficient_terms` itself.
    """
    a11, a22, a33, a44, a12, a13, a23, a14, a24, a34 = table
    sx, sy, sz = s
    a = (
        a11 * sx * sx + a22 * sy * sy + a33 * sz * sz
        + 2.0 * (a12 * sx * sy + a13 * sx * sz + a23 * sy * sz)
    )
    b = a14 * sx + a24 * sy + a34 * sz
    c = a44.copy()
    zero = (a == 0.0) | (b == 0.0) | (c == 0.0)
    if zero.any():
        exact = coefficient_terms(table[:, zero], _CAMERA, (*_take(s, zero), 0.0))
        for term, value in zip((a, b, c), exact):
            term[zero] = value
    return a, b, c


def kept_pairs(table: np.ndarray, direction: Directions, method: str) -> tuple:
    """Render's stage 1: the (ray, object) pairs of each tile that it keeps.

    `table` is the table of `render_tables` and `direction` the rays'
    (sx, sy, sz) arrays, each ray from the camera at 0, as `nearest_hits`
    takes them; `method` is one of METHODS.  Returns ((a_scale, s_sq,
    camera), pairs); the call and `pairs` run under the caller's errstate.
    `pairs` yields, for each tile of `tiles(rays, objects)` in order, the
    kept pairs' ray and object indices (ri, oi), ray by ray.  The rest is
    what stage 2 reads too, built once per call: a_scale, each column's
    largest |coefficient| of Q's 3x3 block, s_sq, each ray's sx^2 + sy^2 +
    sz^2, and camera, on the separated route the (6, rays) weights and
    (6, objects) block of `_CAMERA_PAIRS` (None on the classical route).

    Each tile is one lifted product per route, and no d is kept.
    Separated: d = (rays, 6) @ (6, objects), on the weights made
    contiguous once per call.  Classical: d = b^2 - a a44 with a and b
    each one product, (rays, 6) @ (6, objects) on Q's 3x3 block and
    (rays, 3) @ (3, objects) on a14, a24 and a34, the rays' weights from
    `_form_weights`.  BLAS sums in its own order, so neither d is the
    scalar-order D bit for bit; `miss_bound` bounds how far each lies from
    the exact D, and a pair is dropped when d < -T, T its column's bound.
    The contract, which the tests check through this function:

    - every pair it drops is one that `nearest_root` calls Miss, on the
      scalar-order a, b and c of `coefficient_terms` and, on the separated
      route, the scalar-order D of `discriminant_separated`;
    - the kept set does not move when the scene's lengths, Q or the
      directions are multiplied by powers of two, while every value stays
      a normal float;
    - T = inf keeps every pair.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    a_scale = np.abs(table[_BLOCK]).max(axis=0)
    sx, sy, sz = direction
    s_sq = sx * sx + sy * sy + sz * sz
    ray = (sx, sy, sz, 0.0)
    floor = -miss_bound(table, a_scale, s_sq)
    camera = None
    if method == "separated":
        weights = np.array(compound_weights(line_entries(_CAMERA, ray), _CAMERA_PAIRS))
        block = np.array(compound_entries(table, _CAMERA_PAIRS))
        camera = weights, block
        lifted = np.ascontiguousarray(weights.T)
    else:
        # With v = s + x = (sx, sy, sz, 1), s^T Q v weighs the 3x3 block
        # as a = s^T Q s does and a14, a24, a34 as b = s^T Q x does.
        form = _form_weights(ray, (sx, sy, sz, 1.0))
        w_a = np.array([form[k] for k in _BLOCK]).T
        w_b = np.array(form[_LINEAR]).T
        rows = table[_BLOCK], table[_LINEAR], table[3]

    def kept(sl: slice) -> tuple:
        if camera:
            d = lifted[sl] @ block
        else:
            b = w_b[sl] @ rows[1]
            d = b * b - (w_a[sl] @ rows[0]) * rows[2]
        ri, oi = np.nonzero(~(d < floor))
        return ri + sl.start, oi

    return (a_scale, s_sq, camera), map(kept, tiles(len(s_sq), table.shape[1]))


def nearest_hits(table: np.ndarray, direction: Directions, method: str) -> np.ndarray:
    """Per ray, the nearest positive t over every object; NaN when none is crossed.

    The rays are render's, in its camera-relative coordinates: `direction`
    holds the pixels' (sx, sy, sz) as arrays, and every ray starts at the
    camera, 0.  Equals, per ray, the minimum over objects of the positive
    `hit_parameters` of `intersect_classical` or `intersect_separated` for
    the homogeneous ray (0, 0, 0, 1) + t (sx, sy, sz, 0), the vectors the
    pair forms receive, and the scaled matrices of `table`, the table of
    `render_tables`.  Stage 1 is `kept_pairs`: one lifted product per tile
    on either route, which roots nothing, decides no result and keeps no
    d.  Stage 2 roots the kept pairs once they reach TILE_PAIRS, and after
    the last tile, so a batch holds fewer than TILE_PAIRS pairs plus one
    tile's: every pair
    gets a, b, c (`_camera_terms`, on the table's columns gathered for it)
    and `nearest_root` in one pass, a judged against the largest
    |coefficient| of Q's 3x3 block, as `classical._a_scale` judges it, and
    each ray keeps its minimum.  On the separated route `nearest_root`
    gets D from `_camera_discriminant` on the weights and block entries
    gathered for the batch, in the scalar order; on the classical one it
    computes b^2 - a c.
    """
    out = np.full(len(direction[0]), np.nan)
    with np.errstate(all="ignore"):
        (a_scale, s_sq, camera), pairs = kept_pairs(table, direction, method)
        for ri, oi in _batches(pairs):
            # D first: its gathered weights and block are freed before the
            # table's columns are gathered, so a batch's largest temporaries
            # are never alive together (they page-faulted on every call).
            d = None
            if camera:
                weights, block = camera
                d = _camera_discriminant(np.take(weights, ri, axis=1), np.take(block, oi, axis=1))
            a, b, c = _camera_terms(np.take(table, oi, axis=1), _take(direction, ri))
            np.fmin.at(out, ri, nearest_root(a, b, c, a_scale[oi] * s_sq[ri], d))
    return out


def bench_tables(objects: Sequence[SceneObject]) -> tuple[np.ndarray, np.ndarray]:
    """(sphere table, generic coefficient table): the tables of both bench routes.

    The split reads the placements alone: an unrotated object whose
    fundamental coefficients are exactly (1, 1, 1, a44 < 0, 0, ..., 0) is a
    plain sphere.  A rotated object stays generic, whatever its kind: a
    `SceneObject` takes any `Mat3`, so only an unrotated object's
    coefficients prove that it is a sphere.  Its centre c and its
    r^2 = -a44 (the negation is exact) make its column of the
    (11, spheres) sphere table that `sphere_lift`'s weights multiply: 1,
    c_x, c_y, c_z, c_x^2, c_y^2, c_z^2, c_x c_y, c_x c_z, c_y c_z, r^2.
    Every other object goes, in scene order, into the (10, objects) table
    of `_world_table`, its scaled world matrix.  Both come from one
    `_placements` of all objects.  Raises ValueError exactly where the
    world table of all objects raises, with its message and the failing
    object's position in `objects`: the only coefficient of a plain sphere
    that can leave the floats is its world a44 = |c|^2 - r^2, summed in
    `_compose`'s order, so that is screened first, and only a non-finite
    one builds the full table, which then decides which object fails.
    """
    placed = q0, centers, rotated, _ = _placements(objects)
    plain = ~rotated & (q0[:, :3] == 1.0).all(axis=1) & (q0[:, 3] < 0.0) & ~q0[:, 4:].any(axis=1)
    (x, y, z), r_sq = centers[plain].T, -q0[plain, 3]
    with np.errstate(all="ignore"):
        a44 = 0.0 + x * x + y * y + z * z - r_sq
    if not np.isfinite(a44).all():
        _world_table(placed, range(len(objects)))  # raises: its a44 row sums the same terms
    # A finite a44 keeps every monomial finite: |c_i c_j| <= max(c_i^2, c_j^2).
    spheres = np.array(
        [np.ones_like(r_sq), x, y, z, x * x, y * y, z * z, x * y, x * z, y * z, r_sq]
    )
    generic = ~plain
    return spheres, _world_table(_subset(placed, generic), np.flatnonzero(generic))


def sphere_lift(point: Vec4, direction: Vec4) -> tuple[np.ndarray, np.ndarray]:
    """Each ray's (11, rays) weights on the sphere table and (3, rays) rounding-bound terms.

    Against a plain sphere (centre c, squared radius r^2), a = |s|^2,
    b = s.(x - c) and c' = |x - c|^2 - r^2.  With m = s x x and |s|^2 from
    `separated.line_moment`, and m x s from `geometry.cross_terms`,

        b^2 - a c' = r^2 |s|^2 - |m - s x c|^2
                   = -|m|^2 + 2 (m x s).c - sum_i (s_j^2 + s_k^2) c_i^2
                     + 2 sum_(i<j) s_i s_j c_i c_j + |s|^2 r^2

    ({i, j, k} = {x, y, z}), linear in the monomials, so a ray's weights
    times the (11, spheres) table of `bench_tables` are its D against every
    sphere.  The bound terms are p, q and v of `sphere_counts`.  x and s
    are Euclidean (w = 1, s_w = 0); components are floats or (rays,) arrays.
    """
    (m0, m1, m2), n2 = line_moment(point, direction)
    s0, s1, s2, _ = direction
    x0, x1, x2, _ = point
    s00, s11, s22 = s0 * s0, s1 * s1, s2 * s2
    rays = np.broadcast(*point, *direction).size
    # Each column is written into its row as it is made, so that no more
    # than a few (rays,) temporaries are alive at once.
    weights = np.empty((11, rays))
    np.negative(m0 * m0 + m1 * m1 + m2 * m2, out=weights[0])
    for row, term in enumerate(cross_terms((m0, m1, m2), direction), 1):
        np.multiply(2.0, term, out=weights[row])
    for row, (u, v) in enumerate(((s11, s22), (s00, s22), (s00, s11)), 4):
        np.negative(u + v, out=weights[row])
    for row, (u, v) in enumerate(((s0, s1), (s0, s2), (s1, s2)), 7):
        np.multiply(2.0, u * v, out=weights[row])
    weights[10] = n2
    xx = x0 * x0 + x1 * x1 + x2 * x2
    terms = np.empty((3, rays))
    terms[0] = _INFLATE * 4.0 * n2 * xx
    terms[1] = _INFLATE * n2
    terms[2] = 1.0 + n2 + xx
    # A ray with a weight out of the floats gets a NaN p: each of its pairs falls back.
    terms[0, ~np.isfinite(weights).all(axis=0)] = np.nan
    return weights, terms


# The rounding bound of `sphere_counts`: its factors g and h, and the
# inflation that keeps p and q above the exact values they round.
_SPHERE_ROUNDING = 2.0 ** -47
_SPHERE_UNDERFLOW = 2.0 ** -1020
_INFLATE = 1.0 + 2.0 ** -40


def _sphere_bound(p, q, v, k):
    """g (p + q k) + h (v + k): the rounding bound of `sphere_counts`, on arrays that broadcast."""
    return _SPHERE_ROUNDING * (p + q * k) + _SPHERE_UNDERFLOW * (v + k)


def sphere_counts(
    spheres: np.ndarray, lifted: tuple, point: Vec4, direction: Vec4
) -> tuple[np.ndarray, int]:
    """Per ray, the number of plain spheres with D >= 0, and how many pairs fell back.

    `spheres` is the sphere table of `bench_tables`, `lifted` is
    `sphere_lift(point, direction)`.  Each tile is one product
    (rays, 11) @ (11, spheres).  A pair whose |D| is not above its rounding
    bound, below, falls back to `separated.moment_discriminant` on the
    pair's `line_moment`, with the centre from rows 1-3 of the table and
    r^2 from row 10: the body of the scalar `separated.sphere_discriminant`,
    on both routes.  A tile first tests every pair against its ray's bound
    at the call's largest k, and only the pairs that fail it against their
    own: one comparison per pair, where a bound per pair, even as one
    broadcast multiply-add, made the detect workloads' sphere tiles
    1.34-1.38x slower (no pair of their scenes fails the first test).

    The bound.  Written out in its terms, the product's D sums at most
    T = |s|^2 (4 |x|^2 + k), k = 4 |c|^2 + r^2, in absolute value: -|m|^2
    at most 2 |s|^2 |x|^2, the c_i terms 4 |s|^2 |x| |c|, the c_i c_j terms
    2 |s|^2 |c|^2.  No term passes through more than 18 roundings (7 in
    -|m|^2, the product, and 10 additions in any order), so D lies within
    gamma_18 T of the exact value (Higham, lemma 3.1); the per-pair form
    sums no more and rounds at most 11 times.  Per ray, p = 4 |s|^2 |x|^2
    and q = |s|^2, each inflated by 2^-40 so that p + q k, in floats,
    exceeds (1 + gamma_18) T.  g = 2^-47 exceeds gamma_18 + gamma_11 with
    room, so where |D| > g (p + q k), D, the exact value and the per-pair
    form have one sign: a pair decided by the product counts as the
    per-pair form counts it.  h (v + k), h = 2^-1020 and
    v = 1 + |s|^2 + |x|^2, covers underflow.  Overflow: a monomial leaves
    the floats only where k does, and a ray whose weights do has p = NaN
    (`sphere_lift`).  Otherwise every product and partial sum of D is at
    most (1 + gamma_18) T in absolute value, so D is finite wherever
    p + q k is.  So a NaN D fails the test, and an infinite D comes with an
    infinite or NaN bound: both fall back.
    """
    weights, (p, q, v) = lifted
    centers, r_sq = spheres[1:4], spheres[10]
    rays, n = weights.shape[1], spheres.shape[1]
    with np.errstate(all="ignore"):
        k = 4.0 * (spheres[4] + spheres[5] + spheres[6]) + r_sq
        coarse = _sphere_bound(p, q, v, k.max(initial=0.0))
    rows = min(rays, _tile_rays(n))
    # A tile of more rays than spheres is computed as (spheres, rays) and
    # used through its transpose, so that the count of `_count_tiles` sums
    # along rows of rays rather than along rows of a few spheres.  Timed at
    # 3000 rays, the transposed layout is faster below about 90 spheres
    # (0.74x at 20) and slower above (1.17x at 250), which is where
    # n < rows changes, TILE_PAIRS pairs a tile (above 256 spheres a tile
    # has `_tile_rays`' floor of rows, and the plain layout).  D goes into
    # the tile's buffer `d` of `_count_tiles`, |D| and its test into two
    # more; a tile across reads each leading block, which is contiguous, as
    # (spheres, rays).
    across = n < rows
    product = spheres.T.copy() if across else spheres
    buffers = np.empty((rows, n)), np.empty((rows, n), bool)
    fallbacks = 0

    def discriminant(sl: slice, d: np.ndarray) -> np.ndarray:
        nonlocal fallbacks
        w = weights[:, sl]
        m = w.shape[1]
        dd, size, sure = (b[:m].reshape(n, m).T if across else b[:m] for b in (d, *buffers))
        if across:
            np.matmul(product, w, out=dd.T)
        else:
            np.matmul(w.T, product, out=dd)
        np.abs(dd, out=size)
        if not np.greater(size, coarse[sl, None], out=sure).all():
            ri, si = np.nonzero(~sure)
            ray = ri + sl.start
            near = ~(size[ri, si] > _sphere_bound(p[ray], q[ray], v[ray], k[si]))
            ri, si, ray = ri[near], si[near], ray[near]
            fallbacks += len(ri)
            s = _take(direction, ray)
            moment, norm_sq = line_moment(_take(point, ray), s)
            dd[ri, si] = moment_discriminant(_take(centers, si), r_sq[si], moment, s[:3], norm_sq)
        return dd

    counts = _count_tiles(rays, n, discriminant)
    return counts, fallbacks


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
    (10, objects) table are its a, b and c against every object; rays are
    the outer axis, and `classical_counts` regroups each tile's rows by
    term before its product.  Components are floats or (rays,) arrays;
    floats alone give one ray.  For finite rays the weights equal
    `classical.coefficient_terms` run on the 10x10 unit table (a zero
    weight's sign aside), which the tests check: the unit table only adds
    exact zeros to these products and sums, and 2 (u_i u_j) = u_i u_j +
    u_j u_i exactly.
    """
    # Filled in place, ray by ray: a transposed copy of the whole lift
    # allocated a second buffer, 720 KiB at 3000 rays, above glibc's mmap
    # threshold, which page-faulted afresh on each call (0.7 ms of a 2.7 ms
    # bench call).
    lifted = np.empty((np.broadcast(*point, *direction).size, 3, 10))
    for row, (u, v) in enumerate(((direction, direction), (direction, point), (point, point))):
        for k, weight in enumerate(_form_weights(u, v)):
            lifted[:, row, k] = weight
    return lifted


def _count_tiles(rays: int, objects: int, discriminant: Callable) -> np.ndarray:
    """Each ray's number of D >= 0 over `objects` objects: bench's one tile loop.

    The rays run in `tiles`; `discriminant(sl, d)` gives D on the (rays,
    objects) tile of the ray range sl, and may write it into `d`, the
    leading rows of one (tile rays, objects) buffer allocated once per call.
    Floating-point errors stay silent: the sphere product can overflow, and
    `sphere_counts` falls back on every pair it cannot decide.
    """
    counts = np.zeros(rays, dtype=np.int64)
    buffer = np.empty((min(rays, _tile_rays(objects)), objects))
    with np.errstate(all="ignore"):
        for sl in tiles(rays, objects):
            d = buffer[:min(sl.stop, rays) - sl.start]
            counts[sl] = np.count_nonzero(discriminant(sl, d) >= 0.0, axis=1)
    return counts


def classical_counts(table: np.ndarray, lifted: np.ndarray) -> np.ndarray:
    """Per ray of `classical_lift`, the number of objects with b^2 - a*c >= 0.

    Each tile's lift rows are copied a rows first, then b, then c, into a
    (3 x tile rays, 10) buffer, so the one product (3 x rays, 10) @ (10,
    objects) lays a, b and c out as three contiguous (rays, objects) blocks
    of one buffer; b^2 - a*c then runs on those blocks (a*c over a) into the
    tile's buffer.  Both buffers are allocated once per call.
    """
    rays, objects = len(lifted), table.shape[1]
    rows = 3 * min(rays, _tile_rays(objects))
    weights, abc = np.empty((rows, 10)), np.empty((rows, objects))

    def discriminant(sl: slice, d: np.ndarray) -> np.ndarray:
        block = lifted[sl]
        m = len(block)
        np.copyto(weights[:3 * m].reshape(3, m, 10), block.transpose(1, 0, 2))
        a, b, c = np.matmul(weights[:3 * m], table, out=abc[:3 * m]).reshape(3, m, objects)
        np.multiply(b, b, out=d)
        np.multiply(a, c, out=a)
        return np.subtract(d, a, out=d)

    return _count_tiles(rays, objects, discriminant)


def separated_lift(point: Vec4, direction: Vec4) -> np.ndarray:
    """(rays, 21): each ray's weights on the entries of Q's second compound, `compound_entries`.

    With p the line's entries (`separated.line_entries`, its Plucker
    coordinates), s^T Q R Q x = b^2 - a c = -p^T C p, C = C_2(Q), so a
    ray's weight on C[I, J], (I, J) in `separated.COMPOUND_ORDER`, is
    -p_I p_J, doubled off the diagonal: column k is
    `separated.compound_weights`' k-th.  Components are floats or (rays,)
    arrays; floats alone give one ray.
    """
    columns = compound_weights(line_entries(point, direction))
    weights = np.empty((np.broadcast(*point, *direction).size, len(columns)))
    for k, w in enumerate(columns):
        weights[:, k] = w
    return weights


def separated_counts(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per ray of `separated_lift`, the number of objects with -p^T C p >= 0.

    The (21, objects) table of every column's `compound_entries` is built
    once per call; each tile is then one product `weights` @ that table,
    into the tile's buffer.
    """
    rays, objects = len(weights), table.shape[1]
    compound = np.array(compound_entries(table))
    return _count_tiles(rays, objects, lambda sl, d: np.matmul(weights[sl], compound, out=d))
