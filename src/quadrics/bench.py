"""Deterministic detection benchmark: classical vs separated kernels.

Both methods answer the same question per (ray, object) pair: is the
discriminant nonnegative?  Detection runs in tiles of (rays x objects)
through the lifted kernels of `kernels`, over struct-of-arrays tables of
the objects, which is the data layout the separated form is designed for.
`run_benchmark` builds one split, `kernels.bench_tables`, once per call and
hands it to every method: the plain spheres (each unrotated object whose
fundamental coefficients are exactly (1, 1, 1, a44 < 0, 0, ..., 0),
whatever its kind) as an (11, spheres) table of monomials of their centres
and radii, and the other objects' world matrices as a (10, objects) table
whose every column is scaled by the power of two that puts its largest
|coefficient| in [1, 2), the format of render's table
(`kernels._world_table`): the same surfaces, so a count does not move
when an object's Q is multiplied by a power of two, and on bench's rays
no lifted D of that table leaves the floats.  Each method
first lifts every ray once per call, the precompute phase.  The plain
spheres take one route-independent kernel: both methods lift each ray into the same 11
weights (`kernels.sphere_lift`) and run `kernels.sphere_counts`, one
product (rays, 11) @ (11, spheres) per tile, so the two routes' sphere
costs are equal by construction; a pair the product cannot decide within
its rounding bound falls back to the one per-pair form,
`separated.moment_discriminant`.  On the table, classical lifts a ray
into a, b and c as linear forms in Q's 10 coefficients, read off Q's
layout (`quadric.COEFFICIENT_ENTRIES`); separated lifts it into R's six
entries p, the line's Plucker coordinates, and the 21 weights -p_I p_J of
s^T Q R Q x = -p^T C p (`separated.compound_weights`), C the second
compound of Q.  Detection is then one
matrix product per tile: classical (3 x rays, 10) @ (10, objects) and
b^2 - a*c, separated (rays, 21) @ (21, objects) against the objects'
compound entries (`separated.compound_entries`, built once per call).
Each half is lifted only when it has objects.
Bench times the lifts and the counts and joins the results; the kernels
own the layout.

`kernels.map_ranges` gives each worker a range of rays, as `render` does
with image rows; a worker gets arrays, not the scene, and returns per-ray
hit counts and per-repetition times.  The hit total and the checksum (an
XOR over rays of a mix of each count with its ray index) are computed once,
over all rays, outside the timed spans.  Identical checksums across runs
and worker counts are the determinism contract.  Across methods, the
per-ray counts, so the hits and checksums, are equal:

- on the plain spheres, on every input, by construction: both methods run
  the same kernel and the same fallback;
- on the other objects, wherever each pair's lifted D lies outside its
  rounding bound of the exact b^2 - a c, where both methods count the
  exact sign.  That holds on generated scenes, which the tests check; a
  constructed pair closer to tangency may count differently per method,
  and so may a thin object, on which classical's c = x^T Q x cancels in
  world coordinates.

A BLAS product sums in its own order, so a lifted discriminant is not the
scalar kernels' value bit for bit; the hit counts and checksums equal
those of the per-pair forms on generated scenes.  Timing columns are
wall-clock and vary run to run; every other column is byte-stable for a
fixed seed.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .kernels import (
    METHODS, bench_tables, classical_counts, classical_lift, map_ranges, separated_counts,
    separated_lift, sphere_counts, sphere_lift,
)
from .rng import float_stream, mix64
from .scene import Scene

__all__ = [
    "BenchStats",
    "CSV_HEADER",
    "RAY_SEED_SALT",
    "generate_rays",
    "run_benchmark",
    "to_csv",
]

# XORed into the scene seed so the ray stream is decoupled from object draws.
RAY_SEED_SALT = 0x9E3779B97F4A7C15
# Directions whose squared length is below this are drawn again.
_MIN_DIR_NORM_SQ = 1e-12
_CHECKSUM_STRIDE = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class BenchStats:
    """One CSV row: the fields in order are the columns, each written in its `format`."""

    method: str
    objects: int
    rays: int
    detections: int
    hits: int
    precompute_ns_total: int
    detect_ns_total: int
    detect_ns_per_test: float = field(metadata={"format": ".3f"})
    checksum: int

    def __post_init__(self) -> None:
        if self.hits > self.detections:
            raise ValueError("hits cannot exceed detections")
        if min(self.precompute_ns_total, self.detect_ns_total) < 0:
            raise ValueError("times must be nonnegative")


_COLUMNS = [(f.name, f.metadata.get("format", "")) for f in fields(BenchStats)]
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def generate_rays(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded ray batch: origins in [-10, 10]^3, directions in [-1, 1]^3.

    Stream seed is `seed XOR RAY_SEED_SALT`.  Per ray: three origin draws,
    then three direction draws, redrawing all three while the direction's
    squared length is below 1e-12.

    The stream comes from `rng.float_stream` as triples of draws, and the
    rule is applied to the whole batch: a short triple (one whose direction
    would be too short) that falls in a direction slot of the triples kept
    so far is dropped, since it is redrawn; the kept triples are then
    origins and directions in turn.  Short triples are rare (none among the
    benchmark's rays), so they are walked in Python.  When drops leave fewer
    than `count` rays, a stream twice as long is drawn.  The directions are
    the draws scaled once, for the length test.
    """
    if count < 1:
        raise ValueError("need at least one ray")
    slots = triples = 2 * count
    while True:
        draws = float_stream(seed ^ RAY_SEED_SALT, 3 * triples).reshape(triples, 3)
        d = _uniform(-1.0, 1.0, draws)
        norm_sq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
        dropped = []
        for i in np.flatnonzero(norm_sq < _MIN_DIR_NORM_SQ).tolist():
            if (i - len(dropped)) % 2:
                dropped.append(i)
        if dropped:
            draws = np.delete(draws, dropped, axis=0)
            d = np.delete(d, dropped, axis=0)
        if len(draws) >= slots:
            break
        triples *= 2
    # A copy, so that the directions do not keep the draws of every triple alive.
    return _uniform(-10.0, 10.0, draws[0:slots:2]), d[1:slots:2].copy()


def _uniform(lo: float, hi: float, draws: np.ndarray) -> np.ndarray:
    """`Xorshift64Star.uniform(lo, hi)` applied to `next_float` draws.

    lo + (hi - lo) u is computed as u (hi - lo), then lo added in place:
    the same bits, as float addition and multiplication commute, with one
    new array.
    """
    out = draws * (hi - lo)
    out += lo
    return out


def _checksum(ray_hits: np.ndarray) -> int:
    """XOR over rays of mix64(((i + 1) * stride) ^ hits_i), mod 2^64."""
    index = np.arange(1, 1 + ray_hits.shape[0], dtype=np.uint64)
    mixed = mix64((index * np.uint64(_CHECKSUM_STRIDE)) ^ ray_hits.astype(np.uint64))
    return int(np.bitwise_xor.reduce(mixed))


def _detect_rays(
    method: str, tables: tuple, origins: np.ndarray, dirs: np.ndarray, reps: int, rays: range
) -> tuple[np.ndarray, list[int], list[int]]:
    """Per-ray hit counts over `rays`, and each repetition's precompute and detect ns.

    `tables` are `kernels.bench_tables`: the plain spheres take the sphere
    product on both routes, the other objects the method's lifted form;
    each half is lifted only when it has objects.  Raises AssertionError
    when a repetition's counts differ from the first one's.
    """
    o, d = origins[rays.start:rays.stop], dirs[rays.start:rays.stop]
    point = (o[:, 0], o[:, 1], o[:, 2], 1.0)
    direction = (d[:, 0], d[:, 1], d[:, 2], 0.0)
    spheres, generic = tables
    if method == "classical":
        lift, count = classical_lift, classical_counts
    else:
        lift, count = separated_lift, separated_counts
    ray_hits = None
    precompute_ns: list[int] = []
    detect_ns: list[int] = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        sphere_weights = sphere_lift(point, direction) if spheres.shape[1] else None
        lifted = lift(point, direction) if generic.shape[1] else None
        t1 = time.perf_counter_ns()
        counts = np.zeros(len(o), dtype=np.int64)
        if sphere_weights is not None:
            counts += sphere_counts(spheres, sphere_weights, point, direction)[0]
        if lifted is not None:
            counts += count(generic, lifted)
        t2 = time.perf_counter_ns()
        precompute_ns.append(t1 - t0)
        detect_ns.append(t2 - t1)
        if ray_hits is None:
            ray_hits = counts
        elif not np.array_equal(counts, ray_hits):
            raise AssertionError("nondeterministic detection results across repetitions")
    return ray_hits, precompute_ns, detect_ns


def _run_one_method(
    tables: tuple, method: str, origins: np.ndarray, dirs: np.ndarray, reps: int, workers: int
) -> BenchStats:
    """One method's stats over the `kernels.bench_tables` of the scene's objects.

    Counts are joined in ray order; each repetition's times are summed over
    the worker ranges before the median.
    """
    rays = origins.shape[0]
    objects = tables[0].shape[1] + tables[1].shape[1]
    worker = partial(_detect_rays, method, tables, origins, dirs, reps)
    hit_arrays, pre_ns, det_ns = zip(*map_ranges(worker, rays, workers))
    ray_hits = np.concatenate(hit_arrays)
    detect_ns = int(statistics.median(sum(rep) for rep in zip(*det_ns)))
    detections = rays * objects
    return BenchStats(
        method=method,
        objects=objects,
        rays=rays,
        detections=detections,
        hits=int(ray_hits.sum()),
        precompute_ns_total=int(statistics.median(sum(rep) for rep in zip(*pre_ns))),
        detect_ns_total=detect_ns,
        detect_ns_per_test=detect_ns / detections,
        checksum=_checksum(ray_hits),
    )


def run_benchmark(
    scene: Scene,
    rays: int,
    method: str = "both",
    reps: int = 1,
    seed: int = 1,
    workers: int = 1,
) -> list[BenchStats]:
    """Fire `rays` seeded rays against every object, detection only.

    Returns one BenchStats per method; timings are medians over `reps`
    repetitions of the same work.
    """
    if method not in METHODS and method != "both":
        raise ValueError(f"unknown method {method!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    origins, dirs = generate_rays(seed, rays)
    tables = bench_tables(scene.objects)
    methods = list(METHODS) if method == "both" else [method]
    return [_run_one_method(tables, m, origins, dirs, reps, workers) for m in methods]


def to_csv(stats: list[BenchStats]) -> str:
    lines = [CSV_HEADER]
    for s in stats:
        lines.append(",".join(format(getattr(s, name), spec) for name, spec in _COLUMNS))
    return "\n".join(lines) + "\n"
