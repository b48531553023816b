"""Deterministic detection benchmark: classical vs separated kernels.

Both methods answer the same question per (ray, object) pair: is the
discriminant nonnegative?  Detection runs in tiles of (rays x objects)
through the lifted kernels of `kernels`, over a struct-of-arrays table of
the objects' coefficients, which is the data layout the separated form is
designed for.  Each method first lifts every ray once per call, the
precompute phase, reading each weight off Q's layout
(`quadric.COEFFICIENT_ENTRIES`): classical into a, b and c as linear forms
in Q's 10 coefficients, separated into R and the 55 weights of
s^T Q R Q x as a quadratic form in them.  Detection is then one matrix
product per tile: classical (3 x rays, 10) @ (10, objects) and
b^2 - a*c, separated (rays, 55) @ (55, objects) against the objects'
coefficient products.
Plain spheres stay on the separated route's moment fast path, the
reference's own `separated.line_moment` per ray and
`separated.moment_discriminant` per pair (one cross product, a
subtraction, two dot products and a multiply-add).
Bench picks a method's tables once per call, times its lift and its
count, and joins the results; the kernels own the layout.  Classical reads
`kernels.world_table` of every object.  Separated reads
`kernels.separated_tables`, which keeps the plain spheres for the fast path
and tabulates only the other objects, and it lifts R and the weights
(`kernels.separated_lift`) only when that table has columns, their only
reader.

`kernels.map_ranges` gives each worker a range of rays, as `render` does
with image rows; a worker gets arrays, not the scene, and returns per-ray
hit counts and per-repetition times.  The hit total and the checksum (an
XOR over rays of a mix of each count with its ray index) are computed once,
over all rays, outside the timed spans.  Identical checksums across methods,
runs, and worker counts are the determinism contract.  A BLAS product sums
in its own order, so a lifted discriminant is not the scalar kernels' value
bit for bit; it lies within a derived rounding bound of the exact one, and
the hit counts and checksums equal those of the per-pair forms on generated
scenes.  Timing columns are wall-clock and vary run to run; every other
column is byte-stable for a fixed seed.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .kernels import (
    METHODS, classical_counts, classical_lift, map_ranges, separated_counts, separated_lift,
    separated_tables, world_table,
)
from .rng import float_stream, mix64
from .scene import Scene
from .separated import line_moment

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
    than `count` rays, a stream twice as long is drawn.
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
        if len(draws) >= slots:
            break
        triples *= 2
    return _uniform(-10.0, 10.0, draws[0:slots:2]), _uniform(-1.0, 1.0, draws[1:slots:2])


def _uniform(lo: float, hi: float, draws: np.ndarray) -> np.ndarray:
    """`Xorshift64Star.uniform(lo, hi)` applied to `next_float` draws."""
    return lo + (hi - lo) * draws


def _checksum(ray_hits: np.ndarray) -> int:
    """XOR over rays of mix64(((i + 1) * stride) ^ hits_i), mod 2^64."""
    index = np.arange(1, 1 + ray_hits.shape[0], dtype=np.uint64)
    mixed = mix64((index * np.uint64(_CHECKSUM_STRIDE)) ^ ray_hits.astype(np.uint64))
    return int(np.bitwise_xor.reduce(mixed))


def _detect_rays(
    method: str, tables: tuple, origins: np.ndarray, dirs: np.ndarray, reps: int, rays: range
) -> tuple[np.ndarray, list[int], list[int]]:
    """Per-ray hit counts over `rays`, and each repetition's precompute and detect ns.

    `tables` lead the arguments of the method's kernel.  Raises
    AssertionError when a repetition's counts differ from the first one's.
    """
    o, d = origins[rays.start:rays.stop], dirs[rays.start:rays.stop]
    point = (o[:, 0], o[:, 1], o[:, 2], 1.0)
    direction = (d[:, 0], d[:, 1], d[:, 2], 0.0)
    ray_hits = None
    precompute_ns: list[int] = []
    detect_ns: list[int] = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        if method == "classical":
            lifted = classical_lift(point, direction)
            t1 = time.perf_counter_ns()
            counts = classical_counts(*tables, lifted)
        else:
            terms = line_moment(point, direction)
            weights = separated_lift(point, direction) if tables[2].shape[1] else None
            t1 = time.perf_counter_ns()
            counts = separated_counts(*tables, direction, weights, terms)
        t2 = time.perf_counter_ns()
        precompute_ns.append(t1 - t0)
        detect_ns.append(t2 - t1)
        if ray_hits is None:
            ray_hits = counts
        elif not np.array_equal(counts, ray_hits):
            raise AssertionError("nondeterministic detection results across repetitions")
    return ray_hits, precompute_ns, detect_ns


def _run_one_method(
    scene: Scene, method: str, origins: np.ndarray, dirs: np.ndarray, reps: int, workers: int
) -> BenchStats:
    """One method's stats, over the coefficient columns that method reads.

    Counts are joined in ray order; each repetition's times are summed over
    the worker ranges before the median.
    """
    rays = origins.shape[0]
    objs = scene.objects
    objects = len(objs)
    tables = (world_table(objs),) if method == "classical" else separated_tables(objs)
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
    methods = list(METHODS) if method == "both" else [method]
    return [_run_one_method(scene, m, origins, dirs, reps, workers) for m in methods]


def to_csv(stats: list[BenchStats]) -> str:
    lines = [CSV_HEADER]
    for s in stats:
        lines.append(",".join(format(getattr(s, name), spec) for name, spec in _COLUMNS))
    return "\n".join(lines) + "\n"
