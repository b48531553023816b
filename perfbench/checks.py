"""Output checks behind `failed_ops_frac`.

Detection is checked against a reference that shares no code with either
route: the ray stream is regenerated here from the documented xorshift64*
recipe, each object is tested in its own frame with its kind's closed-form
implicit equation, and the checksum is recomputed from the documented
splitmix64 mix.  Rendered images are checked for byte identity across the
two routes.  At the default seed and full size both are also compared with
the values pinned in `pinned.json`, one entry per scene of the run.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# workloads goes first: importing it puts this checkout's src/ on sys.path.
from workloads import DEFAULT_SEED, WORKLOADS, Workload

from quadrics.bench import BenchStats
from quadrics.classical import TANGENT_EPS
from quadrics.quadric import Ellipsoid, HyperbolicParaboloid, OneSheetHyperboloid, Sphere
from quadrics.render import Image, pgm_bytes
from quadrics.scene import Scene

PINNED_PATH = Path(__file__).with_name("pinned.json")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # ray-stream salt, zero-seed replacement and checksum stride
_XORSHIFT_MULTIPLIER = 2685821657736338717
_PAIRS_PER_CHUNK = 1 << 16


def pinned_values(wl: Workload, seed: int) -> list[dict | None]:
    """Pinned outputs for each of the run's scenes; None off the default seed or size."""
    if seed != DEFAULT_SEED or wl != WORKLOADS[wl.name]:
        return [None] * wl.scenes
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))[wl.name]


def reference_rays(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The benchmark's documented ray stream: xorshift64* seeded with seed XOR salt."""
    state = (seed ^ _GOLDEN) & _MASK64 or _GOLDEN

    def uniform(lo: float, hi: float) -> float:
        nonlocal state
        state ^= state >> 12
        state ^= (state << 25) & _MASK64
        state ^= state >> 27
        out = (state * _XORSHIFT_MULTIPLIER) & _MASK64
        return lo + (hi - lo) * ((out >> 11) * 2.0 ** -53)

    origins = np.empty((count, 3))
    dirs = np.empty((count, 3))
    for i in range(count):
        origins[i] = (uniform(-10.0, 10.0), uniform(-10.0, 10.0), uniform(-10.0, 10.0))
        while True:
            d = (uniform(-1.0, 1.0), uniform(-1.0, 1.0), uniform(-1.0, 1.0))
            if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] >= 1e-12:
                break
        dirs[i] = d
    return origins, dirs


def _object_frame_terms(scene: Scene) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per object: center, diagonal weights k, constant k0 and z-linear weight.

    The implicit equation in the object frame is
    k.x^2 + k.y^2 + k.z^2 + lin*z + k0 = 0.
    """
    n = len(scene.objects)
    centers, k, k0, lin = np.empty((n, 3)), np.empty((n, 3)), np.empty(n), np.zeros(n)
    for i, obj in enumerate(scene.objects):
        if obj.rot is not None:
            raise ValueError("the reference handles unrotated objects only")
        centers[i] = obj.center.as_tuple()
        kind = obj.kind
        if isinstance(kind, Sphere):
            k[i], k0[i] = (1.0, 1.0, 1.0), -kind.r * kind.r
        elif isinstance(kind, Ellipsoid):
            k[i], k0[i] = (kind.a ** -2, kind.b ** -2, kind.c ** -2), -1.0
        elif isinstance(kind, OneSheetHyperboloid):
            k[i], k0[i] = (kind.a ** -2, kind.b ** -2, -kind.c ** -2), -1.0
        elif isinstance(kind, HyperbolicParaboloid):
            k[i], k0[i], lin[i] = (kind.a ** -2, -kind.b ** -2, 0.0), 0.0, -2.0
        else:
            raise ValueError(f"the reference has no closed form for {kind!r}")
    return centers, k, k0, lin


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays (multiplication wraps mod 2^64)."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def checksum(ray_hits: np.ndarray) -> int:
    """XOR over rays of mix64(((index + 1) * stride) XOR hits), as documented."""
    index = np.arange(1, ray_hits.shape[0] + 1, dtype=np.uint64)
    mixed = _mix64((index * np.uint64(_GOLDEN)) ^ ray_hits.astype(np.uint64))
    return int(np.bitwise_xor.reduce(mixed))


@dataclass(frozen=True)
class DetectReference:
    pairs: int
    hits: int
    checksum: int
    band_pairs: int  # pairs whose discriminant lies inside the tangency band


def detect_reference(scene: Scene, seed: int, rays: int) -> DetectReference:
    """Hit counts from closed-form equations, with each ray translated by -center."""
    origins, dirs = reference_rays(seed, rays)
    centers, k, k0, lin = _object_frame_terms(scene)
    ray_hits = np.empty(rays, dtype=np.int64)
    band = 0
    step = max(1, _PAIRS_PER_CHUNK // len(scene.objects))
    for lo in range(0, rays, step):
        o = origins[lo:lo + step, None, :] - centers[None, :, :]
        s = dirs[lo:lo + step, None, :]
        a = (k * s * s).sum(axis=2)
        b = (k * o * s).sum(axis=2) + 0.5 * lin * s[:, :, 2]
        c = (k * o * o).sum(axis=2) + k0 + lin * o[:, :, 2]
        d = b * b - a * c
        ray_hits[lo:lo + step] = np.count_nonzero(d >= 0.0, axis=1)
        band += int(np.count_nonzero(np.abs(d) <= TANGENT_EPS * np.maximum(b * b, np.abs(a * c))))
    return DetectReference(
        pairs=rays * len(scene.objects),
        hits=int(ray_hits.sum()),
        checksum=checksum(ray_hits),
        band_pairs=band,
    )


def pin_error(observed: dict, pinned: dict | None) -> str | None:
    if pinned is None or observed == pinned:
        return None
    return f"output {observed} differs from pinned {pinned}"


def check_detect(stats: list[BenchStats], method: str, ref: DetectReference) -> str | None:
    """One run_benchmark call's output against the reference."""
    if [s.method for s in stats] != [method]:
        return f"expected one {method} result, got {[s.method for s in stats]}"
    got = stats[0]
    if (got.detections, got.hits, got.checksum) != (ref.pairs, ref.hits, ref.checksum):
        return (
            f"{method}: detections/hits/checksum {got.detections}/{got.hits}/{got.checksum}, "
            f"reference {ref.pairs}/{ref.hits}/{ref.checksum} "
            f"({ref.band_pairs} reference pairs inside the tangency band)"
        )
    return None


def image_digest(image: Image) -> str:
    return hashlib.sha256(pgm_bytes(image)).hexdigest()


class RenderCheck:
    """Every image must equal the first one byte for byte.

    Calls alternate between the routes, so this checks classical against
    separated.  The first image is also compared with the pinned digest.
    """

    def __init__(self, px: int, pinned: dict | None) -> None:
        self.px = px
        self.pinned = pinned
        self.expected: bytes | None = None
        self.first_error: str | None = None

    def __call__(self, image: Image) -> str | None:
        if (image.width, image.height) != (self.px, self.px):
            return f"image is {image.width}x{image.height}, expected {self.px}x{self.px}"
        if self.expected is None:
            self.expected = image.pixels
            self.first_error = pin_error({"sha256": image_digest(image)}, self.pinned)
        if image.pixels != self.expected:
            return "image differs from the first image of the run"
        return self.first_error
