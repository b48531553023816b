"""Detection-image rendering: one primary ray per pixel, binary PGM output.

A pixel is lit when some object is crossed at a positive line parameter.
Ray directions are left unnormalized as forward + u*right + v*up, so t = 1
is the image plane; `Camera.pixel_directions` gives them for a block of
rows at once, or for one pixel.
The shade of a hit at parameter t is

    value = max(1, round(255 / max(t, 1)))

which keeps every hit nonzero and darkens with distance.  Misses are 0.

Render works in camera-relative coordinates: `kernels.render_tables`
subtracts the camera origin from every object's centre, so every pixel's
ray starts at 0, and the classification of a pair depends on where the
scene lies relative to the camera, not on where it lies in the world.
Pixels are evaluated by `kernels.nearest_hits` in two stages.  Stage 1
keeps, per tile of pixels x objects, the pairs that may cross, and decides
no result: on the separated route every pair but those whose discriminant
lies below -T, a bound `kernels.miss_bound` derives per object from its
own coefficients, and on the classical route every pair it cannot rule
out against conservative bounding spheres, whose squared radii
`kernels.cull_radii` derives from the camera-relative placements of
`kernels.render_tables` (the unbounded kinds keep every pair).  Either
drops only pairs that stage 2 classifies as Miss.  Stage 2 computes the
roots of the kept pairs in one batch.  The kernels run the scalar
kernels' own pair formulas on arrays, less the terms that are exact zeros
for a ray from the camera: a and b from the 6 and 3 terms of
`coefficient_terms` that such a ray leaves, c from a44, and the separated
D from 6 of its 21 terms, each sum in the scalar order.  a, b and c come
from `coefficient_terms` itself on a call where a dropped term could
overflow into NaN and on a pair where one of them is exactly 0, whose
sign the dropped zeros decide, so every pair gets the scalar values bit
for bit.  Miss, Tangent and Two are decided by the one relative tangency
band of `classical.solve`, which `kernels.nearest_root` batches, on both
routes, so an image equals, byte for byte, a per-pixel loop over
`intersect_classical` or `intersect_separated` and `hit_parameters` over
the camera-relative scene: each object moved to centre c - o, each ray
(0, 0, 0, 1) + t (s, 0).
Pixels are computed independently, so output bytes are identical for any
worker count.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .kernels import METHODS, map_ranges, nearest_hits, render_tables
from .scene import Camera, Scene

__all__ = ["Image", "render_detection", "pgm_bytes"]


@dataclass(frozen=True)
class Image:
    width: int
    height: int
    pixels: bytes  # row-major, one byte per pixel

    def at(self, col: int, row: int) -> int:
        if not (0 <= col < self.width and 0 <= row < self.height):
            raise IndexError(f"pixel ({col}, {row}) outside the {self.width}x{self.height} image")
        return self.pixels[row * self.width + col]


def _pixel_values(nearest: np.ndarray) -> np.ndarray:
    """max(1, min(255, int(255 / max(t, 1) + 0.5))) per pixel; 0 where t is NaN (no hit)."""
    shade = np.clip(np.floor(255.0 / np.maximum(nearest, 1.0) + 0.5), 1.0, 255.0)
    return np.where(np.isnan(nearest), 0.0, shade).astype(np.uint8)


def _render_rows(cam: Camera, method: str, table: np.ndarray, placed: tuple, rows: range) -> bytes:
    x, y, z = cam.pixel_directions(np.arange(cam.width), np.arange(rows.start, rows.stop)[:, None])
    direction = (x.ravel(), y.ravel(), z.ravel())
    nearest = nearest_hits(table, direction, method, placed)
    return _pixel_values(nearest).tobytes()


def render_detection(scene: Scene, method: str = "separated", workers: int = 1) -> Image:
    """Trace one primary ray per pixel against every object."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    cam = scene.camera
    table, placed = render_tables(scene.objects, cam.origin.as_tuple())
    rows = map_ranges(partial(_render_rows, cam, method, table, placed), cam.height, workers)
    return Image(width=cam.width, height=cam.height, pixels=b"".join(rows))


def pgm_bytes(image: Image) -> bytes:
    """Binary PGM (P5, maxval 255)."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels
