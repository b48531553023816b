"""Detection-image rendering: one primary ray per pixel, binary PGM output.

A pixel is lit when some object is crossed at a positive line parameter.
Ray directions are left unnormalized as forward + u*right + v*up, so t = 1
is the image plane; `Camera.pixel_directions` gives them for a block of
rows at once, with the same body as the per-pixel `Camera.ray_direction`.
The shade of a hit at parameter t is

    value = max(1, round(255 / max(t, 1)))

which keeps every hit nonzero and darkens with distance.  Misses are 0.

Pixels are evaluated by `kernels.nearest_hits` in two stages.  Stage 1
tests each tile of (pixels x spheres and ellipsoids) against conservative
bounding spheres (`kernels.render_tables`, `kernels.cull_radii`) and
keeps only the pairs it cannot rule out; the unbounded kinds keep every
pair, or on the separated route every pair its discriminant does not
reject.  Stage 2 computes the roots of the kept pairs in one batch.  The kernels run
the scalar kernels' own pair formulas on arrays and the cull drops only pairs
they classify as Miss, so an image equals, byte for byte, a per-pixel loop
over `intersect_classical` or `intersect_separated` and `hit_parameters`.
Pixels are computed independently, so output bytes are identical for any
worker count.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import BinaryIO

import numpy as np

from .kernels import METHODS, map_ranges, nearest_hits, render_tables
from .scene import Camera, Scene

__all__ = ["Image", "render_detection", "write_pgm", "pgm_bytes"]


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


def _render_rows(
    cam: Camera, method: str, table: np.ndarray, spheres: np.ndarray, rows: range
) -> bytes:
    x, y, z = cam.pixel_directions(np.arange(cam.width), np.arange(rows.start, rows.stop)[:, None])
    direction = (x.ravel(), y.ravel(), z.ravel(), 0.0)
    point = (cam.origin.x, cam.origin.y, cam.origin.z, 1.0)
    nearest = nearest_hits(table, point, direction, method, spheres)
    return _pixel_values(nearest).tobytes()


def render_detection(scene: Scene, method: str = "separated", workers: int = 1) -> Image:
    """Trace one primary ray per pixel against every object."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    cam = scene.camera
    table, spheres = render_tables(scene.objects)
    rows = map_ranges(partial(_render_rows, cam, method, table, spheres), cam.height, workers)
    return Image(width=cam.width, height=cam.height, pixels=b"".join(rows))


def pgm_bytes(image: Image) -> bytes:
    """Binary PGM (P5, maxval 255)."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels


def write_pgm(image: Image, fp: BinaryIO) -> None:
    fp.write(pgm_bytes(image))
