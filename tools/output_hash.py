"""Print one SHA-256 digest over the program's outputs on generated scenes.

Two trees whose digests are equal write the same scene files, the same PGM
images on both routes and the same bench hits, detections and checksums,
bit for bit.  For each seed 1..8 and each kind mix of MIXES, in that order,
it hashes:

- `serialize_scene` of `generate_scene(seed, 20, mix)` with a 24x20 camera;
- `pgm_bytes` of that scene rendered on the classical, then the separated route;
- for each `BenchStats` of `run_benchmark(generate_scene(seed, 40, mix),
  rays=400, seed=seed)`, the text `method,hits,detections,checksum`.

It imports `quadrics` from the `src` directory beside this script, so it
runs the same from any working directory.  Run:

    python3 tools/output_hash.py
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quadrics.bench import run_benchmark  # noqa: E402
from quadrics.kernels import METHODS  # noqa: E402
from quadrics.render import pgm_bytes, render_detection  # noqa: E402
from quadrics.scene import generate_scene, serialize_scene  # noqa: E402

SEEDS = range(1, 9)
MIXES = [
    ("sphere",),
    ("sphere", "ellipsoid"),
    ("hyperboloid1", "hparaboloid"),
    ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid"),
]


def digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for mix in MIXES:
            scene = generate_scene(seed, 20, mix)
            scene = dataclasses.replace(
                scene, camera=dataclasses.replace(scene.camera, width=24, height=20)
            )
            h.update(serialize_scene(scene).encode())
            for method in METHODS:
                h.update(pgm_bytes(render_detection(scene, method)))
            for s in run_benchmark(generate_scene(seed, 40, mix), rays=400, seed=seed):
                h.update(f"{s.method},{s.hits},{s.detections},{s.checksum}".encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
