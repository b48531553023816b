"""Workload table and scene set-up shared by the end-to-end and traced runs.

Importing this module puts the checkout's `src/` first on `sys.path`, so the
benchmark always measures the sources next to it, and refuses a `quadrics`
package found anywhere else.
"""
from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import quadrics  # noqa: E402
from quadrics.scene import Scene, generate_scene, parse_scene, serialize_scene  # noqa: E402

if SRC not in Path(quadrics.__file__).resolve().parents:
    raise ImportError(f"quadrics imported from {quadrics.__file__}, not from {SRC}")

DEFAULT_SEED = 1
METHODS = ("classical", "separated")
# Run seeds are this many scene seeds apart, so distinct run seeds give
# disjoint scene sets.  No workload uses more scenes than this.
SCENE_STRIDE = 16
ALL_KINDS = ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid")


@dataclass(frozen=True)
class Workload:
    """One set of inputs.

    `call` names what a timed call runs: `render_detection` on a `px` x `px`
    image, or `run_benchmark` with `rays` rays.  The traced run measures both
    paths on the same objects, so it uses `px` and `rays` on every workload.
    Every call runs with `workers=1`.  Why each workload exists is recorded
    in BENCHMARK.json.

    A run spreads its calls over `scenes` scenes, because the per-pair cost
    depends on the scene (how many pairs are rejected early).  Workloads
    whose cost varies more between scenes use more, smaller scenes.
    """

    name: str
    call: str  # "render" or "detect"
    objects: int
    mix: tuple[str, ...]
    px: int
    rays: int
    scenes: int
    smoke: tuple[int, int, int]  # objects, px, rays

    def pairs(self) -> int:
        """Ray-object pairs one timed call offers."""
        rays = self.px * self.px if self.call == "render" else self.rays
        return rays * self.objects

    def at_smoke_size(self) -> Workload:
        objects, px, rays = self.smoke
        return dataclasses.replace(self, objects=objects, px=px, rays=rays, scenes=2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("render-bounded", "render", 48, ("sphere", "ellipsoid"), 16, 16 * 16, 16, (8, 8, 64)),
        Workload("render-unbounded", "render", 24, ALL_KINDS, 24, 24 * 24, 8, (6, 8, 64)),
        Workload("detect-wide", "detect", 1000, ALL_KINDS, 12, 500, 8, (40, 4, 200)),
        Workload("detect-narrow", "detect", 10, ("sphere",), 32, 3000, 8, (3, 6, 300)),
    )
}


def scene_seeds(wl: Workload, seed: int) -> list[int]:
    """Seeds of the run's scenes; distinct run seeds give disjoint scene sets."""
    return [seed * SCENE_STRIDE + j for j in range(wl.scenes)]


def make_scene(wl: Workload, seed: int) -> Scene:
    """The workload's scene: generated, with a `px` x `px` camera of the same pose."""
    scene = generate_scene(seed, wl.objects, wl.mix)
    camera = dataclasses.replace(scene.camera, width=wl.px, height=wl.px)
    return dataclasses.replace(scene, camera=camera)


def round_trip(scene: Scene) -> Scene:
    """Scene text and back, as the command line reads a scene file."""
    return parse_scene(serialize_scene(scene))
