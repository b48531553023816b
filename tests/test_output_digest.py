"""A digest over outputs on scenes `generate_scene` never makes.

`tools/output_hash.py` hashes generated scenes only: no `xform`, no raw
`quadric` line and a camera on the z axis at (0, 0, 30).  So the rotation
branch of the world table, the parser's rotation check and a camera frame
whose cross products round are outside its digest.
This test hashes three scenes that carry them:

- generated spheres and ellipsoids, each under one of four fixed rotations
  (none, a signed axis permutation, the 3-4-5 rotation about z and the
  rational rotation (1, -4, 8; 8, 4, 1; -4, 7, 4) / 9), seen by an oblique
  camera;
- raw quadrics, bounded and unbounded, one of them under an `xform`, among
  a few catalog objects;
- the first scene with its camera and every centre moved by an offset of
  about 10^6, each coordinate a power of two times a small integer.

Per scene it hashes the `serialize_scene` text, parses that text back, and
hashes the parsed scene's PGMs on both routes and its `run_benchmark` hits,
detections and checksums.  Like `OUTPUT_DIGEST` in test_tools.py, the pin
changes only with a change that alters output bits on purpose, which names
the changed outputs in CHANGES.md.
"""
import dataclasses
import hashlib

from quadrics.bench import run_benchmark
from quadrics.geometry import Mat3, Vec3
from quadrics.kernels import METHODS
from quadrics.quadric import General, QuadricMatrix, Sphere
from quadrics.render import pgm_bytes, render_detection
from quadrics.scene import Camera, Scene, SceneObject, generate_scene, parse_scene, serialize_scene

ROTATIONS = (
    None,
    Mat3((0.0, -1.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0)),
    Mat3((0.6, -0.8, 0.0, 0.8, 0.6, 0.0, 0.0, 0.0, 1.0)),
    Mat3(tuple(v / 9.0 for v in (1.0, -4.0, 8.0, 8.0, 4.0, 1.0, -4.0, 7.0, 4.0))),
)
OFFSET = Vec3(2.0 ** 20, -3.0 * 2.0 ** 18, 5.0 * 2.0 ** 17)

RAW = (
    # (x - 1)^2 + (y - 2)^2 + (z + 1)^2 = 4, written out.
    QuadricMatrix(1.0, 1.0, 1.0, 2.0, 0.0, 0.0, 0.0, -1.0, -2.0, 1.0),
    # An ellipsoid about the origin with cross terms.
    QuadricMatrix(0.5, 1.0, 0.75, -9.0, 0.25, -0.125, 0.1, 0.0, 0.0, 0.0),
    # A cylinder about the y axis, through x = 3.
    QuadricMatrix(1.0, 0.0, 1.0, 8.0, 0.0, 0.0, 0.0, -3.0, 0.0, 0.0),
    # A cone about the x axis with its apex at (-5, 0, 0).
    QuadricMatrix(-0.25, 1.0, 1.0, -6.25, 0.0, 0.0, 0.0, -1.25, 0.0, 0.0),
)


def _oblique(camera: Camera) -> Camera:
    return dataclasses.replace(
        camera, origin=Vec3(12.0, 8.0, 16.0), look_at=Vec3(1.0, -2.0, 0.5),
        up=Vec3(0.1, 1.0, 0.2), width=24, height=20,
    )


def _scenes() -> list[Scene]:
    rotated = generate_scene(5, 40, ("sphere", "ellipsoid"))
    rotated = Scene(
        camera=_oblique(rotated.camera),
        objects=tuple(
            dataclasses.replace(o, rot=ROTATIONS[i % len(ROTATIONS)])
            for i, o in enumerate(rotated.objects)
        ),
    )
    raw = generate_scene(6, 4, ("sphere", "ellipsoid"))
    raw = Scene(
        camera=dataclasses.replace(raw.camera, width=24, height=20),
        objects=raw.objects
        + tuple(SceneObject(kind=General(q)) for q in RAW)
        + (SceneObject(kind=General(RAW[1]), rot=ROTATIONS[3]),
           SceneObject(kind=Sphere(1.5), center=Vec3(-2.0, 3.0, 1.0), rot=ROTATIONS[2])),
    )
    cam = rotated.camera
    moved = Scene(
        camera=dataclasses.replace(cam, origin=cam.origin + OFFSET, look_at=cam.look_at + OFFSET),
        objects=tuple(dataclasses.replace(o, center=o.center + OFFSET) for o in rotated.objects),
    )
    return [rotated, raw, moved]


def digest() -> str:
    h = hashlib.sha256()
    for scene in _scenes():
        text = serialize_scene(scene)
        h.update(text.encode())
        parsed = parse_scene(text)
        for method in METHODS:
            h.update(pgm_bytes(render_detection(parsed, method)))
        for s in run_benchmark(parsed, rays=300, seed=7):
            h.update(f"{s.method},{s.hits},{s.detections},{s.checksum}".encode())
    return h.hexdigest()


PLACED_DIGEST = "a3a26c52f49a25993110b2a1e70d7655a74fee86262fe22428b58317ed39778b"


def test_rotated_raw_and_moved_scenes_keep_their_output_digest():
    assert digest() == PLACED_DIGEST
