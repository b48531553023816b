"""Scene description: plain-text format, parsing, and seeded generation.

The format is line oriented (directive followed by numbers), so golden
files stay diff-able and any language can parse it:

    camera ox oy oz  lx ly lz  ux uy uz  vfov width height
    sphere cx cy cz r
    ellipsoid cx cy cz a b c
    hyperboloid1 cx cy cz a b c
    hparaboloid cx cy cz a b
    quadric a11 a22 a33 a44 a12 a13 a23 a14 a24 a34
    xform r11 r12 r13 r21 r22 r23 r31 r32 r33

`xform` is an optional continuation line giving the row-major object-to-world
rotation of the preceding object; `quadric` coefficients are world frame
unless an xform follows.  Blank lines and lines starting with '#' are
ignored.

The object directives are the keys of `quadric.CATALOG`, and this module
names no kind but `General` (raw coefficients, no centre).  A catalog kind
is written as its directive, the centre and `params()`; `parse_scene` takes
its arity from the kind's fields (3 + one per shape parameter) and builds it
through `CATALOG`; `generate_scene` draws one value per field.  Every
malformed line raises `SceneParseError` with its line number and the failed
check's own message.  That includes a camera whose view basis is degenerate
(`Camera.frame`) and objects whose world matrix could overflow:
`max|Q0| * (1 + |cx| + |cy| + |cz|)^2` must not exceed 2^1021, a bound taken
from the kind's parameters and the center alone, so no matrix is built
while parsing.  Render builds the matrices about the camera, at the float
centre c - o, so the same bound must hold there too; that check runs once
the whole text is read, so the camera line may come anywhere.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .geometry import Mat3, Vec3, compose, cross, cross_terms, rotation, translation
from .quadric import CATALOG, COEFFICIENT_ORDER, General, QuadricKind, QuadricMatrix, transform
from .rng import Xorshift64Star

__all__ = [
    "Camera",
    "SceneObject",
    "Scene",
    "SceneParseError",
    "parse_scene",
    "serialize_scene",
    "generate_scene",
    "ROTATION_TOL",
    "DEFAULT_KIND_MIX",
]

ROTATION_TOL = 1e-8
_PLACEMENT_MAX = 2.0 ** 1021
DEFAULT_KIND_MIX = ("sphere", "ellipsoid")

_GENERATED_CAMERA_TAIL = (60.0, 256, 256)  # vfov, width, height
_GENERATED_CAMERA_ORIGIN = Vec3(0.0, 0.0, 30.0)


class SceneParseError(ValueError):
    """Malformed scene text; carries the 1-based source line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Camera:
    origin: Vec3
    look_at: Vec3
    up: Vec3
    vfov_deg: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("camera: width and height must be >= 1")
        if not (0.0 < self.vfov_deg < 180.0):
            raise ValueError("camera: vertical fov must be in (0, 180) degrees")
        if self.origin == self.look_at:
            raise ValueError("camera: origin equals look-at point")

    def frame(self) -> tuple[Vec3, Vec3, Vec3, float, float]:
        """The view basis and the image plane's half extents at t = 1.

        Returns (forward, right, up, half_w, half_h), the three vectors
        orthonormal; ValueError when the view direction or the up vector is
        degenerate.  Not derived in `__post_init__`: `parse_scene` checks it
        once per camera line, and generated cameras are valid by construction.
        """
        forward = (self.look_at - self.origin).normalized()
        side = cross(forward, self.up)
        if side.norm_sq() == 0.0:
            raise ValueError("camera: up vector is parallel to the view direction")
        right = side.normalized()
        up = cross(right, forward)
        half_h = math.tan(math.radians(self.vfov_deg) * 0.5)
        return forward, right, up, half_h * (self.width / self.height), half_h

    def pixel_directions(self, col, row) -> tuple:
        """x, y, z of (forward + u*right) + v*up through the centre of pixel (col, row).

        col and row are ints or integer arrays that broadcast together, so
        one body gives one pixel's direction and a block of rows' at once.
        """
        f, r, up, half_w, half_h = self.frame()
        u = ((col + 0.5) / self.width * 2.0 - 1.0) * half_w
        v = (1.0 - (row + 0.5) / self.height * 2.0) * half_h
        return f.x + u * r.x + v * up.x, f.y + u * r.y + v * up.y, f.z + u * r.z + v * up.z


@dataclass(frozen=True)
class SceneObject:
    """A quadric placed in the world: catalog kind or raw coefficients.

    For catalog kinds the world matrix is T^T Q0 T with T mapping world
    coordinates into the fundamental frame: x0 = R^T (x - center).
    """

    kind: QuadricKind
    center: Vec3 = field(default_factory=lambda: Vec3(0.0, 0.0, 0.0))
    rot: Mat3 | None = None

    def world_matrix(self) -> QuadricMatrix:
        t = translation(self.center)
        if self.rot is not None:
            t = compose(rotation(self.rot.transposed()), t)
        return transform(self.kind.matrix(), t)


@dataclass(frozen=True)
class Scene:
    camera: Camera
    objects: tuple[SceneObject, ...]

    def __post_init__(self) -> None:
        if not self.objects:
            raise ValueError("scene: needs at least one object")


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _floats(parts: list[str]) -> list[float]:
    # float() also reads "3_0" and non-ASCII digits; a scene number is ASCII, with no "_".
    out = []
    for p in parts:
        try:
            if not p.isascii() or "_" in p:
                raise ValueError
            out.append(float(p))
        except ValueError:
            raise ValueError(f"malformed number {p!r}") from None
    return out


def _check_rotation(m: Mat3) -> None:
    # R^T R must be the identity within ROTATION_TOL, det within it of +1.
    rt = m.transposed()
    for i in range(3):
        for j in range(3):
            got = sum(rt.at(i, k) * m.at(k, j) for k in range(3))
            want = 1.0 if i == j else 0.0
            if abs(got - want) > ROTATION_TOL:
                raise ValueError("xform rotation is not orthonormal")
    # det = row0 . (row1 x row2).
    a = m.m
    c0, c1, c2 = cross_terms(a[3:6], a[6:9])
    det = a[0] * c0 + a[1] * c1 + a[2] * c2
    if abs(det - 1.0) > ROTATION_TOL:
        raise ValueError("xform rotation determinant is not +1")


def _check_placement(max_abs: float, x: float, y: float, z: float, terms: str) -> None:
    # Every column of |T| sums to at most sqrt(3) * (1 + |x| + |y| + |z|) for
    # a centre (x, y, z), whatever the xform, so under this bound each entry
    # of Q0 T, T^T Q0 T and the averaged coefficients stays below 2^1024: the
    # world matrix is finite.  `max_abs` is max|Q0|.
    span = 1.0 + abs(x) + abs(y) + abs(z)
    bound = max_abs * span * span
    if not bound <= _PLACEMENT_MAX:
        raise ValueError(f"placement overflows: max|Q0| * (1 + {terms})^2 = {bound} exceeds 2^1021")


def parse_scene(text: str) -> Scene:
    """Parse and validate; any defect raises SceneParseError with a line number.

    Each line's checks, and the constructors it calls, raise ValueError; the
    one handler below turns every one of them into a SceneParseError.
    """
    camera: Camera | None = None
    objects: list[SceneObject] = []
    placed: list[tuple] = []  # each object's line, max|Q0| and centre
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        directive, *args = stripped.split()
        try:
            if directive == "camera":
                if camera is not None:
                    raise ValueError("duplicate camera")
                if len(args) != 12:
                    raise ValueError(f"camera needs 12 numbers, got {len(args)}")
                vals = _floats(args[:10])
                for dim in args[10:]:
                    if not _INTEGER.fullmatch(dim):
                        raise ValueError(f"malformed integer {dim!r}")
                camera = Camera(
                    origin=Vec3(*vals[0:3]),
                    look_at=Vec3(*vals[3:6]),
                    up=Vec3(*vals[6:9]),
                    vfov_deg=vals[9],
                    width=int(args[10]),
                    height=int(args[11]),
                )
                camera.frame()
            elif directive == "xform":
                if not objects:
                    raise ValueError("xform with no preceding object")
                if objects[-1].rot is not None:
                    raise ValueError("object already has an xform")
                if len(args) != 9:
                    raise ValueError(f"xform needs 9 numbers, got {len(args)}")
                rot = Mat3(tuple(_floats(args)))
                _check_rotation(rot)
                prev = objects[-1]
                objects[-1] = SceneObject(kind=prev.kind, center=prev.center, rot=rot)
            elif directive in CATALOG:
                kind = CATALOG[directive]
                arity = len(COEFFICIENT_ORDER) if kind is General else 3 + len(kind.__match_args__)
                if len(args) != arity:
                    raise ValueError(f"{directive} needs {arity} numbers, got {len(args)}")
                values = _floats(args)
                if kind is General:
                    obj = SceneObject(kind=General(QuadricMatrix(*values)))
                else:
                    obj = SceneObject(kind=kind(*values[3:]), center=Vec3(*values[:3]))
                max_abs, center = obj.kind.max_abs_coefficient(), obj.center.as_tuple()
                _check_placement(max_abs, *center, "|cx| + |cy| + |cz|")
                objects.append(obj)
                placed.append((line_no, max_abs, center))
            else:
                raise ValueError(f"unknown directive {directive!r}")
        except ValueError as exc:
            raise SceneParseError(line_no, str(exc)) from None

    if camera is None:
        raise SceneParseError(max(1, text.count("\n") + 1), "missing camera")
    if not objects:
        raise SceneParseError(max(1, text.count("\n") + 1), "scene has no objects")
    o = camera.origin
    for line_no, max_abs, (x, y, z) in placed:
        try:
            _check_placement(max_abs, x - o.x, y - o.y, z - o.z, "|cx-ox| + |cy-oy| + |cz-oz|")
        except ValueError as exc:
            raise SceneParseError(line_no, str(exc)) from None
    return Scene(camera=camera, objects=tuple(objects))


def _fmt(values: tuple[float, ...] | list[float]) -> str:
    return " ".join(map(repr, map(float, values)))


def serialize_scene(scene: Scene) -> str:
    """Canonical text form; floats use shortest round-trip representation.

    A `quadric` line has no centre, and folding one into the coefficients is
    wrong once an `xform` follows, so a `General` object off the origin raises.
    """
    cam = scene.camera
    lines = [
        "camera "
        + _fmt(cam.origin.as_tuple() + cam.look_at.as_tuple() + cam.up.as_tuple() + (cam.vfov_deg,))
        + f" {cam.width} {cam.height}"
    ]
    for i, obj in enumerate(scene.objects):
        k = obj.kind
        if isinstance(k, General):
            if obj.center != Vec3(0.0, 0.0, 0.0):
                raise ValueError(f"object {i}: a quadric has no centre in the scene text")
            lines.append("quadric " + _fmt(k.q.coefficients()))
        else:
            lines.append(f"{k.directive} " + _fmt(obj.center.as_tuple() + k.params()))
        if obj.rot is not None:
            lines.append("xform " + _fmt(obj.rot.m))
    return "\n".join(lines) + "\n"


def generate_scene(
    seed: int, n_objects: int, kind_mix: tuple[str, ...] = DEFAULT_KIND_MIX
) -> Scene:
    """Deterministic random scene from the documented xorshift64* stream.

    Draw order per object: one kind selector (only when the mix has more
    than one entry), then center x, y, z uniform in [-10, 10], then one
    draw uniform in [0.1, 2] per field of the kind (its shape parameters, in
    directive order).  The camera is fixed at (0, 0, 30) looking at the
    origin, up +y, vfov 60, 256x256.
    """
    if n_objects < 1:
        raise ValueError("generate_scene: need at least one object")
    for kind in kind_mix:
        if CATALOG.get(kind, General) is General:
            raise ValueError(f"generate_scene: unknown kind {kind!r} in mix")
    if not kind_mix:
        raise ValueError("generate_scene: empty kind mix")

    rng = Xorshift64Star(seed)
    objects: list[SceneObject] = []
    for _ in range(n_objects):
        name = kind_mix[rng.int_below(len(kind_mix))] if len(kind_mix) > 1 else kind_mix[0]
        center = Vec3(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        kind = CATALOG[name]
        shape = kind(*[rng.uniform(0.1, 2.0) for _ in kind.__match_args__])
        objects.append(SceneObject(kind=shape, center=center))

    vfov, width, height = _GENERATED_CAMERA_TAIL
    camera = Camera(
        origin=_GENERATED_CAMERA_ORIGIN,
        look_at=Vec3(0.0, 0.0, 0.0),
        up=Vec3(0.0, 1.0, 0.0),
        vfov_deg=vfov,
        width=width,
        height=height,
    )
    return Scene(camera=camera, objects=tuple(objects))
