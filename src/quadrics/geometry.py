"""Vectors, homogeneous coordinates, and small fixed-size matrices.

Scalars are 64-bit floats throughout.  Constructors reject NaN/Inf so the
intersection kernels downstream can assume validated inputs; matrices are
stored and documented row-major.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Vec3",
    "HomogeneousPoint",
    "HomogeneousDirection",
    "Mat3",
    "Mat4",
    "cross",
    "cross_terms",
    "translation",
    "rotation",
    "compose",
    "transpose",
    "to_euclidean",
]


def _require_finite(what: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{what}: non-finite component {v!r}")


@dataclass(frozen=True, slots=True)
class Vec3:
    """3-component vector (point offset or direction)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        _require_finite("Vec3", self.x, self.y, self.z)

    def __add__(self, other: Vec3) -> Vec3:
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: Vec3) -> Vec3:
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> Vec3:
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, k: float) -> Vec3:
        return Vec3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def dot(self, other: Vec3) -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self) -> Vec3:
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        if n == math.inf:
            raise ValueError(f"cannot normalize: length overflows in {self!r}")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True, slots=True)
class HomogeneousPoint:
    """Projective point [x, y, z, w] with w != 0; Euclidean position is (x/w, y/w, z/w)."""

    x: float
    y: float
    z: float
    w: float = 1.0

    def __post_init__(self) -> None:
        _require_finite("HomogeneousPoint", self.x, self.y, self.z, self.w)
        if self.w == 0.0:
            raise ValueError("HomogeneousPoint: w must be nonzero (point at infinity)")

    @classmethod
    def from_euclidean(cls, p: Vec3) -> HomogeneousPoint:
        return cls(p.x, p.y, p.z, 1.0)

    def xyz(self) -> Vec3:
        """Raw (x, y, z) part, not divided by w."""
        return Vec3(self.x, self.y, self.z)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.z, self.w)


@dataclass(frozen=True, slots=True)
class HomogeneousDirection:
    """Projective direction [sx, sy, sz, sw]; sw == 0 for a Euclidean direction."""

    sx: float
    sy: float
    sz: float
    sw: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("HomogeneousDirection", self.sx, self.sy, self.sz, self.sw)
        if self.sx == 0.0 and self.sy == 0.0 and self.sz == 0.0 and self.sw == 0.0:
            raise ValueError("HomogeneousDirection: all components zero")

    @classmethod
    def from_euclidean(cls, d: Vec3) -> HomogeneousDirection:
        return cls(d.x, d.y, d.z, 0.0)

    def xyz(self) -> Vec3:
        return Vec3(self.sx, self.sy, self.sz)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.sx, self.sy, self.sz, self.sw)


@dataclass(frozen=True, slots=True)
class Mat3:
    """3x3 matrix, 9 entries row-major."""

    m: tuple[float, float, float, float, float, float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.m) != 9:
            raise ValueError("Mat3 needs exactly 9 entries")
        _require_finite("Mat3", *self.m)

    @staticmethod
    def identity() -> Mat3:
        return Mat3((1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))

    def at(self, i: int, j: int) -> float:
        return self.m[3 * i + j]

    def transposed(self) -> Mat3:
        m = self.m
        return Mat3((m[0], m[3], m[6], m[1], m[4], m[7], m[2], m[5], m[8]))


@dataclass(frozen=True, slots=True)
class Mat4:
    """4x4 matrix, 16 entries row-major."""

    m: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.m) != 16:
            raise ValueError("Mat4 needs exactly 16 entries")
        _require_finite("Mat4", *self.m)

    def at(self, i: int, j: int) -> float:
        return self.m[4 * i + j]


def cross_terms(u, v) -> tuple:
    """The right-handed cross product u x v of the first three components of u and v.

    u and v are 3- or 4-vectors whose components are floats or arrays that
    broadcast together, as in `separated.line_entries`, so one body serves
    a single pair and a batch; a fourth component is not read.
    """
    (u0, u1, u2), (v0, v1, v2) = u[:3], v[:3]
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0


def cross(u: Vec3, v: Vec3) -> Vec3:
    """Right-handed cross product u x v, by `cross_terms`."""
    return Vec3(*cross_terms(u.as_tuple(), v.as_tuple()))


def translation(c: Vec3) -> Mat4:
    """Transform taking the point [xi; 1] to [xi - c; 1]; directions (w=0) are unchanged."""
    return Mat4(
        (1.0, 0.0, 0.0, -c.x,
         0.0, 1.0, 0.0, -c.y,
         0.0, 0.0, 1.0, -c.z,
         0.0, 0.0, 0.0, 1.0)
    )


def rotation(r: Mat3) -> Mat4:
    """Embed a 3x3 rotation block into a 4x4 transform (w row/column untouched)."""
    m = r.m
    return Mat4(
        (m[0], m[1], m[2], 0.0,
         m[3], m[4], m[5], 0.0,
         m[6], m[7], m[8], 0.0,
         0.0, 0.0, 0.0, 1.0)
    )


def compose(a: Mat4, b: Mat4) -> Mat4:
    """Matrix product a . b (apply b first)."""
    am, bm = a.m, b.m
    out = []
    for i in range(4):
        for j in range(4):
            acc = 0.0
            for k in range(4):
                acc += am[4 * i + k] * bm[4 * k + j]
            out.append(acc)
    return Mat4(tuple(out))


def transpose(a: Mat4) -> Mat4:
    m = a.m
    return Mat4(tuple(m[4 * j + i] for i in range(4) for j in range(4)))


def to_euclidean(p: HomogeneousPoint) -> Vec3:
    """Euclidean position (x/w, y/w, z/w)."""
    if p.w == 0.0:
        raise ValueError("point at infinity")
    return Vec3(p.x / p.w, p.y / p.w, p.z / p.w)
