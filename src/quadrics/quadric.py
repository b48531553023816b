"""Symmetric 4x4 quadric-surface matrices and the catalog of named surfaces.

A quadric surface is the zero set of x^T Q x for a symmetric 4x4 matrix Q.
Only the 10 independent coefficients are stored, so every materialized
matrix is symmetric by construction.  `transform` places a surface in the
world frame as Q = T^T Q0 T.

`CATALOG` maps each scene directive to its kind: one class per surface
(`Sphere`, `Ellipsoid`, ...), in fundamental (centered, axis-aligned)
position, plus `General` for raw coefficients; `CATALOG` is built from the
members of the `QuadricKind` union, so a kind is listed once.  A surface kind
is one declaration on the private base `_Shape`: its `directive`, its shape
parameters as fields in directive order and `coefficients()`, its matrix's
10 coefficients in `COEFFICIENT_ORDER`.  The base derives the rest: the range
check of every parameter in `__post_init__` (the message names the kind by
its directive and each parameter by the class's `noun`), `params()` (the
field values, which the scene text and the seeded generator read),
`matrix()` (a validated `QuadricMatrix`) and `max_abs_coefficient()` (the
largest |coefficient|, for the scene parser's per-object placement bound).
A kind overrides `__post_init__` only for a range of its own.  The range
check runs once, at construction, so a malformed scene fails at parse time
and not in the kernels; the batched world-matrix build reads
`coefficients()`, since the parameter range makes the validation redundant.
The lower-case factories (`sphere`, `ellipsoid`, ...) are entry points over
the classes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Sequence, Union, get_args

from .geometry import HomogeneousPoint, Mat4, compose, transpose

__all__ = [
    "QuadricMatrix",
    "COEFFICIENT_ORDER",
    "COEFFICIENT_ENTRIES",
    "sphere",
    "ellipsoid",
    "one_sheet_hyperboloid",
    "hyperbolic_paraboloid",
    "evaluate",
    "quadratic_form",
    "bilinear_form",
    "transform",
    "Sphere",
    "Ellipsoid",
    "OneSheetHyperboloid",
    "HyperbolicParaboloid",
    "General",
    "QuadricKind",
    "CATALOG",
]

# Serialization order for the 10 coefficients (used by the scene format).
COEFFICIENT_ORDER = ("a11", "a22", "a33", "a44", "a12", "a13", "a23", "a14", "a24", "a34")
# Q's symmetric 4x4 layout, read off the names: coefficient aij sits at
# entries (i - 1, j - 1) and (j - 1, i - 1).  The only copy of the layout.
COEFFICIENT_ENTRIES = tuple((int(name[1]) - 1, int(name[2]) - 1) for name in COEFFICIENT_ORDER)


def _max_abs_coefficient(q) -> float:
    """The largest |coefficient| of `q.coefficients()`; every kind's `max_abs_coefficient`."""
    return max(map(abs, q.coefficients()))


@dataclass(frozen=True, slots=True)
class QuadricMatrix:
    """The 10 independent coefficients of a symmetric 4x4 matrix.

    a11..a44 are the diagonal (a44 carries squared-length units, e.g. -r^2),
    a12/a13/a23 the quadratic cross terms, a14/a24/a34 the linear terms.
    """

    a11: float
    a22: float
    a33: float
    a44: float
    a12: float = 0.0
    a13: float = 0.0
    a23: float = 0.0
    a14: float = 0.0
    a24: float = 0.0
    a34: float = 0.0

    def __post_init__(self) -> None:
        cs = self.coefficients()
        for c in cs:
            if not math.isfinite(c):
                raise ValueError(f"QuadricMatrix: non-finite coefficient {c!r}")
        if all(c == 0.0 for c in cs):
            raise ValueError("QuadricMatrix: all coefficients zero")

    def coefficients(self) -> tuple[float, ...]:
        """Coefficients in the documented serialization order."""
        return (self.a11, self.a22, self.a33, self.a44,
                self.a12, self.a13, self.a23,
                self.a14, self.a24, self.a34)

    def __iter__(self) -> Iterator[float]:
        """The coefficients, so `a11, ..., a34 = q` unpacks them."""
        return iter(self.coefficients())

    max_abs_coefficient = _max_abs_coefficient

    def to_mat4(self) -> Mat4:
        m = [0.0] * 16
        for c, (i, j) in zip(self.coefficients(), COEFFICIENT_ENTRIES):
            m[4 * i + j] = m[4 * j + i] = c
        return Mat4(tuple(m))


def quadratic_form(q: Iterable, v: Sequence) -> float:
    """v^T Q v through the 10-coefficient expansion with factor-2 cross terms.

    Q is anything that unpacks into the 10 coefficients in
    `COEFFICIENT_ORDER`: a `QuadricMatrix`, or a (10, objects) table whose
    rows broadcast against array components of v.  The same holds for
    `bilinear_form`.
    """
    a11, a22, a33, a44, a12, a13, a23, a14, a24, a34 = q
    x, y, z, w = v
    return (
        a11 * x * x + a22 * y * y + a33 * z * z + a44 * w * w
        + 2.0 * (a12 * x * y + a13 * x * z + a23 * y * z
                 + a14 * x * w + a24 * y * w + a34 * z * w)
    )


def bilinear_form(q: Iterable, u: Sequence, v: Sequence) -> float:
    """u^T Q v (symmetric in u, v)."""
    a11, a22, a33, a44, a12, a13, a23, a14, a24, a34 = q
    ux, uy, uz, uw = u
    vx, vy, vz, vw = v
    return (
        a11 * ux * vx + a22 * uy * vy + a33 * uz * vz + a44 * uw * vw
        + a12 * (ux * vy + uy * vx)
        + a13 * (ux * vz + uz * vx)
        + a23 * (uy * vz + uz * vy)
        + a14 * (ux * vw + uw * vx)
        + a24 * (uy * vw + uw * vy)
        + a34 * (uz * vw + uw * vz)
    )


def evaluate(q: QuadricMatrix, x: HomogeneousPoint) -> float:
    """x^T Q x; zero (within tolerance) exactly when x lies on the surface."""
    return quadratic_form(q, x.as_tuple())


def transform(q0: QuadricMatrix, t: Mat4) -> QuadricMatrix:
    """T^T Q0 T for a rigid transform T, re-symmetrized into coefficient form.

    The floating-point product can be asymmetric in the last ulp; averaging
    the (i, j)/(j, i) entries of each off-diagonal coefficient absorbs that
    so downstream algebra can keep relying on exact symmetry.
    """
    p = compose(transpose(t), compose(q0.to_mat4(), t))
    return QuadricMatrix(*(
        p.at(i, j) if i == j else 0.5 * (p.at(i, j) + p.at(j, i)) for i, j in COEFFICIENT_ENTRIES
    ))


# Catalog shape parameters must lie in [2^-511, 2^511]: then r^2 and 1/a^2
# are normal floats, so no coefficient of a catalog matrix is zero or non-finite.
_PARAM_MIN = 2.0 ** -511
_PARAM_MAX = 2.0 ** 511


def _shape_error(kind: str, noun: str, params: tuple[float, ...]) -> ValueError:
    shown = repr(params[0]) if len(params) == 1 else f"in {params!r}"
    if all(p > 0.0 for p in params):
        return ValueError(f"{kind}: {noun} out of range {shown} (must lie in [2^-511, 2^511])")
    return ValueError(f"{kind}: non-positive {noun} {shown}")


@dataclass(frozen=True, slots=True)
class _Shape:
    """A catalog kind in fundamental position, centred at the origin.

    A kind declares its `directive`, its shape parameters as fields (in
    directive order) and `coefficients()`; the base derives everything else
    from those.  Every parameter must lie in [2^-511, 2^511]; a kind with a
    range of its own overrides `__post_init__`.  `noun` names a parameter in
    the range message.
    """

    directive: ClassVar[str]
    noun: ClassVar[str] = "semi-axis"

    def __post_init__(self) -> None:
        for name in self.__match_args__:
            if not _PARAM_MIN <= getattr(self, name) <= _PARAM_MAX:
                raise _shape_error(self.directive, self.noun, self.params())

    def params(self) -> tuple[float, ...]:
        """The shape parameters in directive order."""
        return tuple([getattr(self, name) for name in self.__match_args__])

    max_abs_coefficient = _max_abs_coefficient

    def matrix(self) -> QuadricMatrix:
        return QuadricMatrix(*self.coefficients())


@dataclass(frozen=True, slots=True)
class Sphere(_Shape):
    """Sphere of radius r in fundamental position: diag(1, 1, 1, -r^2)."""

    directive: ClassVar[str] = "sphere"
    noun: ClassVar[str] = "radius"
    r: float

    def coefficients(self) -> tuple[float, ...]:
        return (1.0, 1.0, 1.0, -(self.r * self.r), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class Ellipsoid(_Shape):
    """Axis-aligned ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 - 1 = 0."""

    directive: ClassVar[str] = "ellipsoid"
    a: float
    b: float
    c: float

    def coefficients(self) -> tuple[float, ...]:
        a, b, c = self.a, self.b, self.c
        return (1.0 / (a * a), 1.0 / (b * b), 1.0 / (c * c), -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class OneSheetHyperboloid(_Shape):
    """One-sheet hyperboloid x^2/a^2 + y^2/b^2 - z^2/c^2 - 1 = 0."""

    directive: ClassVar[str] = "hyperboloid1"
    a: float
    b: float
    c: float

    def coefficients(self) -> tuple[float, ...]:
        a, b, c = self.a, self.b, self.c
        return (1.0 / (a * a), 1.0 / (b * b), -1.0 / (c * c), -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class HyperbolicParaboloid(_Shape):
    """Hyperbolic paraboloid x^2/a^2 - y^2/b^2 - 2z = 0; not diagonal (a34 = -1)."""

    directive: ClassVar[str] = "hparaboloid"
    a: float
    b: float

    def coefficients(self) -> tuple[float, ...]:
        a, b = self.a, self.b
        return (1.0 / (a * a), -1.0 / (b * b), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0)


@dataclass(frozen=True, slots=True)
class General:
    """Raw 10-coefficient quadric; never classified back into a named kind."""

    directive: ClassVar[str] = "quadric"
    q: QuadricMatrix

    def coefficients(self) -> tuple[float, ...]:
        return self.q.coefficients()

    max_abs_coefficient = _max_abs_coefficient

    def matrix(self) -> QuadricMatrix:
        return self.q


# The single list of kinds; CATALOG maps each one's scene keyword to it.
QuadricKind = Union[Sphere, Ellipsoid, OneSheetHyperboloid, HyperbolicParaboloid, General]

CATALOG: dict[str, type[QuadricKind]] = {kind.directive: kind for kind in get_args(QuadricKind)}


def sphere(radius: float) -> QuadricMatrix:
    return Sphere(radius).matrix()


def ellipsoid(a: float, b: float, c: float) -> QuadricMatrix:
    return Ellipsoid(a, b, c).matrix()


def one_sheet_hyperboloid(a: float, b: float, c: float) -> QuadricMatrix:
    return OneSheetHyperboloid(a, b, c).matrix()


def hyperbolic_paraboloid(a: float, b: float) -> QuadricMatrix:
    return HyperbolicParaboloid(a, b).matrix()
