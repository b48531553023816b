"""Line-quadric and line-sphere intersection, two equivalent ways.

The classical route solves the quadratic a*t^2 + 2*b*t + c = 0 built from
the surface matrix; the separated route factors the discriminant through an
antisymmetric per-line matrix so most of the work can be precomputed per
ray.  The harness modules (scene, render, bench, check) drive both kernels
against each other.
"""
from .classical import (
    Degenerate,
    IntersectionResult,
    LinearHit,
    Miss,
    QuadraticCoeffs,
    Tangent,
    Two,
    coefficients,
    hit_parameters,
    intersect_classical,
    solve,
)
from .geometry import (
    HomogeneousDirection,
    HomogeneousPoint,
    Mat3,
    Mat4,
    Vec3,
    compose,
    cross,
    rotation,
    to_euclidean,
    translation,
    transpose,
)
from .quadric import (
    QuadricKind,
    QuadricMatrix,
    ellipsoid,
    evaluate,
    hyperbolic_paraboloid,
    one_sheet_hyperboloid,
    sphere,
    transform,
)
from .separated import (
    EndpointMatrix,
    RayCache,
    RMatrix,
    discriminant_separated,
    intersect_separated,
    make_ray_cache,
    r_from_point_dir,
    r_from_subdeterminants,
    r_from_two_points,
    sphere_discriminant,
    sphere_discriminant_projective,
)

__version__ = "0.1.0"

__all__ = [
    "Vec3",
    "HomogeneousPoint",
    "HomogeneousDirection",
    "Mat3",
    "Mat4",
    "cross",
    "translation",
    "rotation",
    "compose",
    "transpose",
    "to_euclidean",
    "QuadricMatrix",
    "QuadricKind",
    "sphere",
    "ellipsoid",
    "one_sheet_hyperboloid",
    "hyperbolic_paraboloid",
    "evaluate",
    "transform",
    "QuadraticCoeffs",
    "Miss",
    "Tangent",
    "Two",
    "LinearHit",
    "Degenerate",
    "IntersectionResult",
    "coefficients",
    "solve",
    "intersect_classical",
    "hit_parameters",
    "RMatrix",
    "RayCache",
    "EndpointMatrix",
    "make_ray_cache",
    "r_from_point_dir",
    "r_from_two_points",
    "r_from_subdeterminants",
    "discriminant_separated",
    "sphere_discriminant",
    "sphere_discriminant_projective",
    "intersect_separated",
    "__version__",
]
