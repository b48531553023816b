"""The misclassifications ROADMAP item 2 describes: fixed ones as plain tests, the rest as strict xfails.

Each test asserts the right answer, checked against the exact oracle of
`_helpers.exact_terms` where one exists; the oracle's roots are checked in a
plain test that must pass, so a broken set-up cannot hide inside an xfail.
Item 2's step 1 fixed the far-placed and the huge sphere, on both routes
and in render's far scenes: `classical._a_scale` judges a against Q's 3x3
block, the entries a reads, not against a44, which carries length^2 units.
The near-tangent ray is fixed too: both routes decide Miss by the one
relative tangency band of `classical.solve`.  Where both routes still get a
case wrong or disagree on it, its test fails on an assertion and is marked
xfail: the overflowing coefficients, which item 2 has yet to flip to
passing, and `xfail_strict` makes the suite say so.  The far plain sphere
is fixed: both bench routes refuse its world matrix, and its tests are
plain.  Render works about the camera, so its scenes reproduce a scale
defect only with a sphere far from the camera.
"""
import math
import sys

import numpy as np
import pytest

from _helpers import exact_terms, wrong_pixels
from quadrics import (
    HomogeneousDirection,
    HomogeneousPoint,
    QuadricMatrix,
    Two,
    Vec3,
    intersect_classical,
    intersect_separated,
    make_ray_cache,
    sphere,
    transform,
    translation,
)
from quadrics.bench import run_benchmark
from quadrics.quadric import General, Sphere
from quadrics.render import render_detection
from quadrics.scene import Camera, Scene, SceneObject
from test_render import CULL_SCENES


def _both_routes(q, point, direction):
    cache = make_ray_cache(point, direction)
    return intersect_classical(q, point, direction), intersect_separated(q, cache)


def _exact_roots(q, point, direction) -> tuple[float, float]:
    """(-b -+ sqrt(b^2 - a c)) / a, with a, b, c and the discriminant exact."""
    a, b, c = exact_terms(q.coefficients(), point.as_tuple(), direction.as_tuple())
    root = math.sqrt(b * b - a * c)
    return float((-b - root) / a), float((-b + root) / a)


# Each case: the quadric, the ray, and the roots the oracle must give for it.
_FAR_SPHERE = (
    transform(sphere(1.0), translation(Vec3(1e7, 0.0, 0.0))),
    HomogeneousPoint(1e7 - 5.0, 0.5, 0.0, 1.0),
    HomogeneousDirection(1.0, 0.0, 0.0, 0.0),
)
_HUGE_SPHERE = (
    sphere(1e75),
    HomogeneousPoint(0.0, 0.0, 5e75, 1.0),
    HomogeneousDirection(0.0, 0.0, -1.0, 0.0),
)
_CAMERA = Camera(Vec3(0.0, 0.0, 10.0), Vec3(0.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), 60.0, 9, 7)


@pytest.mark.parametrize("case, expected, tolerance", [
    (_FAR_SPHERE, (4.13397, 5.86603), {"abs": 1e-5}),
    (_HUGE_SPHERE, (4e75, 6e75), {"rel": 1e-6}),
])
def test_oracle_roots_of_the_two_hit_cases(case, expected, tolerance):
    """The set-up of the two tests below: must pass, so a broken oracle cannot hide there."""
    assert _exact_roots(*case) == pytest.approx(expected, **tolerance)


def _assert_two(result, roots):
    assert isinstance(result, Two)
    assert result.t1 == pytest.approx(roots[0], rel=1e-6)
    assert result.t2 == pytest.approx(roots[1], rel=1e-6)


def test_far_placed_sphere_is_hit_twice():
    roots = _exact_roots(*_FAR_SPHERE)
    for result in _both_routes(*_FAR_SPHERE):
        _assert_two(result, roots)


def test_huge_sphere_is_hit_twice():
    roots = _exact_roots(*_HUGE_SPHERE)
    for result in _both_routes(*_HUGE_SPHERE):
        _assert_two(result, roots)


def test_near_tangent_ray_gets_one_kind_on_both_routes():
    # `exact_terms` puts the discriminant at -2.0e-4, inside the tangency band.
    q = sphere(1e4)
    point = HomogeneousPoint(-2e4, 1e4 * (1.0 + 1e-12), 0.0, 1.0)
    classical, separated = _both_routes(q, point, HomogeneousDirection(1.0, 0.0, 0.0, 0.0))
    assert type(classical) is type(separated)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: NaN discriminants from overflowing coefficients count as numbers",
)
def test_overflowing_coefficients_light_the_same_pixels_on_both_routes():
    q = QuadricMatrix(0.0, 0.0, 0.0, 0.0, a13=1e300, a24=1e300, a34=-1e300)
    scene = Scene(_CAMERA, (SceneObject(General(q)),))
    classical, separated = (render_detection(scene, m).pixels for m in ("classical", "separated"))
    assert [v > 0 for v in classical] == [v > 0 for v in separated]


@pytest.mark.parametrize("name", ["far-placed", "far-linear"])
def test_render_scene_with_a_far_sphere_lights_the_exact_pixels_on_classical(name):
    # A sphere about 1e7 from the camera: judged against a44, its a would
    # count as 0, and the classical route would light pixels whose ray
    # misses it, 32 of far-placed's and 62 of far-linear's.
    # tests/test_render.py checks the separated route's pixels.
    scene = CULL_SCENES[name]
    assert wrong_pixels(scene, render_detection(scene, "classical").pixels) == []


def _bench_outcome(scene, method) -> tuple:
    """("raises", the error's type) or ("counts", hits, checksum) of one bench route."""
    try:
        (stats,) = run_benchmark(scene, 100, method)
    except ValueError as exc:
        return ("raises", type(exc))
    return ("counts", stats.hits, stats.checksum)


def _near_and_far(far: Vec3) -> Scene:
    return Scene(_CAMERA, (SceneObject(Sphere(1.0)), SceneObject(Sphere(1.0), far)))


def test_far_plain_sphere_gets_one_outcome_on_both_bench_routes():
    scene = _near_and_far(Vec3(1e200, 0.0, 0.0))
    assert _bench_outcome(scene, "classical") == _bench_outcome(scene, "separated")
    assert _bench_outcome(scene, "separated") == ("raises", ValueError)


def test_plain_spheres_at_the_overflow_edge_get_one_outcome_on_both_bench_routes():
    # |c|^2 leaves the floats at |c| = sqrt(max float), about 1.34e154; the
    # sweep crosses it with the centre on one axis and spread over three.
    edge = math.sqrt(sys.float_info.max)
    sizes = np.geomspace(1e153, 1e155, 9).tolist()
    sizes += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    outcomes = set()
    for size in sizes:
        spread = size / math.sqrt(3.0)
        for far in (Vec3(size, 0.0, 0.0), Vec3(0.0, -size, 0.0), Vec3(spread, -spread, spread)):
            scene = _near_and_far(far)
            classical = _bench_outcome(scene, "classical")
            assert classical == _bench_outcome(scene, "separated"), far
            outcomes.add(classical[0])
    assert outcomes == {"raises", "counts"}
