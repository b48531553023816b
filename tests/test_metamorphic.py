"""Metamorphic tests: changes of a scene that are exact in binary floating point.

Such a change maps every value the kernels compute to a known exact
multiple, so the outputs must follow it bit for bit, with no oracle.
Multiplying by a power of two is exact while no value leaves the normal
floats, which bounds every k below.

- Power-of-two units: every length times 2^k (camera origin and look-at,
  centres, radii and semi-axes) multiplies render's nearest t by 2^k, and
  stage 1 keeps the same pairs on both routes, as it does with Q or the
  directions times 2^k.
- The same surface, Q times 2^k: no classification and no root changes,
  and no rendered byte or bench count, even where Q times 2^k leaves the
  range in which the scalar kernels' values stay finite: render's and
  bench's tables scale each column to a largest |coefficient| in [1, 2).
"""
import dataclasses

import numpy as np
import pytest

from _helpers import image_rays, kept_mask
from quadrics import (
    QuadricMatrix, hit_parameters, intersect_classical, intersect_separated,
)
from quadrics.bench import run_benchmark
from quadrics.check import _draw_quadric, _draw_ray
from quadrics.geometry import HomogeneousDirection, HomogeneousPoint
from quadrics.kernels import nearest_hits
from quadrics.quadric import Ellipsoid, General, OneSheetHyperboloid, Sphere
from quadrics.render import pgm_bytes, render_detection
from quadrics.rng import Xorshift64Star
from quadrics.scene import Scene, SceneObject, generate_scene
from quadrics.separated import make_ray_cache
from test_kernels import _tangent_rays
from test_render import CULL_SCENES

METHODS = ("classical", "separated")


def _scaled_q(q: QuadricMatrix, k: int) -> QuadricMatrix:
    """Q times 2^k: the same surface."""
    return QuadricMatrix(*(c * 2.0 ** k for c in q))


def _in_units(q: QuadricMatrix, k: int) -> QuadricMatrix:
    """S^-T Q S^-1, S = diag(2^k, 2^k, 2^k, 1): the 3x3 block times 2^-2k, a_i4 times 2^-k."""
    a11, a22, a33, a44, a12, a13, a23, a14, a24, a34 = q
    block, linear = 2.0 ** (-2 * k), 2.0 ** -k
    return QuadricMatrix(
        a11 * block, a22 * block, a33 * block, a44,
        a12 * block, a13 * block, a23 * block, a14 * linear, a24 * linear, a34 * linear,
    )


def _kind_in_units(kind, k: int):
    """The kind with every length times 2^k; a `HyperbolicParaboloid` becomes a `General`.

    The catalog paraboloid x^2/a^2 - y^2/b^2 - 2z = 0 fixes a34 = -1, so it
    is not closed under the rescaling; a raw quadric is, through `_in_units`.
    Its `General` has the catalog kind's coefficients, so at k = 0 the two
    give the same world matrix bit for bit.
    """
    if isinstance(kind, (Sphere, Ellipsoid, OneSheetHyperboloid)):
        return type(kind)(*(p * 2.0 ** k for p in kind.params()))
    return General(_in_units(kind.matrix(), k))


def _in_units_scene(scene: Scene, k: int) -> Scene:
    cam = scene.camera
    scale = 2.0 ** k
    return Scene(
        dataclasses.replace(cam, origin=cam.origin * scale, look_at=cam.look_at * scale),
        tuple(SceneObject(_kind_in_units(o.kind, k), o.center * scale, o.rot) for o in scene.objects),
    )


def _nearest(scene: Scene, method: str) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(render's nearest t per pixel, the camera-relative world table, the pixel directions)."""
    table, direction = image_rays(scene)
    return nearest_hits(table, direction, method), table, direction


# Six scenes as the render-bounded benchmark workload builds them at run
# seed 1 (scene seeds 16 to 21), at 16x16 pixels, and the `CULL_SCENES` that
# hold a rotated object.  Their lengths lie within [2^-17, 2^24], so for
# |k| <= 60 every coefficient of the camera-relative world table, and every
# product the kernels form from them, stays a normal float.  The
# radius-2^500 and radius-2^-500 scenes are left out: their coefficients sit
# at 2^1000 and 2^-1000, next to the ends of that range.
UNIT_SCENES = {
    **{
        f"bounded-{seed}": dataclasses.replace(
            scene, camera=dataclasses.replace(scene.camera, width=16, height=16)
        )
        for seed in range(16, 22)
        for scene in [generate_scene(seed, 48, ("sphere", "ellipsoid"))]
    },
    **{
        name: scene
        for name, scene in CULL_SCENES.items()
        if any(o.rot is not None for o in scene.objects) and not name.startswith("radius-")
    },
}
UNIT_POWERS = (-60, -30, -10, 10, 14, 17, 30, 60)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(UNIT_SCENES))
def test_power_of_two_units_scale_every_nearest_t(name, method):
    scene = UNIT_SCENES[name]
    nearest, _, direction = _nearest(scene, method)
    assert np.count_nonzero(~np.isnan(nearest)) > 0 or name == "none-kept"
    for k in UNIT_POWERS:
        scaled, table, scaled_direction = _nearest(_in_units_scene(scene, k), method)
        # The camera frame normalizes, so the pixel directions keep their bits.
        assert all(u.tobytes() == v.tobytes() for u, v in zip(direction, scaled_direction))
        nonzero = np.abs(table[table != 0.0])
        assert np.isfinite(nonzero).all() and nonzero.min() >= np.finfo(float).tiny
        assert scaled.tobytes() == (nearest * 2.0 ** k).tobytes(), k


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", [-30, -20, 20, 30])
def test_power_of_two_units_keep_the_stage_1_pairs(k, method):
    # The bound of `kernels.miss_bound` scales with either route's d, so
    # `kernels.kept_pairs` keeps the same pairs with every length, with Q,
    # or with the directions times 2^k.  On the separated route an
    # absolute bound, d < -TANGENT_EPS, kept 219 pairs of these four
    # scenes at k = 0 and 7414, 25682, 8120 and 23689 at k = -20, -30, 20
    # and 30.
    scale = 2.0 ** k
    kept = 0
    for seed in range(16, 20):
        scene = UNIT_SCENES[f"bounded-{seed}"]
        table, direction = image_rays(scene)
        mask = kept_mask(table, direction, method)
        kept += np.count_nonzero(mask)
        assert np.array_equal(kept_mask(*image_rays(_in_units_scene(scene, k)), method), mask)
        assert np.array_equal(kept_mask(table * scale, direction, method), mask)
        assert np.array_equal(kept_mask(table, tuple(v * scale for v in direction), method), mask)
    assert kept > 0


def _classify(q: QuadricMatrix, point: HomogeneousPoint, direction: HomogeneousDirection) -> list:
    """Each route's result kind and its hit parameters."""
    cache = make_ray_cache(point, direction)
    results = intersect_classical(q, point, direction), intersect_separated(q, cache)
    return [(type(r).__name__, hit_parameters(r)) for r in results]


@pytest.mark.parametrize("k", [-300, -100, -40, 40, 100, 300])
def test_scaled_q_keeps_every_classification_on_random_cases(k):
    # `check`'s draws: coefficients in [-2, 2], ray components in [-10, 10].
    # Times 2^k, a, b, c and every entry of Q's second compound scale
    # exactly, so each route's kind and roots keep their bits.
    rng = Xorshift64Star(7)
    for _ in range(2000):
        q = _draw_quadric(rng)
        point, direction = _draw_ray(rng)
        assert _classify(_scaled_q(q, k), point, direction) == _classify(q, point, direction)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", [-600, 600])
def test_scaled_q_keeps_every_rendered_byte(k, method):
    # Every object of a generated all-kinds scene as the raw quadric of its
    # world matrix times 2^k.  At 2^600, b^2 and a c overflow; at 2^-600
    # they underflow.  Render's per-column scale maps both tables onto the
    # one at k = 0; without it, 572 to 576 of the 576 pixels changed.
    scene = generate_scene(3, 6, ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid"))
    camera = dataclasses.replace(scene.camera, width=24, height=24)

    def raw(k: int) -> bytes:
        objects = tuple(SceneObject(General(_scaled_q(o.world_matrix(), k))) for o in scene.objects)
        return pgm_bytes(render_detection(Scene(camera, objects), method))

    unscaled = raw(0)
    assert any(unscaled[-24 * 24:])
    assert raw(k) == unscaled


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
def test_scaled_q_keeps_every_bench_count(k):
    # The scene above, through bench on both routes.  Bench's generic table
    # takes the same per-column scale as render's, so Q times 2^k gives
    # every method the hits and checksum of k = 0.  Unscaled, every pair
    # counted a hit at 2^-600 (3000 of 3000 on both routes), and at 2^600
    # classical counted 844 and separated 0, against 1654.
    scene = generate_scene(3, 6, ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid"))

    def counts(k: int) -> list:
        objects = tuple(SceneObject(General(_scaled_q(o.world_matrix(), k))) for o in scene.objects)
        stats = run_benchmark(Scene(scene.camera, objects), 500, seed=3)
        return [(s.method, s.hits, s.checksum) for s in stats]

    expected = counts(0)
    assert [hits for _, hits, _ in expected] == [1654, 1654]
    assert counts(k) == expected


@pytest.mark.parametrize("k", [-20, -40])
def test_scaled_q_keeps_every_classification_on_tangent_rays(k):
    # Generated spheres with every length times 2^7, radii about 50 to 220:
    # a tangent ray's D, off 0 by rounding, falls below -TANGENT_EPS on some
    # pairs, inside the relative tangency band.  Q times 2^k scales D and
    # the band alike, so no kind changes; an absolute test d < -TANGENT_EPS
    # would call 23 of these pairs Miss at k = 0 and Tangent at k = -20.
    spheres = [
        SceneObject(_kind_in_units(o.kind, 7), o.center * 2.0 ** 7)
        for o in generate_scene(5, 12, ("sphere",)).objects
    ]
    point, direction = _tangent_rays(spheres, 6, 5)
    changed = []
    for obj in spheres:
        q = obj.world_matrix()
        for ray in zip(*point[:3], *direction[:3]):
            p = HomogeneousPoint(*map(float, ray[:3]), 1.0)
            s = HomogeneousDirection(*map(float, ray[3:]), 0.0)
            if _classify(_scaled_q(q, k), p, s) != _classify(q, p, s):
                changed.append((obj, ray))
    assert changed == []
