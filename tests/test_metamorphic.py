"""Metamorphic tests: changes of a scene that are exact in binary floating point.

Such a change maps every value the kernels compute to a known exact
multiple, so the outputs must follow it bit for bit, with no oracle.
Multiplying by a power of two is exact while no value leaves the normal
floats, which bounds every k below.

- Power-of-two units: every length times 2^k (camera origin and look-at,
  centres, radii and semi-axes) multiplies render's nearest t by 2^k, and
  the separated stage 1 keeps the same pairs.
- The same surface, Q times 2^k: no classification and no root changes.
"""
import dataclasses

import numpy as np
import pytest

from quadrics import (
    QuadricMatrix, hit_parameters, intersect_classical, intersect_separated, kernels,
)
from quadrics.check import _draw_quadric, _draw_ray
from quadrics.geometry import HomogeneousDirection, HomogeneousPoint
from quadrics.kernels import nearest_hits, render_tables
from quadrics.quadric import Ellipsoid, General, OneSheetHyperboloid, Sphere
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
    cam = scene.camera
    table, placed = render_tables(scene.objects, cam.origin.as_tuple())
    x, y, z = cam.pixel_directions(np.arange(cam.width), np.arange(cam.height)[:, None])
    direction = (x.ravel(), y.ravel(), z.ravel())
    return nearest_hits(table, direction, method, placed), table, direction


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


def _kept_pairs(scene: Scene, monkeypatch) -> int:
    """Pairs the separated stage 1 keeps on the image: those `nearest_root` roots."""
    kept = []
    nearest_root = kernels.nearest_root

    def spy(a, *args):
        kept.append(a.size)
        return nearest_root(a, *args)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "nearest_root", spy)
        _nearest(scene, "separated")
    return sum(kept)


@pytest.mark.parametrize("k", [-30, -20, 20, 30])
def test_power_of_two_units_keep_the_separated_stage_1_pairs(k, monkeypatch):
    # The bound of `kernels.miss_bound` scales with d.  An absolute one,
    # d < -TANGENT_EPS, kept 219 pairs of these four scenes at k = 0 and
    # 7414, 25682, 8120 and 23689 at k = -20, -30, 20 and 30.
    scenes = [UNIT_SCENES[f"bounded-{seed}"] for seed in range(16, 20)]
    kept = [_kept_pairs(scene, monkeypatch) for scene in scenes]
    assert sum(kept) > 0
    assert [_kept_pairs(_in_units_scene(scene, k), monkeypatch) for scene in scenes] == kept


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
