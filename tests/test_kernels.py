import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import test_render
from _helpers import (
    camera_relative, coefficient_table, exact_discriminant, image_rays, kept_mask, random_quadric,
    random_ray, random_rotation, scaled_world_matrix,
)
from quadrics import (
    HomogeneousDirection,
    HomogeneousPoint,
    Mat3,
    QuadraticCoeffs,
    QuadricMatrix,
    Vec3,
    bench,
    coefficients,
    discriminant_separated,
    hit_parameters,
    intersect_classical,
    intersect_separated,
    kernels,
    make_ray_cache,
    solve,
    sphere_discriminant,
)
from quadrics.bench import generate_rays
from quadrics.classical import TANGENT_EPS, coefficient_terms
from quadrics.kernels import (
    bench_tables, classical_counts, classical_lift, map_ranges, nearest_hits, render_tables,
    separated_counts, separated_lift, sphere_counts, sphere_lift,
)
from quadrics.render import render_detection
from quadrics.quadric import Ellipsoid, General, HyperbolicParaboloid, OneSheetHyperboloid, Sphere
from quadrics.scene import Camera, Scene, SceneObject, generate_scene
from quadrics.separated import (
    compound_entries, compound_weights, line_entries, line_moment, moment_discriminant,
)


def _scalar_nearest(matrices, point, direction, method) -> float:
    cache = make_ray_cache(point, direction)
    nearest = np.nan
    for q in matrices:
        if method == "separated":
            result = intersect_separated(q, cache)
        else:
            result = intersect_classical(q, point, direction)
        for t in hit_parameters(result):
            if t > 0.0 and not t >= nearest:
                nearest = t
    return nearest


def _split(directions) -> tuple:
    """The (sx, sy, sz) arrays of `HomogeneousDirection`s, as `nearest_hits` takes them."""
    return tuple(np.array(v) for v in zip(*(s.as_tuple()[:3] for s in directions)))


# Render's rays start at the camera, the origin of its coordinates.
CAMERA = HomogeneousPoint(0.0, 0.0, 0.0, 1.0)


def _relative_matrices(objects, origin) -> list:
    """The scalar world matrices of the objects moved to c - origin, as `render_tables` moves them."""
    return [o.world_matrix() for o in camera_relative(objects, Vec3(*origin))]


@pytest.mark.parametrize("method", ["classical", "separated"])
def test_nearest_hits_equal_the_scalar_kernels_from_several_origins(method, monkeypatch):
    # Raw quadrics seen from 5 origins, one `render_tables` and one
    # `nearest_hits` call of 5 rays each, against the scalar kernels on the
    # quadrics moved by -origin; tiles of 2 rays split each call's 5 rays
    # unevenly.
    monkeypatch.setattr(kernels, "TILE_PAIRS", 2 * 12)
    rng = np.random.default_rng(3)
    objects = [SceneObject(General(random_quadric(rng))) for _ in range(12)]
    expected = []
    for _ in range(5):
        origin = random_ray(rng)[0].as_tuple()[:3]
        directions = [random_ray(rng)[1] for _ in range(5)]
        table = render_tables(objects, origin)
        got = nearest_hits(table, _split(directions), method)
        matrices = _relative_matrices(objects, origin)
        want = [_scalar_nearest(matrices, CAMERA, s, method) for s in directions]
        assert np.array_equal(got, want, equal_nan=True)
        expected += want
    assert not np.all(np.isnan(expected))


@pytest.mark.parametrize("method", ["classical", "separated"])
@pytest.mark.parametrize("tile_pairs", [13, kernels.TILE_PAIRS])
def test_nearest_hits_stage_1_from_several_origins(method, tile_pairs, monkeypatch):
    # 40 rays, 8 from each of 5 origins, aimed near bounded and unbounded
    # objects: stage 1 drops pairs on both routes and changes nothing.
    monkeypatch.setattr(kernels, "TILE_PAIRS", tile_pairs)
    rng = np.random.default_rng(17)
    objects = [
        SceneObject(Sphere(1.0), Vec3(0.0, 0.0, 0.0)),
        SceneObject(Ellipsoid(2.0, 0.5, 1.0), Vec3(4.0, 1.0, -2.0), random_rotation(rng)),
        SceneObject(Ellipsoid(0.3, 1.5, 0.7), Vec3(-3.0, -2.0, 1.0)),
        SceneObject(OneSheetHyperboloid(0.5, 0.7, 0.9), Vec3(1.0, 5.0, 0.0), random_rotation(rng)),
        SceneObject(HyperbolicParaboloid(1.0, 2.0), Vec3(-4.0, 4.0, -4.0)),
        SceneObject(Sphere(0.8), Vec3(2.0, -4.0, 3.0), random_rotation(rng)),
    ]
    origins = rng.uniform(-12.0, 12.0, size=(5, 1, 3))
    targets = np.array([o.center.as_tuple() for o in objects])[rng.integers(0, 6, (5, 8))]
    dirs = targets + rng.normal(scale=1.5, size=(5, 8, 3)) - origins
    expected = np.array([
        _scalar_nearest(_relative_matrices(objects, o[0]), CAMERA, HomogeneousDirection(*d, 0.0), method)
        for o, ds in zip(origins.tolist(), dirs.tolist()) for d in ds
    ])

    def run() -> np.ndarray:
        hits = []
        for o, d in zip(origins.tolist(), dirs):
            hits.append(nearest_hits(render_tables(objects, o[0]), tuple(d.T), method))
        return np.concatenate(hits)

    rooted = test_render._rooted_pairs(monkeypatch)
    assert np.array_equal(run(), expected, equal_nan=True)
    assert np.count_nonzero(~np.isnan(expected)) > 10
    assert 0 < sum(rooted) < 40 * 6
    # Filter off: T = inf keeps every pair.
    rooted.clear()
    monkeypatch.setattr(kernels, "miss_bound", test_render._no_bound)
    assert np.array_equal(run(), expected, equal_nan=True)
    assert sum(rooted) == 40 * 6


@pytest.mark.parametrize("method", ["Separated", "bogus", ""])
def test_nearest_hits_rejects_an_unknown_route(method):
    table = render_tables([SceneObject(Sphere(1.0))], (0.0, 0.0, 5.0))
    direction = (np.array([0.0]), np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ValueError, match="unknown method"):
        nearest_hits(table, direction, method)


@pytest.mark.parametrize("method", ["classical", "separated"])
def test_stage2_batches_stay_bounded(method, monkeypatch):
    # An origin inside every sphere keeps every pair: stage 2 must run
    # several times, each on fewer than two tiles' worth of pairs, and root
    # each batch in one `nearest_root` call.
    monkeypatch.setattr(kernels, "TILE_PAIRS", 50)
    objects = [SceneObject(Sphere(r), Vec3(0.1 * r, 0.0, 0.0)) for r in (2.0, 3.0, 4.0)]
    rng = np.random.default_rng(4)
    direction = tuple(rng.normal(size=(3, 400)))
    origin = (0.0, 0.0, 0.0)
    sizes, roots = [], []
    camera_terms, nearest_root = kernels._camera_terms, kernels.nearest_root

    def spy(table, s):
        # Stage 2 computes a, b, c once per batch, for every pair it roots.
        sizes.append(table.shape[1])
        return camera_terms(table, s)

    def root_spy(a, b, c, a_scale, d=None):
        assert len(roots) == len(sizes) - 1 and len(a) == sizes[-1]
        roots.append(len(a))
        return nearest_root(a, b, c, a_scale, d)

    monkeypatch.setattr(kernels, "_camera_terms", spy)
    monkeypatch.setattr(kernels, "nearest_root", root_spy)
    got = nearest_hits(render_tables(objects, origin), direction, method)
    assert sum(sizes) == 400 * 3 and len(sizes) > 10 and max(sizes) < 2 * 50 + 3
    assert len(roots) == len(sizes) and max(roots) < 2 * 50
    matrices = _relative_matrices(objects, origin)
    expected = [
        _scalar_nearest(matrices, CAMERA, HomogeneousDirection(*s, 0.0), method)
        for s in zip(*direction)
    ]
    assert np.array_equal(got, expected)


class TestCameraTerms:
    """Render's stage-2 a, b and c equal `coefficient_terms`' as bytes, so signed zeros and NaN count."""

    ROT = random_rotation(np.random.default_rng(27))
    # `CULL_SCENES`, `TestExtremeInputs.SCENES`, two render-unbounded scenes,
    # and two render-bounded ones, generated as that workload builds them.
    SCENES = {
        **test_render.TestSeparatedPairForm.SCENES,
        **{
            f"bounded-{seed}": dataclasses.replace(
                scene, camera=dataclasses.replace(scene.camera, width=16, height=16)
            )
            for seed in (1, 2)
            for scene in [generate_scene(seed, 48, ("sphere", "ellipsoid"))]
        },
    }

    @staticmethod
    def _stage2(scene: Scene, method: str, monkeypatch) -> list:
        """(table, s, (a, b, c)) of each `_camera_terms` call of `nearest_hits` on the image."""
        calls = []
        camera_terms = kernels._camera_terms

        def spy(table, s):
            terms = camera_terms(table, s)
            calls.append((table, s, terms))
            return terms

        monkeypatch.setattr(kernels, "_camera_terms", spy)
        cam = scene.camera
        table = render_tables(scene.objects, cam.origin.as_tuple())
        x, y, z = cam.pixel_directions(np.arange(cam.width), np.arange(cam.height)[:, None])
        nearest_hits(table, (x.ravel(), y.ravel(), z.ravel()), method)
        return calls

    @staticmethod
    def _assert_reference_bytes(table, s, terms) -> None:
        with np.errstate(all="ignore"):
            want = coefficient_terms(table, kernels._CAMERA, (*s, 0.0))
        for got, value in zip(terms, want):
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes()

    @pytest.mark.parametrize("keep", ["filter", "every-pair"])
    @pytest.mark.parametrize("method", ["classical", "separated"])
    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_stage2_pairs(self, name, method, keep, monkeypatch):
        if keep == "every-pair":
            monkeypatch.setattr(kernels, "miss_bound", test_render._no_bound)
        calls = self._stage2(self.SCENES[name], method, monkeypatch)
        # With T = inf every pair reaches stage 2; the filter may leave none.
        assert calls or keep == "filter"
        for table, s, terms in calls:
            self._assert_reference_bytes(table, s, terms)

    def test_random_tables_with_signed_zeros(self):
        rng = np.random.default_rng(27)
        n = 20000
        table = rng.normal(size=(10, n)) * 10.0 ** rng.integers(-8, 9, size=(10, n))
        for value, share in ((0.0, 0.3), (-0.0, 0.15)):
            table[rng.random((10, n)) < share] = value
        s = tuple(rng.normal(size=(3, n)))
        for v in s:
            for value, share in ((0.0, 0.2), (-0.0, 0.1)):
                v[rng.random(n) < share] = value
        with np.errstate(all="ignore"):
            assert np.isfinite(abs(table).max() * abs(np.array(s)).max())
            terms = kernels._camera_terms(table, s)
        # Thousands of a, b and c are exact zeros, whose signs the dropped terms decide.
        assert all((term == 0.0).sum() > 1000 for term in terms)
        self._assert_reference_bytes(table, s, terms)

    @pytest.mark.parametrize("method", ["classical", "separated"])
    def test_sphere_about_the_camera(self, method, monkeypatch):
        # Every pixel's b is exactly 0, so every pair takes `coefficient_terms`.
        origin = Vec3(1.0, 2.0, 3.0)
        scene = Scene(
            Camera(origin, Vec3(0.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), 60.0, 9, 7),
            (
                SceneObject(Sphere(2.0), origin),
                SceneObject(Ellipsoid(3.0, 1.0, 2.0), origin, self.ROT),
            ),
        )
        calls = self._stage2(scene, method, monkeypatch)
        assert calls and all((terms[1] == 0.0).all() for _, _, terms in calls)
        for table, s, terms in calls:
            self._assert_reference_bytes(table, s, terms)
        monkeypatch.undo()
        expected, _ = test_render.reference_render(scene, method)
        assert render_detection(scene, method).pixels == expected

    # Coefficients of 2^1020 seen at a field of view of 179 degrees, where
    # max|a_k| max|s_i| of the unscaled table overflows, and the scenes of
    # `TestExtremeInputs`.
    NO_NAN_SCENES = {
        "2^1020-at-179-degrees": Scene(
            Camera(Vec3(0.0, 0.0, 0.001), Vec3(0.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), 179.0, 9, 7),
            (SceneObject(General(QuadricMatrix(2.0 ** 1020, 0.0, 0.0, -1.0, a14=2.0 ** 1020))),),
        ),
        **test_render.TestExtremeInputs.SCENES,
    }

    @pytest.mark.parametrize("method", ["classical", "separated"])
    @pytest.mark.parametrize("name", sorted(NO_NAN_SCENES))
    def test_no_nan_reaches_nearest_root(self, name, method, monkeypatch):
        # Every column's largest |coefficient| lies in [1, 2), and the
        # camera bounds |s|^2, so no a, b, c or separated D leaves the
        # floats, every pair's included (T = inf).
        scene = self.NO_NAN_SCENES[name]
        rooted = []
        nearest_root = kernels.nearest_root

        def spy(a, b, c, a_scale, d=None):
            assert (d is None) == (method == "classical")
            rooted.extend((a, b, c) if d is None else (a, b, c, d))
            return nearest_root(a, b, c, a_scale, d)

        with monkeypatch.context() as patch:
            patch.setattr(kernels, "nearest_root", spy)
            patch.setattr(kernels, "miss_bound", test_render._no_bound)
            nearest_hits(*image_rays(scene), method)
        assert rooted and all(np.isfinite(v).all() for v in rooted)
        expected, _ = test_render.reference_render(scene, method, scaled_world_matrix)
        assert render_detection(scene, method).pixels == expected


def _separated_d(table: np.ndarray, s: tuple) -> np.ndarray:
    """`discriminant_separated` of each pair: column k of `table`, ray k of s from the camera.

    0.0 plus weight * C[I, J] over all 21 entries, left to right in
    `COMPOUND_ORDER`, a zero weight's term skipped as the scalar sum skips
    it: adding +0.0 instead leaves a sum that starts at +0.0 as it was.
    """
    d = 0.0
    p = line_entries(kernels._CAMERA, (*s, 0.0))
    for w, c in zip(compound_weights(p), compound_entries(table)):
        d = d + np.where(w != 0.0, w * c, 0.0)
    return d


@pytest.mark.parametrize("method", ["classical", "separated"])
class TestMissBound:
    """Render's stage 1 drops only pairs that `nearest_root` classifies as Miss, on both routes.

    Each case calls `kernels.kept_pairs`, the stage-1 contract, and roots
    every pair the test's way: the scalar-order a, b and c of
    `coefficient_terms` and, on the separated route, the scalar-order D
    of `discriminant_separated` (`_separated_d`), b^2 - a c on the
    classical one.  Every pair stage 1 drops must root to NaN; with
    T = inf (`test_render._no_bound`) it must keep every pair.
    """

    @staticmethod
    def _dropped(table, direction, method, monkeypatch) -> tuple[int, np.ndarray, np.ndarray]:
        """(pairs dropped, every pair's scalar-order D, the nearest t per ray).

        Fails if a pair stage 1 drops roots, or if T = inf drops one.
        """
        kept = kept_mask(table, direction, method)
        rays, objects = kept.shape
        ri, oi = np.divmod(np.arange(rays * objects), objects)
        s = sx, sy, sz = tuple(v[ri] for v in direction)
        with np.errstate(all="ignore"):
            a, b, c = coefficient_terms(table[:, oi], kernels._CAMERA, (*s, 0.0))
            a_scale = abs(table[kernels._BLOCK]).max(axis=0)[oi] * (sx * sx + sy * sy + sz * sz)
            d = _separated_d(table[:, oi], s) if method == "separated" else b * b - a * c
            rooted = ~np.isnan(kernels.nearest_root(a, b, c, a_scale, d)).reshape(kept.shape)
        assert not (rooted & ~kept).any(), np.argwhere(rooted & ~kept)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "miss_bound", test_render._no_bound)
            assert kept_mask(table, direction, method).all()
        nearest = nearest_hits(table, direction, method)
        return np.count_nonzero(~kept), d.reshape(kept.shape), nearest

    @pytest.mark.parametrize("name", sorted(TestCameraTerms.SCENES))
    def test_scenes(self, name, method, monkeypatch):
        # axis-linear's centre ray is a LinearHit: a = 0 exactly.
        self._dropped(*image_rays(TestCameraTerms.SCENES[name]), method, monkeypatch)

    @pytest.mark.parametrize("scale", [0, 7])
    def test_tangent_rays(self, scale, method, monkeypatch):
        # Each ray from its own origin: the table is relative to it.
        spheres = [
            SceneObject(Sphere(o.kind.r * 2.0 ** scale), o.center * 2.0 ** scale)
            for o in generate_scene(5, 12, ("sphere",)).objects
        ]
        point, direction = _tangent_rays(spheres, 6, 5)
        dropped = 0
        for ray in zip(*point[:3], *direction[:3]):
            table = render_tables(spheres, ray[:3])
            s = tuple(np.array([v]) for v in ray[3:])
            dropped += self._dropped(table, s, method, monkeypatch)[0]
        assert dropped > 0

    def test_random_tables(self, method, monkeypatch):
        # Coefficients across 2^-span to 2^span and directions across
        # 2^+-20, each with exact zeros of both signs.  Each column is then
        # scaled to a largest |coefficient| in [1, 2), as `_world_table`
        # scales it, so at span 500 entries reach down to about 2^-990.
        rng = np.random.default_rng(31)
        dropped = 0
        for span in (0, 30, 500):
            table = rng.uniform(-1.0, 1.0, (10, 60)) * 2.0 ** rng.integers(-span, span + 1, (10, 60))
            s = rng.uniform(-1.0, 1.0, (3, 400)) * 2.0 ** rng.integers(-20, 21, (3, 400))
            for values in (table, s):
                for value, share in ((0.0, 0.2), (-0.0, 0.1)):
                    values[rng.random(values.shape) < share] = value
            table = np.ldexp(table, 1 - np.frexp(abs(table).max(axis=0))[1])
            dropped += self._dropped(table, tuple(s), method, monkeypatch)[0]
        assert dropped > 4000

    def test_pairs_at_the_edge_of_the_bound(self, method, monkeypatch):
        # Tangent pairs with |d| up to 0.99999 of the band, b^2 = 3 L^2 |s|^2
        # and |a c| = 3 A |a44| |s|^2, the largest the bound allows: a
        # rank-one block sigma sigma^T, l = -sigma and s = sigma, sigma in
        # {-1, 1}^3, so a = 9, b = -3, c = 1 + delta TANGENT_EPS and
        # d = -9 delta TANGENT_EPS exactly, with Q times 2^k.  T with a
        # factor below 2.9996 in place of 3 (1 + 2^-40) drops the last.
        sigma = np.array(np.meshgrid([-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0])).reshape(3, 8)
        block = [sigma[i] * sigma[j] for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]
        for k in (-20, 0, 20):
            for delta in (0.5, 0.99, 0.99999):
                a44 = np.full(8, 1.0 + delta * TANGENT_EPS)
                table = np.array([*block[:3], a44, *block[3:], *-sigma]) * 2.0 ** k
                _, d, nearest = self._dropped(table, tuple(sigma), method, monkeypatch)
                assert (np.diagonal(d) < 0.0).all() and (nearest == 1.0 / 3.0).all()
        # The same edge with s = c sigma, c not a power of two, and a44 a
        # few millionths of the band either side of it.  On the classical
        # route a rounds in a different order in the lifted product than
        # in stage 2, so the lifted d and stage 2's b^2 - a c differ by
        # about an ulp of 9 c^2, a millionth of the band: T without its
        # 2^-45 M S term drops classical pairs that stage 2 calls Tangent.
        # On the separated route each entry C[I, J] takes the cancellation
        # exactly (1 + delta TANGENT_EPS - 1), and the six terms share one
        # sign, so the lifted d and the scalar-order D agree to an ulp of D
        # here and that term is not what keeps these pairs.
        rng = np.random.default_rng(41)
        sigmas = np.tile(sigma, 50)
        rows = [sigmas[i] * sigmas[j] for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]
        hits = 0
        for c in rng.uniform(0.5, 1.0, 20):
            delta = np.repeat(rng.uniform(1.0 - 5e-6, 1.0 + 5e-6, 50), 8)
            table = np.array([*rows[:3], 1.0 + delta * TANGENT_EPS, *rows[3:], *-sigmas])
            hits += np.count_nonzero(self._dropped(table, tuple(c * sigma), method, monkeypatch)[2] > 0.0)
        assert hits > 100
        # Planes (A = 0, a44 = 2^-20) with rays nearly along them: b is a
        # few ulps, the separated D rounds below 0 where b^2 - a c = b^2 is
        # not, and the pair is a LinearHit at t = -a44 / 2b > 0.  Only the
        # L^2 of the bound keeps such a pair.  The classical b^2 - a c is
        # b^2 exactly here, as a = 0, and is never below 0.
        rng = np.random.default_rng(37)
        table = np.zeros((10, 40))
        table[3] = 2.0 ** -20
        table[7], table[8] = rng.uniform(0.5, 2.0, 40), -rng.uniform(0.5, 2.0, 40)
        s0 = rng.uniform(0.5, 1.0, (40, 50))
        s1 = -table[7, :, None] * s0 / table[8, :, None]
        s1 += rng.integers(-8, 9, s1.shape) * np.spacing(s1)
        direction = (s0.ravel(), s1.ravel(), np.zeros(s0.size))
        _, d, _ = self._dropped(table, direction, method, monkeypatch)
        plane = np.arange(s0.size) // 50
        with np.errstate(all="ignore"):
            _, b, c = coefficient_terms(table[:, plane], kernels._CAMERA, (*direction, 0.0))
            below = d[np.arange(s0.size), plane] < 0.0
            linear_hits = below & (-c / (2.0 * b) > 0.0)
        if method == "separated":
            assert linear_hits.sum() > 100
        else:
            assert not below.any()


# Scenes shaped as the render workloads' (48 spheres and ellipsoids at
# 16x16, 24 objects of all kinds at 24x24), and the pairs stage 1 keeps on
# them, the same whether the separated d is a product or the scalar-order
# sum.  More kept pairs is more stage-2 work; fewer must still drop only
# Misses (`TestMissBound`).
@pytest.mark.parametrize(
    "name, count",
    [("bounded-1", 58), ("bounded-2", 39), ("unbounded-1", 5483), ("unbounded-2", 7005)],
)
def test_both_routes_keep_the_pinned_pairs(name, count):
    table, direction = image_rays(TestCameraTerms.SCENES[name])
    classical, separated = (kept_mask(table, direction, m) for m in ("classical", "separated"))
    assert np.array_equal(classical, separated) and np.count_nonzero(classical) == count


@pytest.mark.parametrize("method", ["classical", "separated"])
def test_nearest_hits_skewed_and_unbounded_objects(method):
    # A sphere under a matrix that is not a rotation and a hyperboloid that
    # every ray hits, beside a plain sphere: render's rays equal the scalar
    # kernels.
    skew = Mat3((1.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
    objects = [
        SceneObject(Sphere(1.0), Vec3(0.0, 0.0, -10.0)),
        SceneObject(Sphere(2.0), Vec3(3.0, 0.0, -12.0), skew),
        SceneObject(OneSheetHyperboloid(1.0, 1.0, 1.0), Vec3(0.0, 20.0, -30.0)),
    ]
    rng = np.random.default_rng(5)
    direction = (*rng.uniform(-0.4, 0.4, size=(2, 60)), np.full(60, -1.0))
    got = nearest_hits(render_tables(objects, (0.0, 0.0, 0.0)), direction, method)
    matrices = _relative_matrices(objects, (0.0, 0.0, 0.0))
    expected = [
        _scalar_nearest(matrices, CAMERA, HomogeneousDirection(*s, 0.0), method)
        for s in zip(*direction)
    ]
    assert np.array_equal(got, expected, equal_nan=True)


def test_pair_kernels_equal_the_scalar_kernels_bit_for_bit():
    # The batched kernels call the reference's tuple-level forms on the
    # coefficient table and on arrays of spheres; this checks the
    # broadcasting.
    rng = np.random.default_rng(8)
    matrices = [random_quadric(rng) for _ in range(9)]
    rays = [random_ray(rng) for _ in range(11)]
    point = tuple(np.array([p.as_tuple()[k] for p, _ in rays])[:, None] for k in range(3)) + (1.0,)
    direction = tuple(np.array([s.as_tuple()[k] for _, s in rays])[:, None] for k in range(3)) + (0.0,)
    table = coefficient_table(matrices)
    a, b, c = coefficient_terms(table, point, direction)
    r = line_entries(point, direction)
    moment, dir_norm_sq = line_moment(point, direction)
    entries = compound_entries(table)
    lifted = separated_lift(tuple(map(np.ravel, point)), tuple(map(np.ravel, direction)))
    centers = rng.uniform(-5.0, 5.0, size=(9, 3))
    r_sq = rng.uniform(0.1, 2.0, size=9) ** 2
    d_sphere = moment_discriminant(centers.T, r_sq, moment, direction[:3], dir_norm_sq)
    for j, q in enumerate(matrices):
        assert [e[j] for e in entries] == compound_entries(q)
    for i, (p, s) in enumerate(rays):
        cache = make_ray_cache(p, s)
        assert tuple(e[i, 0] for e in r) == cache.r.entries()
        assert list(lifted[i]) == compound_weights(cache.r.entries())
        assert tuple(e[i, 0] for e in moment) == cache.moment.as_tuple()
        assert dir_norm_sq[i, 0] == cache.dir_norm_sq
        for j, q in enumerate(matrices):
            cf = coefficients(q, p, s)
            assert (a[i, j], b[i, j], c[i, j]) == (cf.a, cf.b, cf.c)
            center = Vec3(*centers[j])
            assert d_sphere[i, j] == sphere_discriminant(center, float(np.sqrt(r_sq[j])), cache)


# (a, b, c, a_scale, separated discriminant or None): one row per branch of solve.
SOLVE_CASES = [
    (1.0, -3.0, 2.0, 1.0, None),  # Two, both roots positive
    (1.0, 1.0, -3.0, 1.0, None),  # Two, one root behind the origin
    (1.0, 3.0, 2.0, 1.0, None),  # Two, both behind
    (1.0, -2.0, 4.0, 1.0, None),  # Tangent ahead
    (1.0, 2.0, 4.0, 1.0, None),  # Tangent behind
    (1.0, 1.0, 5.0, 1.0, None),  # Miss
    (1e-13, -1.0, 3.0, 1.0, None),  # LinearHit ahead
    (0.0, 1.0, 3.0, 1.0, None),  # LinearHit behind
    (0.0, 1e-13, 3.0, 1.0, None),  # Degenerate
    (1.0, -3.0, 2.0, 1.0, 1.0),  # Two from a given discriminant
    (1.0, -3.0, 2.0, 1.0, -1e-3),  # Miss from a given discriminant
    (1.0, -3.0, 2.0, 1.0, float("nan")),  # NaN discriminant: NaN roots
    (0.0, 1.0, -3.0, 1.0, float("nan")),  # NaN discriminant, LinearHit still
    (float("nan"), 1.0, -1.0, 1.0, 1e-12),  # NaN a: band from b^2 alone -> Tangent
    (0.0, 1.0, float("nan"), 1.0, None),  # NaN c: LinearHit at NaN
    (float("inf"), -1.0, 0.0, 1.0, None),  # a*c = NaN
    (1e300, -1e300, 1e300, 1e300, None),  # b^2 and a*c overflow: inf - inf
]


@pytest.mark.parametrize("a, b, c, a_scale, d", SOLVE_CASES)
def test_nearest_root_equals_solve(a, b, c, a_scale, d):
    result = solve(QuadraticCoeffs(a, b, c), a_scale=a_scale, discriminant=d)
    positive = [t for t in hit_parameters(result) if t > 0.0]
    with np.errstate(all="ignore"):
        got = kernels.nearest_root(*map(np.array, (a, b, c, a_scale)), None if d is None else np.array(d))
    if positive:
        assert got == min(positive)
    else:
        assert np.isnan(got)


def _assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _assert_world_table(got: np.ndarray, objects) -> None:
    """`got` is the objects' scalar world matrices, each scaled by `scaled_world_matrix`.

    Render's and bench's generic tables both hold them.
    """
    want = np.array([scaled_world_matrix(o).coefficients() for o in objects]).reshape(-1, 10).T
    _assert_bits_equal(got, want)
    top = np.abs(got).max(axis=0)
    assert ((1.0 <= top) & (top < 2.0)).all()


class TestWorldTable:
    """Render's and bench's generic tables against `SceneObject.world_matrix`, scaled, bit for bit.

    Each column is the object's world matrix times the power of two that
    puts its largest |coefficient| in [1, 2) (`_helpers.scaled_world_matrix`).
    About the origin (0, 0, 0) the objects are not moved: c - 0.0 == c for
    every float, -0.0 included.
    """

    ALL_KINDS = ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid")

    @pytest.mark.parametrize(
        "mix",
        [("sphere",), ("sphere", "ellipsoid"), ALL_KINDS, ("hparaboloid",), ("hyperboloid1",)],
    )
    def test_generated_scenes(self, mix):
        for seed in range(25):
            objects = generate_scene(seed, 1 + 7 * seed, mix).objects
            _assert_world_table(render_tables(objects, (0.0, 0.0, 0.0)), objects)
            # About the generated camera, at (0, 0, 30).
            relative = camera_relative(objects, Vec3(0.0, 0.0, 30.0))
            _assert_world_table(render_tables(objects, (0.0, 0.0, 30.0)), relative)

    def test_far_placed_rotated_objects(self):
        rng = np.random.default_rng(11)
        objects = []
        for i in range(200):
            kind = (
                Sphere(float(rng.uniform(0.1, 3.0))),
                Ellipsoid(*(float(v) for v in rng.uniform(0.1, 3.0, 3))),
                OneSheetHyperboloid(*(float(v) for v in rng.uniform(0.1, 3.0, 3))),
                HyperbolicParaboloid(*(float(v) for v in rng.uniform(0.1, 3.0, 2))),
            )[i % 4]
            center = Vec3(*(float(v) for v in rng.uniform(-1.0, 1.0, 3) * 10.0 ** (i % 7)))
            rot = random_rotation(rng) if i % 3 else None
            objects.append(SceneObject(kind, center, rot))
        _assert_world_table(render_tables(objects, (0.0, 0.0, 0.0)), objects)
        origin = (2.5e5, -7.0, 1e3 + 0.1)
        relative = camera_relative(objects, Vec3(*origin))
        _assert_world_table(render_tables(objects, origin), relative)

    def test_raw_quadric_with_negative_zeros(self):
        q = General(QuadricMatrix(-0.0, 1.0, -0.0, -1.0, a12=-0.0, a13=0.0, a14=-0.0, a34=0.5))
        rng = np.random.default_rng(12)
        objects = [SceneObject(q), SceneObject(q, rot=random_rotation(rng))]
        _assert_world_table(render_tables(objects, (0.0, 0.0, 0.0)), objects)
        # 0.0 + (-0.0) * 1.0 is +0.0: the scalar build drops the signs, and so does the table.
        signs = np.signbit(render_tables(objects[:1], (0.0, 0.0, 0.0))[:, 0]).tolist()
        assert signs == [False, False, False, True] + [False] * 6

    def test_single_object_and_all_spheres(self):
        one = (SceneObject(Ellipsoid(1.0, 2.0, 3.0), Vec3(4.0, -5.0, 6.0)),)
        _assert_world_table(render_tables(one, (0.0, 0.0, 0.0)), one)
        spheres = generate_scene(3, 17, ("sphere",)).objects
        _assert_world_table(render_tables(spheres, (0.0, 0.0, 0.0)), spheres)
        assert render_tables((), (0.0, 0.0, 0.0)).shape == (10, 0)
        direction = (np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([-1.0, -1.0]))
        for method in kernels.METHODS:
            hits = nearest_hits(render_tables((), (0.0, 0.0, 0.0)), direction, method)
            assert hits.shape == (2,) and np.isnan(hits).all()

    @pytest.mark.parametrize(
        "obj",
        [
            SceneObject(Sphere(1.0), Vec3(1e200, 0.0, 0.0), Mat3.identity()),
            SceneObject(Ellipsoid(1e-150, 1.0, 1.0), Vec3(1e10, 0.0, 0.0)),
            SceneObject(General(QuadricMatrix(1e308, 1.0, 1.0, 1.0, a12=1e308))),
        ],
    )
    def test_overflowing_object_raises(self, obj):
        with pytest.raises(ValueError):
            obj.world_matrix()
        with pytest.raises(ValueError, match="object 1"):
            render_tables([SceneObject(Sphere(1.0)), obj], (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="object 2"):
            bench_tables([SceneObject(Sphere(1.0)), SceneObject(Ellipsoid(1.0, 2.0, 3.0)), obj])

    def test_far_plain_sphere_is_named_as_world_table_names_it(self):
        # A fast-path sphere whose a44 overflows fails with the world table's
        # message, and the first failing object is named on both routes,
        # whichever kind spells the unit sphere.
        bad = SceneObject(General(QuadricMatrix(1e308, 1.0, 1.0, 1.0, a12=1e308)))
        for kind in TestPlainSplit.SPELLINGS.values():
            far = SceneObject(kind, Vec3(1e200, 0.0, 0.0))
            for objects, first in (([far, bad], "object 0"), ([bad, far], "object 0"),
                                   ([SceneObject(Sphere(1.0)), far], "object 1")):
                with pytest.raises(ValueError, match=first) as expected:
                    render_tables(objects, (0.0, 0.0, 0.0))
                with pytest.raises(ValueError) as got:
                    bench_tables(objects)
                assert str(got.value) == str(expected.value), kind

    def test_index_selects_and_orders_the_columns(self):
        objects = generate_scene(9, 6, self.ALL_KINDS).objects
        _assert_world_table(render_tables(objects, (0.0, 0.0, 0.0)), objects)
        generic = [i for i, o in enumerate(objects) if not isinstance(o.kind, Sphere)]
        assert 0 < len(generic) < len(objects)
        # Bench's generic table holds the same scaled world matrices.
        spheres, table = bench_tables(objects)
        _assert_world_table(table, [objects[i] for i in generic])
        plain = [o for o in objects if isinstance(o.kind, Sphere)]
        x, y, z = (np.array([o.center.as_tuple()[k] for o in plain]) for k in range(3))
        r_sq = np.array([o.kind.r * o.kind.r for o in plain])
        monomials = [np.ones_like(x), x, y, z, x * x, y * y, z * z, x * y, x * z, y * z, r_sq]
        _assert_bits_equal(spheres, np.array(monomials))
        assert bench_tables(generate_scene(9, 10, ("sphere",)).objects)[1].shape == (10, 0)


def _bounds(r: range) -> tuple[int, int]:
    return r.start, r.stop


def _no_pool(max_workers):
    raise AssertionError(f"pool of {max_workers} started")


class TestMapRanges:
    @pytest.mark.parametrize("n, workers", [(1, 1), (7, 1), (64, 3), (64, 2), (10, 4), (2, 3)])
    def test_ranges_cover_in_order(self, n, workers):
        ranges = map_ranges(_bounds, n, workers)
        assert 1 <= len(ranges) <= min(n, workers)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(lo < hi for lo, hi in ranges)

    def test_even_split_with_the_rest_last(self):
        assert map_ranges(_bounds, 64, 3) == [(0, 22), (22, 44), (44, 64)]

    def test_single_worker_runs_in_process(self):
        seen = []
        assert map_ranges(seen.append, 5, 1) == [None]
        assert seen == [range(0, 5)]

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_no_items_give_no_ranges_and_no_pool(self, workers, monkeypatch):
        monkeypatch.setattr(kernels, "ProcessPoolExecutor", _no_pool)
        seen = []
        assert map_ranges(seen.append, 0, workers) == []
        assert seen == []

    def test_a_pool_of_one_process_is_not_started(self, monkeypatch):
        # One range (n = 1 on two workers), or one usable CPU: `fn` runs in
        # this process, on the ranges a pool would get.
        monkeypatch.setattr(kernels, "ProcessPoolExecutor", _no_pool)
        assert map_ranges(_bounds, 1, 2) == [(0, 1)]
        monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0})
        assert map_ranges(_bounds, 100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    @pytest.mark.parametrize("workers, ranges", [(1, [(0, 10)]), (2, [(0, 5), (5, 10)])])
    def test_runs_where_the_platform_has_no_affinity_call(self, workers, ranges, monkeypatch):
        # macOS and Windows have no `os.sched_getaffinity`: one range runs
        # without counting CPUs, and more fall back to `os.cpu_count`.
        monkeypatch.delattr(kernels.os, "sched_getaffinity")
        monkeypatch.setattr(kernels.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(kernels, "ProcessPoolExecutor", _no_pool)
        assert map_ranges(_bounds, 10, workers) == ranges

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            map_ranges(_bounds, 5, workers)

    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch):
        # 5000 workers on 10^6 rays: 5000 ranges, as many as asked, but a
        # pool of 3 processes.  The fake pool runs in-process.
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(kernels, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0, 2, 5})
        ranges = map_ranges(_bounds, 10**6, 5000)
        assert pools == [3]
        assert len(ranges) == 5000 and ranges[0] == (0, 200) and ranges[-1] == (999800, 10**6)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert map_ranges(_bounds, 5, 4) == [(0, 2), (2, 4), (4, 5)] and pools[-1] == 3
        assert map_ranges(_bounds, 4, 2) == [(0, 2), (2, 4)] and pools[-1] == 2


KIND_MIXES = [
    ("sphere",),
    ("sphere", "ellipsoid"),
    ("hyperboloid1", "hparaboloid"),
    ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid"),
]
# Rounding factors on any term of each lifted D: the two routes' over a
# coefficient table (see `_rounding_bound`) and the plain spheres' product
# (see `_sphere_rounding_bound`).
LIFT_ROUNDINGS = {"classical": 26, "separated": 28, "sphere": 18}


def _columns(vec) -> tuple:
    return tuple(v[:, None] if isinstance(v, np.ndarray) else v for v in vec)


def _shifted_scene(seed: int, objects: int, mix, rays: int, shift: float) -> tuple:
    """Generated objects and `generate_rays` rays, all moved by `shift` along x."""
    moved = [
        dataclasses.replace(o, center=Vec3(o.center.x + shift, o.center.y, o.center.z))
        for o in generate_scene(seed, objects, mix).objects
    ]
    origins, dirs = generate_rays(seed, rays)
    origins[:, 0] += shift
    return moved, (*origins.T, 1.0), (*dirs.T, 0.0)


def _lifted_discriminants(table: np.ndarray, point, direction) -> dict:
    """Per pair, each route's lifted D: the kernels' per-ray lift times the whole table."""
    a, b, c = np.moveaxis(kernels.classical_lift(point, direction) @ table, 1, 0)
    w = kernels.separated_lift(point, direction)
    return {"classical": b * b - a * c, "separated": w @ np.array(compound_entries(table))}


def _compound_pair_form(table: np.ndarray, point, direction) -> np.ndarray:
    """Per pair, 0.0 plus weight * C[I, J] left to right in `COMPOUND_ORDER`.

    `discriminant_separated` on arrays: it skips a zero weight, which with
    finite entries, as every generated scene's are, changes no bit.
    """
    d = 0.0
    weights = compound_weights(line_entries(_columns(point), _columns(direction)))
    for w, c in zip(weights, compound_entries(table)):
        d = d + w * c
    return d


def _rounding_bound(table: np.ndarray, point, direction, route: str) -> np.ndarray:
    """Per pair, a bound on |lifted D - exact D|: gamma_n (B^2 + A C), n = LIFT_ROUNDINGS[route].

    A, B, C are a, b, c with |Q|, |s| and |x| in place of Q, s and x: the
    sums of the absolute terms.  gamma_n = n u / (1 - n u), u = 2^-53,
    bounds the relative error of a term that passes through n roundings,
    in any order (Higham, Accuracy and Stability of Numerical Algorithms,
    lemma 3.1), so the error of D is at most gamma_n times the sum of its
    absolute terms.  The lifts read each weight off Q's layout, so their
    only roundings are the products and sums of ray components counted
    below.  No term underflows in these scenes.

    Classical: an entry of alpha(s) or gamma(x) is a product of two ray
    components (one rounding), one of beta(s, x) at most a sum of two (two);
    the product with the table adds a multiplication and at most nine
    additions.  So |a_hat - a| <= gamma_11 A, |b_hat - b| <= gamma_12 B and
    |c_hat - c| <= gamma_11 C, and b^2 - a c, two products and a
    subtraction, carries at most 2 * 12 + 2 = 26 factors on any term.

    Separated: D = -p^T C p, p from `line_entries` and C from
    `compound_entries`.  A term of its expansion, x_i s_j x_k s_l q q', passes
    through p_I and p_J, each a product and a subtraction (2 + 2); the
    weight p_I p_J (1; its factor -1 or -2 is exact); the entry
    q_ik q_jl - q_il q_jk, a product and the subtraction (2 of its 3
    operations); and the BLAS dot product of 21 terms, a product and at
    most 20 additions (21): 28 in all.  With P_ij = |x_i s_j| + |s_i x_j|
    and |Q| entrywise, the absolute terms sum to T, the sum over the 36
    ordered pairs I = (i, j), J = (k, l), i < j, k < l, of
    P_ij P_kl (|Q|_ik |Q|_jl + |Q|_il |Q|_jk): the doubled weights count
    each off-diagonal entry twice.  The summand is unchanged when i, j or
    k, l swap, so the sum over all (i, j, k, l), i = j and k = l included,
    holds T four times and more.  Expanded, that sum is 4 (B^2 + A C): a
    term of P_ij, one of P_kl and one of the |Q| pair make eight products,
    and each sums to C A or to B^2, four of each; for one,
    sum |x_i| |Q|_ik |x_k| |s_j| |Q|_jl |s_l| = C A.  So T <= B^2 + A C.

    The bound is computed in floats from nonnegative terms, so it is itself
    low by a relative 2^-47 at most, far below what gamma_(n+1) - gamma_n
    leaves; `_inside` reads it with n + 1.
    """
    q = np.abs(table)
    x, s = (tuple(np.abs(v) for v in _columns(vec)) for vec in (point, direction))
    a, b, c = coefficient_terms(q, x, s)
    n = LIFT_ROUNDINGS[route] + 1
    return n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53) * (b * b + a * c)


def _sphere_rounding_bound(centers: np.ndarray, r_sq: np.ndarray, point, direction) -> np.ndarray:
    """Per (ray, sphere), a bound on |lifted D - exact D| of the plain spheres' product.

    gamma_n |s|^2 (4 |x|^2 + 4 |c|^2 + r^2), n = LIFT_ROUNDINGS["sphere"]:
    written out in its terms, the product of `sphere_lift` and the sphere table
    sums at most |s|^2 (4 |x|^2 + 4 |c|^2 + r^2) in absolute value, and no
    term passes through more than 18 roundings (see `kernels.sphere_counts`).
    Computed in floats from nonnegative terms, so low by a relative 2^-49
    at most, which reading it with n + 1 covers.  No term underflows here.
    """
    x0, x1, x2, _ = _columns(point)
    s0, s1, s2, _ = _columns(direction)
    cx, cy, cz = centers
    n = LIFT_ROUNDINGS["sphere"] + 1
    terms = (s0 * s0 + s1 * s1 + s2 * s2) * (
        4.0 * (x0 * x0 + x1 * x1 + x2 * x2) + 4.0 * (cx * cx + cy * cy + cz * cz) + r_sq
    )
    return n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53) * terms


def _exact_sphere_discriminant(center, r_sq: float, x, s) -> Fraction:
    """b^2 - a c, exact, of the sphere |p - center|^2 = r_sq: its world matrix in `Fraction`s."""
    cx, cy, cz = (Fraction(float(v)) for v in center)
    a44 = cx * cx + cy * cy + cz * cz - Fraction(float(r_sq))
    return exact_discriminant((1, 1, 1, a44, 0, 0, 0, -cx, -cy, -cz), x, s)


def _sphere_pair_form(spheres: np.ndarray, point, direction) -> np.ndarray:
    """Per (ray, sphere), the per-pair sphere D: `moment_discriminant` on the ray's `line_moment`.

    `spheres` is the sphere table of `bench_tables`.
    """
    x, s = _columns(point), _columns(direction)
    moment, dir_norm_sq = line_moment(x, s)
    return moment_discriminant(spheres[1:4], spheres[10], moment, s[:3], dir_norm_sq)


def _scalar_sphere_counts(objects, point, direction) -> np.ndarray:
    """Per ray, the spheres of `objects` with the scalar `sphere_discriminant` >= 0."""
    counts = []
    for i in range(len(point[0])):
        x, s = _ray(point, direction, i)
        cache = make_ray_cache(HomogeneousPoint(*x), HomogeneousDirection(*s))
        counts.append(sum(sphere_discriminant(o.center, o.kind.r, cache) >= 0.0 for o in objects))
    return np.array(counts)


def _bench_counts(objects, point, direction, route: str) -> tuple:
    """(per-ray counts, sphere pairs that fell back) of bench's kernels on `route`."""
    spheres, generic = bench_tables(objects)
    lifted = sphere_lift(point, direction)
    counts, fallbacks = sphere_counts(spheres, lifted, point, direction)
    if route == "classical":
        counts += classical_counts(generic, classical_lift(point, direction))
    else:
        counts += separated_counts(generic, separated_lift(point, direction))
    return counts, fallbacks


def _ray(point, direction, i: int) -> tuple:
    """Ray i's point and direction as 4-tuples of floats."""
    return tuple(
        tuple(v[i] if isinstance(v, np.ndarray) else v for v in vec) for vec in (point, direction)
    )


def _reference_lifts(point, direction) -> tuple:
    """Both lifts from the reference forms.

    Classical: `coefficient_terms` on the 10x10 unit table.  Separated:
    -p_I p_J over the upper triangle of p p^T, p from `line_entries`, with
    each off-diagonal entry doubled as p_I p_J + p_J p_I.
    """
    unit = np.eye(10)[:, :, None]
    terms = coefficient_terms(unit, point, direction)
    classical = np.stack(np.broadcast_arrays(*terms)).transpose(2, 0, 1)
    p = np.array(line_entries(point, direction)).reshape(6, -1)
    outer = p[:, None] * p[None, :]
    i, j = np.triu_indices(6)
    separated = np.where((i == j)[:, None], -outer[i, j], -(outer[i, j] + outer[j, i]))
    return classical, separated.T


def _lift_cases() -> dict:
    origins, dirs = generate_rays(3, 200)
    shifted = origins + np.array([1e5, -1e5, 1e5])
    signs = np.array([0.0, -0.0, -1.5, 2.0, -3.0, 0.25])
    grid = np.array(np.meshgrid(*[signs] * 3)).reshape(3, -1)
    return {
        "generated": ((*origins.T, 1.0), (*dirs.T, 0.0)),
        "shifted by 1e5": ((*shifted.T, 1.0), (*dirs.T, 0.0)),
        "negative and zero components": ((*grid, 1.0), (*np.roll(grid, 1, axis=1), 0.0)),
        "one ray of floats": ((-2.5, 0.0, 7.0, 1.0), (0.5, -1.0, -0.0, 0.0)),
    }


@pytest.mark.parametrize("case", _lift_cases())
def test_lifts_equal_the_unit_table_forms(case):
    # Equal as numbers (np.array_equal): the unit table adds exact zeros, so
    # a zero weight's sign may differ, and no count reads it.
    point, direction = _lift_cases()[case]
    classical, separated = _reference_lifts(point, direction)
    assert np.array_equal(classical_lift(point, direction), classical)
    assert np.array_equal(separated_lift(point, direction), separated)


class TestLiftedKernels:
    """Bench's lifted kernels against the exact oracle and the per-pair forms.

    A BLAS product sums in its own order, so the lifted D is not the
    per-pair forms' D bit for bit.  What holds: D within `_rounding_bound`
    of the exact b^2 - a c, so its sign wherever the exact value lies
    outside the bound, and equal hit counts on generated scenes.
    """

    @pytest.mark.parametrize("shift", [0.0, 1e5])
    def test_signs_equal_the_exact_oracle_outside_the_rounding_bound(self, shift):
        inside = dict.fromkeys(kernels.METHODS, 0)
        margin = dict.fromkeys(kernels.METHODS, np.inf)
        pairs = 0
        for seed in (1, 2):
            objects, point, direction = _shifted_scene(seed, 12, KIND_MIXES[-1], 30, shift)
            table = render_tables(objects, (0.0, 0.0, 0.0))
            lifted = _lifted_discriminants(table, point, direction)
            bounds = {route: _rounding_bound(table, point, direction, route) for route in lifted}
            rays = [_ray(point, direction, i) for i in range(30)]
            exact = [[exact_discriminant(q, x, s) for q in table.T] for x, s in rays]
            weights = separated_lift(point, direction)
            counts = {
                "classical": classical_counts(table, classical_lift(point, direction)),
                "separated": separated_counts(table, weights),
            }
            for route, d in lifted.items():
                for i, row in enumerate(exact):
                    sure_hits = possible_hits = 0
                    for j, truth in enumerate(row):
                        bound = bounds[route][i, j]
                        assert abs(Fraction(float(d[i, j])) - truth) <= bound, (route, i, j)
                        margin[route] = min(margin[route], abs(truth) / bound)
                        if abs(truth) > bound:
                            assert (d[i, j] >= 0.0) == (truth >= 0), (route, i, j)
                            sure_hits += truth > 0
                            possible_hits += truth > 0
                        else:
                            inside[route] += 1
                            possible_hits += 1
                    assert sure_hits <= counts[route][i] <= possible_hits
            pairs += table.shape[1] * len(rays)
        smallest = {route: f"{float(m):.3g}" for route, m in margin.items()}
        print(f"shift {shift:g}: pairs inside the rounding bound, of {pairs}: {inside}")
        print(f"shift {shift:g}: smallest |exact D| / bound: {smallest}")

    @pytest.mark.parametrize("projective", [False, True])
    def test_compound_form_is_the_exact_discriminant(self, projective):
        """-p^T C p, in `Fraction`s through `compound_weights` and `compound_entries`, is b^2 - a c.

        Cauchy-Binet on M = [x s]: det(M^T Q M) = a c - b^2 is the sum over
        I, J of det(M_I) C[I, J] det(M_J), with M_I the rows I of M, whose
        determinants are the line's entries p_I (`line_entries`).  C is
        symmetric, so the 36 terms fold into the 21 of `COMPOUND_ORDER`,
        doubled off the diagonal, as `compound_weights` weighs them.  The
        identity is exact, for projective rays (w != 1, s_w != 0) too.
        """
        rng = np.random.default_rng(21)
        table = render_tables(generate_scene(21, 12, KIND_MIXES[-1]).objects, (0.0, 0.0, 0.0))
        quadrics = [*table.T, *(random_quadric(rng).coefficients() for _ in range(4))]
        origins, dirs = generate_rays(21, 10)
        w = rng.uniform(0.5, 2.0, 10) if projective else np.ones(10)
        s_w = rng.uniform(-0.5, 0.5, 10) if projective else np.zeros(10)
        rays = [
            ([Fraction(v) for v in (*o, wi)], [Fraction(v) for v in (*d, si)])
            for o, d, wi, si in zip(origins.tolist(), dirs.tolist(), w.tolist(), s_w.tolist())
        ]
        for q in quadrics:
            c = compound_entries(Fraction(float(v)) for v in q)
            for x, s in rays:
                d = sum(w * e for w, e in zip(compound_weights(line_entries(x, s)), c))
                assert d == exact_discriminant(q, x, s)

    @pytest.mark.parametrize("mix", KIND_MIXES)
    @pytest.mark.parametrize("tile_pairs", [kernels.TILE_PAIRS, 50])
    def test_hit_counts_equal_the_pair_forms(self, mix, tile_pairs, monkeypatch):
        # Per ray, the counts of the per-pair forms the lifted ones replace:
        # `coefficient_terms` on a whole table, and on each route the sphere
        # form of `_sphere_pair_form` for the plain spheres plus the route's
        # per-pair form for the other objects; no generated pair falls back.
        # Bench's classical route also counts as `coefficient_terms` on the
        # whole table, spheres included, does.
        monkeypatch.setattr(kernels, "TILE_PAIRS", tile_pairs)
        for seed in range(1, 9):
            scene = generate_scene(seed, 20, mix)
            origins, dirs = generate_rays(seed, 60)
            point, direction = (*origins.T, 1.0), (*dirs.T, 0.0)
            x, s = _columns(point), _columns(direction)
            table = render_tables(scene.objects, (0.0, 0.0, 0.0))
            a, b, c = coefficient_terms(table, x, s)
            whole = np.count_nonzero(b * b - a * c >= 0.0, axis=1)
            got = classical_counts(table, classical_lift(point, direction))
            assert np.array_equal(got, whole)

            spheres, generic = bench_tables(scene.objects)
            a, b, c = coefficient_terms(generic, x, s)
            generic_forms = {
                "classical": b * b - a * c,
                "separated": _compound_pair_form(generic, point, direction),
            }
            d_spheres = _sphere_pair_form(spheres, point, direction)
            sphere_hits = np.count_nonzero(d_spheres >= 0.0, axis=1)
            for route, d_generic in generic_forms.items():
                expected = sphere_hits + np.count_nonzero(d_generic >= 0.0, axis=1)
                got, fallbacks = _bench_counts(scene.objects, point, direction, route)
                assert np.array_equal(got, expected) and fallbacks == 0, route
                assert route != "classical" or np.array_equal(got, whole)

    @pytest.mark.parametrize("mix", KIND_MIXES)
    def test_ray_reversal_keeps_every_count(self, mix):
        # Bench detects lines, so s -> -s must count alike: a, c and every
        # lifted weight keep their bits, b only flips its sign.  Generated
        # rays, and rays tangent to the plain spheres, where signs are
        # closest to 0.
        for seed in range(1, 5):
            objects = generate_scene(seed, 20, mix).objects
            origins, dirs = generate_rays(seed, 60)
            cases = [((*origins.T, 1.0), (*dirs.T, 0.0))]
            spheres = [o for o in objects if isinstance(o.kind, Sphere)]
            if spheres:
                cases.append(_tangent_rays(spheres, 4, seed))
            for point, direction in cases:
                reversed_direction = tuple(-v for v in direction)
                for route in kernels.METHODS:
                    got = _bench_counts(objects, point, direction, route)
                    back = _bench_counts(objects, point, reversed_direction, route)
                    assert np.array_equal(got[0], back[0]) and got[1] == back[1], route

    def test_shifted_disagreements_lie_inside_the_rounding_bound(self):
        # Moved 1e5 along x, the table's entries reach 1e10 and D cancels
        # more.  Each pair whose sign differs between a lifted form and the
        # per-pair form it replaces is resolved by the exact oracle; both
        # are right outside their rounding bounds, and the lifted bound is
        # the larger.
        tally = {route: {"pairs": 0, "disagree": 0, "lifted right": 0} for route in kernels.METHODS}
        for mix in KIND_MIXES:
            for seed in range(1, 9):
                objects, point, direction = _shifted_scene(seed, 20, mix, 60, 1e5)
                table = render_tables(objects, (0.0, 0.0, 0.0))
                x, s = _columns(point), _columns(direction)
                a, b, c = coefficient_terms(table, x, s)
                pair_forms = {
                    "classical": b * b - a * c,
                    "separated": _compound_pair_form(table, point, direction),
                }
                for route, d in _lifted_discriminants(table, point, direction).items():
                    bound = _rounding_bound(table, point, direction, route)
                    tally[route]["pairs"] += d.size
                    for i, j in zip(*np.nonzero((d >= 0.0) != (pair_forms[route] >= 0.0))):
                        truth = exact_discriminant(table[:, j], *_ray(point, direction, i))
                        assert abs(truth) <= bound[i, j], (route, mix, seed, i, j)
                        tally[route]["disagree"] += 1
                        tally[route]["lifted right"] += (d[i, j] >= 0.0) == (truth >= 0)
        print(f"shift 1e5, lifted against the per-pair forms: {tally}")


def _tangent_rays(objects, per_sphere: int, seed: int) -> tuple:
    """Rays tangent to each sphere of `objects`, `per_sphere` each, in random directions.

    A ray starts at c + r u - 5 s, with s random and u a unit vector normal
    to s, so its line meets the sphere at exactly one point, up to the
    rounding of its components.
    """
    rng = np.random.default_rng(seed)
    origins, dirs = [], []
    for obj in objects:
        for _ in range(per_sphere):
            s = rng.uniform(-1.0, 1.0, 3)
            u = np.cross(s, rng.uniform(-1.0, 1.0, 3))
            u /= np.linalg.norm(u)
            origins.append(np.array(obj.center.as_tuple()) + obj.kind.r * u - 5.0 * s)
            dirs.append(s)
    origins, dirs = np.array(origins), np.array(dirs)
    return (*origins.T, 1.0), (*dirs.T, 0.0)


class TestSphereProduct:
    """The plain spheres' product, (rays, 11) @ (11, spheres), and its fallback.

    The product sums in BLAS's order, so its D is not the per-pair form's D
    bit for bit.  What holds: D within `_sphere_rounding_bound` of the exact
    b^2 - a c, and, because a pair whose |D| is not above the kernel's
    bound falls back to the one per-pair form, per-ray counts equal to that
    form's on every input, and so equal on both routes.
    """

    @pytest.mark.parametrize("shift", [0.0, 1e5])
    def test_lifted_d_lies_within_its_rounding_bound(self, shift):
        inside, pairs, margin = 0, 0, np.inf
        for seed in (1, 2):
            objects, point, direction = _shifted_scene(seed, 12, ("sphere",), 30, shift)
            spheres, _ = bench_tables(objects)
            centers, r_sq = spheres[1:4], spheres[10]
            d = sphere_lift(point, direction)[0].T @ spheres
            bound = _sphere_rounding_bound(centers, r_sq, point, direction)
            for i in range(30):
                x, s = _ray(point, direction, i)
                for j in range(len(r_sq)):
                    truth = _exact_sphere_discriminant(centers[:, j], r_sq[j], x, s)
                    assert abs(Fraction(float(d[i, j])) - truth) <= bound[i, j], (i, j)
                    margin = min(margin, abs(truth) / bound[i, j])
                    if abs(truth) > bound[i, j]:
                        assert (d[i, j] >= 0.0) == (truth >= 0), (i, j)
                    else:
                        inside += 1
            pairs += d.size
        print(f"shift {shift:g}: sphere pairs inside the rounding bound: {inside} of {pairs}")
        print(f"shift {shift:g}: smallest |exact D| / bound: {float(margin):.3g}")

    @pytest.mark.parametrize("case", ["tangent", "far"])
    @pytest.mark.parametrize("tile_pairs", [kernels.TILE_PAIRS, 50])
    def test_undecided_pairs_fall_back_to_the_pair_forms(self, case, tile_pairs, monkeypatch):
        # Every tangent pair has an exact D of about 0, and falls back; so
        # does every pair of spheres moved 1e9 along x, |c| / r >= 5e8, where
        # the expansion cancels far beyond the product's bound.  Both routes
        # then count as the scalar `sphere_discriminant` does.
        monkeypatch.setattr(kernels, "TILE_PAIRS", tile_pairs)
        if case == "tangent":
            cases = []
            for seed in (5, 6, 7):
                objects = generate_scene(seed, 12, ("sphere",)).objects
                cases.append((objects, *_tangent_rays(objects, 3, seed), 3 * len(objects)))
        else:
            cases = [(*_shifted_scene(5, 12, ("sphere",), 30, 1e9), 30 * 12)]
        for objects, point, direction, undecided in cases:
            d = _sphere_pair_form(bench_tables(objects)[0], point, direction)
            scalar = _scalar_sphere_counts(objects, point, direction)
            for route in kernels.METHODS:
                counts, fallbacks = _bench_counts(objects, point, direction, route)
                assert fallbacks >= undecided, route
                assert np.array_equal(counts, np.count_nonzero(d >= 0.0, axis=1)), route
                assert np.array_equal(counts, scalar), route

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_one_far_sphere_sends_no_near_pair_to_the_pair_form(self, seed):
        # The sphere at 1e9 sets the call's largest k, so nearly every pair
        # fails the coarse test; each is then decided against its own
        # bound, and no pair falls back.  No detect workload fails the
        # coarse test, so only this scene sees the per-pair re-test.
        objects = [
            *generate_scene(seed, 10, ("sphere",)).objects,
            SceneObject(Sphere(1.0), Vec3(1e9, 0.0, 0.0)),
        ]
        origins, dirs = generate_rays(seed, 300)
        point, direction = (*origins.T, 1.0), (*dirs.T, 0.0)
        d = _sphere_pair_form(bench_tables(objects)[0], point, direction)
        for route in kernels.METHODS:
            counts, fallbacks = _bench_counts(objects, point, direction, route)
            assert fallbacks == 0, route
            assert np.array_equal(counts, np.count_nonzero(d >= 0.0, axis=1)), route

    def test_non_finite_d_falls_back(self):
        # Near the overflow edge the product's terms leave the floats: D is
        # inf or NaN, and so is its bound.
        objects = [
            SceneObject(Sphere(1.0), Vec3(1.3e154, 0.0, 0.0)),
            SceneObject(Sphere(1.0), Vec3(0.9e154, -0.9e154, 0.0)),
            SceneObject(Sphere(2.0)),
        ]
        origins, dirs = generate_rays(4, 50)
        point, direction = (*origins.T, 1.0), (*dirs.T, 0.0)
        spheres, _ = bench_tables(objects)
        with np.errstate(all="ignore"):
            d = sphere_lift(point, direction)[0].T @ spheres
            form = _sphere_pair_form(spheres, point, direction)
        non_finite = np.count_nonzero(~np.isfinite(d))
        assert non_finite > 0
        # The scalar `sphere_discriminant` raises on a non-finite D, so both
        # routes are held to its body, `moment_discriminant`, on arrays.
        for route in kernels.METHODS:
            counts, fallbacks = _bench_counts(objects, point, direction, route)
            assert fallbacks >= non_finite, route
            assert np.array_equal(counts, np.count_nonzero(form >= 0.0, axis=1)), route


class TestPlainSplit:
    """`bench_tables` reads the plain spheres off the placements, not off the kind."""

    SPELLINGS = {
        "sphere": Sphere(1.0),
        "ellipsoid": Ellipsoid(1.0, 1.0, 1.0),
        "quadric": General(QuadricMatrix(1.0, 1.0, 1.0, -1.0)),
    }

    @staticmethod
    def _centers(seed: int) -> list:
        """A generated scene's centres, every other one moved 1e4 along x."""
        centers = [o.center for o in generate_scene(seed, 12, ("sphere",)).objects]
        return [c + Vec3(1e4, 0.0, 0.0) if i % 2 else c for i, c in enumerate(centers)]

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_every_spelling_of_a_unit_sphere_takes_the_sphere_kernel(self, seed):
        # The same unit spheres as `sphere`, `ellipsoid 1 1 1` and `quadric
        # 1 1 1 -1`: one sphere table, and so one count per ray and one
        # checksum on both routes, on rays tangent to every sphere.
        centers = self._centers(seed)
        point, direction = _tangent_rays([SceneObject(Sphere(1.0), c) for c in centers], 4, seed)
        origins, dirs = np.array(point[:3]).T, np.array(direction[:3]).T
        split = [
            bench_tables([SceneObject(kind, c) for c in centers]) for kind in self.SPELLINGS.values()
        ]
        for spheres, generic in split:
            assert generic.shape == (10, 0)
            _assert_bits_equal(spheres, split[0][0])
        counts = [
            bench._detect_rays(route, tables, origins, dirs, 1, range(len(origins)))[0]
            for tables in split for route in kernels.METHODS
        ]
        assert all(np.array_equal(c, counts[0]) for c in counts)
        assert len({bench._checksum(c) for c in counts}) == 1

    def test_rotated_and_non_sphere_objects_stay_generic(self):
        rng = np.random.default_rng(3)
        skew = Mat3((1.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        objects = [
            SceneObject(Sphere(1.0), Vec3(1.0, 2.0, 3.0), random_rotation(rng)),
            SceneObject(Sphere(1.0), Vec3(-1.0, 0.0, 2.0), skew),
            SceneObject(General(QuadricMatrix(1.0, 1.0, 1.0, -1.0, a12=0.5))),
            # A point (a44 = 0) and an imaginary sphere (a44 > 0).
            SceneObject(General(QuadricMatrix(1.0, 1.0, 1.0, 0.0)), Vec3(1.0, 0.0, 0.0)),
            SceneObject(General(QuadricMatrix(1.0, 1.0, 1.0, 1.0))),
            SceneObject(Sphere(2.0), Vec3(0.0, 0.0, -4.0)),
        ]
        spheres, generic = bench_tables(objects)
        assert spheres.shape == (11, 1) and spheres[1:4, 0].tolist() == [0.0, 0.0, -4.0]
        _assert_world_table(generic, objects[:5])
