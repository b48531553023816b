import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from _helpers import camera_relative, random_rotation, wrong_pixels
from quadrics import (
    HomogeneousDirection,
    HomogeneousPoint,
    QuadricMatrix,
    Vec3,
    cross,
    discriminant_separated,
    hit_parameters,
    intersect_classical,
    intersect_separated,
    kernels,
    make_ray_cache,
)
from quadrics.quadric import (
    Ellipsoid,
    General,
    HyperbolicParaboloid,
    OneSheetHyperboloid,
    Sphere,
)
from quadrics.render import Image, pgm_bytes, render_detection
from quadrics.scene import Camera, Scene, SceneObject, generate_scene, parse_scene, serialize_scene

DISC_SCENE = "camera 0 0 5 0 0 0 0 1 0 60 101 101\nsphere 0 0 0 1\n"


def _lit_columns(image: Image, row: int) -> list[int]:
    return [col for col in range(image.width) if image.at(col, row) > 0]


def projected_disc_radius_px(distance: float, radius: float, vfov_deg: float, height: int) -> float:
    """Pixel radius of a sphere silhouette: tangent-cone half angle over fov."""
    tan_alpha = radius / math.sqrt(distance * distance - radius * radius)
    return height * tan_alpha / (2.0 * math.tan(math.radians(vfov_deg) / 2.0))


class TestDiscGolden:
    @pytest.mark.parametrize("method", ["classical", "separated"])
    def test_disc_radius(self, method):
        image = render_detection(parse_scene(DISC_SCENE), method=method)
        expected = projected_disc_radius_px(5.0, 1.0, 60.0, 101)
        center = 50
        lit = _lit_columns(image, center)
        assert lit, "disc missing"
        measured = max(abs(col - center) for col in lit)
        assert abs(measured - expected) <= 1.0
        # filled and centered
        assert lit == list(range(min(lit), max(lit) + 1))
        assert image.at(center, center) > 0
        # column direction is symmetric for a square image
        lit_rows = [row for row in range(image.height) if image.at(center, row) > 0]
        assert abs(max(abs(r - center) for r in lit_rows) - expected) <= 1.0

    def test_center_pixel_shade(self):
        # center ray hits at t = 4 (camera at distance 5, unit sphere)
        image = render_detection(parse_scene(DISC_SCENE), method="separated")
        assert image.at(50, 50) == 64  # round(255 / 4)

    def test_corners_empty(self):
        image = render_detection(parse_scene(DISC_SCENE), method="separated")
        assert image.at(0, 0) == 0
        assert image.at(100, 100) == 0

    def test_methods_identical(self):
        a = render_detection(parse_scene(DISC_SCENE), method="classical")
        b = render_detection(parse_scene(DISC_SCENE), method="separated")
        assert a.pixels == b.pixels


class TestCoverage:
    def test_camera_looking_away_is_black(self):
        text = "camera 0 0 5 0 0 10 0 1 0 60 33 33\nsphere 0 0 -5 1\n"
        image = render_detection(parse_scene(text), method="separated")
        assert set(image.pixels) == {0}

    def test_generated_scene_methods_agree(self):
        # reparse at a smaller resolution to keep the double render cheap
        lines = serialize_scene(generate_scene(11, 12)).splitlines()
        lines[0] = "camera 0 0 30 0 0 0 0 1 0 60 48 48"
        small = parse_scene("\n".join(lines) + "\n")
        a = render_detection(small, method="classical")
        b = render_detection(small, method="separated")
        assert a.pixels == b.pixels


class TestWorkers:
    def test_worker_count_does_not_change_bytes(self):
        sc = parse_scene("camera 0 0 5 0 0 0 0 1 0 60 33 27\nsphere 0 0 0 1\nsphere 2 0 0 0.5\n")
        one = render_detection(sc, method="separated", workers=1)
        two = render_detection(sc, method="separated", workers=2)
        three = render_detection(sc, method="separated", workers=3)
        assert one.pixels == two.pixels == three.pixels

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            render_detection(parse_scene(DISC_SCENE), workers=0)


class TestImage:
    def test_at_reads_row_major(self):
        img = Image(width=3, height=2, pixels=bytes([0, 1, 2, 3, 4, 5]))
        assert [img.at(col, row) for row in range(2) for col in range(3)] == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("col,row", [(3, 0), (-1, 0), (0, 2), (0, -1), (2, 5)])
    def test_at_outside_the_image_raises(self, col, row):
        img = Image(width=3, height=2, pixels=bytes(6))
        with pytest.raises(IndexError, match="outside the 3x2 image"):
            img.at(col, row)


class TestPixelDirections:
    def test_arrays_equal_the_per_pixel_directions(self):
        # Render passes a row of columns against a column of rows; each
        # entry is the same body's component for that pixel alone, exactly.
        cam = Camera(Vec3(1.5, -2.0, 4.0), Vec3(0.3, 0.2, -0.1), Vec3(0.2, 1.0, 0.1), 47.0, 7, 5)
        xyz = cam.pixel_directions(np.arange(7), np.arange(1, 5)[:, None])
        assert all(component.shape == (4, 7) for component in xyz)
        for row in range(1, 5):
            for col in range(7):
                expected = cam.pixel_directions(col, row)
                assert all(isinstance(c, float) for c in expected)
                assert tuple(c[row - 1, col] for c in xyz) == expected


class TestPgm:
    def test_header_and_payload(self):
        img = Image(width=3, height=2, pixels=bytes([0, 128, 255, 1, 2, 3]))
        data = pgm_bytes(img)
        assert data == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 1, 2, 3])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            render_detection(parse_scene(DISC_SCENE), method="fancy")


def reference_render(scene: Scene, method: str) -> tuple[bytes, set[str]]:
    """Per-pixel scalar loop over the camera-relative scene: the image bytes and the result kinds met.

    Render works about the camera: every object moved to c - o, every ray
    from (0, 0, 0, 1).
    """
    cam = scene.camera
    origin = HomogeneousPoint(0.0, 0.0, 0.0, 1.0)
    matrices = [obj.world_matrix() for obj in camera_relative(scene.objects, cam.origin)]
    pixels = bytearray()
    kinds = set()
    for row in range(cam.height):
        for col in range(cam.width):
            direction = HomogeneousDirection.from_euclidean(Vec3(*cam.pixel_directions(col, row)))
            cache = make_ray_cache(origin, direction)
            nearest = None
            for q in matrices:
                if method == "separated":
                    result = intersect_separated(q, cache)
                else:
                    result = intersect_classical(q, origin, direction)
                kinds.add(type(result).__name__)
                for t in hit_parameters(result):
                    if t > 0.0 and (nearest is None or t < nearest):
                        nearest = t
            pixels.append(
                0 if nearest is None else max(1, min(255, int(255.0 / max(nearest, 1.0) + 0.5)))
            )
    return bytes(pixels), kinds


def _camera(width: int, height: int, origin=Vec3(1.0, 2.0, 14.0), look_at=Vec3(0.0, 0.0, 0.0)):
    return Camera(origin, look_at, Vec3(0.0, 1.0, 0.0), 60.0, width, height)


def _mixed_objects() -> tuple[SceneObject, ...]:
    rng = np.random.default_rng(5)
    return (
        SceneObject(Sphere(1.5), Vec3(-3.0, 1.0, 0.0)),
        SceneObject(Ellipsoid(2.0, 0.8, 1.2), Vec3(2.5, -1.0, 1.0), random_rotation(rng)),
        SceneObject(OneSheetHyperboloid(0.6, 0.9, 1.1), Vec3(0.0, 0.0, -6.0), random_rotation(rng)),
        SceneObject(HyperbolicParaboloid(1.0, 2.0), Vec3(1.0, 3.0, -3.0)),
        SceneObject(Sphere(0.7), Vec3(0.5, -2.5, 3.0), random_rotation(rng)),
        SceneObject(General(QuadricMatrix(1.0, 0.5, -0.25, -4.0, a12=0.3, a14=0.5, a34=-0.2))),
    )


class TestBatchedMatchesScalarLoop:
    @pytest.mark.parametrize("method", ["classical", "separated"])
    @pytest.mark.parametrize("size", [(1, 1), (7, 5), (16, 11)])
    @pytest.mark.parametrize("tile_pairs", [13, kernels.TILE_PAIRS])
    def test_every_kind_rotated_and_raw(self, method, size, tile_pairs, monkeypatch):
        # 13 pairs over 6 objects is 2 rays per tile: tiles end mid-row.
        monkeypatch.setattr(kernels, "TILE_PAIRS", tile_pairs)
        scene = Scene(_camera(*size), _mixed_objects())
        expected, _ = reference_render(scene, method)
        assert render_detection(scene, method).pixels == expected

    @pytest.mark.parametrize("method", ["classical", "separated"])
    def test_paraboloid_along_its_axis_gives_linear_hits(self, method):
        scene = Scene(
            _camera(9, 9, origin=Vec3(0.0, 0.0, 10.0)),
            (SceneObject(HyperbolicParaboloid(1.0, 1.0)),),
        )
        expected, kinds = reference_render(scene, method)
        assert "LinearHit" in kinds
        assert render_detection(scene, method).pixels == expected

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_counts(self, workers):
        scene = Scene(_camera(7, 5), _mixed_objects())
        for method in ("classical", "separated"):
            expected, _ = reference_render(scene, method)
            assert render_detection(scene, method, workers=workers).pixels == expected


class TestExtremeInputs:
    """Overflow must behave as in Python floats, with no numpy warning escaping."""

    SCENES = {
        "huge-coefficients": Scene(
            _camera(9, 7, origin=Vec3(0.0, 0.0, 10.0)),
            (
                SceneObject(General(QuadricMatrix(1e300, 1e300, 1e300, -1e300))),
                SceneObject(General(QuadricMatrix(1e300, 2e299, 1e298, -3e299, a12=1e299, a34=-1e300))),
                SceneObject(General(QuadricMatrix(1e300, 1.0, 1.0, -1.0, a14=1e300))),
                # The centre ray meets it where 0 * inf makes the separated
                # discriminant NaN; stage 1 never drops a NaN d, and the pair
                # is a LinearHit.
                SceneObject(General(QuadricMatrix(0.0, 0.0, 0.0, 0.0, a13=1e300, a24=1e300, a34=-1e300))),
                SceneObject(Sphere(1.0), Vec3(2.0, 0.0, 0.0)),
            ),
        ),
        # A unit sphere 1e7 from the world origin and 5 from the camera.  Render
        # works about the camera, so both routes hit it; in world coordinates
        # the scalar kernels call it Degenerate (ROADMAP item 2,
        # tests/test_scale_defects.py).
        "far-sphere": Scene(
            _camera(9, 7, origin=Vec3(1e7 - 5.0, 0.5, 0.0), look_at=Vec3(1e7, 0.5, 0.0)),
            (SceneObject(Sphere(1.0), Vec3(1e7, 0.0, 0.0)),),
        ),
    }

    @pytest.mark.parametrize("method", ["classical", "separated"])
    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_matches_scalar_loop_without_warnings(self, name, method):
        scene = self.SCENES[name]
        expected, _ = reference_render(scene, method)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            image = render_detection(scene, method)
        assert image.pixels == expected


def _no_cull(placed, max_abs, direction):
    """Stand-in for `kernels.cull_radii` that leaves every column unbounded."""
    return np.full(len(placed[0]), np.inf)


def _no_bound(table, a_scale, max_abs, s_sq):
    """Stand-in for `kernels.miss_bound`: T = inf, so the separated stage 1 keeps every pair."""
    return np.full(table.shape[1], np.inf)


class _KeptPairs:
    """Spy on `kernels.keep_pairs`: counts the pairs stage 1 tests and keeps."""

    def __init__(self, monkeypatch):
        self.tested = self.kept = 0
        self.inner = kernels.keep_pairs
        monkeypatch.setattr(kernels, "keep_pairs", self)

    def __call__(self, centers, r_sq, direction):
        ri, oi = self.inner(centers, r_sq, direction)
        self.tested += len(direction[0]) * len(r_sq)
        self.kept += len(ri)
        return ri, oi


def _grazing_spheres(cam: Camera, factors) -> tuple[SceneObject, ...]:
    """Spheres on a pixel's ray, radius the distance to the left neighbour's ray times a factor.

    At 1 - 1e-9 the ray passes just outside the sphere yet inside the
    tangency band: a Tangent hit on the classical route, which a cull
    without margin would drop.  1 - 1e-8 is a Miss just outside the band.
    """
    objects = []
    for k, factor in enumerate(factors):
        # Grazed pixels are 3 columns and 2 rows apart, so no other sphere covers one.
        col, row = 1 + 3 * (k % 2), 1 + 2 * (k // 2)
        center = cam.origin + 10.0 * Vec3(*cam.pixel_directions(col + 1, row))
        s = Vec3(*cam.pixel_directions(col, row))
        w = center - cam.origin
        rho = math.sqrt(cross(s, w).norm_sq() / s.norm_sq())
        objects.append(SceneObject(Sphere(rho * factor), center))
    return tuple(objects)


_GRAZING_CAMERA = _camera(9, 7, origin=Vec3(0.0, 0.0, 0.0), look_at=Vec3(0.0, 0.0, -1.0))
_FAR_GRAZING_CAMERA = _camera(9, 7, origin=Vec3(3e5, -3e5, 3e5), look_at=Vec3(3e5, -3e5, 3e5 - 1.0))
_ROT = random_rotation(np.random.default_rng(21))
_HUGE = 2.0 ** 500
_TINY = 2.0 ** -500

CULL_SCENES = {
    "grazing": Scene(
        _GRAZING_CAMERA,
        _grazing_spheres(
            _GRAZING_CAMERA, (1.0, 1.0 - 1e-11, 1.0 + 1e-11, 1.0 - 1e-9, 1.0 - 3e-9, 1.0 - 1e-8)
        ),
    ),
    # Half a million units out, the kernels' rounding, not the band, decides
    # these grazing pairs: the cull's rounding term keeps them.
    "far-grazing": Scene(
        _FAR_GRAZING_CAMERA,
        _grazing_spheres(
            _FAR_GRAZING_CAMERA,
            (1.0 - 1e-8, 1.0 - 3e-8, 1.0 - 1e-7, 1.0 - 3e-7, 1.0 - 1e-6, 1.0 - 3e-6),
        ),
    ),
    # The camera is inside the ellipsoid's and the first sphere's bounding
    # spheres, outside the ellipsoid; two objects sit behind it.
    "camera-inside": Scene(
        _camera(9, 7, origin=Vec3(0.0, 1.5, 0.0), look_at=Vec3(0.0, 1.5, -1.0)),
        (
            SceneObject(Ellipsoid(4.0, 0.5, 0.5)),
            SceneObject(Sphere(3.0), Vec3(0.0, 1.0, 0.0)),
            SceneObject(Ellipsoid(3.0, 0.4, 0.6), Vec3(1.0, 1.0, -1.0), _ROT),
            SceneObject(Sphere(1.0), Vec3(0.0, 1.5, 8.0)),
            SceneObject(Ellipsoid(1.0, 2.0, 0.5), Vec3(0.5, 1.0, 5.0), _ROT),
        ),
    ),
    "far-placed": Scene(
        _camera(9, 7, origin=Vec3(1e6 + 3.0, -2e6, 3e6 + 12.0), look_at=Vec3(1e6, -2e6, 3e6)),
        (
            SceneObject(Sphere(1.0), Vec3(1e6, -2e6, 3e6)),
            SceneObject(Ellipsoid(2.0, 0.5, 1.0), Vec3(1e6 + 2.0, -2e6 + 1.0, 3e6), _ROT),
            SceneObject(Sphere(0.5), Vec3(1e7, 0.0, 0.0)),
        ),
    ),
    "far-sphere": TestExtremeInputs.SCENES["far-sphere"],
    # The sphere is 1e7 from the camera, where a44 = |c|^2 - 1 and a_i4 =
    # -c_i dwarf the 3x3 block: a scale read off them would make a = |s|^2
    # count as 0 on every pair and light pixels whose line misses the sphere.
    "far-linear": Scene(
        _camera(9, 7, origin=Vec3(0.0, 0.0, 0.0), look_at=Vec3(1.0, 0.0, 0.0)),
        (SceneObject(Sphere(1.0), Vec3(1e7, 0.0, 0.0)),),
    ),
    # The camera sits on the paraboloid's axis and the image size is odd,
    # so the centre pixel's ray is the axis: a = a33 = 0 exactly and
    # b = a34 s_z is not, a LinearHit on both routes.
    "axis-linear": Scene(
        _camera(9, 7, origin=Vec3(0.0, 0.0, 10.0)),
        (SceneObject(HyperbolicParaboloid(1.0, 2.0)),),
    ),
    "axis-ratio": Scene(
        _camera(11, 9, origin=Vec3(0.0, 0.0, 20.0)),
        (
            SceneObject(Ellipsoid(8.0, 8.0 * 2.0 ** -20, 1.0), Vec3(-2.0, 0.0, 0.0)),
            SceneObject(Ellipsoid(8.0, 8.0 * 2.0 ** -20, 1.0), Vec3(2.0, 1.0, 0.0), _ROT),
            SceneObject(Ellipsoid(2.0 ** -10, 2.0 ** 10, 1.0), Vec3(0.0, -2.0, 0.0), _ROT),
        ),
    ),
    "radius-2^500": Scene(
        _camera(9, 7, origin=Vec3(0.0, 0.0, 3.0 * _HUGE), look_at=Vec3(0.0, 0.0, 0.0)),
        (
            SceneObject(Sphere(_HUGE)),
            SceneObject(Ellipsoid(_HUGE, 0.5 * _HUGE, 2.0 * _HUGE), Vec3(_HUGE, 0.0, 0.0), _ROT),
        ),
    ),
    "radius-2^-500": Scene(
        _camera(9, 7, origin=Vec3(0.0, 0.0, 4.0 * _TINY), look_at=Vec3(0.0, 0.0, 0.0)),
        (
            SceneObject(Sphere(_TINY)),
            SceneObject(Ellipsoid(_TINY, 0.5 * _TINY, 2.0 * _TINY), Vec3(_TINY, 0.0, 0.0), _ROT),
        ),
    ),
    "all-bounded": Scene(_camera(12, 10), generate_scene(4, 12).objects),
    "all-unbounded": Scene(
        _camera(12, 10),
        generate_scene(5, 8, ("hyperboloid1", "hparaboloid")).objects + _mixed_objects()[-1:],
    ),
    "mixed": Scene(_camera(12, 10), _mixed_objects()),
    "none-kept": Scene(
        _camera(9, 7, origin=Vec3(0.0, 0.0, 0.0), look_at=Vec3(0.0, 0.0, -1.0)),
        (
            SceneObject(Sphere(1.0), Vec3(50.0, 0.0, 0.0)),
            SceneObject(Ellipsoid(1.0, 2.0, 3.0), Vec3(0.0, -40.0, 0.0), _ROT),
        ),
    ),
}


class TestBoundingCull:
    """Stage 1 never changes an image: filter on, every pair kept and the scalar loop agree.

    The filter is the bounding cull on the classical route and the bound
    of `kernels.miss_bound` on the separated route.
    """

    @staticmethod
    def _check(scene, method, monkeypatch, workers=1) -> set[str]:
        expected, kinds = reference_render(scene, method)
        on = render_detection(scene, method, workers)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "cull_radii", _no_cull)
            patch.setattr(kernels, "miss_bound", _no_bound)
            off = render_detection(scene, method, workers)
        assert on.pixels == off.pixels == expected
        return kinds

    @pytest.mark.parametrize("method", ["classical", "separated"])
    @pytest.mark.parametrize("name", sorted(CULL_SCENES))
    @pytest.mark.parametrize("tile_pairs", [13, kernels.TILE_PAIRS])
    def test_scene(self, name, method, tile_pairs, monkeypatch):
        # 13 pairs per tile: tiles and stage-2 batches end mid-row.
        monkeypatch.setattr(kernels, "TILE_PAIRS", tile_pairs)
        kinds = self._check(CULL_SCENES[name], method, monkeypatch)
        # The scenes built to reach the tangency band and the linear branch do.
        wanted = {"grazing": "Tangent", "axis-linear": "LinearHit"}
        assert name not in wanted or wanted[name] in kinds

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_counts(self, workers, monkeypatch):
        for method in ("classical", "separated"):
            self._check(CULL_SCENES["mixed"], method, monkeypatch, workers)

    @pytest.mark.parametrize("method", ["classical", "separated"])
    def test_none_kept(self, method, monkeypatch):
        # Classical tests every pair against the cull and keeps none; the
        # separated route never calls it.  Either way no stage-2 batch runs.
        spy = _KeptPairs(monkeypatch)
        batches = []
        camera_terms = kernels._camera_terms
        monkeypatch.setattr(
            kernels, "_camera_terms", lambda *args: batches.append(args) or camera_terms(*args)
        )
        image = render_detection(CULL_SCENES["none-kept"], method)
        assert set(image.pixels) == {0} and batches == []
        assert spy.tested == (9 * 7 * 2 if method == "classical" else 0) and spy.kept == 0

    @pytest.mark.parametrize("name", sorted(CULL_SCENES))
    def test_separated_route_runs_no_cull(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("the separated route ran the cull")

        scene = CULL_SCENES[name]
        expected, _ = reference_render(scene, "separated")
        monkeypatch.setattr(kernels, "cull_radii", refuse)
        monkeypatch.setattr(kernels, "keep_pairs", refuse)
        assert render_detection(scene, "separated").pixels == expected

    @pytest.mark.parametrize("method", ["classical", "separated"])
    def test_unbounded_columns(self, method, monkeypatch):
        # An unbounded column keeps every pair of `keep_pairs`, so the
        # classical route roots them all in stage 2; the separated route
        # never calls it.
        scene = CULL_SCENES["all-unbounded"]
        spy = _KeptPairs(monkeypatch)
        expected, _ = reference_render(scene, method)
        assert render_detection(scene, method).pixels == expected
        pairs = 12 * 10 * len(scene.objects) if method == "classical" else 0
        assert spy.tested == spy.kept == pairs

    def test_kept_fraction(self, monkeypatch):
        # A units or margin error that culls nothing, or leaves columns
        # out of the cull, fails here: every column of this scene is
        # bounded and near the origin.
        scene = generate_scene(3, 200)
        scene = Scene(dataclasses.replace(scene.camera, width=64, height=64), scene.objects)
        spy = _KeptPairs(monkeypatch)
        render_detection(scene, "classical")
        assert spy.tested == 64 * 64 * 200
        assert 0 < spy.kept <= 0.01 * spy.tested


# The classical pixels of far-linear and far-placed are checked in
# tests/test_scale_defects.py.  Judged against a44 rather than Q's 3x3
# block, radius-2^500 would light 24 wrong pixels on each route.
TRUTH_CASES = [
    (name, method)
    for name in (
        "grazing", "far-grazing", "far-sphere", "far-linear", "far-placed", "radius-2^-500",
        "radius-2^500",
    )
    for method in ("classical", "separated")
    if (name, method) not in {("far-linear", "classical"), ("far-placed", "classical")}
]


@pytest.mark.parametrize("name, method", TRUTH_CASES)
def test_lit_pixels_equal_the_exact_truth(name, method):
    # Tangency-band pixels aside, each route lights exactly the pixels whose
    # ray meets an object at t > 0, solved with Fractions in each object's
    # own frame from the world inputs.
    scene = CULL_SCENES[name]
    assert wrong_pixels(scene, render_detection(scene, method).pixels) == []


@pytest.mark.parametrize("name", sorted(CULL_SCENES))
def test_both_routes_give_the_same_image(name):
    # Both routes decide Miss by the one relative tangency band.  An
    # absolute early reject on the separated route, d < -TANGENT_EPS, made
    # axis-ratio's images differ in 73 bytes and grazing's in 1.
    scene = CULL_SCENES[name]
    assert render_detection(scene, "separated").pixels == render_detection(scene, "classical").pixels


def _keep_every_pair(placed, max_abs, direction):
    """Stand-in for `kernels.cull_radii`: a finite R'^2 so large that stage 1 keeps every pair."""
    return np.full(len(placed[0]), np.finfo(float).max)


_ALL_KINDS = ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid")


class TestSeparatedPairForm:
    """Render's separated D is `discriminant_separated`'s, bit for bit, on every pair."""

    SCENES = {
        **CULL_SCENES,
        **TestExtremeInputs.SCENES,
        # Generated as the render-unbounded benchmark workload builds its scenes.
        **{
            f"unbounded-{seed}": dataclasses.replace(
                scene, camera=dataclasses.replace(scene.camera, width=24, height=24)
            )
            for seed in (1, 2)
            for scene in [generate_scene(seed, 24, _ALL_KINDS)]
        },
    }

    @staticmethod
    def _render_d(scene, cull, monkeypatch) -> np.ndarray:
        """The d `nearest_hits` filters in stage 1, on the whole image in one call.

        Each tile's d, from `_camera_discriminant`, is (tile rays, objects);
        they arrive in order, joined into one (rays, objects) array.
        """
        cam = scene.camera
        table, placed = kernels.render_tables(scene.objects, cam.origin.as_tuple())
        x, y, z = cam.pixel_directions(np.arange(cam.width), np.arange(cam.height)[:, None])
        seen = []
        camera_discriminant = kernels._camera_discriminant

        def spy(*args):
            seen.append(camera_discriminant(*args))
            return seen[-1]

        monkeypatch.setattr(kernels, "_camera_discriminant", spy)
        monkeypatch.setattr(kernels, "cull_radii", cull)
        kernels.nearest_hits(table, (x.ravel(), y.ravel(), z.ravel()), "separated", placed)
        return np.concatenate(seen)

    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_every_pair(self, name, monkeypatch):
        scene = self.SCENES[name]
        cam = scene.camera
        matrices = [o.world_matrix() for o in camera_relative(scene.objects, cam.origin)]
        origin = HomogeneousPoint(0.0, 0.0, 0.0, 1.0)
        x, y, z = cam.pixel_directions(np.arange(cam.width), np.arange(cam.height)[:, None])
        expected = np.array([
            [discriminant_separated(q, make_ray_cache(origin, HomogeneousDirection(*s, 0.0)))
             for q in matrices]
            for s in zip(x.ravel().tolist(), y.ravel().tolist(), z.ravel().tolist())
        ])
        # The route reads no cull: with every column unbounded or every pair
        # kept alike, each tile gives the d of all its pairs, ray by ray.
        for cull in (_no_cull, _keep_every_pair):
            d = self._render_d(scene, cull, monkeypatch)
            assert d.shape == expected.shape and d.tobytes() == expected.tobytes()


class TestPlacementInvariance:
    """Moving the camera and every object by one exact offset changes no byte (aim 3)."""

    @pytest.mark.parametrize("method", ["classical", "separated"])
    @pytest.mark.parametrize("name", ["mixed", "camera-inside"])
    @pytest.mark.parametrize(
        "offset", [(2.0 ** 20, -(2.0 ** 30), 2.0 ** 40), (-(2.0 ** 10), 2.0 ** 12, 0.0)]
    )
    def test_moved_scene_gives_the_same_image(self, name, method, offset):
        scene = CULL_SCENES[name]
        cam, d = scene.camera, Vec3(*offset)
        for p in (cam.origin, cam.look_at, *(o.center for o in scene.objects)):
            for v, dv in zip(p.as_tuple(), offset):
                assert Fraction(v + dv) == Fraction(v) + Fraction(dv), (p, offset)
        moved = Scene(
            dataclasses.replace(cam, origin=cam.origin + d, look_at=cam.look_at + d),
            tuple(SceneObject(o.kind, o.center + d, o.rot) for o in scene.objects),
        )
        assert render_detection(moved, method).pixels == render_detection(scene, method).pixels
