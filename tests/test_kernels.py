import numpy as np
import pytest

from _helpers import coefficient_table, random_quadric, random_ray, random_rotation
from quadrics import (
    QuadraticCoeffs,
    QuadricMatrix,
    Vec3,
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
from quadrics.kernels import map_ranges, nearest_hits, world_table
from quadrics.quadric import Ellipsoid, General, HyperbolicParaboloid, OneSheetHyperboloid, Sphere
from quadrics.scene import SceneObject, generate_scene


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


@pytest.mark.parametrize("method", ["classical", "separated"])
def test_nearest_hits_equal_the_scalar_kernels_with_per_ray_origins(method, monkeypatch):
    # Raw quadrics, and rays with origins of their own (render shares one
    # camera origin); tiles of 2 rays split the 25 rays unevenly.
    monkeypatch.setattr(kernels, "TILE_PAIRS", 2 * 12)
    rng = np.random.default_rng(3)
    matrices = [random_quadric(rng) for _ in range(12)]
    rays = [random_ray(rng) for _ in range(25)]
    point = tuple(np.array([p.as_tuple()[k] for p, _ in rays]) for k in range(3)) + (1.0,)
    direction = tuple(np.array([s.as_tuple()[k] for _, s in rays]) for k in range(3)) + (0.0,)
    got = nearest_hits(coefficient_table(matrices), point, direction, method)
    expected = np.array([_scalar_nearest(matrices, p, s, method) for p, s in rays])
    assert np.array_equal(got, expected, equal_nan=True)
    assert not np.all(np.isnan(expected))


def test_pair_kernels_equal_the_scalar_kernels_bit_for_bit():
    rng = np.random.default_rng(8)
    matrices = [random_quadric(rng) for _ in range(9)]
    rays = [random_ray(rng) for _ in range(11)]
    point = tuple(np.array([p.as_tuple()[k] for p, _ in rays])[:, None] for k in range(3)) + (1.0,)
    direction = tuple(np.array([s.as_tuple()[k] for _, s in rays])[:, None] for k in range(3)) + (0.0,)
    table = coefficient_table(matrices)
    a, b, c = kernels.coefficients(table, point, direction)
    r, moment, dir_norm_sq = kernels.ray_cache(point, direction)
    d = kernels.discriminant_separated(table, r, point, direction)
    centers = rng.uniform(-5.0, 5.0, size=(9, 3))
    r_sq = rng.uniform(0.1, 2.0, size=9) ** 2
    d_sphere = kernels.sphere_discriminant(centers, r_sq, moment, direction[:3], dir_norm_sq)
    for i, (p, s) in enumerate(rays):
        cache = make_ray_cache(p, s)
        for j, q in enumerate(matrices):
            cf = coefficients(q, p, s)
            assert (a[i, j], b[i, j], c[i, j]) == (cf.a, cf.b, cf.c)
            assert d[i, j] == discriminant_separated(q, cache)
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


def _scalar_world_table(objects) -> np.ndarray:
    return np.array([o.world_matrix().coefficients() for o in objects]).reshape(-1, 10).T


def _assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestWorldTable:
    """`world_table` against the scalar `SceneObject.world_matrix`, bit for bit."""

    ALL_KINDS = ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid")

    @pytest.mark.parametrize(
        "mix",
        [("sphere",), ("sphere", "ellipsoid"), ALL_KINDS, ("hparaboloid",), ("hyperboloid1",)],
    )
    def test_generated_scenes(self, mix):
        for seed in range(25):
            objects = generate_scene(seed, 1 + 7 * seed, mix).objects
            _assert_bits_equal(world_table(objects), _scalar_world_table(objects))

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
        _assert_bits_equal(world_table(objects), _scalar_world_table(objects))

    def test_raw_quadric_with_negative_zeros(self):
        q = General(QuadricMatrix(-0.0, 1.0, -0.0, -1.0, a12=-0.0, a13=0.0, a14=-0.0, a34=0.5))
        rng = np.random.default_rng(12)
        objects = [SceneObject(q), SceneObject(q, rot=random_rotation(rng))]
        _assert_bits_equal(world_table(objects), _scalar_world_table(objects))
        # 0.0 + (-0.0) * 1.0 is +0.0: the scalar build drops the signs, and so does the table.
        signs = np.signbit(world_table(objects[:1])[:, 0]).tolist()
        assert signs == [False, False, False, True] + [False] * 6

    def test_single_object_and_all_spheres(self):
        one = (SceneObject(Ellipsoid(1.0, 2.0, 3.0), Vec3(4.0, -5.0, 6.0)),)
        _assert_bits_equal(world_table(one), _scalar_world_table(one))
        spheres = generate_scene(3, 17, ("sphere",)).objects
        _assert_bits_equal(world_table(spheres), _scalar_world_table(spheres))
        assert world_table(()).shape == (10, 0)

    @pytest.mark.parametrize(
        "obj",
        [
            SceneObject(Sphere(1.0), Vec3(1e200, 0.0, 0.0)),
            SceneObject(Ellipsoid(1e-150, 1.0, 1.0), Vec3(1e10, 0.0, 0.0)),
            SceneObject(General(QuadricMatrix(1e308, 1.0, 1.0, 1.0, a12=1e308))),
        ],
    )
    def test_overflowing_object_raises(self, obj):
        with pytest.raises(ValueError):
            obj.world_matrix()
        with pytest.raises(ValueError, match="object 1"):
            world_table([SceneObject(Sphere(1.0)), obj])
        with pytest.raises(ValueError, match="object 2"):
            world_table([obj, SceneObject(Sphere(1.0)), obj], [1, 2])

    def test_index_selects_and_orders_the_columns(self):
        objects = generate_scene(9, 6, self.ALL_KINDS).objects
        full = world_table(objects)
        _assert_bits_equal(world_table(objects, [4, 1, 2]), full[:, [4, 1, 2]])
        assert world_table(objects, []).shape == (10, 0)


def _bounds(r: range) -> tuple[int, int]:
    return r.start, r.stop


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
