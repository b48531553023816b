import numpy as np
import pytest

from _helpers import coefficient_table, random_quadric, random_ray, random_rotation
from quadrics import (
    HomogeneousDirection,
    HomogeneousPoint,
    Mat3,
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
from quadrics.kernels import keep_pairs, map_ranges, nearest_hits, render_tables, world_table
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
    spheres = render_tables([SceneObject(General(q)) for q in matrices])[1]
    got = nearest_hits(coefficient_table(matrices), point, direction, method, spheres)
    expected = np.array([_scalar_nearest(matrices, p, s, method) for p, s in rays])
    assert np.array_equal(got, expected, equal_nan=True)
    assert not np.all(np.isnan(expected))


@pytest.mark.parametrize("method", ["classical", "separated"])
@pytest.mark.parametrize("tile_pairs", [13, kernels.TILE_PAIRS])
def test_nearest_hits_cull_with_per_ray_origins(method, tile_pairs, monkeypatch):
    # Rays from their own origins aimed near bounded and unbounded objects:
    # the cull (per-pair w = c - x) changes nothing, and it does drop pairs.
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
    origins = rng.uniform(-12.0, 12.0, size=(40, 3))
    targets = np.array([o.center.as_tuple() for o in objects])[rng.integers(0, 6, 40)]
    dirs = targets + rng.normal(scale=1.5, size=(40, 3)) - origins
    point = (*origins.T, 1.0)
    direction = (*dirs.T, 0.0)
    rays = [
        (HomogeneousPoint(*o, 1.0), HomogeneousDirection(*d, 0.0))
        for o, d in zip(origins.tolist(), dirs.tolist())
    ]
    matrices = [o.world_matrix() for o in objects]
    expected = np.array([_scalar_nearest(matrices, p, s, method) for p, s in rays])
    table, spheres = render_tables(objects)
    kept = []

    def spy(*args):
        ri, oi = keep_pairs(*args)
        kept.append(len(ri))
        return ri, oi

    monkeypatch.setattr(kernels, "keep_pairs", spy)
    got = nearest_hits(table, point, direction, method, spheres)
    assert np.array_equal(got, expected, equal_nan=True)
    assert 0 < sum(kept) < 40 * 4 and np.count_nonzero(~np.isnan(expected)) > 10
    # Cull off: every column unbounded.
    monkeypatch.setattr(kernels, "cull_radii", lambda spheres, *_: np.full(spheres.shape[1], np.inf))
    got = nearest_hits(table, point, direction, method, spheres)
    assert np.array_equal(got, expected, equal_nan=True)


@pytest.mark.parametrize("method", ["classical", "separated"])
def test_stage2_batches_stay_bounded(method, monkeypatch):
    # An origin inside every sphere keeps every pair: stage 2 must run
    # several times, each on fewer than two tiles' worth of pairs, and root
    # each batch in one `nearest_root` call.
    monkeypatch.setattr(kernels, "TILE_PAIRS", 50)
    objects = [SceneObject(Sphere(r), Vec3(0.1 * r, 0.0, 0.0)) for r in (2.0, 3.0, 4.0)]
    rng = np.random.default_rng(4)
    direction = (*rng.normal(size=(3, 400)), 0.0)
    point = (0.0, 0.0, 0.0, 1.0)
    sizes, roots = [], []
    stage2, nearest_root = kernels._stage2, kernels.nearest_root

    def spy(out, table, max_abs, s_sq, point, direction, method, culled, kept):
        sizes.append(sum(len(group[0]) for group in culled + kept))
        calls = len(roots)
        stage2(out, table, max_abs, s_sq, point, direction, method, culled, kept)
        assert len(roots) == calls + 1

    def root_spy(a, b, c, a_scale, d=None):
        roots.append(len(a))
        return nearest_root(a, b, c, a_scale, d)

    monkeypatch.setattr(kernels, "_stage2", spy)
    monkeypatch.setattr(kernels, "nearest_root", root_spy)
    table, spheres = render_tables(objects)
    got = nearest_hits(table, point, direction, method, spheres)
    assert sum(sizes) == 400 * 3 and len(sizes) > 10 and max(sizes) < 2 * 50 + 3
    assert len(roots) == len(sizes) and max(roots) < 2 * 50
    origin = HomogeneousPoint(0.0, 0.0, 0.0, 1.0)
    matrices = [o.world_matrix() for o in objects]
    expected = [
        _scalar_nearest(matrices, origin, HomogeneousDirection(*s, 0.0), method)
        for s in zip(*direction[:3])
    ]
    assert np.array_equal(got, expected)


class TestBoundingSpheres:
    ROT = random_rotation(np.random.default_rng(2))

    def test_bounded_kinds_from_their_coefficients(self):
        objects = [
            SceneObject(Sphere(2.0), Vec3(1.0, 2.0, 3.0)),
            SceneObject(Ellipsoid(1.0, 4.0, 0.5), Vec3(-1.0, 0.0, 0.0), self.ROT),
            SceneObject(General(QuadricMatrix(4.0, 1.0, 2.0, -8.0))),
            SceneObject(OneSheetHyperboloid(1.0, 1.0, 1.0)),
            SceneObject(HyperbolicParaboloid(1.0, 1.0)),
            SceneObject(General(QuadricMatrix(1.0, 1.0, 1.0, -1.0, a14=0.5))),
            SceneObject(General(QuadricMatrix(1.0, 1.0, 1.0, 1.0))),
            SceneObject(General(QuadricMatrix(1.0, 0.0, 1.0, -1.0))),
        ]
        table = render_tables(objects)[1]
        assert table.shape == (7, 8)
        assert np.isnan(table[:, 3:]).all() and not np.isnan(table[:, :3]).any()
        cx, cy, cz, m, lam, tau, nu = table[:, :3]
        assert cx.tolist() == [1.0, -1.0, 0.0] and cy.tolist() == [2.0, 0.0, 0.0]
        assert cz.tolist() == [3.0, 0.0, 0.0]
        # R^2 = -a44 / min(a11, a22, a33), within the 2^-45 (and rotation) allowance.
        assert np.allclose(nu / m, [4.0, 16.0, 8.0], rtol=1e-12, atol=0.0)
        assert np.all(nu / m >= [4.0, 16.0, 8.0])
        assert np.all(lam >= [1.0, 4.0, 4.0]) and np.all(tau >= [3.0, 1.0 + 1.0 / 16.0 + 4.0, 7.0])

    def test_a_matrix_far_from_a_rotation_leaves_the_column_unbounded(self):
        skew = Mat3((1.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        near = Mat3((1.0 + 1e-9, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        table = render_tables([SceneObject(Sphere(1.0), rot=m) for m in (skew, near)])[1]
        assert np.isnan(table[:, 0]).all()
        # Off by 2e-9 in Rot^T Rot: the radius grows by that, not more.
        assert 1.0 < table[6, 1] / table[3, 1] < 1.0 + 1e-8

    def test_keep_pairs_keeps_an_origin_inside_and_nan(self):
        centers = np.array([[0.0, 10.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        r_sq = np.array([4.0, 1.0, np.nan])
        # From (0, 0, 1) along +y: inside the first sphere, missing the second by far.
        direction = (np.array([0.0]), np.array([1.0]), np.array([0.0]), 0.0)
        ri, oi = keep_pairs(centers, r_sq, (0.0, 0.0, 1.0, 1.0), direction)
        assert oi.tolist() == [0, 2] and ri.tolist() == [0, 0]


def test_pair_kernels_equal_the_scalar_kernels_bit_for_bit():
    rng = np.random.default_rng(8)
    matrices = [random_quadric(rng) for _ in range(9)]
    rays = [random_ray(rng) for _ in range(11)]
    point = tuple(np.array([p.as_tuple()[k] for p, _ in rays])[:, None] for k in range(3)) + (1.0,)
    direction = tuple(np.array([s.as_tuple()[k] for _, s in rays])[:, None] for k in range(3)) + (0.0,)
    table = coefficient_table(matrices)
    a, b, c = kernels.coefficients(table, point, direction)
    r = kernels.line_matrix(point, direction)
    moment, dir_norm_sq = kernels.sphere_ray_terms(point, direction)
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
            _assert_bits_equal(render_tables(objects)[0], _scalar_world_table(objects))

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
        _assert_bits_equal(render_tables(objects)[0], _scalar_world_table(objects))

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
        assert [t.shape for t in render_tables(())] == [(10, 0), (7, 0)]

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
        with pytest.raises(ValueError, match="object 1"):
            render_tables([SceneObject(Sphere(1.0)), obj])
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
