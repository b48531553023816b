import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from _helpers import (
    coefficient_table, exact_discriminant, random_quadric, random_ray, random_rotation,
)
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
from quadrics.bench import generate_rays
from quadrics.classical import coefficient_terms
from quadrics.kernels import (
    classical_counts, classical_lift, keep_pairs, map_ranges, nearest_hits, render_tables,
    separated_counts, separated_lift, separated_tables, world_table,
)
from quadrics.quadric import (
    Ellipsoid, General, HyperbolicParaboloid, OneSheetHyperboloid, Sphere, apply,
)
from quadrics.scene import SceneObject, generate_scene
from quadrics.separated import (
    factored_discriminant, line_entries, line_moment, moment_discriminant,
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


@pytest.mark.parametrize("method", ["classical", "separated"])
def test_nearest_hits_equal_the_scalar_kernels_from_several_origins(method, monkeypatch):
    # Raw quadrics seen from 5 origins, one `nearest_hits` call of 5 rays
    # each; tiles of 2 rays split each call's 5 rays unevenly.
    monkeypatch.setattr(kernels, "TILE_PAIRS", 2 * 12)
    rng = np.random.default_rng(3)
    matrices = [random_quadric(rng) for _ in range(12)]
    table = coefficient_table(matrices)
    spheres = render_tables([SceneObject(General(q)) for q in matrices])[1]
    expected = []
    for _ in range(5):
        origin = random_ray(rng)[0]
        directions = [random_ray(rng)[1] for _ in range(5)]
        got = nearest_hits(table, origin.as_tuple()[:3], _split(directions), method, spheres)
        want = [_scalar_nearest(matrices, origin, s, method) for s in directions]
        assert np.array_equal(got, want, equal_nan=True)
        expected += want
    assert not np.all(np.isnan(expected))


@pytest.mark.parametrize("method", ["classical", "separated"])
@pytest.mark.parametrize("tile_pairs", [13, kernels.TILE_PAIRS])
def test_nearest_hits_cull_from_several_origins(method, tile_pairs, monkeypatch):
    # 40 rays, 8 from each of 5 origins, aimed near bounded and unbounded
    # objects: the cull changes nothing, and it does drop pairs.
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
    matrices = [o.world_matrix() for o in objects]
    rays = [
        (HomogeneousPoint(*o[0], 1.0), HomogeneousDirection(*d, 0.0))
        for o, ds in zip(origins.tolist(), dirs.tolist()) for d in ds
    ]
    expected = np.array([_scalar_nearest(matrices, p, s, method) for p, s in rays])
    table, spheres = render_tables(objects)
    kept = []

    def spy(*args):
        ri, oi = keep_pairs(*args)
        kept.append(len(ri))
        return ri, oi

    def run() -> np.ndarray:
        return np.concatenate([
            nearest_hits(table, tuple(o[0]), tuple(d.T), method, spheres)
            for o, d in zip(origins.tolist(), dirs)
        ])

    monkeypatch.setattr(kernels, "keep_pairs", spy)
    assert np.array_equal(run(), expected, equal_nan=True)
    assert 0 < sum(kept) < 40 * 4 and np.count_nonzero(~np.isnan(expected)) > 10
    # Cull off: every column unbounded.
    monkeypatch.setattr(kernels, "cull_radii", lambda spheres, *_: np.full(spheres.shape[1], np.inf))
    assert np.array_equal(run(), expected, equal_nan=True)


@pytest.mark.parametrize("method", ["Separated", "bogus", ""])
def test_nearest_hits_rejects_an_unknown_route(method):
    table, spheres = render_tables([SceneObject(Sphere(1.0))])
    origin, direction = (0.0, 0.0, 5.0), (np.array([0.0]), np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ValueError, match="unknown method"):
        nearest_hits(table, origin, direction, method, spheres)


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
    coefficient_terms, nearest_root = kernels.coefficient_terms, kernels.nearest_root

    def spy(table, x, s):
        # Stage 2 computes a, b, c once per batch, for every pair it roots.
        sizes.append(table.shape[1])
        return coefficient_terms(table, x, s)

    def root_spy(a, b, c, a_scale, d=None):
        assert len(roots) == len(sizes) - 1 and len(a) == sizes[-1]
        roots.append(len(a))
        return nearest_root(a, b, c, a_scale, d)

    monkeypatch.setattr(kernels, "coefficient_terms", spy)
    monkeypatch.setattr(kernels, "nearest_root", root_spy)
    table, spheres = render_tables(objects)
    got = nearest_hits(table, origin, direction, method, spheres)
    assert sum(sizes) == 400 * 3 and len(sizes) > 10 and max(sizes) < 2 * 50 + 3
    assert len(roots) == len(sizes) and max(roots) < 2 * 50
    point = HomogeneousPoint(*origin, 1.0)
    matrices = [o.world_matrix() for o in objects]
    expected = [
        _scalar_nearest(matrices, point, HomogeneousDirection(*s, 0.0), method)
        for s in zip(*direction)
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
        direction = (np.array([0.0]), np.array([1.0]), np.array([0.0]))
        ri, oi = keep_pairs(centers, r_sq, (0.0, 0.0, 1.0), direction)
        assert oi.tolist() == [0, 2] and ri.tolist() == [0, 0]


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
    d = factored_discriminant(table, r, point, direction)
    qx = apply(table, point)
    centers = rng.uniform(-5.0, 5.0, size=(9, 3))
    r_sq = rng.uniform(0.1, 2.0, size=9) ** 2
    d_sphere = moment_discriminant(centers.T, r_sq, moment, direction[:3], dir_norm_sq)
    for i, (p, s) in enumerate(rays):
        cache = make_ray_cache(p, s)
        assert tuple(e[i, 0] for e in r) == cache.r.entries()
        assert tuple(e[i, 0] for e in moment) == cache.moment.as_tuple()
        assert dir_norm_sq[i, 0] == cache.dir_norm_sq
        for j, q in enumerate(matrices):
            cf = coefficients(q, p, s)
            assert (a[i, j], b[i, j], c[i, j]) == (cf.a, cf.b, cf.c)
            assert d[i, j] == discriminant_separated(q, cache)
            assert tuple(e[i, j] for e in qx) == apply(q, p.as_tuple())
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
            SceneObject(Sphere(1.0), Vec3(1e200, 0.0, 0.0), Mat3.identity()),
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
            separated_tables([SceneObject(Sphere(1.0)), SceneObject(Ellipsoid(1.0, 2.0, 3.0)), obj])

    def test_far_plain_sphere_is_named_as_world_table_names_it(self):
        # A fast-path sphere whose a44 overflows fails with world_table's
        # message, and the first failing object is named on both routes.
        far = SceneObject(Sphere(1.0), Vec3(1e200, 0.0, 0.0))
        bad = SceneObject(General(QuadricMatrix(1e308, 1.0, 1.0, 1.0, a12=1e308)))
        for objects, first in (([far, bad], "object 0"), ([bad, far], "object 0"),
                               ([SceneObject(Sphere(1.0)), far], "object 1")):
            with pytest.raises(ValueError, match=first) as expected:
                world_table(objects)
            with pytest.raises(ValueError) as got:
                separated_tables(objects)
            assert str(got.value) == str(expected.value)

    def test_index_selects_and_orders_the_columns(self):
        objects = generate_scene(9, 6, self.ALL_KINDS).objects
        full = world_table(objects)
        generic = [i for i, o in enumerate(objects) if not isinstance(o.kind, Sphere)]
        assert 0 < len(generic) < len(objects)
        _assert_bits_equal(separated_tables(objects)[2], full[:, generic])
        spheres = generate_scene(9, 10, ("sphere",)).objects
        assert separated_tables(spheres)[2].shape == (10, 0)


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
# Rounding factors on any term of each route's lifted D; see `_rounding_bound`.
LIFT_ROUNDINGS = {"classical": 26, "separated": 67}


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
    return {"classical": b * b - a * c, "separated": w @ kernels.pair_products(table)}


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

    Separated: r_ij = x_i s_j - s_i x_j (2 roundings); R's matrix from
    `line_bilinear` on the axes holds each r_ij or its negative, exactly;
    U and V are ray components, exactly; W = U^T R V is two products of
    four terms, each a product and three additions (8); the fold (1); the
    coefficient product q_a q_b (1); and the BLAS dot product of 55 terms, a
    product and at most 54 additions (55): 67 in all.  The absolute terms sum
    to sum_{i<j} (|x_i s_j| + |s_i x_j|)(U_i V_j + U_j V_i) with U = |Q||s|
    and V = |Q||x|, which is at most B^2 + A C.

    The bound is computed in floats from nonnegative terms, so it is itself
    low by a relative 2^-47 at most, far below what gamma_(n+1) - gamma_n
    leaves; `_inside` reads it with n + 1.
    """
    q = np.abs(table)
    x, s = (tuple(np.abs(v) for v in _columns(vec)) for vec in (point, direction))
    a, b, c = coefficient_terms(q, x, s)
    n = LIFT_ROUNDINGS[route] + 1
    return n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53) * (b * b + a * c)


def _fold(rows: np.ndarray, sign: float) -> np.ndarray:
    """(rays, 55): B_a B_b + sign A_a C_b of the rows A, B, C, folded as in `pair_products`.

    Entry (a, b), a < b, is the (a, b) term plus the (b, a) term; entry (a, a)
    is the (a, a) term alone.
    """
    a, b, c = np.moveaxis(rows, 1, 0)
    m = b[:, :, None] * b[:, None, :] + sign * (a[:, :, None] * c[:, None, :])
    i, j = np.triu_indices(10)
    cross = i != j
    folded = m[:, i, j]
    folded[:, cross] += m[:, j[cross], i[cross]]
    return folded


def _ray(point, direction, i: int) -> tuple:
    """Ray i's point and direction as 4-tuples of floats."""
    return tuple(
        tuple(v[i] if isinstance(v, np.ndarray) else v for v in vec) for vec in (point, direction)
    )


def _unit_table_lifts(point, direction, monkeypatch) -> tuple:
    """Both lifts from the reference forms run on the 10x10 unit table.

    Classical: `coefficient_terms` on the unit table.  Separated:
    `separated_lift` with U and V from `quadric.apply` on the unit table.
    """
    unit = np.eye(10)[:, :, None]
    terms = coefficient_terms(unit, point, direction)
    classical = np.stack(np.broadcast_arrays(*terms)).transpose(2, 0, 1)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_applied", lambda v: np.stack(apply(unit, v)))
        separated = separated_lift(point, direction)
    return classical, separated


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
def test_lifts_equal_the_unit_table_forms(case, monkeypatch):
    # Equal as numbers (np.array_equal): the unit table adds exact zeros, so
    # a zero weight's sign may differ, and no count reads it.
    point, direction = _lift_cases()[case]
    classical, separated = _unit_table_lifts(point, direction, monkeypatch)
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
        inside = dict.fromkeys(LIFT_ROUNDINGS, 0)
        margin = dict.fromkeys(LIFT_ROUNDINGS, np.inf)
        pairs = 0
        for seed in (1, 2):
            objects, point, direction = _shifted_scene(seed, 12, KIND_MIXES[-1], 30, shift)
            table = world_table(objects)
            lifted = _lifted_discriminants(table, point, direction)
            bounds = {route: _rounding_bound(table, point, direction, route) for route in lifted}
            rays = [_ray(point, direction, i) for i in range(30)]
            exact = [[exact_discriminant(q, x, s) for q in table.T] for x, s in rays]
            weights = separated_lift(point, direction)
            counts = {
                "classical": classical_counts(table, classical_lift(point, direction)),
                "separated": separated_counts(
                    np.empty((0, 3)), np.empty(0), table, direction, weights,
                    line_moment(point, direction),
                ),
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

    @pytest.mark.parametrize("shift", [0.0, 1e5])
    def test_separated_lift_is_the_classical_rows_folded(self, shift):
        """`separated_lift` equals B (x) B - A (x) C folded, A, B, C the rows of `classical_lift`.

        R = x s^T - s x^T has rank 2, so s^T Q R Q x = b^2 - a c as
        polynomials in Q's coefficients, and the weight of q_a q_b is
        2 B_a B_b - A_a C_b - A_b C_a for a < b and B_a^2 - A_a C_a for a = b.
        Lifted, the separated route thus evaluates b^2 - a c with 55 weights
        against classical's 30 (3 rows of 10) and 3 operations per pair.

        The bound is gamma_n times the absolute terms, as in
        `_rounding_bound`.  With A+, B+, C+ the rows of `classical_lift` on
        |x| and |s|, and M+_ab = B+_a B+_b + A+_a C+_b, the absolute terms of
        either side's entry (a, b) sum to T = M+_ab + M+_ba for a < b and
        M+_aa for a = b: for the separated side, W_ab = u(e_a)^T R v(e_b) has
        the absolute terms sum_ij |u_i| (|x_i s_j| + |s_i x_j|) |v_j|, which
        is (|u|.|x|)(|s|.|v|) + (|u|.|s|)(|x|.|v|) = M+_ab.

        Classical: an entry of A or C is a product of two ray components (1
        rounding), one of B at most a sum of two products (2); the fold's
        products (1), subtraction (1) and sum (1) make at most 2 + 2 + 3 = 7
        on any term.  Separated: r_ij (2), U^T R and (U^T R) V, two products
        of four terms (4 + 4), the fold (1): 11, as in `_rounding_bound`
        without the coefficient product and the dot product with the table.
        So |separated - fold| <= (gamma_11 + gamma_7) T <= gamma_18 T.  T in
        floats is low by at most 7 roundings of nonnegative terms, and the
        difference is rounded once; gamma_20 covers both.
        """
        origins, dirs = generate_rays(1, 40)
        origins[:, 0] += shift
        point, direction = (*origins.T, 1.0), (*dirs.T, 0.0)
        absolute = (tuple(np.abs(v) for v in point), tuple(np.abs(v) for v in direction))
        terms = _fold(classical_lift(*absolute), 1.0)
        folded = _fold(classical_lift(point, direction), -1.0)
        diff = np.abs(separated_lift(point, direction) - folded)
        n = 20
        assert np.all(diff <= n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53) * terms)
        assert np.count_nonzero(terms) > 0.5 * terms.size
        worst = float((diff / np.where(terms > 0.0, terms, 1.0)).max() / 2.0 ** -53)
        print(f"shift {shift:g}: largest |separated - fold| / terms: {worst:.3g} u")

    @pytest.mark.parametrize("mix", KIND_MIXES)
    @pytest.mark.parametrize("tile_pairs", [kernels.TILE_PAIRS, 50])
    def test_hit_counts_equal_the_pair_forms(self, mix, tile_pairs, monkeypatch):
        # Per ray, the counts of the per-pair forms the lifted ones replace:
        # `coefficient_terms` (classical), and the sphere fast path plus the
        # R-factored D (separated).
        monkeypatch.setattr(kernels, "TILE_PAIRS", tile_pairs)
        for seed in range(1, 9):
            scene = generate_scene(seed, 20, mix)
            origins, dirs = generate_rays(seed, 60)
            point, direction = (*origins.T, 1.0), (*dirs.T, 0.0)
            x, s = _columns(point), _columns(direction)
            table = world_table(scene.objects)
            a, b, c = coefficient_terms(table, x, s)
            expected = np.count_nonzero(b * b - a * c >= 0.0, axis=1)
            got = classical_counts(table, classical_lift(point, direction))
            assert np.array_equal(got, expected)

            centers, r_sq, generic = separated_tables(scene.objects)
            lines, terms = line_entries(point, direction), line_moment(point, direction)
            moment, dir_norm_sq = terms
            d_spheres = moment_discriminant(
                centers, r_sq, _columns(moment), s[:3], dir_norm_sq[:, None]
            )
            d_generic = factored_discriminant(generic, _columns(lines), x, s)
            expected = np.count_nonzero(d_spheres >= 0.0, axis=1)
            expected += np.count_nonzero(d_generic >= 0.0, axis=1)
            weights = separated_lift(point, direction)
            got = separated_counts(centers, r_sq, generic, direction, weights, terms)
            assert np.array_equal(got, expected)

    def test_shifted_disagreements_lie_inside_the_rounding_bound(self):
        # Moved 1e5 along x, the table's entries reach 1e10 and D cancels
        # more.  Each pair whose sign differs between a lifted form and the
        # per-pair form it replaces is resolved by the exact oracle; both
        # are right outside their rounding bounds, and the lifted bound is
        # the larger.
        tally = {route: {"pairs": 0, "disagree": 0, "lifted right": 0} for route in LIFT_ROUNDINGS}
        for mix in KIND_MIXES:
            for seed in range(1, 9):
                objects, point, direction = _shifted_scene(seed, 20, mix, 60, 1e5)
                table = world_table(objects)
                x, s = _columns(point), _columns(direction)
                a, b, c = coefficient_terms(table, x, s)
                lines = _columns(line_entries(point, direction))
                pair_forms = {
                    "classical": b * b - a * c,
                    "separated": factored_discriminant(table, lines, x, s),
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
