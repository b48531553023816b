import dis
import math
from fractions import Fraction

import numpy as np
import pytest

import quadrics.separated as separated_module
from _helpers import random_quadric, random_ray
from quadrics import (
    EndpointMatrix,
    HomogeneousDirection,
    HomogeneousPoint,
    Two,
    Vec3,
    coefficients,
    cross,
    discriminant_separated,
    intersect_classical,
    intersect_separated,
    make_ray_cache,
    r_from_point_dir,
    r_from_subdeterminants,
    r_from_two_points,
    sphere,
    sphere_discriminant,
    sphere_discriminant_projective,
    transform,
    translation,
)
from quadrics.quadric import QuadricMatrix
from quadrics.rng import Xorshift64Star
from quadrics.separated import COMPOUND_ORDER, compound_entries, compound_weights, line_entries


def _materialize(r):
    r12, r13, r14, r23, r24, r34 = r.entries()
    return np.array(
        [[0.0, r12, r13, r14],
         [-r12, 0.0, r23, r24],
         [-r13, -r23, 0.0, r34],
         [-r14, -r24, -r34, 0.0]]
    )


class TestRFromPointDir:
    def test_origin_ray(self):
        r = r_from_point_dir(HomogeneousPoint(0, 0, 0, 1), HomogeneousDirection(1, 0, 0, 0))
        assert r.entries() == (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
        m = _materialize(r)
        assert m[0, 3] == -1.0 and m[3, 0] == 1.0

    def test_axis_ray_outer_product_expansion(self):
        r = r_from_point_dir(HomogeneousPoint(2, 0, 0, 1), HomogeneousDirection(-1, 0, 0, 0))
        assert r.entries() == (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)

    def test_matches_outer_product_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p, s = random_ray(rng)
            r = _materialize(r_from_point_dir(p, s))
            x4 = np.array(p.as_tuple())
            s4 = np.array(s.as_tuple())
            oracle = np.outer(x4, s4) - np.outer(s4, x4)
            assert np.array_equal(r, oracle)

    def test_antisymmetric_with_null_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, s = random_ray(rng)
            m = _materialize(r_from_point_dir(p, s))
            assert np.array_equal(m, -m.T)
            assert np.all(np.diag(m) == 0.0)


class TestRFromTwoPoints:
    def test_euclidean_pair_matches_point_dir(self):
        a = HomogeneousPoint(0, 0, 0, 1)
        b = HomogeneousPoint(1, 0, 0, 1)
        assert r_from_two_points(a, b) == r_from_point_dir(a, HomogeneousDirection(1, 0, 0, 0))

    def test_hand_expanded_entry(self):
        r = r_from_two_points(HomogeneousPoint(1, 1, 0, 1), HomogeneousPoint(2, 1, 0, 1))
        assert r.r12 == -1.0  # x_A*y_B - x_B*y_A

    def test_projective_w_entry(self):
        r = r_from_two_points(HomogeneousPoint(1, 0, 0, 1), HomogeneousPoint(4, 0, 0, 2))
        assert r.r14 == -2.0  # x_A*w_B - x_B*w_A

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="degenerate line"):
            r_from_two_points(HomogeneousPoint(1, 2, 3, 1), HomogeneousPoint(1, 2, 3, 1))

    def test_projectively_equal_points_rejected(self):
        with pytest.raises(ValueError, match="degenerate line"):
            r_from_two_points(HomogeneousPoint(1, 2, 3, 1), HomogeneousPoint(2, 4, 6, 2))


class TestRFromSubdeterminants:
    def test_simple_pair(self):
        m = EndpointMatrix((0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0))
        want = r_from_two_points(HomogeneousPoint(0, 0, 0, 1), HomogeneousPoint(1, 0, 0, 1))
        assert r_from_subdeterminants(m) == want

    def test_literal_two_by_two_determinants(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.uniform(-5, 5, size=4)
            b = rng.uniform(-5, 5, size=4)
            r = r_from_subdeterminants(EndpointMatrix(tuple(a), tuple(b)))
            for (i, j), got in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), r.entries()):
                det = a[i] * b[j] - a[j] * b[i]
                scale = max(1.0, abs(a[i] * b[j]), abs(a[j] * b[i]))
                assert abs(got - det) <= 1e-14 * scale

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="degenerate line"):
            r_from_subdeterminants(EndpointMatrix((1.0, 2.0, 3.0, 1.0), (2.0, 4.0, 6.0, 2.0)))

    def test_three_constructions_agree_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a4 = tuple(float(v) for v in rng.uniform(-10, 10, size=3)) + (1.0,)
            b4 = tuple(float(v) for v in rng.uniform(-10, 10, size=3)) + (
                float(rng.uniform(0.5, 2.0)),
            )
            pa = HomogeneousPoint(*a4)
            pb = HomogeneousPoint(*b4)
            s = HomogeneousDirection(b4[0] - a4[0], b4[1] - a4[1], b4[2] - a4[2], b4[3] - a4[3])
            r1 = r_from_point_dir(pa, s)
            r2 = r_from_two_points(pa, pb)
            r3 = r_from_subdeterminants(EndpointMatrix(a4, b4))
            assert r1 == r2 == r3


class TestRayCache:
    def test_fields(self):
        p = HomogeneousPoint(1, 2, 3, 1)
        s = HomogeneousDirection(4, 5, 6, 0)
        cache = make_ray_cache(p, s)
        assert cache.moment == cross(Vec3(4, 5, 6), Vec3(1, 2, 3))
        assert cache.dir_norm_sq == 4.0 * 4 + 5 * 5 + 6 * 6
        assert cache.r == r_from_point_dir(p, s)

    def test_rejects_direction_without_spatial_part(self):
        with pytest.raises(ValueError, match="degenerate direction"):
            make_ray_cache(HomogeneousPoint(1, 0, 0, 1), HomogeneousDirection(0, 0, 0, 1))


class TestDiscriminantSeparated:
    def test_axis_ray_hit(self):
        cache = make_ray_cache(HomogeneousPoint(2, 0, 0, 1), HomogeneousDirection(-1, 0, 0, 0))
        assert discriminant_separated(sphere(1.0), cache) == 1.0

    def test_axis_ray_miss(self):
        cache = make_ray_cache(HomogeneousPoint(2, 2, 0, 1), HomogeneousDirection(-1, 0, 0, 0))
        assert discriminant_separated(sphere(1.0), cache) == -3.0

    def test_tangent_construction_is_zero(self):
        # surface point with tangent direction: b = c = 0 by construction
        q = sphere(1.0)
        p = HomogeneousPoint(1, 0, 0, 1)
        s = HomogeneousDirection(0, 1, 0, 0)
        cache = make_ray_cache(p, s)
        cf = coefficients(q, p, s)
        assert (cf.b, cf.c) == (0.0, 0.0)
        scale = max(1.0, cf.a)
        assert abs(discriminant_separated(q, cache)) <= 1e-12 * scale

    def test_matches_classical_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(5000):
            q = random_quadric(rng)
            p, s = random_ray(rng)
            cf = coefficients(q, p, s)
            d_classical = cf.b * cf.b - cf.a * cf.c
            d_sep = discriminant_separated(q, make_ray_cache(p, s))
            tol = 1e-9 * max(1.0, abs(d_classical), cf.b * cf.b, abs(cf.a * cf.c))
            assert abs(d_sep - d_classical) <= tol

    def test_exact_integer_identity(self):
        # integer-valued doubles: line components up to 2^10, quadric
        # coefficients in [-2, 2], so every intermediate product stays
        # below 2^53 and both routes land on the same exact integer
        rng = Xorshift64Star(2024)

        def ray_int():
            return float(rng.int_below(2049) - 1024)

        checked = 0
        while checked < 2000:
            qc = [float(rng.int_below(5) - 2) for _ in range(10)]
            if all(v == 0.0 for v in qc):
                continue
            q = separated_module.QuadricMatrix(*qc)
            sx, sy, sz = ray_int(), ray_int(), ray_int()
            if sx == sy == sz == 0.0:
                continue
            p = HomogeneousPoint(ray_int(), ray_int(), ray_int(), 1.0)
            s = HomogeneousDirection(sx, sy, sz, 0.0)
            cf = coefficients(q, p, s)
            d_classical = cf.b * cf.b - cf.a * cf.c
            d_sep = discriminant_separated(q, make_ray_cache(p, s))
            assert d_sep == d_classical
            checked += 1


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


_AXES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _minors(q, pairs=COMPOUND_ORDER) -> tuple:
    """C[I, J] for (I, J) in `pairs`, each a 2x2 minor of Q's 4x4 matrix: the reference."""
    m = q.to_mat4()
    return tuple(
        m.at(i, k) * m.at(j, l) - m.at(i, l) * m.at(j, k)
        for (i, j), (k, l) in ((_AXES[a], _AXES[b]) for a, b in pairs)
    )


def _compound_sum(q, p) -> float:
    """0.0 plus -p_I p_J C[I, J], doubled off the diagonal, left to right; zero weights skipped."""
    d = 0.0
    for (a, b), c in zip(COMPOUND_ORDER, _minors(q)):
        w = p[a] * ((-1.0 if a == b else -2.0) * p[b])
        if w != 0.0:
            d += w * c
    return d


class TestCompoundForm:
    def test_entries_are_the_minors_of_q(self):
        rng = np.random.default_rng(26)
        matrices = [random_quadric(rng) for _ in range(300)]
        subset = ((5, 5), (2, 4), (0, 1))
        for q in matrices:
            assert _bits(compound_entries(q)) == _bits(_minors(q))
            assert _bits(compound_entries(q, subset)) == _bits(_minors(q, subset))
        # A (10, objects) table gives every object's entries at once.
        table = np.array([q.coefficients() for q in matrices]).T
        assert _bits(np.array(compound_entries(table)).T) == _bits([_minors(q) for q in matrices])

    def test_weights_are_minus_p_i_p_j_doubled_off_the_diagonal(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            point, direction = random_ray(rng)
            p = line_entries(*(
                [Fraction(v) for v in vec.as_tuple()] for vec in (point, direction)
            ))
            weights = compound_weights(p)
            assert weights == [-(1 if a == b else 2) * p[a] * p[b] for a, b in COMPOUND_ORDER]
            assert compound_weights(p, ((1, 3), (4, 4))) == [weights[8], weights[18]]

    def test_discriminant_sums_the_terms_in_compound_order(self):
        # Random rays, and rays from the origin along the axes, where most
        # weights are zeros of either sign.
        rng = np.random.default_rng(28)
        axis_rays = [
            (HomogeneousPoint(0.0, 0.0, 0.0, 1.0), HomogeneousDirection(*v, 0.0))
            for v in ((1.0, 0.0, 0.0), (0.0, -2.0, 0.0), (0.0, 0.5, -3.0), (-1.0, 0.0, 0.0))
        ]
        for k in range(2000):
            q = random_quadric(rng)
            point, direction = random_ray(rng) if k % 2 else axis_rays[k % 8 // 2]
            cache = make_ray_cache(point, direction)
            got = discriminant_separated(q, cache)
            assert _bits(got) == _bits(_compound_sum(q, cache.r.entries()))

    def test_zero_weights_keep_overflowing_entries_out(self):
        # From the origin along x only the weight on C[(0,3), (0,3)] is not
        # 0, and C[(1,2), (1,2)] = a22 a33 overflows: 0 * inf would make D
        # NaN.  The exact D is b^2 - a c = 0 - 1 * (-1).
        q = QuadricMatrix(1.0, 1e300, 1e300, -1.0)
        cache = make_ray_cache(
            HomogeneousPoint(0.0, 0.0, 0.0, 1.0), HomogeneousDirection(1.0, 0.0, 0.0, 0.0)
        )
        assert math.isinf(compound_entries(q)[COMPOUND_ORDER.index((3, 3))])
        assert discriminant_separated(q, cache) == 1.0

    def test_ray_reversal_keeps_every_bit(self):
        # s -> -s negates p, and every weight p_I (k p_J) keeps its bits.
        rng = np.random.default_rng(29)
        for _ in range(2000):
            q = random_quadric(rng)
            point, s = random_ray(rng)
            reversed_s = HomogeneousDirection(-s.sx, -s.sy, -s.sz, -s.sw)
            d = discriminant_separated(q, make_ray_cache(point, s))
            assert _bits(discriminant_separated(q, make_ray_cache(point, reversed_s))) == _bits(d)


class TestSphereDiscriminant:
    def test_ray_through_center(self):
        cache = make_ray_cache(HomogeneousPoint(2, 0, 0, 1), HomogeneousDirection(-1, 0, 0, 0))
        assert sphere_discriminant(Vec3(0, 0, 0), 1.0, cache) == 1.0

    def test_graze(self):
        cache = make_ray_cache(HomogeneousPoint(2, 1, 0, 1), HomogeneousDirection(-1, 0, 0, 0))
        assert sphere_discriminant(Vec3(0, 0, 0), 1.0, cache) == 0.0

    def test_translated_graze(self):
        cache = make_ray_cache(HomogeneousPoint(2, 1, 0, 1), HomogeneousDirection(1, 0, 0, 0))
        assert sphere_discriminant(Vec3(5, 0, 0), 1.0, cache) == 0.0

    def test_rejects_bad_radius(self):
        cache = make_ray_cache(HomogeneousPoint(0, 0, 0, 1), HomogeneousDirection(1, 0, 0, 0))
        with pytest.raises(ValueError, match="non-positive"):
            sphere_discriminant(Vec3(0, 0, 0), 0.0, cache)

    def test_rejects_projective_cache(self):
        cache = make_ray_cache(HomogeneousPoint(0, 0, 0, 2), HomogeneousDirection(1, 0, 0, 0))
        with pytest.raises(ValueError, match="Euclidean"):
            sphere_discriminant(Vec3(0, 0, 0), 1.0, cache)

    def test_overflowing_cross_product_raises(self):
        # dir x center = (0, 0, -1e310): the result is not finite.
        cache = make_ray_cache(HomogeneousPoint(0, 0, 0, 1), HomogeneousDirection(0, 1e10, 0, 0))
        with pytest.raises(ValueError):
            sphere_discriminant(Vec3(1e300, 0, 0), 1.0, cache)

    def test_overflowing_radius_raises(self):
        # r^2 = inf: the reference fails loudly instead of returning inf.
        cache = make_ray_cache(HomogeneousPoint(0, 0, 0, 1), HomogeneousDirection(1, 0, 0, 0))
        with pytest.raises(ValueError, match="non-finite"):
            sphere_discriminant(Vec3(0, 0, 0), 1e200, cache)

    def test_matches_triple_product_form(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            center = Vec3(*rng.uniform(-10, 10, size=3))
            radius = float(rng.uniform(0.1, 3.0))
            p, s = random_ray(rng)
            cache = make_ray_cache(p, s)
            got = sphere_discriminant(center, radius, cache)
            sig = cache.dir3
            delta = cache.point.xyz() - center
            triple = sig.dot(cross(cross(sig, delta), delta)) + radius * radius * sig.dot(sig)
            scale = max(1.0, abs(got), sig.norm_sq() * delta.norm_sq())
            assert abs(got - triple) <= 1e-10 * scale

    def test_matches_generic_separated_path(self):
        rng = np.random.default_rng(43)
        for _ in range(2000):
            center = Vec3(*rng.uniform(-10, 10, size=3))
            radius = float(rng.uniform(0.1, 3.0))
            p, s = random_ray(rng)
            cache = make_ray_cache(p, s)
            q = transform(sphere(radius), translation(center))
            fast = sphere_discriminant(center, radius, cache)
            generic = discriminant_separated(q, cache)
            m = cache.moment - cross(cache.dir3, center)
            scale = max(1.0, abs(generic), radius * radius * cache.dir_norm_sq, m.norm_sq())
            assert abs(fast - generic) <= 1e-9 * scale

    def test_translation_invariance(self):
        rng = np.random.default_rng(44)
        for _ in range(500):
            center = Vec3(*rng.uniform(-5, 5, size=3))
            radius = float(rng.uniform(0.1, 2.0))
            p, s = random_ray(rng)
            shift = Vec3(*rng.uniform(-1e3, 1e3, size=3))
            base = sphere_discriminant(center, radius, make_ray_cache(p, s))
            shifted_p = HomogeneousPoint(p.x + shift.x, p.y + shift.y, p.z + shift.z, 1.0)
            moved = sphere_discriminant(center + shift, radius, make_ray_cache(shifted_p, s))
            # rounding scales with the shifted intermediate magnitudes
            scale = max(1.0, abs(base), s.xyz().norm_sq() * max(1.0, shift.norm_sq()))
            assert abs(moved - base) <= 1e-10 * scale


class TestSphereDiscriminantProjective:
    def test_reduces_to_euclidean_form(self):
        rng = np.random.default_rng(45)
        for _ in range(500):
            center = Vec3(*rng.uniform(-10, 10, size=3))
            radius = float(rng.uniform(0.1, 3.0))
            p, s = random_ray(rng)
            d_fast = sphere_discriminant(center, radius, make_ray_cache(p, s))
            d_proj = sphere_discriminant_projective(center, radius, p, s)
            delta_sq = (p.xyz() - center).norm_sq()
            scale = max(1.0, abs(d_fast), s.xyz().norm_sq() * delta_sq)
            assert abs(d_proj - d_fast) <= 1e-12 * scale

    def test_scaled_point_example(self):
        d = sphere_discriminant_projective(
            Vec3(0, 0, 0), 1.0, HomogeneousPoint(4, 0, 0, 2), HomogeneousDirection(-1, 0, 0, 0)
        )
        assert d == 4.0  # w_A^2 times the normalized-ray value of 1

    def test_scaled_miss_keeps_sign(self):
        base = sphere_discriminant_projective(
            Vec3(0, 0, 0), 1.0, HomogeneousPoint(2, 2, 0, 1), HomogeneousDirection(-1, 0, 0, 0)
        )
        scaled = sphere_discriminant_projective(
            Vec3(0, 0, 0), 1.0, HomogeneousPoint(6, 6, 0, 3), HomogeneousDirection(-1, 0, 0, 0)
        )
        assert base == -3.0
        assert scaled == -27.0

    def test_equals_quadratic_coefficients_on_projective_rays(self):
        # s_w-aware contract: D' is exactly the b^2 - a*c of the translated
        # sphere quadric evaluated on the raw projective ray
        rng = np.random.default_rng(46)
        for _ in range(1000):
            center = Vec3(*rng.uniform(-5, 5, size=3))
            radius = float(rng.uniform(0.1, 3.0))
            w_a = float(rng.choice([-0.5, 0.5, 1.0, 3.0]))
            s_w = float(rng.choice([0.0, 0.05, -0.05]))
            p = HomogeneousPoint(*rng.uniform(-10, 10, size=3), w_a)
            s = HomogeneousDirection(*rng.uniform(-3, 3, size=3), s_w)
            if s.xyz().norm_sq() == 0.0:
                continue
            q = transform(sphere(radius), translation(center))
            cf = coefficients(q, p, s)
            d_cls = cf.b * cf.b - cf.a * cf.c
            d_proj = sphere_discriminant_projective(center, radius, p, s)
            tol = 1e-9 * max(1.0, abs(d_cls), cf.b * cf.b, abs(cf.a * cf.c))
            assert abs(d_proj - d_cls) <= tol

    def test_division_free_bytecode(self):
        divisions = ("BINARY_TRUE_DIVIDE", "BINARY_FLOOR_DIVIDE", "INPLACE_TRUE_DIVIDE")
        for ins in dis.get_instructions(sphere_discriminant_projective):
            assert ins.opname not in divisions
            if ins.opname == "BINARY_OP":
                assert "/" not in (ins.argrepr or "")


class TestProjectiveSignInvariance:
    def test_scaling_never_changes_classification(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            q = random_quadric(rng)
            p, s = random_ray(rng)
            d_base = discriminant_separated(q, make_ray_cache(p, s))
            lam = float(rng.choice([-3.0, -0.5, 0.5, 2.0]))
            mu = float(rng.choice([-2.0, -0.25, 0.75, 4.0]))
            p2 = HomogeneousPoint(lam * p.x, lam * p.y, lam * p.z, lam * p.w)
            s2 = HomogeneousDirection(mu * s.sx, mu * s.sy, mu * s.sz, mu * s.sw)
            d_scaled = discriminant_separated(q, make_ray_cache(p2, s2))
            factor = lam * lam * mu * mu
            tol = 1e-9 * max(1.0, abs(d_base)) * factor
            assert abs(d_scaled - factor * d_base) <= max(tol, 1e-9 * max(1.0, abs(d_scaled)))
            if abs(d_base) > 1e-9 * max(1.0, abs(d_base)):
                assert (d_scaled >= 0.0) == (d_base >= 0.0)


class TestIntersectSeparated:
    def test_sphere_two_hits(self):
        cache = make_ray_cache(HomogeneousPoint(2, 0, 0, 1), HomogeneousDirection(-1, 0, 0, 0))
        assert intersect_separated(sphere(1.0), cache) == Two(t1=1.0, t2=3.0, d=1.0)

    def test_ellipsoid_two_hits(self):
        from quadrics import ellipsoid

        cache = make_ray_cache(HomogeneousPoint(3, 0, 0, 1), HomogeneousDirection(-1, 0, 0, 0))
        r = intersect_separated(ellipsoid(2, 1, 1), cache)
        assert isinstance(r, Two)
        assert r.t1 == pytest.approx(1.0, abs=1e-12)
        assert r.t2 == pytest.approx(5.0, abs=1e-12)

    def test_agrees_with_classical(self):
        rng = np.random.default_rng(48)
        for _ in range(1000):
            q = random_quadric(rng)
            p, s = random_ray(rng)
            rc = intersect_classical(q, p, s)
            rs = intersect_separated(q, make_ray_cache(p, s))
            if isinstance(rc, Two) and isinstance(rs, Two):
                span = max(1.0, abs(rc.t1), abs(rc.t2))
                assert abs(rc.t1 - rs.t1) <= 1e-6 * span
                assert abs(rc.t2 - rs.t2) <= 1e-6 * span
            else:
                cf = coefficients(q, p, s)
                band = 1e-6 * max(1.0, cf.b * cf.b, abs(cf.a * cf.c))
                same = type(rc) is type(rs)
                assert same or abs(cf.b * cf.b - cf.a * cf.c) <= band
