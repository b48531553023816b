import math

import numpy as np
import pytest

from _helpers import form_term_scale, point_at, random_quadric, random_ray
from quadrics import (
    Degenerate,
    HomogeneousDirection,
    HomogeneousPoint,
    LinearHit,
    Miss,
    QuadraticCoeffs,
    Tangent,
    Two,
    Vec3,
    coefficients,
    evaluate,
    hit_parameters,
    hyperbolic_paraboloid,
    intersect_classical,
    solve,
    sphere,
    to_euclidean,
)


class TestCoefficients:
    def test_unit_sphere_axis_ray(self):
        c = coefficients(sphere(1.0), HomogeneousPoint(2, 0, 0, 1), HomogeneousDirection(-1, 0, 0, 0))
        assert (c.a, c.b, c.c) == (1.0, -2.0, 3.0)

    def test_surface_origin_gives_zero_constant(self):
        rng = np.random.default_rng(42)
        q = sphere(2.0)
        for _ in range(20):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            p = HomogeneousPoint(*(2.0 * d), 1.0)
            s = HomogeneousDirection(*rng.uniform(-1, 1, size=3), 0.0)
            c = coefficients(q, p, s)
            assert c.c == evaluate(q, p)
            assert abs(c.c) <= 1e-14

    def test_ellipsoid_axis_ray(self):
        from quadrics import ellipsoid

        c = coefficients(
            ellipsoid(2, 1, 1), HomogeneousPoint(3, 0, 0, 1), HomogeneousDirection(-1, 0, 0, 0)
        )
        assert (c.a, c.b, c.c) == (0.25, -0.75, 1.25)


class TestSolve:
    def test_two_roots(self):
        r = solve(QuadraticCoeffs(1.0, -2.0, 3.0), a_scale=1.0)
        assert r == Two(t1=1.0, t2=3.0, d=1.0)

    def test_tangent_perfect_square(self):
        r = solve(QuadraticCoeffs(1.0, -2.0, 4.0), a_scale=1.0)
        assert isinstance(r, Tangent)
        assert r.t == 2.0 and r.d == 0.0

    def test_miss(self):
        r = solve(QuadraticCoeffs(1.0, 0.0, 1.0), a_scale=1.0)
        assert r == Miss(d=-1.0)

    def test_linear_hit(self):
        r = solve(QuadraticCoeffs(0.0, 1.0, -4.0), a_scale=1.0)
        assert r == LinearHit(t=2.0)

    def test_degenerate(self):
        assert isinstance(solve(QuadraticCoeffs(0.0, 0.0, 1.0), a_scale=1.0), Degenerate)
        assert isinstance(solve(QuadraticCoeffs(0.0, 0.0, 0.0), a_scale=1.0), Degenerate)

    def test_a_scale_is_required(self):
        with pytest.raises(TypeError):
            solve(QuadraticCoeffs(1.0, -2.0, 3.0))

    def test_matches_textbook_formula_at_benign_inputs(self):
        rng = np.random.default_rng(42)
        found = 0
        while found < 200:
            a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            b = rng.uniform(-3, 3)
            c = rng.uniform(-3, 3)
            d = b * b - a * c
            if d <= 1e-3:
                continue
            found += 1
            r = solve(QuadraticCoeffs(a, b, c), a_scale=1.0)
            assert isinstance(r, Two)
            lit = sorted([(-b - math.sqrt(d)) / a, (-b + math.sqrt(d)) / a])
            assert r.t1 == pytest.approx(lit[0], rel=1e-12, abs=1e-12)
            assert r.t2 == pytest.approx(lit[1], rel=1e-12, abs=1e-12)

    def test_cancellation_safe_small_root(self):
        # b^2 >> a*c: the textbook formula loses the small root entirely
        r = solve(QuadraticCoeffs(1.0, -1e8, 1.0), a_scale=1.0)
        assert isinstance(r, Two)
        # product of roots is c/a: residual checks both roots survived
        assert r.t1 * r.t2 == pytest.approx(1.0, rel=1e-9)
        assert r.t1 == pytest.approx(5e-9, rel=1e-6)


class TestIntersectClassical:
    def test_sphere_two_hits(self):
        r = intersect_classical(
            sphere(1.0), HomogeneousPoint(2, 0, 0, 1), HomogeneousDirection(-1, 0, 0, 0)
        )
        assert r == Two(t1=1.0, t2=3.0, d=1.0)

    def test_sphere_graze(self):
        r = intersect_classical(
            sphere(1.0), HomogeneousPoint(2, 1, 0, 1), HomogeneousDirection(-1, 0, 0, 0)
        )
        assert isinstance(r, Tangent)
        assert r.t == 2.0

    def test_sphere_miss(self):
        r = intersect_classical(
            sphere(1.0), HomogeneousPoint(2, 2, 0, 1), HomogeneousDirection(-1, 0, 0, 0)
        )
        assert r == Miss(d=-3.0)

    def test_paraboloid_axis_ray_is_linear(self):
        q = hyperbolic_paraboloid(1.0, 1.0)
        r = intersect_classical(
            q, HomogeneousPoint(0.5, 0.25, 5.0, 1), HomogeneousDirection(0, 0, 1, 0)
        )
        assert isinstance(r, LinearHit)
        # 2*b*t + c with a = 0 lands exactly on the surface
        p = point_at(HomogeneousPoint(0.5, 0.25, 5.0, 1), HomogeneousDirection(0, 0, 1, 0), r.t)
        assert abs(evaluate(q, p)) <= 1e-12


class TestProperties:
    def _random_cases(self, n, seed):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            yield random_quadric(rng), *random_ray(rng)

    def test_root_residuals(self):
        for q, p, s in self._random_cases(2000, 42):
            res = intersect_classical(q, p, s)
            c = coefficients(q, p, s)
            scale = max(abs(c.a), abs(c.b), abs(c.c))
            for t in hit_parameters(res):
                x = point_at(p, s, t)
                assert abs(evaluate(q, x)) <= 1e-8 * scale * max(1.0, t * t)

    def test_root_ordering(self):
        for q, p, s in self._random_cases(2000, 43):
            res = intersect_classical(q, p, s)
            if isinstance(res, Two):
                assert res.t1 <= res.t2

    def test_reversal_symmetry(self):
        for q, p, s in self._random_cases(1000, 44):
            fwd = intersect_classical(q, p, s)
            rev = intersect_classical(q, p, HomogeneousDirection(-s.sx, -s.sy, -s.sz, -s.sw if s.sw else 0.0))
            assert type(fwd) is type(rev)
            if isinstance(fwd, Two):
                assert rev.d == pytest.approx(fwd.d, rel=1e-12, abs=1e-300)
                want = sorted([-fwd.t1, -fwd.t2])
                got = [rev.t1, rev.t2]
                for g, w in zip(got, want):
                    assert g == pytest.approx(w, rel=1e-12, abs=1e-12)
            elif isinstance(fwd, (Miss, Tangent)):
                assert rev.d == pytest.approx(fwd.d, rel=1e-12, abs=1e-300)

    def test_homogeneous_scaling_of_origin(self):
        rng = np.random.default_rng(45)
        for _ in range(500):
            q = random_quadric(rng)
            p, s = random_ray(rng)
            lam = float(rng.uniform(0.1, 10.0))
            p_scaled = HomogeneousPoint(lam * p.x, lam * p.y, lam * p.z, lam * p.w)

            base = intersect_classical(q, p, s)
            scaled = intersect_classical(q, p_scaled, s)
            c0 = coefficients(q, p, s)
            c1 = coefficients(q, p_scaled, s)
            # a fixed; b scales by lambda; c by lambda^2
            assert c1.a == c0.a
            assert c1.b == pytest.approx(lam * c0.b, rel=1e-12, abs=1e-9)
            assert c1.c == pytest.approx(lam * lam * c0.c, rel=1e-12, abs=1e-9)
            if abs(c0.b * c0.b - c0.a * c0.c) <= 1e-6 * max(1.0, c0.b * c0.b, abs(c0.a * c0.c)):
                continue  # tangency band: classification may go either way
            assert type(base) is type(scaled)
            if isinstance(base, Two):
                base_pts = [to_euclidean(point_at(p, s, t)) for t in (base.t1, base.t2)]
                scaled_pts = [to_euclidean(point_at(p_scaled, s, t)) for t in (scaled.t1, scaled.t2)]
                for bp, sp in zip(base_pts, scaled_pts):
                    for g, w in zip(sp.as_tuple(), bp.as_tuple()):
                        assert abs(g - w) <= 1e-10 * max(1.0, abs(w))


class TestHitParameters:
    def test_variants(self):
        assert hit_parameters(Two(1.0, 2.0, 0.5)) == (1.0, 2.0)
        assert hit_parameters(Tangent(3.0, 0.0)) == (3.0,)
        assert hit_parameters(LinearHit(4.0)) == (4.0,)
        assert hit_parameters(Miss(-1.0)) == ()
        assert hit_parameters(Degenerate()) == ()
