import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from _helpers import IDENTITY4, form_term_scale, random_quadric, random_rotation
from quadrics import (
    HomogeneousPoint,
    Mat3,
    Vec3,
    compose,
    ellipsoid,
    evaluate,
    hyperbolic_paraboloid,
    one_sheet_hyperboloid,
    rotation,
    sphere,
    transform,
    translation,
)
from quadrics.quadric import (
    CATALOG,
    Ellipsoid,
    General,
    HyperbolicParaboloid,
    OneSheetHyperboloid,
    QuadricMatrix,
    Sphere,
    _Shape,
    quadratic_form,
)


@dataclass(frozen=True, slots=True)
class Cone(_Shape):
    """x^2/a^2 + y^2/b^2 - z^2 = 0: a kind with no `__post_init__` of its own."""

    directive: ClassVar[str] = "cone"
    a: float
    b: float

    def coefficients(self) -> tuple[float, ...]:
        a, b = self.a, self.b
        return (1.0 / (a * a), 1.0 / (b * b), -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestCatalog:
    def test_sphere_matrix(self):
        assert sphere(1.0).coefficients() == (1.0, 1.0, 1.0, -1.0) + (0.0,) * 6

    def test_sphere_radius_units(self):
        assert sphere(3.0).a44 == -9.0

    def test_ellipsoid_matrix(self):
        assert ellipsoid(2, 1, 1).coefficients() == (0.25, 1.0, 1.0, -1.0) + (0.0,) * 6

    def test_one_sheet_hyperboloid_matrix(self):
        q = one_sheet_hyperboloid(1, 2, 4)
        assert (q.a11, q.a22, q.a33, q.a44) == (1.0, 0.25, -0.0625, -1.0)

    def test_hyperbolic_paraboloid_matrix(self):
        q = hyperbolic_paraboloid(1, 1)
        assert (q.a11, q.a22, q.a33, q.a44) == (1.0, -1.0, 0.0, 0.0)
        assert q.a34 == -1.0
        assert (q.a12, q.a13, q.a23, q.a14, q.a24) == (0.0,) * 5

    @pytest.mark.parametrize(
        "ctor,args",
        [
            (sphere, (0.0,)),
            (sphere, (-1.0,)),
            (ellipsoid, (1.0, -2.0, 1.0)),
            (one_sheet_hyperboloid, (0.0, 1.0, 1.0)),
            (hyperbolic_paraboloid, (1.0, 0.0)),
        ],
    )
    def test_non_positive_parameters_rejected(self, ctor, args):
        with pytest.raises(ValueError, match="non-positive"):
            ctor(*args)

    @pytest.mark.parametrize(
        "ctor,args",
        [
            (sphere, (1e200,)),
            (sphere, (1e-170,)),
            (ellipsoid, (1e-200, 1.0, 1.0)),
            (ellipsoid, (1.0, 1.0, math.inf)),
            (one_sheet_hyperboloid, (1.0, 1.0, 1e300)),
            (hyperbolic_paraboloid, (1.0, 1e-160)),
        ],
    )
    def test_degenerate_parameters_rejected(self, ctor, args):
        # r^2 or 1/a^2 would be zero or non-finite
        with pytest.raises(ValueError, match="out of range"):
            ctor(*args)

    def test_coefficients_and_their_largest_magnitude(self):
        lo, hi = 2.0 ** -511, 2.0 ** 511
        rng = np.random.default_rng(6)
        params = [lo, hi, 0.5, 1.0, 3.0] + [float(v) for v in rng.uniform(0.1, 2.0, 10)]
        for kind in CATALOG.values():
            if kind is General:
                continue
            arity = len(kind.__match_args__)
            for i in range(len(params)):
                values = tuple(params[(i + k) % len(params)] for k in range(arity))
                shape = kind(*values)
                assert shape.params() == values
                assert shape.coefficients() == shape.matrix().coefficients()
                assert shape.max_abs_coefficient() == shape.matrix().max_abs_coefficient()
                # The closed form from the parameters: 1/(x*x) falls as x grows.
                m = min(values)
                closed = max(1.0, m * m) if kind is Sphere else max(1.0, 1.0 / (m * m))
                assert shape.max_abs_coefficient() == closed
        q = random_quadric(rng)
        assert General(q).coefficients() == q.coefficients()
        assert General(q).max_abs_coefficient() == q.max_abs_coefficient()

    def test_parameter_range_edges(self):
        lo, hi = 2.0 ** -511, 2.0 ** 511
        for edge in (lo, hi):
            assert sphere(edge).a44 in (-(2.0 ** -1022), -(2.0 ** 1022))
            assert ellipsoid(edge, edge, edge).a11 in (2.0 ** -1022, 2.0 ** 1022)
        for beyond in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
            with pytest.raises(ValueError, match="out of range"):
                ellipsoid(1.0, beyond, 1.0)

    @pytest.mark.parametrize(
        "args, want",
        [
            ((1.0, -2.0), "cone: non-positive semi-axis in (1.0, -2.0)"),
            ((0.0, 1.0), "cone: non-positive semi-axis in (0.0, 1.0)"),
            ((1.0, 1e300),
             "cone: semi-axis out of range in (1.0, 1e+300) (must lie in [2^-511, 2^511])"),
            ((1e-160, 1.0),
             "cone: semi-axis out of range in (1e-160, 1.0) (must lie in [2^-511, 2^511])"),
        ],
    )
    def test_a_kind_without_post_init_gets_the_base_range_check(self, args, want):
        with pytest.raises(ValueError) as exc_info:
            Cone(*args)
        assert str(exc_info.value) == want
        lo, hi = 2.0 ** -511, 2.0 ** 511
        assert Cone(lo, hi).params() == (lo, hi)

    def test_catalog_maps_each_directive_to_its_kind(self):
        assert CATALOG == {
            "sphere": Sphere,
            "ellipsoid": Ellipsoid,
            "hyperboloid1": OneSheetHyperboloid,
            "hparaboloid": HyperbolicParaboloid,
            "quadric": General,
        }
        assert all(kind.directive == name for name, kind in CATALOG.items())


class TestEvaluate:
    def test_point_on_unit_sphere(self):
        assert evaluate(sphere(1.0), HomogeneousPoint(1, 0, 0, 1)) == 0.0

    def test_sphere_center(self):
        assert evaluate(sphere(1.0), HomogeneousPoint(0, 0, 0, 1)) == -1.0

    def test_ellipsoid_outside_point(self):
        assert evaluate(ellipsoid(2, 1, 1), HomogeneousPoint(3, 0, 0, 1)) == 1.25

    def test_quadratic_in_w(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            q = random_quadric(rng)
            v = tuple(rng.uniform(-10, 10, size=3)) + (rng.uniform(0.5, 2.0),)
            lam = rng.uniform(1e-3, 1e3)
            scaled = tuple(lam * c for c in v)
            lhs = quadratic_form(q, scaled)
            rhs = lam * lam * quadratic_form(q, v)
            tol = 1e-13 * max(abs(lhs), abs(rhs), lam * lam * form_term_scale(q, v))
            assert abs(lhs - rhs) <= tol


class TestSymmetry:
    def test_materialized_matrix_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = random_quadric(rng).to_mat4()
            for i in range(4):
                for j in range(4):
                    assert m.at(i, j) == m.at(j, i)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            QuadricMatrix(0, 0, 0, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QuadricMatrix(1, 1, 1, math.nan)


class TestTransform:
    def test_identity_is_noop(self):
        q = ellipsoid(2, 1, 0.5)
        assert transform(q, IDENTITY4) == q

    def test_translated_sphere_surface_and_center(self):
        q = transform(sphere(1.0), translation(Vec3(2, 0, 0)))
        assert evaluate(q, HomogeneousPoint(3, 0, 0, 1)) == pytest.approx(0.0, abs=1e-15)
        assert evaluate(q, HomogeneousPoint(2, 0, 0, 1)) == pytest.approx(-1.0, rel=1e-15)

    def test_rotated_ellipsoid_surface_point(self):
        # object-to-world rotation of 90 degrees about z maps the long axis onto y
        rz90 = Mat3((0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0))
        t = compose(rotation(rz90.transposed()), translation(Vec3(0, 0, 0)))
        q = transform(ellipsoid(2, 1, 1), t)
        assert abs(evaluate(q, HomogeneousPoint(0, 2, 0, 1))) <= 1e-12

    def test_change_of_variables_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            q = random_quadric(rng)
            t = compose(
                rotation(random_rotation(rng)),
                translation(Vec3(*rng.uniform(-2, 2, size=3))),
            )
            x = HomogeneousPoint(*rng.uniform(-10, 10, size=3), 1.0)
            tx = tuple(np.array(t.m).reshape(4, 4) @ x.as_tuple())
            lhs = evaluate(transform(q, t), x)
            rhs = quadratic_form(q, tx)
            tol = 1e-12 * max(1.0, abs(lhs), abs(rhs), form_term_scale(q, tx))
            assert abs(lhs - rhs) <= tol

    def test_round_trip_through_inverse(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            q = random_quadric(rng)
            r = random_rotation(rng)
            c = Vec3(*rng.uniform(-5, 5, size=3))
            t = compose(rotation(r.transposed()), translation(c))
            t_inv = compose(translation(-c), rotation(r))
            back = transform(transform(q, t), t_inv)
            scale = q.max_abs_coefficient()
            for got, want in zip(back.coefficients(), q.coefficients()):
                assert abs(got - want) <= 1e-12 * max(1.0, scale)


class TestCatalogSurfaceSampling:
    N = 1000

    def _assert_on_surface(self, q, points):
        tol_base = 1e-10 * max(1.0, q.max_abs_coefficient())
        for p in points:
            x = HomogeneousPoint(*p, 1.0)
            tol = tol_base * max(1.0, p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
            assert abs(evaluate(q, x)) <= tol

    def test_sphere(self):
        rng = np.random.default_rng(42)
        r = 1.7
        d = rng.normal(size=(self.N, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        self._assert_on_surface(sphere(r), r * d)

    def test_ellipsoid(self):
        rng = np.random.default_rng(43)
        a, b, c = 2.0, 0.7, 1.3
        th = rng.uniform(0, math.pi, size=self.N)
        ph = rng.uniform(0, 2 * math.pi, size=self.N)
        pts = np.stack(
            [a * np.sin(th) * np.cos(ph), b * np.sin(th) * np.sin(ph), c * np.cos(th)], axis=1
        )
        self._assert_on_surface(ellipsoid(a, b, c), pts)

    def test_one_sheet_hyperboloid(self):
        rng = np.random.default_rng(44)
        a, b, c = 1.2, 0.8, 1.5
        u = rng.uniform(-2, 2, size=self.N)
        v = rng.uniform(0, 2 * math.pi, size=self.N)
        pts = np.stack(
            [a * np.cosh(u) * np.cos(v), b * np.cosh(u) * np.sin(v), c * np.sinh(u)], axis=1
        )
        self._assert_on_surface(one_sheet_hyperboloid(a, b, c), pts)

    def test_hyperbolic_paraboloid(self):
        rng = np.random.default_rng(45)
        a, b = 1.1, 0.9
        u = rng.uniform(-3, 3, size=self.N)
        v = rng.uniform(-3, 3, size=self.N)
        pts = np.stack([a * u, b * v, (u * u - v * v) / 2.0], axis=1)
        self._assert_on_surface(hyperbolic_paraboloid(a, b), pts)
