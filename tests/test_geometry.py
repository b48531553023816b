import math

import numpy as np
import pytest

from _helpers import IDENTITY4
from quadrics import (
    HomogeneousDirection,
    HomogeneousPoint,
    Mat3,
    Mat4,
    Vec3,
    compose,
    cross,
    to_euclidean,
    translation,
    transpose,
)
from quadrics.geometry import cross_terms


def _matrix(a: Mat4) -> np.ndarray:
    return np.array(a.m).reshape(4, 4)


class TestCross:
    def test_basis_vectors(self):
        assert cross(Vec3(1, 0, 0), Vec3(0, 1, 0)) == Vec3(0, 0, 1)

    def test_parallel_vectors(self):
        assert cross(Vec3(2, 3, 4), Vec3(2, 3, 4)) == Vec3(0, 0, 0)

    def test_hand_expansion(self):
        assert cross(Vec3(-1, 0, 0), Vec3(2, 1, 0)) == Vec3(0, 0, -1)

    def test_orthogonality(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            u = Vec3(*rng.uniform(-10, 10, size=3))
            v = Vec3(*rng.uniform(-10, 10, size=3))
            c = cross(u, v)
            tol_u = 1e-12 * u.norm() * u.norm() * v.norm()
            tol_v = 1e-12 * u.norm() * v.norm() * v.norm()
            assert abs(c.dot(u)) <= tol_u
            assert abs(c.dot(v)) <= tol_v


def _literal_cross(u: Vec3, v: Vec3) -> tuple:
    return (u.y * v.z - u.z * v.y, u.z * v.x - u.x * v.z, u.x * v.y - u.y * v.x)


class TestCrossTerms:
    def test_floats_and_4_vectors_equal_cross_and_its_expansion(self):
        # The 4-vectors carry w = NaN: a result that read it would be NaN.
        rng = np.random.default_rng(24)
        for _ in range(500):
            u, v = Vec3(*rng.uniform(-10, 10, size=3)), Vec3(*rng.uniform(-10, 10, size=3))
            got = cross_terms(u.as_tuple(), v.as_tuple())
            assert got == cross(u, v).as_tuple() == _literal_cross(u, v)
            assert cross_terms((*u.as_tuple(), math.nan), (*v.as_tuple(), math.nan)) == got

    def test_broadcasting_arrays_equal_cross_element_by_element(self):
        # A column of u against a row of v, and a float component shared by every pair.
        rng = np.random.default_rng(26)
        u = rng.uniform(-10, 10, (3, 7, 1))
        v = rng.uniform(-10, 10, (3, 1, 5))
        got = cross_terms((u[0], u[1], u[2], 1.0), (v[0], 0.5, v[2], 0.0))
        assert all(g.shape == (7, 5) for g in got)
        for i in range(7):
            for j in range(5):
                want = cross(Vec3(*u[:, i, 0]), Vec3(v[0, 0, j], 0.5, v[2, 0, j]))
                assert tuple(float(g[i, j]) for g in got) == want.as_tuple()


class TestTranslation:
    def test_zero_is_identity(self):
        assert translation(Vec3(0, 0, 0)) == IDENTITY4

    def test_center_maps_to_origin(self):
        t = translation(Vec3(1, 2, 3))
        assert (_matrix(t) @ (1.0, 2.0, 3.0, 1.0)).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_directions_unaffected(self):
        t = translation(Vec3(5, 0, 0))
        assert (_matrix(t) @ (1.0, 0.0, 0.0, 0.0)).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_inverse_composition_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = Vec3(*rng.uniform(-1e3, 1e3, size=3))
            assert compose(translation(c), translation(-c)) == IDENTITY4


class TestMatrixAlgebra:
    def test_compose_identity(self):
        rng = np.random.default_rng(5)
        a = Mat4(tuple(rng.uniform(-2, 2, size=16)))
        assert compose(IDENTITY4, a) == a
        assert compose(a, IDENTITY4) == a

    def test_transpose_involution(self):
        rng = np.random.default_rng(6)
        a = Mat4(tuple(rng.uniform(-2, 2, size=16)))
        assert transpose(transpose(a)) == a


class TestToEuclidean:
    @pytest.mark.parametrize(
        "point,expected",
        [
            (HomogeneousPoint(2, 4, 6, 2), Vec3(1, 2, 3)),
            (HomogeneousPoint(1, 2, 3, 1), Vec3(1, 2, 3)),
            (HomogeneousPoint(-3, 0, 0, -1), Vec3(3, 0, 0)),
        ],
    )
    def test_examples(self, point, expected):
        assert to_euclidean(point) == expected

    def test_power_of_two_scaling_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y, z = rng.uniform(-10, 10, size=3)
            w = rng.uniform(0.5, 2.0)
            p = HomogeneousPoint(x, y, z, w)
            for k in (-3, 2, 10):
                lam = 2.0 ** k
                scaled = HomogeneousPoint(lam * x, lam * y, lam * z, lam * w)
                assert to_euclidean(scaled) == to_euclidean(p)

    def test_general_scaling_close(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x, y, z = rng.uniform(-10, 10, size=3)
            w = rng.uniform(0.5, 2.0)
            lam = rng.uniform(0.1, 7.0)
            a = to_euclidean(HomogeneousPoint(x, y, z, w))
            b = to_euclidean(HomogeneousPoint(lam * x, lam * y, lam * z, lam * w))
            for got, want in zip(b.as_tuple(), a.as_tuple()):
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


class TestConstructorValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_vec3_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Vec3(1.0, bad, 0.0)

    def test_point_rejects_w_zero(self):
        with pytest.raises(ValueError, match="infinity"):
            HomogeneousPoint(1.0, 2.0, 3.0, 0.0)

    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HomogeneousPoint(math.nan, 0.0, 0.0, 1.0)

    def test_direction_rejects_all_zero(self):
        with pytest.raises(ValueError):
            HomogeneousDirection(0.0, 0.0, 0.0, 0.0)

    def test_direction_allows_pure_w(self):
        d = HomogeneousDirection(0.0, 0.0, 0.0, 1.0)
        assert d.sw == 1.0

    def test_mat_sizes(self):
        with pytest.raises(ValueError):
            Mat3((1.0, 2.0))
        with pytest.raises(ValueError):
            Mat4((1.0,) * 15)

    def test_mat_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Mat4((math.inf,) + (0.0,) * 15)

    def test_normalize_zero_vector(self):
        with pytest.raises(ValueError):
            Vec3(0, 0, 0).normalized()
