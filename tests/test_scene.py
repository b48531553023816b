import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from _helpers import random_quadric, scaled_world_matrix
from quadrics import HomogeneousPoint, evaluate, scene
from quadrics.kernels import render_tables
from quadrics.geometry import Vec3
from quadrics.quadric import (
    CATALOG,
    Ellipsoid,
    General,
    HyperbolicParaboloid,
    OneSheetHyperboloid,
    QuadricMatrix,
    Sphere,
    _Shape,
)
from quadrics.scene import (
    Scene,
    SceneObject,
    SceneParseError,
    generate_scene,
    parse_scene,
    serialize_scene,
)
from quadrics.rng import Xorshift64Star, mix64

MINIMAL = "camera 0 0 5 0 0 0 0 1 0 60 64 64\nsphere 0 0 0 1\n"


class TestXorshift64Star:
    # reference outputs frozen from the documented recurrence
    def test_seed_one_stream(self):
        rng = Xorshift64Star(1)
        assert [rng.next_u64() for _ in range(3)] == [
            0x47E4CE4B896CDD1D,
            0xABCFA6A8E079651D,
            0xB9D10D8FEB731F57,
        ]

    def test_seed_42_stream(self):
        rng = Xorshift64Star(42)
        assert [rng.next_u64() for _ in range(3)] == [
            0x56CE4AB7719BA3A0,
            0xC841EB53EBBB2DDA,
            0xCA466BE0C9980276,
        ]

    def test_zero_seed_replaced(self):
        a = Xorshift64Star(0)
        b = Xorshift64Star(0x9E3779B97F4A7C15)
        assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]

    def test_float_range(self):
        rng = Xorshift64Star(7)
        for _ in range(1000):
            f = rng.next_float()
            assert 0.0 <= f < 1.0

    def test_uniform_bounds(self):
        rng = Xorshift64Star(8)
        for _ in range(1000):
            v = rng.uniform(-3.0, 5.0)
            assert -3.0 <= v < 5.0

    def test_int_below(self):
        rng = Xorshift64Star(9)
        assert all(0 <= rng.int_below(7) < 7 for _ in range(200))
        with pytest.raises(ValueError):
            rng.int_below(0)

    def test_mix64_deterministic(self):
        assert mix64(0) == mix64(0)
        assert mix64(1) != mix64(2)


class TestParse:
    def test_minimal_scene(self):
        sc = parse_scene(MINIMAL)
        assert len(sc.objects) == 1
        assert isinstance(sc.objects[0].kind, Sphere)
        assert sc.camera.width == 64 and sc.camera.height == 64

    def test_negative_radius_reports_line(self):
        with pytest.raises(SceneParseError, match="non-positive radius") as exc_info:
            parse_scene("sphere 0 0 0 -1\n")
        assert exc_info.value.line == 1
        assert "line 1" in str(exc_info.value)

    def test_unknown_directive(self):
        with pytest.raises(SceneParseError, match="unknown directive"):
            parse_scene(MINIMAL + "cube 0 0 0 1\n")

    def test_arity_mismatch(self):
        with pytest.raises(SceneParseError, match="sphere needs 4 numbers"):
            parse_scene("camera 0 0 5 0 0 0 0 1 0 60 64 64\nsphere 0 0 0\n")

    def test_malformed_number(self):
        with pytest.raises(SceneParseError, match="malformed number"):
            parse_scene("camera 0 0 5 0 0 0 0 1 0 60 64 64\nsphere 0 0 x 1\n")

    def test_missing_camera(self):
        with pytest.raises(SceneParseError, match="missing camera"):
            parse_scene("sphere 0 0 0 1\n")

    def test_no_objects(self):
        with pytest.raises(SceneParseError, match="no objects"):
            parse_scene("camera 0 0 5 0 0 0 0 1 0 60 64 64\n")

    def test_duplicate_camera(self):
        with pytest.raises(SceneParseError, match="duplicate camera"):
            parse_scene(MINIMAL + "camera 0 0 5 0 0 0 0 1 0 60 64 64\n")

    def test_orphan_xform(self):
        with pytest.raises(SceneParseError, match="no preceding object"):
            parse_scene("camera 0 0 5 0 0 0 0 1 0 60 64 64\nxform 1 0 0 0 1 0 0 0 1\n")

    def test_double_xform(self):
        text = MINIMAL + "xform 1 0 0 0 1 0 0 0 1\nxform 1 0 0 0 1 0 0 0 1\n"
        with pytest.raises(SceneParseError, match="already has an xform"):
            parse_scene(text)

    def test_non_orthonormal_xform(self):
        with pytest.raises(SceneParseError, match="not orthonormal"):
            parse_scene(MINIMAL + "xform 1 0 0 0 2 0 0 0 1\n")

    def test_reflection_rejected(self):
        with pytest.raises(SceneParseError, match="determinant"):
            parse_scene(MINIMAL + "xform 1 0 0 0 1 0 0 0 -1\n")

    @pytest.mark.parametrize("rot", [
        (0.0, -1.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0),
        (0.6, -0.8, 0.0, 0.8, 0.6, 0.0, 0.0, 0.0, 1.0),
        tuple(v / 9.0 for v in (1.0, -4.0, 8.0, 8.0, 4.0, 1.0, -4.0, 7.0, 4.0)),
    ], ids=["axis-permutation", "3-4-5", "ninths"])
    def test_a_rotation_scaled_past_the_determinant_tolerance(self, rot):
        # (1 + d) R: R^T R is off by about 2d, det by about 3d.  d = 4e-9
        # passes the orthonormality check (8e-9 < ROTATION_TOL) and fails
        # the determinant one (1.2e-8); d = 3e-9 passes both.  The
        # determinant is row 0 . (row 1 x row 2): a wrong sign or term in it
        # moves det by far more than the tolerance.
        def xform(d):
            return MINIMAL + "xform " + " ".join(repr((1.0 + d) * v) for v in rot) + "\n"

        for d in (3e-9, -3e-9):
            assert parse_scene(xform(d)).objects[0].rot is not None
        for d in (4e-9, -4e-9):
            with pytest.raises(SceneParseError, match="determinant is not"):
                parse_scene(xform(d))

    def test_malformed_image_size(self):
        for size in ("64.5", "+-5", "\u00b2", "6_4"):
            with pytest.raises(SceneParseError, match="malformed integer") as exc_info:
                parse_scene(f"camera 0 0 5 0 0 0 0 1 0 60 {size} 64\nsphere 0 0 0 1\n")
            assert exc_info.value.line == 1

    @pytest.mark.parametrize("text, line", [
        ("camera 0 0 3_0 0 0 0 0 1 0 60 64 64\nsphere 0 0 0 1\n", 1),
        ("camera 0 0 5 0 0 0 0 1 0 60 64 64\nsphere \u0661\u0662 0 0 1\n", 2),
        ("camera 0 0 5 0 0 0 0 1 0 60 64 64\nsphere 0 0 0 \uff11\n", 2),
        (MINIMAL + "xform 1 0 0 0 1 0 0 0 1_0\n", 3),
        (MINIMAL + "xform 1 0 0 0 \U0001d7cf 0 0 0 1\n", 3),
    ], ids=["underscore", "arabic-indic", "full-width", "xform-underscore", "math-bold"])
    def test_a_number_is_ascii_without_underscores(self, text, line):
        # float() reads every one of these tokens; the scene format does not.
        with pytest.raises(SceneParseError, match="malformed number") as exc_info:
            parse_scene(text)
        assert exc_info.value.line == line

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "+NaN"])
    def test_non_finite_numbers_keep_their_error(self, token):
        with pytest.raises(SceneParseError, match="non-finite") as exc_info:
            parse_scene(f"camera 0 0 5 0 0 0 0 1 0 60 64 64\nsphere 0 {token} 0 1\n")
        assert exc_info.value.line == 2

    def test_non_finite_xform_reports_line(self):
        with pytest.raises(SceneParseError, match="non-finite") as exc_info:
            parse_scene(MINIMAL + "xform nan 0 0 0 1 0 0 0 1\n")
        assert exc_info.value.line == 3

    @pytest.mark.parametrize(
        "line",
        [
            "sphere 0 0 0 1e200",
            "sphere 0 0 0 1e-170",
            "ellipsoid 0 0 0 1e-200 1 1",
            "hyperboloid1 0 0 0 1 1 1e300",
            "hparaboloid 0 0 0 1 1e-160",
        ],
    )
    def test_degenerate_shape_parameter_reports_line(self, line):
        with pytest.raises(SceneParseError, match="out of range") as exc_info:
            parse_scene(MINIMAL + line + "\n")
        assert exc_info.value.line == 3

    @pytest.mark.parametrize(
        "line",
        [
            "sphere 1e200 0 0 1",
            "sphere 1.6e153 1.6e153 -1.6e153 1",
            "ellipsoid 1e60 0 0 1e-100 1 1",
            "quadric 1e308 0 0 0 0 0 0 0 0 0",
            # Under the world bound, over the one about the camera at (0, 0, 5).
            "sphere 0 0 0 1e153",
        ],
    )
    def test_overflowing_placement_reports_line(self, line):
        with pytest.raises(SceneParseError, match="placement overflows") as exc_info:
            parse_scene(MINIMAL + line + "\n")
        assert exc_info.value.line == 3

    XFORMS = ["", "xform 0.6 -0.8 0 0.8 0.6 0 0 0 1", "xform 0 0 1 1 0 0 0 1 0"]

    @pytest.mark.parametrize("xform", XFORMS)
    @pytest.mark.parametrize(
        "line",
        [
            "sphere 1.5e153 1.5e153 -1.5e153 1",
            "sphere 0 0 0 1e153",
            "ellipsoid 1e53 -1e53 1e53 1e-100 1 1",
            "hparaboloid 1e100 0 -1e100 1e-53 1",
            "quadric 1e307 1e307 1e307 1e307 1e307 1e307 1e307 1e307 1e307 1e307",
        ],
    )
    def test_placement_under_the_bound_has_a_finite_world_matrix(self, line, xform):
        # The camera sits at the origin, where render's bound about the
        # camera is the world bound; render's table must be finite too.
        text = "camera 0 0 0 0 0 -1 0 1 0 60 64 64\nsphere 0 0 0 1\n" + line + "\n" + xform + "\n"
        sc = parse_scene(text)
        assert sc.objects[1].world_matrix().max_abs_coefficient() < math.inf
        assert np.isfinite(render_tables(sc.objects, sc.camera.origin.as_tuple())).all()

    def test_kind_message_passes_through(self):
        with pytest.raises(SceneParseError) as exc_info:
            parse_scene(MINIMAL + "ellipsoid 0 0 0 1 -2 1\n")
        want = "line 3: ellipsoid: non-positive semi-axis in (1.0, -2.0, 1.0)"
        assert str(exc_info.value) == want

    @pytest.mark.parametrize(
        "line, want",
        [
            ("hyperboloid1 0 0 0 1 1 0",
             "line 3: hyperboloid1: non-positive semi-axis in (1.0, 1.0, 0.0)"),
            ("hparaboloid 0 0 0 1 1e300",
             "line 3: hparaboloid: semi-axis out of range in (1.0, 1e+300)"
             " (must lie in [2^-511, 2^511])"),
        ],
    )
    def test_kind_message_names_the_directive(self, line, want):
        with pytest.raises(SceneParseError) as exc_info:
            parse_scene(MINIMAL + line + "\n")
        assert str(exc_info.value) == want

    def test_quadric_coefficient_order(self):
        sc = parse_scene(MINIMAL + "quadric 1 2 3 4 5 6 7 8 9 10\n")
        q = sc.objects[1].kind.q
        assert (q.a11, q.a22, q.a33, q.a44) == (1.0, 2.0, 3.0, 4.0)
        assert (q.a12, q.a13, q.a23) == (5.0, 6.0, 7.0)
        assert (q.a14, q.a24, q.a34) == (8.0, 9.0, 10.0)
        want = "quadric 1.0 2.0 3.0 4.0 5.0 6.0 7.0 8.0 9.0 10.0"
        assert serialize_scene(sc).splitlines()[2] == want

    def test_quadric_wrong_count(self):
        with pytest.raises(SceneParseError, match="quadric needs 10 numbers, got 3"):
            parse_scene(MINIMAL + "quadric 1 2 3\n")

    def test_camera_validation_is_a_parse_error(self):
        with pytest.raises(SceneParseError, match="origin equals look-at"):
            parse_scene("camera 0 0 5 0 0 5 0 1 0 60 64 64\nsphere 0 0 0 1\n")

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n" + MINIMAL + "\n# trailing\n"
        assert len(parse_scene(text).objects) == 1

    def test_all_directives(self):
        text = (
            "camera 0 0 20 0 0 0 0 1 0 60 32 32\n"
            "sphere 1 2 3 0.5\n"
            "ellipsoid 0 0 0 1 2 3\n"
            "hyperboloid1 0 1 0 1 1 2\n"
            "hparaboloid 0 0 1 1 1\n"
            "quadric 1 1 1 -1 0 0 0 0 0 0\n"
            "xform 0 -1 0 1 0 0 0 0 1\n"
        )
        sc = parse_scene(text)
        assert len(sc.objects) == 5
        assert isinstance(sc.objects[4].kind, General)
        assert sc.objects[4].rot is not None


class TestWorldMatrix:
    def test_plain_quadric_is_passed_through_exactly(self):
        sc = parse_scene(MINIMAL + "quadric 1 2 3 -4 0 0.5 0 0 0 0\n")
        obj = sc.objects[1]
        assert obj.world_matrix() == obj.kind.matrix()

    def test_translated_sphere_surface(self):
        sc = parse_scene("camera 0 0 9 0 0 0 0 1 0 60 8 8\nsphere 2 0 0 1\n")
        q = sc.objects[0].world_matrix()
        assert abs(evaluate(q, HomogeneousPoint(3, 0, 0, 1))) <= 1e-14
        assert evaluate(q, HomogeneousPoint(2, 0, 0, 1)) == pytest.approx(-1.0)

    def test_rotated_translated_ellipsoid_surface(self):
        # 90-degree object-to-world rotation about z: the a-axis lands on +y
        text = (
            "camera 0 0 9 0 0 0 0 1 0 60 8 8\n"
            "ellipsoid 1 2 3 2 0.5 0.5\n"
            "xform 0 -1 0 1 0 0 0 0 1\n"
        )
        q = parse_scene(text).objects[0].world_matrix()
        assert abs(evaluate(q, HomogeneousPoint(1, 4, 3, 1))) <= 1e-12
        assert evaluate(q, HomogeneousPoint(1, 2, 3, 1)) == pytest.approx(-1.0)


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        text = (
            "camera 0 0 20 0 0 0 0 1 0 60 32 32\n"
            "sphere 1.5 -2.25 3 0.5\n"
            "ellipsoid 0.1 0.2 0.3 1 2 3\n"
            "quadric 1 1 1 -1 0 0.5 0 0 0 0\n"
            "xform 0 -1 0 1 0 0 0 0 1\n"
        )
        first = parse_scene(text)
        canonical = serialize_scene(first)
        second = parse_scene(canonical)
        assert first == second
        assert serialize_scene(second) == canonical

    def test_generated_scene_round_trips(self):
        sc = generate_scene(99, 25)
        assert parse_scene(serialize_scene(sc)) == sc

    def test_random_quadric_coefficients_round_trip(self):
        rng = np.random.default_rng(21)
        camera = parse_scene(MINIMAL).camera
        objects = tuple(SceneObject(General(random_quadric(rng))) for _ in range(50))
        sc = Scene(camera=camera, objects=objects)
        assert parse_scene(serialize_scene(sc)) == sc

    def test_quadric_off_the_origin_is_refused(self):
        # The quadric line has no centre: written as is, this object would
        # parse back with a44 = -1 instead of its world a44 = 8.
        placed = SceneObject(General(QuadricMatrix(1.0, 1.0, 1.0, -1.0)), Vec3(3.0, 0.0, 0.0))
        assert placed.world_matrix().a44 == 8.0
        sc = Scene(parse_scene(MINIMAL).camera, (SceneObject(Sphere(1.0)), placed))
        with pytest.raises(ValueError, match="object 1: a quadric has no centre"):
            serialize_scene(sc)


class TestGenerate:
    def test_determinism(self):
        a = serialize_scene(generate_scene(7, 100))
        b = serialize_scene(generate_scene(7, 100))
        assert a == b

    def test_object_count_and_ranges(self):
        sc = generate_scene(1, 100)
        assert len(sc.objects) == 100
        for obj in sc.objects:
            for comp in obj.center.as_tuple():
                assert -10.0 <= comp <= 10.0
            kind = obj.kind
            if isinstance(kind, Sphere):
                assert 0.1 <= kind.r <= 2.0
            elif isinstance(kind, Ellipsoid):
                for ax in (kind.a, kind.b, kind.c):
                    assert 0.1 <= ax <= 2.0
            else:
                raise AssertionError(f"unexpected kind {kind!r}")

    def test_distinct_seeds_differ(self):
        for base in range(100):
            a = serialize_scene(generate_scene(base, 8))
            b = serialize_scene(generate_scene(base + 1000, 8))
            assert a != b

    def test_zero_objects_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(1, 0)

    def test_single_kind_mix(self):
        sc = generate_scene(3, 20, kind_mix=("sphere",))
        assert all(isinstance(o.kind, Sphere) for o in sc.objects)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            generate_scene(3, 2, kind_mix=("cube",))


class TestGolden:
    """The documented draw order and the catalog's matrices, pinned as literals."""

    MIX = ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid")
    TEXT = (
        "camera 0.0 0.0 30.0 0.0 0.0 0.0 0.0 1.0 0.0 60.0 256 256\n"
        "ellipsoid 3.89822659357964 -0.3319200264119022 -2.3226872913854706"
        " 1.3559414249061044 0.8135963139471204 1.9612691869578975\n"
        "hparaboloid -1.9148780897094113 9.34700810570623 8.638362551979313"
        " 0.6112442796371667 1.3781626053337426\n"
        "sphere -1.5415594809150353 7.672928595948239 -3.3864730818600215"
        " 1.717925651467797\n"
        "hyperboloid1 -0.8394188487778802 5.842941183406987 -2.5997789175198305"
        " 0.7354091270624712 0.15736974123727335 1.892586975870753\n"
        "hyperboloid1 -4.679678629539135 -0.33457049352028534 3.6358019958277943"
        " 1.0242586626209118 1.7966440669076276 1.47673949601458\n"
        "hyperboloid1 1.0524865712217348 5.380822921722732 5.855737701791705"
        " 1.9444646904784253 1.1435949710701758 1.1067622828587682\n"
        "sphere 3.1526523211166833 2.0583149163796506 6.996959606584998"
        " 1.8044862736592089\n"
        "hparaboloid -4.393273100106483 -3.206421988774597 2.5644428582167293"
        " 1.6576713645038985 0.6088496960229298\n"
    )
    # World matrices of objects 0..3, one per kind, in COEFFICIENT_ORDER.
    WORLD = (
        (Ellipsoid, (0.543898852005974, 1.5107133093893268, 0.2599714098613473,
                     8.834129967116343, 0.0, 0.0, 0.0,
                     -2.1202409691071247, 0.5014360015533176, 0.6038322898085148)),
        (HyperbolicParaboloid, (2.676519331240942, -0.5265008498835886, 0.0,
                                -18.907694332028527, 0.0, 0.0, 0.0,
                                5.1252082240769665, 4.921207711523121, -1.0)),
        (Sphere, (1.0, 1.0, 1.0, 69.7671702619107, 0.0, 0.0, 0.0,
                  1.5415594809150353, -7.672928595948239, 3.3864730818600215)),
        (OneSheetHyperboloid, (1.8490215334747846, 40.379184027255356, -0.27918257320686113,
                               1376.9597067711995, 0.0, 0.0, 0.0,
                               1.5521035269949144, -235.93319730521992, -0.7258129679621342)),
    )

    def test_generated_scene_text(self):
        assert serialize_scene(generate_scene(4, 8, self.MIX)) == self.TEXT

    def test_world_matrices(self):
        objects = generate_scene(4, 8, self.MIX).objects
        for obj, (kind, coefficients) in zip(objects, self.WORLD):
            assert isinstance(obj.kind, kind)
            assert obj.world_matrix().coefficients() == coefficients


@dataclass(frozen=True, slots=True)
class EllipticCylinder(_Shape):
    """x^2/a^2 + y^2/b^2 - 1 = 0: a kind declared here and nowhere else."""

    directive: ClassVar[str] = "ecylinder"
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.05 <= self.a <= 4.0 and 0.05 <= self.b <= 4.0):
            raise ValueError(f"ecylinder: semi-axis out of range in {self.params()!r}")

    def coefficients(self) -> tuple[float, ...]:
        a, b = self.a, self.b
        return (1.0 / (a * a), 1.0 / (b * b), 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestKindIsOneClass:
    """Registering a class in CATALOG is all a new kind takes: scene.py names no kind."""

    @pytest.fixture(autouse=True)
    def register(self, monkeypatch):
        monkeypatch.setitem(CATALOG, EllipticCylinder.directive, EllipticCylinder)

    def test_scene_module_names_no_catalog_shape(self):
        named = [v for v in vars(scene).values() if isinstance(v, type) and issubclass(v, _Shape)]
        assert named == []

    def test_parse_serialize_parse(self):
        text = MINIMAL + "ecylinder 1.5 -2 0.25 0.5 3\nxform 0 -1 0 1 0 0 0 0 1\n"
        first = parse_scene(text)
        assert first.objects[1].kind == EllipticCylinder(0.5, 3.0)
        assert first.objects[1].center.as_tuple() == (1.5, -2.0, 0.25)
        canonical = serialize_scene(first)
        assert canonical.splitlines()[2:] == [
            "ecylinder 1.5 -2.0 0.25 0.5 3.0",
            "xform 0.0 -1.0 0.0 1.0 0.0 0.0 0.0 0.0 1.0",
        ]
        assert parse_scene(canonical) == first

    def test_arity_and_range_check_come_from_the_class(self):
        with pytest.raises(SceneParseError, match="line 3: ecylinder needs 5 numbers, got 4"):
            parse_scene(MINIMAL + "ecylinder 0 0 0 1\n")
        with pytest.raises(SceneParseError, match="line 3: ecylinder: semi-axis out of range"):
            parse_scene(MINIMAL + "ecylinder 0 0 0 1 9\n")

    def test_generated_draws_one_value_per_field(self):
        generated = generate_scene(5, 6, ("sphere", "ecylinder"))
        # The documented draw order, replayed: selector, centre, one draw per field.
        rng = Xorshift64Star(5)
        for obj in generated.objects:
            kind = (Sphere, EllipticCylinder)[rng.int_below(2)]
            center = tuple(rng.uniform(-10.0, 10.0) for _ in range(3))
            assert obj.center.as_tuple() == center
            assert obj.kind == kind(*(rng.uniform(0.1, 2.0) for _ in kind.__match_args__))
        assert {type(o.kind) for o in generated.objects} == {Sphere, EllipticCylinder}
        assert serialize_scene(generated).splitlines()[1:3] == self.GENERATED

    GENERATED = [
        "sphere 1.7203130090213996 0.8404411420151341 -0.8178730726402623 0.34902508987458547",
        "ecylinder -8.121587632742369 -6.07378564039295 3.4110580430064346"
        " 1.8123140737703105 1.5113605495639084",
    ]

    def test_world_table_equals_world_matrix(self):
        objects = generate_scene(6, 9, ("ecylinder", "hparaboloid")).objects
        objects += parse_scene(MINIMAL + "ecylinder 1 2 3 2 1\nxform 0 0 1 0 1 0 -1 0 0\n").objects
        # Render's table scales each column by a power of two: the same surfaces.
        want = np.array([scaled_world_matrix(o).coefficients() for o in objects]).T
        got = render_tables(objects, (0.0, 0.0, 0.0))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        top = abs(got).max(axis=0)
        assert ((1.0 <= top) & (top < 2.0)).all()
