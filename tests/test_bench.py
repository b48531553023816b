import dataclasses
import warnings

import numpy as np
import pytest

from _helpers import coefficient_table
from quadrics import (
    HomogeneousDirection,
    HomogeneousPoint,
    coefficients,
    discriminant_separated,
    make_ray_cache,
)
from quadrics import bench, kernels
from quadrics.bench import (
    CSV_HEADER,
    RAY_SEED_SALT,
    BenchStats,
    _checksum,
    generate_rays,
    run_benchmark,
    to_csv,
)
from quadrics.kernels import (
    bench_tables, classical_counts, classical_lift, separated_counts, separated_lift,
    sphere_counts, sphere_lift,
)
from quadrics.geometry import Vec3
from quadrics.quadric import Ellipsoid, Sphere
from quadrics.render import render_detection
from quadrics.rng import Xorshift64Star, mix64
from quadrics.scene import Scene, SceneObject, generate_scene
from quadrics.separated import line_entries


def _reference_rays(seed: int, count: int, min_norm_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """The documented per-ray loop over `Xorshift64Star.uniform`."""
    rng = Xorshift64Star(seed ^ RAY_SEED_SALT)
    origins = np.empty((count, 3))
    dirs = np.empty((count, 3))
    for i in range(count):
        origins[i] = [rng.uniform(-10.0, 10.0) for _ in range(3)]
        while True:
            dx, dy, dz = (rng.uniform(-1.0, 1.0) for _ in range(3))
            if dx * dx + dy * dy + dz * dz >= min_norm_sq:
                break
        dirs[i] = dx, dy, dz
    return origins, dirs


class TestRayGeneration:
    @pytest.mark.parametrize("seed", [1, 7, -3, RAY_SEED_SALT])
    def test_equals_the_per_ray_loop(self, seed):
        # 1536 rays draw 9216 values, where the stream's row count doubles.
        for count in (1, 2, 33, 500, 1536, 3000):
            got = generate_rays(seed, count)
            want = _reference_rays(seed, count, 1e-12)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("min_norm_sq", [0.5, 1.5, 2.5])
    def test_redraws_match_the_per_ray_loop(self, monkeypatch, min_norm_sq):
        monkeypatch.setattr(bench, "_MIN_DIR_NORM_SQ", min_norm_sq)
        for seed in (1, RAY_SEED_SALT):
            for count in (1, 2, 3, 40, 301):
                got = generate_rays(seed, count)
                want = _reference_rays(seed, count, min_norm_sq)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
        # Redraws did happen: rays no longer sit at every other triple.
        assert not np.array_equal(generate_rays(1, 301)[1], _reference_rays(1, 301, 0.0)[1])

    def test_deterministic(self):
        a = generate_rays(5, 20)
        b = generate_rays(5, 20)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_ranges(self):
        origins, dirs = generate_rays(1, 500)
        assert origins.shape == (500, 3) and dirs.shape == (500, 3)
        assert np.all(np.abs(origins) <= 10.0)
        assert np.all(np.abs(dirs) <= 1.0)
        assert np.all((dirs * dirs).sum(axis=1) >= 1e-12)

    def test_needs_a_ray(self):
        with pytest.raises(ValueError):
            generate_rays(1, 0)


class TestCounts:
    def test_single_ray_single_object(self):
        sc = generate_scene(3, 1)
        stats = run_benchmark(sc, rays=1, method="classical", seed=3)
        assert stats[0].detections == 1

    def test_doubling_objects_doubles_detections(self):
        small = run_benchmark(generate_scene(3, 10), rays=25, method="classical", seed=3)[0]
        big = run_benchmark(generate_scene(3, 20), rays=25, method="classical", seed=3)[0]
        assert big.detections == 2 * small.detections

    def test_methods_report_identical_hits_and_checksum(self):
        sc = generate_scene(12, 60)
        classical, separated = run_benchmark(sc, rays=200, method="both", seed=12)
        assert classical.hits == separated.hits
        assert classical.checksum == separated.checksum
        assert classical.detections == separated.detections == 200 * 60


class TestPrecompute:
    def test_both_methods_time_a_per_ray_lift(self):
        # Generic objects on both routes: classical lifts a, b, c and
        # separated lifts R and its weights, each timed as precompute.
        scene = generate_scene(5, 30, ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid"))
        stats = run_benchmark(scene, rays=50, seed=5)
        assert [s.method for s in stats] == ["classical", "separated"]
        assert all(s.precompute_ns_total > 0 for s in stats)


class TestNoScalarSetUp:
    """Render and bench build their set-up in batches, never through the scalar reference."""

    def test_results_unchanged_when_the_scalar_set_up_raises(self, monkeypatch):
        scene = generate_scene(31, 40, ("sphere", "ellipsoid", "hyperboloid1", "hparaboloid"))
        scene = dataclasses.replace(
            scene, camera=dataclasses.replace(scene.camera, width=12, height=9)
        )
        images = [render_detection(scene, m).pixels for m in ("classical", "separated")]
        stats = run_benchmark(scene, rays=300, seed=31)

        def forbidden(*args):
            raise AssertionError("scalar set-up called")

        monkeypatch.setattr(SceneObject, "world_matrix", forbidden)
        monkeypatch.setattr(Xorshift64Star, "next_u64", forbidden)
        assert [render_detection(scene, m).pixels for m in ("classical", "separated")] == images
        again = run_benchmark(scene, rays=300, seed=31)
        assert [(s.hits, s.checksum) for s in again] == [(s.hits, s.checksum) for s in stats]


class TestTablePerMethod:
    """Both methods read one split: the plain spheres, and a table of the other objects only."""

    def _built_shapes(self, monkeypatch, scene, method):
        # The shape of each generic coefficient table built: that of `bench_tables`.
        shapes = []

        def recording(objects):
            tables = kernels.bench_tables(objects)
            shapes.append(tables[1].shape)
            return tables

        monkeypatch.setattr(bench, "bench_tables", recording)
        run_benchmark(scene, rays=20, method=method, seed=3)
        return shapes

    @pytest.mark.parametrize("method", ["classical", "separated", "both"])
    def test_both_routes_tabulate_only_the_generic_objects(self, monkeypatch, method):
        # One build per call, which "both" hands to every method.
        spheres = generate_scene(8, 12, ("sphere",))
        assert self._built_shapes(monkeypatch, spheres, method) == [(10, 0)]
        mixed = generate_scene(8, 12, ("sphere", "ellipsoid"))
        generic = bench_tables(mixed.objects)[1].shape[1]
        assert 0 < generic < 12
        assert self._built_shapes(monkeypatch, mixed, method) == [(10, generic)]

    def test_separated_builds_lines_only_for_generic_objects(self, monkeypatch):
        scenes = [generate_scene(8, 12, ("sphere",)), generate_scene(8, 12, ("sphere", "ellipsoid"))]
        stats = [(s.hits, s.checksum) for sc in scenes for s in run_benchmark(sc, rays=20, seed=3)]
        built = []

        def recording(point, direction):
            built.append(len(direction[0]))
            return line_entries(point, direction)

        monkeypatch.setattr(kernels, "line_entries", recording)
        again = [(s.hits, s.checksum) for sc in scenes for s in run_benchmark(sc, rays=20, seed=3)]
        assert again == stats and built == [20]

    @pytest.mark.parametrize("method", ["classical", "separated"])
    def test_overflow_names_the_scene_object(self, method):
        scene = Scene(
            generate_scene(1, 1).camera,
            (
                SceneObject(Sphere(1.0)),
                SceneObject(Ellipsoid(1.0, 2.0, 3.0)),
                SceneObject(Ellipsoid(1e-150, 1.0, 1.0), Vec3(1e10, 0.0, 0.0)),
            ),
        )
        with pytest.raises(ValueError, match="object 2: world matrix: non-finite"):
            run_benchmark(scene, rays=4, method=method)


class TestChecksum:
    def test_equals_the_documented_per_ray_loop(self):
        hits = np.array([0, 3, 1, 7, 0, 2**20, 15], dtype=np.int64)
        expected = 0
        for i, h in enumerate(hits):
            expected ^= mix64(((i + 1) * 0x9E3779B97F4A7C15) ^ int(h))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # uint64 products wrap silently
            assert _checksum(hits) == expected


class TestVectorizedKernelsMatchScalar:
    # Every check runs at the default tile size and at one that splits the
    # 40 rays into tiles of 3, the last one partial.
    TILE_SIZES = (kernels.TILE_PAIRS, 50)

    def test_classical_vectorized_counts(self, monkeypatch):
        sc = generate_scene(21, 15)
        world = [obj.world_matrix() for obj in sc.objects]
        origins, dirs = generate_rays(21, 40)
        table = coefficient_table(world)
        for tile_pairs in self.TILE_SIZES:
            monkeypatch.setattr(kernels, "TILE_PAIRS", tile_pairs)
            counts = classical_counts(table, classical_lift((*origins.T, 1.0), (*dirs.T, 0.0)))
            for i in range(40):
                p = HomogeneousPoint(*origins[i], 1.0)
                s = HomogeneousDirection(*dirs[i], 0.0)
                scalar = 0
                for q in world:
                    cf = coefficients(q, p, s)
                    if cf.b * cf.b - cf.a * cf.c >= 0.0:
                        scalar += 1
                assert counts[i] == scalar

    def test_separated_vectorized_counts(self, monkeypatch):
        sc = generate_scene(22, 15)
        spheres, generic = bench_tables(sc.objects)
        world = [obj.world_matrix() for obj in sc.objects]
        assert spheres.shape[1] and generic.shape[1]  # both paths run
        origins, dirs = generate_rays(22, 40)
        point, direction = (*origins.T, 1.0), (*dirs.T, 0.0)
        for tile_pairs in self.TILE_SIZES:
            monkeypatch.setattr(kernels, "TILE_PAIRS", tile_pairs)
            lifted = sphere_lift(point, direction)
            counts, fallbacks = sphere_counts(spheres, lifted, point, direction)
            counts += separated_counts(generic, separated_lift(point, direction))
            assert fallbacks == 0
            for i in range(40):
                p = HomogeneousPoint(*origins[i], 1.0)
                s = HomogeneousDirection(*dirs[i], 0.0)
                cache = make_ray_cache(p, s)
                scalar = sum(1 for q in world if discriminant_separated(q, cache) >= 0.0)
                assert counts[i] == scalar


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "method,objects,rays,detections,hits,"
            "precompute_ns_total,detect_ns_total,detect_ns_per_test,checksum"
        )

    def test_row_bytes_exact(self):
        stats = BenchStats("separated", 3, 4, 12, 5, 7, 1234, 1234 / 12, 42)
        assert to_csv([stats]) == CSV_HEADER + "\nseparated,3,4,12,5,7,1234,102.833,42\n"

    def test_schema(self):
        sc = generate_scene(4, 5)
        stats = run_benchmark(sc, rays=10, method="both", seed=4)
        text = to_csv(stats)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        for line, method in zip(lines[1:], ("classical", "separated")):
            fields = line.split(",")
            assert len(fields) == 9
            assert fields[0] == method
            assert fields[1] == "5" and fields[2] == "10" and fields[3] == "50"
            int(fields[4]); int(fields[5]); int(fields[6]); float(fields[7]); int(fields[8])


class TestRepsAndWorkers:
    def test_reps_keep_counts_stable(self):
        sc = generate_scene(6, 8)
        stats = run_benchmark(sc, rays=30, method="separated", reps=3, seed=6)
        assert stats[0].detections == 240

    def test_worker_counts_agree(self):
        # 64 rays split 64 / 32+32 / 22+22+20: the last range is shorter.
        sc = generate_scene(7, 9)
        one, two, three = (
            run_benchmark(sc, rays=64, method="both", seed=7, workers=w) for w in (1, 2, 3)
        )
        assert [s.method for s in one] == ["classical", "separated"]
        for runs in zip(one, two, three):
            assert len({(s.method, s.hits, s.checksum, s.detections) for s in runs}) == 1

    @pytest.mark.parametrize("method", ["classical", "separated"])
    def test_repetitions_that_disagree_raise(self, monkeypatch, method):
        name = f"{method}_counts"
        kernel = getattr(bench, name)
        calls = []

        def drifting(*args):
            counts = kernel(*args)
            calls.append(1)
            return counts + 1 if len(calls) == 2 else counts

        monkeypatch.setattr(bench, name, drifting)
        sc = generate_scene(6, 8)
        run_benchmark(sc, rays=30, method=method, reps=1, seed=6)
        calls.clear()
        with pytest.raises(AssertionError, match="nondeterministic"):
            run_benchmark(sc, rays=30, method=method, reps=2, seed=6)

    def test_invalid_arguments(self):
        sc = generate_scene(1, 1)
        with pytest.raises(ValueError):
            run_benchmark(sc, rays=1, method="quantum")
        with pytest.raises(ValueError):
            run_benchmark(sc, rays=1, reps=0)
        with pytest.raises(ValueError):
            run_benchmark(sc, rays=1, workers=0)


class TestBenchStats:
    def test_hits_bounded_by_detections(self):
        with pytest.raises(ValueError):
            BenchStats(
                method="classical", objects=1, rays=1, detections=1, hits=2,
                precompute_ns_total=0, detect_ns_total=0, detect_ns_per_test=0.0, checksum=0,
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            BenchStats(
                method="classical", objects=1, rays=1, detections=1, hits=0,
                precompute_ns_total=-1, detect_ns_total=0, detect_ns_per_test=0.0, checksum=0,
            )
