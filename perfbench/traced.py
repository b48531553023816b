"""Traced run: per-layer time and decision counts, measured from outside.

Spans are taken around calls into the public functions of each module; the
program itself is not instrumented.  Every traced pass measures both paths
on the first of the run's scenes, so every layer has a value on every
workload:

* the render path: `render_detection` once per route, untraced, then a
  replay of its per-pixel loop through the public functions with a span
  around each call.  The replayed images must equal `render_detection`'s
  byte for byte, so the spans time the code that produced the real image;
* the detection path: `run_benchmark` once per route, its `BenchStats`, and
  separated calls on sub-scenes that isolate the sphere and generic kernels.

Times are medians over the passes of one run; counts must repeat exactly.
"""
from __future__ import annotations

import dataclasses
import gc
import math
import statistics
import time
from array import array

# workloads goes first: importing it puts this checkout's src/ on sys.path.
from workloads import METHODS, Workload, make_scene, scene_seeds

from checks import RenderCheck, check_detect, detect_reference, pin_error, pinned_values
from quadrics.bench import generate_rays, run_benchmark
from quadrics.classical import (
    TANGENT_EPS,
    Degenerate,
    LinearHit,
    Miss,
    Tangent,
    Two,
    coefficients,
    hit_parameters,
    solve,
)
from quadrics.geometry import HomogeneousDirection, HomogeneousPoint, Mat3, cross
from quadrics.quadric import Sphere
from quadrics.render import render_detection
from quadrics.scene import Scene, parse_scene, serialize_scene
from quadrics.separated import discriminant_separated, make_ray_cache

KINDS = (Miss, Tangent, Two, LinearHit, Degenerate)
_CODE = {kind: code for code, kind in enumerate(KINDS)}
_MISS = _CODE[Miss]

clock = time.perf_counter


def _a_scale(q, s: tuple[float, float, float, float]) -> float:
    # The magnitude intersect_classical and intersect_separated judge a ~ 0 against.
    return q.max_abs_coefficient() * (s[0] * s[0] + s[1] * s[1] + s[2] * s[2] + s[3] * s[3])


class RenderReplay:
    """render_detection's per-pixel loop, one span per public call.

    Run the classical route first: it records each pair's result kind and
    discriminant scale, which the separated route is compared against.
    """

    SPANS = (
        "geometry.ray_dir_s",
        "separated.make_ray_cache_s",
        "separated.discriminant_s",
        "classical.coefficients_s",
        "classical.solve_s",
        "render.reduce_s",
    )

    def __init__(self, scene: Scene, matrices: list) -> None:
        self.scene = scene
        self.matrices = matrices
        self.spans = dict.fromkeys(self.SPANS, 0.0)
        self.codes: dict[str, bytearray] = {}
        self.early_rejects = 0
        self.tangent_band = 0
        self._band = bytearray()  # classical pair inside the band
        self._scale = array("d")  # classical max(b^2, |a*c|)

    def run(self, route: str) -> bytes:
        sep = route == "separated"
        cam = self.scene.camera
        width, height = cam.width, cam.height
        matrices = self.matrices
        codes = bytearray()
        band, scale = self._band, self._scale
        ray_dir = cache_s = disc_s = coef_s = solve_s = reduce_s = 0.0
        pair = 0
        out = bytearray()

        t0 = clock()
        forward = (cam.look_at - cam.origin).normalized()
        right = cross(forward, cam.up).normalized()
        up = cross(right, forward)
        half_h = math.tan(math.radians(cam.vfov_deg) * 0.5)
        half_w = half_h * (width / height)
        origin = HomogeneousPoint.from_euclidean(cam.origin)
        ray_dir += clock() - t0

        for row in range(height):
            for col in range(width):
                t0 = clock()
                u = ((col + 0.5) / width * 2.0 - 1.0) * half_w
                v = (1.0 - (row + 0.5) / height * 2.0) * half_h
                direction = HomogeneousDirection.from_euclidean(forward + u * right + v * up)
                t1 = clock()
                ray_dir += t1 - t0
                if sep:
                    cache = make_ray_cache(origin, direction)
                    cache_s += clock() - t1
                s = direction.as_tuple()
                nearest = None
                for q in matrices:
                    if sep:
                        ta = clock()
                        d = discriminant_separated(q, cache)
                        tb = clock()
                        disc_s += tb - ta
                        if abs(d) <= TANGENT_EPS * scale[pair] or band[pair]:
                            self.tangent_band += 1
                        if d < -TANGENT_EPS:
                            self.early_rejects += 1
                            codes.append(_MISS)
                            pair += 1
                            continue
                        coeffs = coefficients(q, origin, direction)
                        tc = clock()
                        coef_s += tc - tb
                        result = solve(coeffs, a_scale=_a_scale(q, s), discriminant=d)
                        solve_s += clock() - tc
                    else:
                        ta = clock()
                        coeffs = coefficients(q, origin, direction)
                        tb = clock()
                        coef_s += tb - ta
                        result = solve(coeffs, a_scale=_a_scale(q, s))
                        solve_s += clock() - tb
                        a, b, c = coeffs.a, coeffs.b, coeffs.c
                        d_scale = max(b * b, abs(a * c))
                        scale.append(d_scale)
                        band.append(abs(b * b - a * c) <= TANGENT_EPS * d_scale)
                    code = _CODE[type(result)]
                    codes.append(code)
                    pair += 1
                    if code == _MISS:
                        continue
                    tr = clock()
                    for t in hit_parameters(result):
                        if t > 0.0 and (nearest is None or t < nearest):
                            nearest = t
                    reduce_s += clock() - tr
                tr = clock()
                out.append(
                    0 if nearest is None
                    else max(1, min(255, int(255.0 / max(nearest, 1.0) + 0.5)))
                )
                reduce_s += clock() - tr

        self.codes[route] = codes
        for name, value in zip(self.SPANS, (ray_dir, cache_s, disc_s, coef_s, solve_s, reduce_s)):
            self.spans[name] += value
        return bytes(out)

    def counters(self) -> dict[str, float]:
        cls, sep = self.codes["classical"], self.codes["separated"]
        pairs = len(cls)
        m: dict[str, float] = {}
        for route, codes in self.codes.items():
            for code, kind in enumerate(KINDS):
                m[f"results.{route}.{kind.__name__}"] = codes.count(code)
        m["results.tangent_band"] = self.tangent_band
        m["results.route_disagreements"] = sum(1 for x, y in zip(cls, sep) if x != y)
        m["separated.pairs"] = pairs
        m["separated.early_rejects"] = self.early_rejects
        m["separated.early_reject_frac"] = self.early_rejects / pairs
        return m


def _timed(fn, *args, **kwargs):
    gc.collect()
    t0 = clock()
    out = fn(*args, **kwargs)
    return out, clock() - t0


def traced_pass(wl: Workload, seed: int, pins, ref, errors: list[str]) -> dict[str, float]:
    """One pass over every layer of one scene; appends any failed check to `errors`."""
    m: dict[str, float] = {}

    generated, m["scene.generate_s"] = _timed(make_scene, wl, seed)
    text, m["scene.serialize_s"] = _timed(serialize_scene, generated)
    scene, m["scene.parse_s"] = _timed(parse_scene, text)
    matrices, m["scene.world_matrix_s"] = _timed(lambda: [o.world_matrix() for o in scene.objects])

    # Render path.
    render_check = RenderCheck(wl.px, pins if wl.call == "render" else None)
    render_wall = {}
    for method in METHODS:
        image, render_wall[method] = _timed(render_detection, scene, method, workers=1)
        if err := render_check(image):
            errors.append(f"render_detection {method}: {err}")
    replay = RenderReplay(scene, matrices)
    t0 = clock()
    replayed = {route: replay.run(route) for route in METHODS}
    replay_wall = clock() - t0
    for route, pixels in replayed.items():
        if pixels != render_check.expected:
            errors.append(f"replayed {route} image differs from render_detection's")
    m.update(replay.spans)
    m.update(replay.counters())
    image = render_check.expected or b""
    m["render.pixels"] = len(image)
    m["render.lit_pixels"] = len(image) - image.count(0)
    m["render.lit_frac"] = m["render.lit_pixels"] / max(1, len(image))
    m["trace.overhead_frac"] = replay_wall / sum(render_wall.values()) - 1.0

    # Detection path.
    _, m["bench.generate_rays_s"] = _timed(generate_rays, seed, wl.rays)
    if wl.call == "detect" and (err := pin_error(dataclasses.asdict(ref), pins)):
        errors.append(f"reference: {err}")
    stats, bench_wall = {}, {}
    for method in METHODS:
        out, bench_wall[method] = _timed(
            run_benchmark, generated, wl.rays, method, reps=1, seed=seed, workers=1
        )
        if err := check_detect(out, method, ref):
            errors.append(f"run_benchmark: {err}")
        stats[method] = out[0]
    for method in METHODS:
        m[f"bench.detect_s.{method}"] = stats[method].detect_ns_total * 1e-9
    m["bench.precompute_s"] = stats["separated"].precompute_ns_total * 1e-9
    m["bench.overhead_s"] = sum(
        bench_wall[k]
        - m["bench.generate_rays_s"]
        - (stats[k].precompute_ns_total + stats[k].detect_ns_total) * 1e-9
        for k in METHODS
    )
    m["bench.hits"] = stats["classical"].hits
    m["bench.detections"] = stats["classical"].detections
    m["bench.hit_frac"] = m["bench.hits"] / m["bench.detections"]
    m["reference.band_pairs"] = ref.band_pairs

    # Sphere fast path on the scene's spheres; generic R path on every object,
    # which an identity rotation routes away from the sphere fast path.
    spheres = tuple(o for o in generated.objects if isinstance(o.kind, Sphere))
    m["bench.detect_ns_per_test.sphere"] = 0.0
    if spheres:
        sub = dataclasses.replace(generated, objects=spheres)
        m["bench.detect_ns_per_test.sphere"] = run_benchmark(
            sub, wl.rays, "separated", reps=1, seed=seed, workers=1
        )[0].detect_ns_per_test
    rotated = tuple(dataclasses.replace(o, rot=Mat3.identity()) for o in generated.objects)
    sub = dataclasses.replace(generated, objects=rotated)
    m["bench.detect_ns_per_test.generic"] = run_benchmark(
        sub, wl.rays, "separated", reps=1, seed=seed, workers=1
    )[0].detect_ns_per_test

    wall = render_wall if wl.call == "render" else bench_wall
    m["ratio.separated_over_classical"] = wall["classical"] / wall["separated"]
    return m


COUNTERS = (
    "results.", "separated.pairs", "separated.early_rejects", "separated.early_reject_frac",
    "render.pixels", "render.lit_pixels", "render.lit_frac",
    "bench.hits", "bench.detections", "bench.hit_frac", "reference.band_pairs",
)


def run(wl: Workload, seed: int, seconds: float) -> tuple[dict[str, float], int, int, list[str]]:
    """Traced passes until `seconds` have passed (at least one).

    Traces the first of the run's scenes.  Returns the per-layer metrics,
    the number of passes, the number of passes that failed a check, and the
    failed checks.
    """
    pins = pinned_values(wl, seed)[0]
    seed = scene_seeds(wl, seed)[0]
    ref = detect_reference(make_scene(wl, seed), seed, wl.rays)
    errors: list[str] = []
    passes: list[dict[str, float]] = []
    failed = 0
    start = clock()
    while not passes or clock() - start < seconds:
        before = len(errors)
        passes.append(traced_pass(wl, seed, pins, ref, errors))
        failed += len(errors) > before
    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name.startswith(COUNTERS):
            if len(set(values)) != 1:
                errors.append(f"counter {name} differs between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    if errors and not failed:
        failed = 1
    return metrics, len(passes), failed, errors
