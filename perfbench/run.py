"""Benchmark of the quadrics intersection kernels, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload render-bounded --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One process, one call at a time, `workers=1` (a closed loop with a single
client).  `--trace 0` times whole `render_detection` / `run_benchmark` calls
and reports the end-to-end metrics; `--trace 1` runs the traced passes of
`traced.py` and reports the per-layer metrics.  Metric names and units are
declared in BENCHMARK.json at the repository root.  Every output is checked
(see `checks.py`).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--smoke` runs every
workload at a tiny size in both modes and exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

# workloads goes first: importing it puts this checkout's src/ on sys.path.
from workloads import (
    DEFAULT_SEED, METHODS, ROOT, WORKLOADS, Workload, make_scene, round_trip, scene_seeds,
)

import numpy as np

import hostspeed
import traced
from checks import RenderCheck, check_detect, detect_reference, pin_error, pinned_values
from quadrics.bench import run_benchmark
from quadrics.render import render_detection
from quadrics.scene import Scene

SETUP_PER_CALL = 3
MIN_TIMED = 2  # timed calls per scene and route before a run may end
_MAX_ERRORS_SHOWN = 5

clock = time.perf_counter


def declared_metrics() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment(wl: Workload, seed: int, trace: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next(line.split(":", 1)[1].strip() for line in fp if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "workers": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def timed_call(wl: Workload, scene: Scene, seed: int, pinned: dict | None):
    """The workload's call on one scene: route -> (failed check or None, wall seconds)."""
    if wl.call == "render":
        render_check = RenderCheck(wl.px, pinned)

        def run(method: str):
            return render_detection(scene, method, workers=1)

        def check(method: str, out) -> str | None:
            return render_check(out)
    else:
        ref = detect_reference(scene, seed, wl.rays)
        ref_error = pin_error(dataclasses.asdict(ref), pinned)

        def run(method: str):
            return run_benchmark(scene, wl.rays, method, reps=1, seed=seed, workers=1)

        def check(method: str, out) -> str | None:
            return check_detect(out, method, ref) or ref_error

    def call(method: str) -> tuple[str | None, float]:
        gc.collect()
        t0 = clock()
        out = run(method)
        wall = clock() - t0
        return check(method, out), wall

    return call


def measure(wl: Workload, seed: int, seconds: float) -> tuple[dict, dict, dict, int, list[str]]:
    """End-to-end run.

    Returns the metrics, their sample counts, the raw figures behind them,
    the number of calls attempted and the failed checks.  Consecutive pairs
    of calls take the run's scenes in turn.  The first pair warms up and is
    checked but not timed.  Then calls run until `seconds` have passed and
    every scene has had `MIN_TIMED` calls on each route.

    The host-speed loop runs before every call and after the last one.  Each
    set-up and call time is divided by the mean of the two loop times around
    it over `hostspeed.REFERENCE_S` (see `hostspeed`).  A scene's time is the
    median of its scaled calls, and a route's rate is the pairs of all
    scenes over the sum of their times.  Set-up is repeated before every
    call, so its samples span the run as the call samples do; `setup_s` is
    the median over scenes of the median scaled set-up.
    """

    def set_up(index: int) -> Scene:
        for _ in range(SETUP_PER_CALL):
            gc.collect()
            t0 = clock()
            scene = make_scene(wl, seeds[index])
            if wl.call == "render":
                scene = round_trip(scene)
            setup_raw.append((index, clock() - t0))
        return scene

    seeds = scene_seeds(wl, seed)
    setup_raw: list[tuple[int, float]] = []
    calls = [
        timed_call(wl, set_up(i), s, pinned)
        for i, (s, pinned) in enumerate(zip(seeds, pinned_values(wl, seed)))
    ]
    # One entry per timed call: (route, scene index, wall seconds, set-up samples).
    timed: list[tuple[str, int, float | None, list[tuple[int, float]]]] = []
    loop_s: list[float] = []
    tries = {m: [0] * len(seeds) for m in METHODS}
    errors: list[str] = []
    attempted = 0
    start = None
    while start is None or clock() - start < seconds or min(map(min, tries.values())) < MIN_TIMED:
        # Alternate which route goes first: classical, separated, separated, classical, ...
        method = METHODS[(attempted + attempted // 2) % 2]
        scene_index = attempted // 2 % len(seeds)
        loop_s.append(hostspeed.loop_seconds())
        del setup_raw[:]
        set_up(scene_index)
        attempted += 1
        try:
            err, wall = calls[scene_index](method)
        except Exception as exc:  # a failed call is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            err = f"{method} raised {exc!r}"
        if err:
            errors.append(err)
        if start is not None:
            tries[method][scene_index] += 1
            timed.append((method, scene_index, None if err else wall, list(setup_raw)))
        if start is None and attempted == len(METHODS):
            start = clock()
    loop_s.append(hostspeed.loop_seconds())

    # The loop times around timed call k are loop_s[k + warm-up] and the next one.
    warm = len(METHODS)
    setup = [[] for _ in seeds]
    times = {m: [[] for _ in seeds] for m in METHODS}
    raw = {m: [] for m in METHODS}
    for k, (method, scene_index, wall, setups) in enumerate(timed):
        slowdown = (loop_s[warm + k] + loop_s[warm + k + 1]) / (2 * hostspeed.REFERENCE_S)
        for index, t in setups:
            setup[index].append(t / slowdown)
        if wall is not None:
            times[method][scene_index].append(wall / slowdown)
            raw[method].append(wl.pairs() / wall)

    def rate(per_scene: list[list[float]]) -> float:
        if not all(per_scene):
            return 0.0
        return len(seeds) * wl.pairs() / sum(map(statistics.median, per_scene))

    metrics = {
        "setup_s": statistics.median(map(statistics.median, filter(None, setup))),
        "pairs_per_s.classical": rate(times["classical"]),
        "pairs_per_s.separated": rate(times["separated"]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": sum(map(len, setup)),
        "pairs_per_s.classical": len(raw["classical"]),
        "pairs_per_s.separated": len(raw["separated"]),
        "peak_rss_mib": 1,
    }
    unscaled = {
        "host.loop_s": statistics.median(loop_s),
        "unscaled.pairs_per_s.classical": statistics.median(raw["classical"] or [0.0]),
        "unscaled.pairs_per_s.separated": statistics.median(raw["separated"] or [0.0]),
    }
    return metrics, samples, unscaled, attempted, errors


def run_workload(wl: Workload, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print the report and return the result object."""
    declared = declared_metrics()
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    print("env", json.dumps(environment(wl, seed, trace), sort_keys=True))
    if trace:
        metrics, attempted, failed, errors = traced.run(wl, seed, seconds)
        samples = dict.fromkeys(metrics, attempted)
    else:
        metrics, samples, unscaled, attempted, errors = measure(wl, seed, seconds)
        failed = len(errors)
    if set(metrics) != set(units):
        errors.append(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    for name in units:
        if name in metrics:
            print(f"  {name:40s} {metrics[name]!r:>24} {units[name]:8s} n={samples[name]}")
    if not trace:
        sep, cls = metrics["pairs_per_s.separated"], metrics["pairs_per_s.classical"]
        print(f"  {'ratio.separated_over_classical':40s} {sep / cls if cls else 0.0!r:>24}")
        for name, value in unscaled.items():
            print(f"  {name:40s} {value!r:>24}")
    print(f"  {'failed_ops_frac':40s} {failed}/{attempted}")
    for err in errors[:_MAX_ERRORS_SHOWN]:
        print(f"check failed: {err}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }


def smoke() -> int:
    """Every workload at a tiny size, end to end and traced."""
    ok = True
    for wl in WORKLOADS.values():
        for trace in (0, 1):
            result = run_workload(wl.at_smoke_size(), DEFAULT_SEED, 0.0, trace)
            print(f"smoke {wl.name} trace={trace} correct={result['correct']}")
            ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
