"""The benchmark's own tests: smoke run, output checks, and refusal without sources."""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from checks import RenderCheck, check_detect, checksum, detect_reference, reference_rays
from workloads import ROOT, WORKLOADS, make_scene

from quadrics.bench import generate_rays, run_benchmark
from quadrics.render import render_detection


def test_smoke_runs_every_workload_in_both_modes_and_passes_its_checks(capsys):
    assert run.smoke() == 0
    out = capsys.readouterr().out
    assert out.count("correct=True") == 2 * len(WORKLOADS)


def test_result_line_follows_the_contract(capsys):
    wl = WORKLOADS["detect-narrow"].at_smoke_size()
    result = run.run_workload(wl, 3, 0.0, 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reference_ray_stream_matches_the_program():
    origins, dirs = reference_rays(7, 300)
    want_origins, want_dirs = generate_rays(7, 300)
    assert np.array_equal(origins, want_origins) and np.array_equal(dirs, want_dirs)


def test_checksum_matches_the_documented_loop():
    from quadrics.rng import mix64

    hits = np.array([0, 3, 1, 7, 2])
    want = 0
    for i, h in enumerate(hits):
        want ^= mix64(((i + 1) * 0x9E3779B97F4A7C15) ^ int(h))
    assert checksum(hits) == want


def test_detect_check_flags_a_wrong_hit_count():
    wl = WORKLOADS["detect-wide"].at_smoke_size()
    scene = make_scene(wl, 5)
    ref = detect_reference(scene, 5, wl.rays)
    [stats] = run_benchmark(scene, wl.rays, "separated", seed=5)
    assert check_detect([stats], "separated", ref) is None
    wrong = dataclasses.replace(stats, hits=stats.hits + 1)
    assert "reference" in check_detect([wrong], "separated", ref)
    assert check_detect([stats], "classical", ref) is not None


def test_render_check_flags_a_differing_image_and_a_wrong_pin():
    wl = WORKLOADS["render-unbounded"].at_smoke_size()
    image = render_detection(make_scene(wl, 2), "separated")
    check = RenderCheck(wl.px, None)
    assert check(image) is None
    flipped = bytes([image.pixels[0] ^ 1]) + image.pixels[1:]
    assert check(dataclasses.replace(image, pixels=flipped)) is not None
    assert RenderCheck(wl.px, {"sha256": "0" * 64})(image) is not None


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_program_sources(tmp_path, trace):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect-narrow",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
