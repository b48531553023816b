import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadrics
import quadrics.check as check_module
from quadrics.bench import CSV_HEADER
from quadrics.check import CheckFailure, CheckReport
from quadrics.cli import main

MINIMAL = "camera 0 0 5 0 0 0 0 1 0 60 16 16\nsphere 0 0 0 1\n"


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["bench", "--objects", "1", "--rays", "1", "--frobnicate"]) == 1

    def test_missing_scene_file(self, tmp_path, capsys):
        out = tmp_path / "img.pgm"
        assert main(["render", str(tmp_path / "nope.txt"), "-o", str(out)]) == 1

    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("sphere 0 0 0 -1\n")
        assert main(["render", str(bad), "-o", str(tmp_path / "img.pgm")]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "non-positive radius" in err

    @pytest.mark.parametrize(
        "text,line",
        [
            (MINIMAL + "xform nan 0 0 0 1 0 0 0 1\n", 3),
            (MINIMAL + "ellipsoid 0 0 0 1e-200 1 1\n", 3),
            (MINIMAL + "sphere 0 0 0 1e200\n", 3),
            ("camera 0 0 5 0 0 0 0 1 0 60 +-5 16\nsphere 0 0 0 1\n", 1),
        ],
    )
    def test_every_malformed_line_is_two(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["render", str(bad), "-o", str(tmp_path / "img.pgm")]) == 2
        assert f"line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "camera,message",
        [
            ("camera 0 0 5 0 0 0 0 0 1 60 8 8", "camera: up vector is parallel to the view"),
            ("camera 1e308 0 0 -1e308 0 0 0 1 0 60 8 8", "Vec3: non-finite component -inf"),
            ("camera 0 0 5 0 0 0 1e300 1e300 0 60 8 8", "cannot normalize: length overflows"),
        ],
    )
    def test_degenerate_camera_view_is_two(self, tmp_path, capsys, camera, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"# view\n{camera}\nsphere 0 0 0 1\n")
        assert main(["render", str(bad), "-o", str(tmp_path / "img.pgm")]) == 2
        assert f"line 2: {message}" in capsys.readouterr().err

    def test_overflowing_placement_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(MINIMAL + "sphere 1e200 0 0 1\n")
        assert main(["render", str(bad), "-o", str(tmp_path / "img.pgm")]) == 2
        assert "line 3: placement overflows" in capsys.readouterr().err

    def test_check_failure_is_three(self, monkeypatch, capsys):
        failing = CheckReport(cases=1, comparisons=1,
                              failures=[CheckFailure(0, "discriminant mismatch", 1.0, -1.0)])
        monkeypatch.setattr(check_module, "oracle_check", lambda seed, cases: failing)
        assert main(["check", "--seed", "1", "--cases", "1"]) == 3

    def test_check_success_is_zero(self, capsys):
        assert main(["check", "--seed", "42", "--cases", "200"]) == 0
        assert "0 failures" in capsys.readouterr().out


class TestCommands:
    def test_render_writes_pgm(self, tmp_path, capsys):
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(MINIMAL)
        out = tmp_path / "img.pgm"
        assert main(["render", str(scene_file), "--method", "classical", "-o", str(out)]) == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n16 16\n255\n")
        assert len(data) == len(b"P5\n16 16\n255\n") + 16 * 16

    def test_gen_then_render(self, tmp_path, capsys):
        scene_file = tmp_path / "gen.txt"
        assert main(["gen", "--seed", "9", "--objects", "5", "-o", str(scene_file)]) == 0
        text = scene_file.read_text()
        assert text.startswith("camera ")
        assert main(["gen", "--seed", "9", "--objects", "5", "-o", str(tmp_path / "gen2.txt")]) == 0
        assert (tmp_path / "gen2.txt").read_text() == text

    def test_gen_mix_flag(self, tmp_path, capsys):
        scene_file = tmp_path / "spheres.txt"
        assert main(["gen", "--seed", "2", "--objects", "4", "--mix", "sphere",
                     "-o", str(scene_file)]) == 0
        body = scene_file.read_text().splitlines()[1:]
        assert all(line.startswith("sphere ") for line in body)

    def test_bench_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--seed", "3", "--objects", "4", "--rays", "10",
                     "--method", "both", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_bench_default_seed_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--objects", "3", "--rays", "5", "-o", str(a)]) == 0
        assert main(["bench", "--objects", "3", "--rays", "5", "-o", str(b)]) == 0

        def stable(path):
            rows = path.read_text().strip().split("\n")
            return [r.split(",")[:5] + r.split(",")[8:] for r in rows]

        assert stable(a) == stable(b)


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """`python -m quadrics ARGS` on the package these tests import, whatever PYTHONPATH is."""
    paths = [str(Path(quadrics.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "quadrics", *args], capture_output=True, text=True, env=env
    )


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(MINIMAL)
        out = tmp_path / "img.pgm"
        proc = _run_module("render", str(scene_file), "-o", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes().startswith(b"P5\n")

    def test_python_dash_m_usage_error(self):
        proc = _run_module("transmogrify")
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: quadrics")
