"""The scripts under tools/ run from any working directory and print what they document."""
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _run(script: str, cwd: Path) -> str:
    done = subprocess.run(
        [sys.executable, str(TOOLS / script)], cwd=cwd, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_code_lines_prints_code_and_raw_lines(tmp_path):
    match = re.fullmatch(r"code lines: (\d+)\nraw lines: (\d+)\n", _run("code_lines.py", tmp_path))
    assert match
    code, raw = map(int, match.groups())
    assert 0 < code < raw


def test_output_hash_prints_one_sha256_digest(tmp_path):
    assert re.fullmatch(r"[0-9a-f]{64}\n", _run("output_hash.py", tmp_path))
