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


# The digest of every output bit `tools/output_hash.py` covers: scene text,
# PGMs of both routes, bench hits, detections and checksums, on generated
# scenes.  A change that alters outputs on purpose updates this pin and names
# each changed PGM or hit count in CHANGES.md; any other change must leave it
# as it is.  Render's camera-relative coordinates (ROADMAP item 8) and the
# world table's per-column scale (item 19) left it unchanged: they move only
# pixels and counts whose values were wrong or left the floats, and the
# generated scenes had none.
OUTPUT_DIGEST = "ca2b19e3f7fff2fbe32fc2f79e90c5cbba607dee69dcd0c940ac3447b89aa5f2"


def test_output_hash_prints_one_sha256_digest(tmp_path):
    assert _run("output_hash.py", tmp_path) == OUTPUT_DIGEST + "\n"
