"""Smoke test: the selection digest script runs and prints its three digests."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "selection_digest.py"


def test_selection_digest_prints_three_sha256_digests(tmp_path):
    run = subprocess.run([sys.executable, str(SCRIPT)], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = [line.split() for line in run.stdout.splitlines()]
    assert [line[0] for line in lines] == ["fftL-2d", "exact-2d", "extra"]
    assert all(len(line) == 2 and re.fullmatch(r"[0-9a-f]{64}", line[1]) for line in lines)
