"""Smoke test: every narrative script in demos/ runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_cli_tour_runs(tmp_path):
    # The tour calls `fastband` and `python3`; shims run both on this
    # interpreter, so the tour exercises the CLI of this source tree.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, target in (("fastband", f'"{sys.executable}" -m fastband.cli'),
                         ("python3", f'"{sys.executable}"')):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec {target} "$@"\n')
        shim.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    run = subprocess.run(["sh", str(ROOT / "demos" / "cli_tour.sh")], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert any(line.endswith("ms each") for line in lines)
    assert "missing file -> 2" in lines
    assert "indefinite bandwidth -> 3" in lines
