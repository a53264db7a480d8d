"""The traced run's exact counts repeat across two runs with the same seed.

Run from the root of a source checkout::

    python3 -m pytest -q perfbench/test_counts.py

Each case runs ``run.py --trace 1`` twice as a subprocess (one untraced and
one traced pass per run), so the module takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 3


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact_counts(result):
    """Count metrics, and the miss ratio that is a ratio of two counts."""
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if m["unit"] == "count" or name == "fftconv.counts_fft.miss_ratio"
    }


@pytest.mark.parametrize("workload", ["fftL-2d", "exact-2d"])
def test_counts_repeat_for_same_seed(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert first["correct"] and second["correct"]
    assert exact_counts(first) == exact_counts(second)
    counts = exact_counts(first)
    assert counts["selector.evals"] > 0
    if workload == "exact-2d":
        assert counts["fftconv.convolve.calls"] == 0
        assert counts["functionals.kernel_points"] == 0
    else:
        assert counts["fftconv.convolve.calls"] > 0
