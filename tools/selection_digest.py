"""Print SHA-256 digests of bandwidth selections, to check that a change keeps their bits.

Run from any directory:

    python tools/selection_digest.py

It selects from the ``src`` tree beside this script and prints three
lines, ``<name> <sha256>``:

- ``fftL-2d`` and ``exact-2d``: every sample of that benchmark
  workload's reference pool (``perfbench/workloads.py``), selected with
  the workload's configuration;
- ``extra``: a fixed set of further selections: every mode at ``r`` 0
  and 2, full and diagonal, at d = 2; every mode at d = 1 and d = 3; and
  the three ``fragile`` samples of acceptance criterion 7's coarse
  setting (n = 256, grid 20, ``default_rng([20260820, 256, rep])``).

Each digest hashes, per selection in order, the float64 bytes of ``h``
and ``objective`` and the int64 bytes of ``n_evals``, ``n_rejected`` and
``kernel_points``.  Two trees that print the same lines select the same
bits on these inputs; to compare with an earlier commit, copy this
script into a checkout of it and run it there.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import fastband as fb  # noqa: E402


def _workloads():
    """``perfbench/workloads.py``, loaded by path; it is only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _extra_cases():
    """``(x, SelectorConfig)`` pairs of the ``extra`` digest, in a fixed order."""
    rng = np.random.default_rng(20261022)
    # Nodes per axis by dimension; direct-binned sums offset by offset,
    # O(M^2d) per evaluation, so it runs on coarser grids.
    grids = {1: 51, 2: 31, 3: 9}
    binned_grids = {1: 51, 2: 12, 3: 4}
    cases = []
    x2 = rng.standard_normal((120, 2)) @ np.array([[1.0, 0.0], [0.6, 0.8]])
    for mode in fb.SELECTOR_MODES:
        for r in (0, 2):
            for diagonal in (False, True):
                grid = (binned_grids if mode == "direct-binned" else grids)[2]
                cases.append((x2, fb.SelectorConfig(mode=mode, grid_size=grid, r=r,
                                                    diagonal=diagonal)))
    x1 = rng.standard_normal(100)
    x3 = rng.standard_normal((60, 3))
    for x, d in ((x1, 1), (x3, 3)):
        for mode in fb.SELECTOR_MODES:
            grid = (binned_grids if mode == "direct-binned" else grids)[d]
            # At d = 3 the simplex takes about 1000 steps; 300 cover the
            # same code at a third of the time.
            cases.append((x, fb.SelectorConfig(mode=mode, grid_size=grid,
                                                max_iter=300 if d == 3 else 2000)))
    fragile = fb.mixture_catalog("fragile")
    for rep in range(3):
        x = fb.sample_mixture(fragile, 256, np.random.default_rng([20260820, 256, rep]))
        cases.append((x, fb.SelectorConfig(mode="fft-L", grid_size=20)))
    return cases


def digest(cases):
    """SHA-256 over the selections of ``cases``, ``(x, SelectorConfig)`` pairs."""
    sha = hashlib.sha256()
    for x, config in cases:
        res = fb.select_bandwidth(x, config)
        sha.update(np.asarray(res.h, dtype=np.float64).tobytes())
        sha.update(np.float64(res.objective).tobytes())
        sha.update(np.array([res.n_evals, res.n_rejected, res.kernel_points],
                            dtype=np.int64).tobytes())
    return sha.hexdigest()


def main():
    workloads = _workloads()
    for name, workload in workloads.WORKLOADS.items():
        cases = [(s.x, workload.selector_config()) for s in workloads.reference_pool(workload)]
        print(name, digest(cases))
    print("extra", digest(_extra_cases()))


if __name__ == "__main__":
    main()
