"""Selection benchmark for fastband: seeded workloads, end-to-end and per-layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fftL-2d --seed 1 --seconds 40 --trace 0

One run times the import of numpy and fastband in fresh interpreters
(``IMPORT_REPEATS``) and sets up: it builds the workload's sample pool
from the seed and runs a warm-up preparation call, ``SETUP_REPEATS``
times.  With ``--trace 0`` it then makes one untimed pass over a fixed-seed
reference pool, which gives ``peak_rss_mb`` and the evaluation count in
``select_ref_s``.  It then makes passes over the pool until ``--seconds``
are spent.  Each pass
times, per sample, with ``perf_counter`` around the library calls:

* a ``select_bandwidth`` call with ``max_iter=0``: sample preparation plus the
  starting simplex (``prep_s``);
* the full ``select_bandwidth`` call (``eval_ms`` is its time beyond the
  preparation call, per extra objective evaluation);
* ``kde_on_grid`` at the selected H (per-layer ``selector.kde_on_grid.wall_s``).

``prep_s`` and ``eval_ms`` are scaled by a calibration loop timed between
samples (see ``measure.Calibration``).

Every selection then goes through the correctness oracle (``oracle.py``)
outside the timed region.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` times half the budget untraced, half traced, and prints the
per-layer metrics (per selection) plus the tracing overhead.  The last
stdout line is the JSON result; the line before it describes the run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Import time is the median over this many fresh interpreters.
IMPORT_REPEATS = 5
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import numpy, fastband; print(time.perf_counter() - t0)"
)


def _cap_threads():
    """Cap BLAS and OpenMP pools at the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    caps = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        current = os.environ.get(var, "")
        value = min(int(current), ncpu) if current.isdigit() and int(current) > 0 else ncpu
        os.environ[var] = caps[var] = str(value)
    return ncpu, caps


def import_seconds():
    """Median seconds to import numpy and fastband in a fresh interpreter.

    One import varies by a third from process to process, mostly in file
    access, so a run times several in child processes, one at a time.
    """
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)],
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_REPEATS)
    )


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    ncpu, caps = _cap_threads()
    if not (SRC / "fastband" / "__init__.py").is_file():
        print(f"fastband sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from measure import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = None if args.trace else import_seconds()
    info, result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s,
    )
    info["env"]["nproc"] = ncpu
    info["env"]["thread_caps"] = caps
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
