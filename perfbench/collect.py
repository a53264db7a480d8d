"""Repeat benchmark runs over seeds and summarize each metric's spread.

Usage, from the root of a source checkout::

    python3 perfbench/collect.py --seeds 1-10 --trace-seeds 1-3 --out perfbench/out/summary.json
    python3 perfbench/collect.py --workloads exact-2d --seeds 1-5

Runs ``perfbench/run.py`` once per workload and seed, one process at a time,
with ``--trace 0``, and with ``--trace 1`` for each of ``--trace-seeds``.
Reports per metric the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread: the interquartile
distance as a share of the median.  ``--out`` writes the summary, with every
run's result line and the environment of the first, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    """(description, result) lines of one ``run.py`` process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def collect(workload, seeds, seconds, trace):
    runs, env = [], None
    for seed in seeds:
        info, res = run_once(workload, seed, seconds, trace)
        env = env or info["env"]
        runs.append({"seed": seed, **res})
        print(f"{workload} trace={trace} seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}", file=sys.stderr, flush=True)
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        metrics[name] = {"unit": first["unit"],
                         **summarize([r["metrics"][name]["value"] for r in runs])}
        print(f"  {name:44s} median {metrics[name]['median']:.6g} "
              f"spread {metrics[name]['spread']:.4f}", file=sys.stderr)
    return {"env": env, "metrics": metrics, "runs": runs}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="fftL-2d,exact-2d")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seeds", default="")
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--out")
    args = p.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        summary[workload] = {
            "end_to_end": collect(workload, parse_seeds(args.seeds), args.seconds, 0),
        }
        trace_seeds = parse_seeds(args.trace_seeds)
        if trace_seeds:
            summary[workload]["per_layer"] = collect(workload, trace_seeds, args.seconds, 1)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
