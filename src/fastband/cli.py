"""Command line front end: selection, ISE studies, benchmarks, density dumps."""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .binning import grid_points, linear_binning, make_grid
from .errors import (
    AllDuplicates,
    DegenerateAxis,
    FastbandError,
    NotPositiveDefinite,
    OutOfRange,
    ParseError,
    ShapeMismatch,
    SingularBandwidth,
    TooFewPoints,
    UnknownModel,
)
from .functionals import q_r_binned, q_r_exact
from .linalg import BandwidthMatrix
from .mixtures import exact_ise, load_mixture, mixture_catalog, sample_mixture
from .selector import (
    SELECTOR_MODES,
    SelectorConfig,
    kde_on_grid,
    lscv_objective,
    normal_scale_start,
    select_bandwidth,
)

__all__ = ["RunReport", "main"]

REPORT_VERSION = 1

_INPUT_ERRORS = (
    ParseError,
    UnknownModel,
    TooFewPoints,
    AllDuplicates,
    OutOfRange,
    ShapeMismatch,
    DegenerateAxis,
)
_NUMERIC_ERRORS = (NotPositiveDefinite, SingularBandwidth)

# Bandwidth sweep evaluated per benchmark run: geometric factors applied
# to the normal-scale bandwidth, so every mode does identical work.
_BENCH_FACTORS = np.geomspace(0.5, 2.0, 10)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """Recursively convert numpy containers to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    return obj


@dataclass
class RunReport:
    """Machine-readable outcome of one CLI invocation.

    Serializes to versioned JSON and parses back without loss, so runs
    can be archived and compared.
    """

    command: str
    config: dict
    results: dict
    timings: dict
    environment: dict
    report_version: int = REPORT_VERSION

    def to_json(self):
        """Serialize to a stable, human-diffable JSON string."""
        return json.dumps(_jsonable(asdict(self)), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Parse a report previously produced by :meth:`to_json`."""
        try:
            raw = json.loads(text)
            return cls(
                command=raw["command"],
                config=raw["config"],
                results=raw["results"],
                timings=raw["timings"],
                environment=raw["environment"],
                report_version=raw["report_version"],
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"not a valid run report: {exc}") from exc


def _make_report(command, args, results, binning_ms=0.0, objective_evals=0,
                 total_ms=0.0):
    config = {
        k: _jsonable(v)
        for k, v in vars(args).items()
        if k not in ("func", "out") and not k.startswith("_")
    }
    return RunReport(
        command=command,
        config=config,
        results=_jsonable(results),
        timings={
            "binning_ms": float(binning_ms),
            "objective_evals": int(objective_evals),
            "total_ms": float(total_ms),
        },
        environment={"seed": getattr(args, "seed", None), "version": __version__},
    )


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def read_csv(path, header=False):
    """Load a numeric matrix from a headerless CSV or whitespace table.

    The delimiter is sniffed from the first data line: comma if one is
    present, otherwise any whitespace.  With ``header=True`` the first
    line is skipped.

    Raises
    ------
    ParseError
        If the file is missing, empty, or not numeric.
    """
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if header:
        lines = lines[1:]
    if not lines:
        raise ParseError(f"{path} has no data rows")
    delimiter = "," if "," in lines[0] else None
    try:
        data = np.loadtxt(lines, delimiter=delimiter, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path} is not a numeric matrix: {exc}") from exc
    return data


def _parse_matrix(text):
    """Parse a small matrix given as 'a,b;c,d' (rows split by ';')."""
    try:
        rows = [
            [float(v) for v in row.split(",")]
            for row in text.strip().split(";")
            if row.strip()
        ]
        m = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ParseError(f"cannot parse matrix {text!r}: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParseError(f"matrix {text!r} is not square")
    return m


def _int_list(text):
    try:
        return [int(v) for v in str(text).split(",") if v.strip()]
    except ValueError as exc:
        raise ParseError(f"cannot parse integer list {text!r}") from exc


def _resolve_model(args):
    if getattr(args, "model_file", None):
        return load_mixture(args.model_file)
    return mixture_catalog(args.model)


def _thread_count(args):
    if getattr(args, "threads", None):
        return max(1, int(args.threads))
    env = os.environ.get("FASTBAND_THREADS", "")
    return max(1, int(env)) if env.isdigit() else 1


def _map_cells(func, cells, threads):
    """Evaluate cells, possibly in a worker pool, keeping input order."""
    if threads > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(func, cells))
    return [func(c) for c in cells]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_select(args):
    """Select a bandwidth for a CSV sample and report it as JSON."""
    t_start = time.perf_counter()
    x = read_csv(args.data, header=args.header)
    cfg = SelectorConfig(
        mode=args.mode,
        grid_size=args.grid,
        margin_fraction=args.margin,
        tau=args.tau,
        diagonal=args.constraint == "diagonal",
        r=args.r,
    )
    res = select_bandwidth(x, cfg)
    if not np.all(np.isfinite(res.h)) or not np.isfinite(res.objective):
        raise SingularBandwidth("selection produced non-finite results")
    total_ms = (time.perf_counter() - t_start) * 1000.0
    results = {
        "h": res.h,
        "objective": res.objective,
        "converged": res.converged,
        "iterations": res.iterations,
        "n_used": res.n_used,
        "mode": res.mode,
    }
    return _make_report(
        "select", args, results,
        binning_ms=res.binning_ms, objective_evals=res.n_evals, total_ms=total_ms,
    )


def _ise_cell(mix, n, grid_size, reps, seed, mode, tau, threshold):
    """Run one (n, grid) cell of the ISE study."""
    cfg = SelectorConfig(mode=mode, grid_size=grid_size, tau=tau)
    ises = []
    evals = 0
    for rep in range(reps):
        rng = np.random.default_rng([seed, n, rep])
        x = sample_mixture(mix, n, rng)
        res = select_bandwidth(x, cfg)
        evals += res.n_evals
        ises.append(exact_ise(x, BandwidthMatrix(res.h), mix))
    ises = np.array(ises)
    return {
        "n": n,
        "grid": grid_size,
        "ise": ises,
        "median_ise": float(np.median(ises)),
        "failures": int(np.sum(ises > threshold)),
    }, evals


def cmd_ise_study(args):
    """Repeat sample-select-score cycles and count abnormally large ISEs.

    For each sample size and binning grid, draws ``reps`` samples from
    the target mixture, selects a bandwidth on each, and scores it by
    exact ISE.  The sample for replication ``rep`` at size ``n`` is
    derived only from (seed, n, rep), so every grid sees identical
    samples and cells are comparable.
    """
    t_start = time.perf_counter()
    mix = _resolve_model(args)
    if args.reps < 1:
        raise OutOfRange("reps must be at least 1")
    cells = [(n, g) for n in _int_list(args.n) for g in _int_list(args.grids)]

    def run(cell):
        n, g = cell
        return _ise_cell(
            mix, n, g, args.reps, args.seed, args.mode, args.tau, args.threshold
        )

    outcomes = _map_cells(run, cells, _thread_count(args))
    results = {
        "model": args.model if not args.model_file else args.model_file,
        "threshold": args.threshold,
        "cells": [cell for cell, _ in outcomes],
    }
    evals = sum(e for _, e in outcomes)
    total_ms = (time.perf_counter() - t_start) * 1000.0
    return _make_report(
        "ise-study", args, results, objective_evals=evals, total_ms=total_ms
    )


def _bench_objective_run(x, mode, grid_size, tau):
    """One benchmark unit: bin the sample, then sweep the objective."""
    h0 = normal_scale_start(x)
    binning_ms = 0.0
    data = x
    if mode != "direct-exact":
        t0 = time.perf_counter()
        grid = make_grid(x, (grid_size,) * x.shape[1])
        data = linear_binning(x, grid)
        binning_ms = (time.perf_counter() - t0) * 1000.0
    for factor in _BENCH_FACTORS:
        lscv_objective(data, factor * h0, mode=mode, tau=tau)
    return binning_ms


def cmd_bench(args):
    """Time the objective evaluation pipeline across modes, n, and grids.

    Each run bins the sample (timed separately) and then evaluates the
    selection objective at a fixed geometric sweep of ten bandwidths, so
    all modes and sizes perform the same amount of statistical work.
    Mean wall time over ``reps`` runs is reported after one discarded
    warmup, on a monotonic clock.
    """
    t_start = time.perf_counter()
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for m in modes:
        if m not in SELECTOR_MODES:
            raise OutOfRange(f"unknown mode {m!r}; expected one of {SELECTOR_MODES}")
    if args.reps < 1:
        raise OutOfRange("reps must be at least 1")
    cells = [
        (mode, n, g)
        for mode in modes
        for n in _int_list(args.n)
        for g in _int_list(args.grids)
    ]

    def run(cell):
        mode, n, g = cell
        rng = np.random.default_rng([args.seed, n])
        x = rng.standard_normal((n, args.dim))
        _bench_objective_run(x, mode, g, args.tau)
        times, btimes = [], []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            btimes.append(_bench_objective_run(x, mode, g, args.tau))
            times.append((time.perf_counter() - t0) * 1000.0)
        return {
            "mode": mode,
            "n": n,
            "grid": g,
            "mean_ms": float(np.mean(times)),
            "binning_ms": float(np.mean(btimes)),
            "evals_per_run": len(_BENCH_FACTORS),
        }

    results = {"cells": _map_cells(run, cells, _thread_count(args))}
    total_ms = (time.perf_counter() - t_start) * 1000.0
    return _make_report("bench", args, results, total_ms=total_ms)


def cmd_qr_bench(args):
    """Compare FFT-binned and exact pairwise Q_r in value and speed."""
    t_start = time.perf_counter()
    r_list = _int_list(args.r)
    for r in r_list:
        if r % 2 != 0 or r < 0 or r > 8:
            raise OutOfRange(f"r must be even and in [0, 8], got {r}")
    if args.reps < 1:
        raise OutOfRange("reps must be at least 1")
    cells = [(n, r) for n in _int_list(args.n) for r in r_list]

    def run(cell):
        n, r = cell
        rng = np.random.default_rng([args.seed, n])
        x = rng.standard_normal((n, args.dim))
        sigma = BandwidthMatrix(normal_scale_start(x))
        grid = make_grid(x, (args.grid,) * args.dim)
        gc = linear_binning(x, grid)

        q_fft = q_r_binned(gc, sigma, r, mode="fft-L", tau=args.tau)
        q_direct = q_r_exact(x, sigma, r)

        def time_one(func):
            func()
            ts = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                func()
                ts.append((time.perf_counter() - t0) * 1000.0)
            return float(np.mean(ts))

        fft_ms = time_one(lambda: q_r_binned(gc, sigma, r, mode="fft-L", tau=args.tau))
        direct_ms = time_one(lambda: q_r_exact(x, sigma, r))
        denom = max(abs(q_direct), 1e-300)
        return {
            "n": n,
            "r": r,
            "q_fft": q_fft,
            "q_direct": q_direct,
            "rel_diff": abs(q_fft - q_direct) / denom,
            "fft_ms": fft_ms,
            "direct_ms": direct_ms,
        }

    results = {"grid": args.grid, "cells": _map_cells(run, cells, _thread_count(args))}
    total_ms = (time.perf_counter() - t_start) * 1000.0
    return _make_report("qr-bench", args, results, total_ms=total_ms)


def cmd_density(args):
    """Evaluate the KDE on a grid and dump coordinates plus values as CSV."""
    x = read_csv(args.data, header=args.header)
    evals = 0
    if args.select:
        cfg = SelectorConfig(mode=args.mode, grid_size=args.grid, tau=args.tau)
        res = select_bandwidth(x, cfg)
        h, evals = BandwidthMatrix(res.h), res.n_evals
    elif args.bandwidth:
        h = BandwidthMatrix(_parse_matrix(args.bandwidth))
    else:
        raise ParseError("provide --bandwidth or --select")

    grid = make_grid(x, (args.grid,) * x.shape[1], args.margin)
    gc = linear_binning(x, grid)
    dens = kde_on_grid(gc, h, mode=args.mode, tau=args.tau)
    if not np.all(np.isfinite(dens)):
        raise SingularBandwidth("density evaluation produced non-finite values")
    mass = float(dens.sum() * np.prod(grid.delta))
    if not 0.95 <= mass <= 1.001:
        raise SingularBandwidth(
            f"grid mass {mass:.4f} outside [0.95, 1.001]; "
            "the grid does not capture the kernel mass"
        )

    pts = grid_points(grid)
    rows = np.column_stack([pts, dens.reshape(-1)])
    out = args.out or "-"
    text = "\n".join(",".join(f"{v:.12g}" for v in row) for row in rows) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
    return None


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--tau", type=float, default=3.7,
                   help="kernel truncation radius in std deviations")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default FASTBAND_THREADS or 1)")
    p.add_argument("--out", default=None, help="write output to this file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fastband",
        description="FFT-accelerated bandwidth selection for multivariate KDE",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="select a bandwidth matrix for a CSV sample")
    p.add_argument("data", help="CSV file, one observation per row")
    p.add_argument("--mode", default="fft-L", choices=SELECTOR_MODES)
    p.add_argument("--grid", type=int, default=150, help="grid nodes per axis")
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--constraint", default="full", choices=("full", "diagonal"))
    p.add_argument("--r", type=int, default=0, help="derivative order of the target")
    p.add_argument("--header", action="store_true", help="skip the first CSV row")
    _add_common(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("ise-study", help="replicate sample/select/score cycles")
    p.add_argument("--model", default="standard", help="catalog mixture name")
    p.add_argument("--model-file", default=None,
                   help="JSON mixture file overriding --model")
    p.add_argument("--n", default="256", help="comma-separated sample sizes")
    p.add_argument("--grids", default="20,150", help="comma-separated grid sizes")
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--mode", default="fft-L", choices=SELECTOR_MODES)
    p.add_argument("--threshold", type=float, default=1.0,
                   help="ISE above this counts as a failure")
    _add_common(p)
    p.set_defaults(func=cmd_ise_study)

    p = sub.add_parser("bench", help="time the objective pipeline per mode")
    p.add_argument("--n", default="400,4000")
    p.add_argument("--grids", default="180")
    p.add_argument("--modes", default="fft-L,fft-M")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("qr-bench", help="compare FFT and exact Q_r statistics")
    p.add_argument("--n", default="1000")
    p.add_argument("--r", default="0,2")
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_qr_bench)

    p = sub.add_parser("density", help="dump the KDE on a grid as CSV")
    p.add_argument("data", help="CSV file, one observation per row")
    p.add_argument("--bandwidth", default=None,
                   help="bandwidth matrix as 'a,b;c,d'")
    p.add_argument("--select", action="store_true",
                   help="select the bandwidth first")
    p.add_argument("--mode", default="fft-L",
                   choices=("direct-binned", "fft-M", "fft-L"))
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--header", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_density)

    return parser


def _emit_error(exc, code):
    payload = {
        "report_version": REPORT_VERSION,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except _INPUT_ERRORS as exc:
        return _emit_error(exc, 2)
    except _NUMERIC_ERRORS as exc:
        return _emit_error(exc, 3)
    except FastbandError as exc:
        return _emit_error(exc, 3)
    if report is not None:
        text = report.to_json() + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
