"""Command line front end: selection, ISE studies, density dumps.

The reports time only what the selections themselves timed: the phase
fields of each ``SelectionResult`` a command made, summed.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .binning import grid_points, linear_binning, make_grid
from .errors import (
    AllDuplicates,
    DegenerateAxis,
    FastbandError,
    OutOfRange,
    ParseError,
    ShapeMismatch,
    SingularBandwidth,
    TooFewPoints,
    UnknownModel,
)
from .fftconv import DEFAULT_TAU
from .functionals import PSI_MODES
from .linalg import BandwidthMatrix
from .mixtures import exact_ise, load_mixture, mixture_catalog, sample_mixture
from .selector import SELECTOR_MODES, SelectorConfig, kde_on_grid, select_bandwidth

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

# The SelectionResult phase fields that a report sums into its timings.
_PHASES = ("dedup_ms", "binning_ms", "precompute_ms", "decode_ms", "score_ms")


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


def _make_report(command, args, results, selections, total_ms):
    """The report of one command, timed by the selections it made.

    ``timings`` holds each phase field of :data:`_PHASES` and the
    evaluation count (``objective_evals``, from ``n_evals``) summed over
    the ``SelectionResult`` list ``selections``, and the command's wall
    time ``total_ms``.
    """
    config = {
        k: _jsonable(v)
        for k, v in vars(args).items()
        if k not in ("func", "out") and not k.startswith("_")
    }
    timings = {k: float(sum(getattr(s, k) for s in selections)) for k in _PHASES}
    timings["objective_evals"] = int(sum(s.n_evals for s in selections))
    timings["total_ms"] = float(total_ms)
    return RunReport(
        command=command,
        config=config,
        results=_jsonable(results),
        timings=timings,
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
    return _make_report("select", args, results, [res], total_ms)


def _ise_cell(mix, n, grid_size, reps, seed, mode, tau, threshold):
    """Run one (n, grid) cell of the ISE study; the cell and its selections."""
    cfg = SelectorConfig(mode=mode, grid_size=grid_size, tau=tau)
    ises, selections = [], []
    for rep in range(reps):
        rng = np.random.default_rng([seed, n, rep])
        x = sample_mixture(mix, n, rng)
        res = select_bandwidth(x, cfg)
        selections.append(res)
        ises.append(exact_ise(x, BandwidthMatrix(res.h), mix))
    ises = np.array(ises)
    return {
        "n": n,
        "grid": grid_size,
        "ise": ises,
        "median_ise": float(np.median(ises)),
        "failures": int(np.sum(ises > threshold)),
    }, selections


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
    outcomes = [
        _ise_cell(mix, n, g, args.reps, args.seed, args.mode, args.tau, args.threshold)
        for n in _int_list(args.n)
        for g in _int_list(args.grids)
    ]
    results = {
        "model": args.model if not args.model_file else args.model_file,
        "threshold": args.threshold,
        "cells": [cell for cell, _ in outcomes],
    }
    selections = [res for _, made in outcomes for res in made]
    total_ms = (time.perf_counter() - t_start) * 1000.0
    return _make_report("ise-study", args, results, selections, total_ms)


def _density_grid(x, h, size, margin, tau):
    """The density's grid, its margin fraction ``max(margin, max_k tau sqrt(H_kk) / range_k)``.

    Each axis then reaches ``tau`` kernel standard deviations beyond the
    sample, so a wide ``H`` keeps its mass on the grid.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise OutOfRange(f"tau must be finite and > 0, got {tau!r}")
    if h.d != x.shape[1]:
        raise ShapeMismatch(f"bandwidth is {h.d}-D but the sample is {x.shape[1]}-D")
    # make_grid refuses a bad margin or a zero range before either is used here.
    grid = make_grid(x, (size,) * h.d, margin)
    reach = float(np.max(tau * np.sqrt(np.diag(h.h)) / np.ptp(x, axis=0)))
    return make_grid(x, grid.shape, reach) if reach > margin else grid


def cmd_density(args):
    """Evaluate the KDE on a grid and dump coordinates plus values as CSV."""
    x = read_csv(args.data, header=args.header)
    if args.select:
        cfg = SelectorConfig(mode=args.mode, grid_size=args.grid, tau=args.tau)
        h = BandwidthMatrix(select_bandwidth(x, cfg).h)
    elif args.bandwidth:
        h = BandwidthMatrix(_parse_matrix(args.bandwidth))
    else:
        raise ParseError("provide --bandwidth or --select")

    grid = _density_grid(x, h, args.grid, args.margin, args.tau)
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
    p.add_argument("--tau", type=float, default=DEFAULT_TAU,
                   help="kernel truncation radius in std deviations")
    p.add_argument("--out", default=None, help="write output to this file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fastband",
        description="FFT-accelerated bandwidth selection for multivariate KDE",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    config = SelectorConfig()

    p = sub.add_parser("select", help="select a bandwidth matrix for a CSV sample")
    p.add_argument("data", help="CSV file, one observation per row")
    p.add_argument("--mode", default=config.mode, choices=SELECTOR_MODES)
    p.add_argument("--grid", type=int, default=config.grid_size, help="grid nodes per axis")
    p.add_argument("--margin", type=float, default=config.margin_fraction)
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
    p.add_argument("--mode", default=config.mode, choices=SELECTOR_MODES)
    p.add_argument("--threshold", type=float, default=1.0,
                   help="ISE above this counts as a failure")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_ise_study)

    p = sub.add_parser("density", help="dump the KDE on a grid as CSV")
    p.add_argument("data", help="CSV file, one observation per row")
    p.add_argument("--bandwidth", default=None,
                   help="bandwidth matrix as 'a,b;c,d'")
    p.add_argument("--select", action="store_true",
                   help="select the bandwidth first")
    p.add_argument("--mode", default="fft-L", choices=PSI_MODES)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--margin", type=float, default=0.05,
                   help="least grid margin, as a fraction of each axis range; "
                        "widened to tau sqrt(H_kk) on axis k (default 0.05)")
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
