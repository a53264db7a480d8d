"""Timed passes over a workload's pool, the oracle, and metric reduction."""

import math
import platform
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import scipy.fft

import fastband
import fastband.selector
from fastband.binning import linear_binning, make_grid

from oracle import Oracle, density_summary
from tracing import DENSITY, SELECT, Tracer
from workloads import make_pool, reference_pool, warmup_sample

SETUP_REPEATS = 3
# Timed metrics are scaled to a machine on which one calibration loop takes
# this long; see Calibration.
CALIBRATION_NOMINAL_S = 0.06
# Calls shorter than this are repeated, up to SHORT_REPS times, and timed by
# their median.
SHORT_CALL_S = 0.1
SHORT_REPS = 15
# Iteration budget of the preparation call: sample preparation and the
# starting simplex, whose evaluation count is the same on every sample.
PROBE_ITERATIONS = 0
OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "prep_s": "s",
    "eval_ms": "ms",
    "peak_rss_mb": "MB",
    "select_ref_s": "s",
}


@dataclass
class Record:
    """Timings and outputs of one sample in one pass."""

    index: int
    result: object
    select_s: float
    density_s: float
    density: tuple
    probe_s: float = None
    probe_evals: int = None
    scale: float = 1.0


class Calibration:
    """A fixed numpy/scipy loop, timed between samples to track machine speed.

    On a shared machine, contention slows every call by up to a third for
    tens of seconds at a time.  The loop mixes the operations the layers
    spend their time in: a 256x256 FFT and inverse, an exp over 2^18
    elements and a row-unique of 2^16 points.  It slows with them.  Over
    one minute in which 10-second medians of raw call times moved 17%,
    their ratios to the loop moved 5%.  Contention also changes within a
    run, so each sample's times are multiplied by ``CALIBRATION_NOMINAL_S``
    over the mean of the two loops timed just before and just after it:
    over six fft-L runs this kept ``eval_ms`` within 8% where one scale per
    run (the loop's median) left 17%.  The loop calls no fastband code, so a
    change to fastband does not move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._grid = rng.standard_normal((256, 256))
        self._vec = rng.standard_normal(1 << 18)
        self._rows = rng.standard_normal((1 << 16, 2))
        self.times = []

    def measure(self):
        """Time one loop; returns its seconds."""
        t0 = perf_counter()
        scipy.fft.ifftn(scipy.fft.fftn(self._grid))
        np.exp(self._vec)
        np.unique(self._rows, axis=0)
        self.times.append(perf_counter() - t0)
        return self.times[-1]


class Runner:
    """Runs timed passes of one workload over one pool."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.config = workload.selector_config()
        self.probe_config = workload.selector_config(max_iter=PROBE_ITERATIONS)
        self.calibration = Calibration()
        # The original samples binned on the selector's grid size, for the
        # density step.  Built before timing, so that the heap does not grow
        # between timed calls.
        self.counts = [
            linear_binning(s.x, make_grid(s.x, (self.config.grid_size,) * s.x.shape[1]))
            for s in pool
        ]

    def density(self, i, h):
        return self.counts[i], fastband.selector.kde_on_grid(self.counts[i], h)

    def one_pass(self, probe):
        records = []
        before = self.calibration.measure()
        for i, sample in enumerate(self.pool):
            gc = self.counts[i]
            probe_s = probe_evals = None
            if probe:
                res, probe_s = timed(
                    fastband.selector.select_bandwidth, sample.x, self.probe_config)
                probe_evals = res.n_evals
            t0 = perf_counter()
            res = fastband.selector.select_bandwidth(sample.x, self.config)
            select_s = perf_counter() - t0
            values, density_s = timed(fastband.selector.kde_on_grid, gc, res.h)
            density = density_summary(gc, values)
            del values
            after = self.calibration.measure()
            scale = 2.0 * CALIBRATION_NOMINAL_S / (before + after)
            records.append(
                Record(i, res, select_s, density_s, density, probe_s, probe_evals, scale))
            before = after
        return records

    def passes(self, seconds, probe=True):
        """At least one pass; another only if it should end within ``seconds``."""
        out = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            out.append(self.one_pass(probe))
            if perf_counter() - start + (perf_counter() - t0) > seconds:
                return out


def timed(fn, *args):
    """``fn(*args)`` and its wall time; a short call is repeated and its median taken."""
    times = []
    while True:
        t0 = perf_counter()
        out = fn(*args)
        times.append(perf_counter() - t0)
        if len(times) == SHORT_REPS or sum(times) >= SHORT_CALL_S:
            return out, statistics.median(times)


def setup(workload, seed):
    """The pool, and the median seconds of (sample generation + one warm-up selection).

    The warm-up is a preparation call on a fixed sample: it runs every
    layer once, and its cost does not vary with the seed.
    """
    times = []
    config = workload.selector_config(max_iter=PROBE_ITERATIONS)
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pool = make_pool(workload, seed)
        fastband.selector.select_bandwidth(warmup_sample(workload), config)
        times.append(perf_counter() - t0)
    return pool, statistics.median(times)


def check_all(oracle, runner, passes):
    """Oracle verdicts for every record: (attempted, failed, failure details)."""
    attempted, failed, failures = 0, 0, []
    for records in passes:
        for rec in records:
            found = oracle.check(rec.index, rec.result, rec.density)
            attempted += 1
            failed += bool(found)
            failures.extend({"sample": rec.index, "source": runner.pool[rec.index].label,
                             "check": check, "detail": detail} for check, detail in found)
    return attempted, failed, failures


def ise_ratio(oracle, runner, records, failed):
    """Geometric mean over the pool's passing selections of the ISE ratio."""
    logs = [
        math.log(oracle.ise_ratio(rec.index, rec.result.h,
                                  lambda h, i=rec.index: runner.density(i, h)))
        for rec in records if rec.index not in failed
    ]
    return math.exp(statistics.fmean(logs)) if logs else float("nan")


def _median(values):
    return statistics.median(values) if values else 0.0


def per_sample(passes, value):
    """``value(record)`` per pool sample, as the median over passes."""
    by_sample = defaultdict(list)
    for records in passes:
        for rec in records:
            by_sample[rec.index].append(value(rec))
    return [statistics.median(v) for v in by_sample.values()]


def timings(passes, calibrated=True):
    """Timed end-to-end figures, each a mean over the pool of per-sample medians.

    Samples differ in cost, so the per-run figure averages over the pool
    rather than taking its median, which would jump between cost modes.
    ``calibrated`` multiplies each record's times by its ``scale``.
    """
    def per(value):
        return per_sample(passes, lambda r: value(r) * (r.scale if calibrated else 1.0))

    loop_s = per(lambda r: r.select_s - r.probe_s)
    loop_evals = per_sample(passes, lambda r: r.result.n_evals - r.probe_evals)
    return {
        "prep_s": statistics.fmean(per(lambda r: r.probe_s)),
        "eval_ms": 1000.0 * sum(loop_s) / sum(loop_evals),
        "density_s": statistics.fmean(per(lambda r: r.density_s)),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_pass(workload):
    """One untimed pass over ``reference_pool(workload)``, before any seeded pass.

    Returns the runner, its records, the mean evaluations a full selection
    makes beyond the preparation call, and the peak RSS in MB right after
    the pass.  The reference samples do not depend on the seed, so both
    figures are the same in every run of one build.
    """
    runner = Runner(workload, reference_pool(workload))
    records = runner.one_pass(probe=True)
    extra = statistics.fmean(r.result.n_evals - r.probe_evals for r in records)
    return runner, records, extra, peak_rss_mb()


def end_to_end(import_s, setup_s, passes, peak_mb, ref_evals):
    times = timings(passes)
    values = {
        "setup_s": import_s + setup_s,
        "prep_s": times["prep_s"],
        "eval_ms": times["eval_ms"],
        "peak_rss_mb": peak_mb,
        "select_ref_s": times["prep_s"] + times["eval_ms"] * ref_evals / 1000.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, calibration, untraced, traced, pool_size, fail_rate, ise):
    """Per-selection layer figures from the traced passes.

    Self times are raw seconds; the ``wall_s`` and ``pass_s`` figures and the
    overhead ratio use calibrated times, and ``calibration.loop_s`` is the
    raw loop time that relates the two.
    """
    n_sel = sum(len(p) for p in traced)
    selves = tracer.self_times()
    sel_self, sel_counts = selves[SELECT], tracer.counts[SELECT]
    gets = sel_counts["fftconv.counts_fft.gets"]
    untraced_s = [r.select_s * r.scale for p in untraced for r in p]
    traced_s = [r.select_s * r.scale for p in traced for r in p]

    def per_sel(value):
        return value / n_sel

    seconds = {
        name: per_sel(sel_self[name]) for name in (
            "selector.select_bandwidth", "selector.dedup", "binning.make_grid",
            "binning.linear_binning", "fftconv.convolve", "fftconv.CountsFftCache.get",
            "functionals.build_kernel_grid", "functionals.psi_binned",
            "functionals.psi_direct", "gaussian.normal_pdf", "selector.lscv_objective",
            "selector.nelder_mead", "linalg.BandwidthMatrix",
        )
    }
    seconds["selector.kde_on_grid"] = per_sel(selves[DENSITY][DENSITY])
    seconds["mixtures.sample_mixture"] = (
        selves["mixtures.sample_mixture"]["mixtures.sample_mixture"] / pool_size
    )
    counts = {
        key: per_sel(sel_counts[key]) for key in (
            "selector.dedup.rows_dropped", "fftconv.convolve.calls",
            "fftconv.convolve.fft_elems", "functionals.kernel_points",
            "gaussian.normal_pdf.points", "selector.evals", "selector.evals_rejected",
            "selector.evals_rejected.SingularBandwidth",
            "selector.evals_rejected.NotPositiveDefinite",
            "selector.evals_rejected.other",
        )
    }
    metrics = {f"{k}.self_s": {"value": v, "unit": "s"} for k, v in seconds.items()}
    metrics.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
    metrics["fftconv.counts_fft.miss_ratio"] = {
        "value": sel_counts["fftconv.counts_fft.misses"] / gets if gets else 0.0, "unit": "ratio",
    }
    metrics["selector.select_bandwidth.wall_s"] = {"value": _median(untraced_s), "unit": "s"}
    metrics["selector.select_bandwidth.pass_s"] = {
        "value": _median([sum(r.select_s * r.scale for r in p) for p in untraced]),
        "unit": "s",
    }
    metrics["selector.kde_on_grid.wall_s"] = {
        "value": timings(untraced)["density_s"], "unit": "s",
    }
    metrics["trace.overhead_ratio"] = {
        "value": _median(traced_s) / _median(untraced_s), "unit": "ratio",
    }
    metrics["oracle.fail_rate"] = {"value": fail_rate, "unit": "ratio"}
    metrics["oracle.ise_ratio"] = {"value": ise, "unit": "ratio"}
    metrics["calibration.loop_s"] = {"value": _median(calibration.times), "unit": "s"}
    return metrics


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fastband": fastband.__version__,
        "machine": platform.machine(),
    }


def run_workload(workload, seed, seconds, trace, import_s):
    """One benchmark run; returns (description, result line)."""
    pool, setup_s = setup(workload, seed)
    if not trace:
        ref_runner, ref_records, ref_evals, peak_mb = reference_pass(workload)
    runner = Runner(workload, pool)
    if trace:
        untraced = runner.passes(seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            make_pool(workload, seed)
            traced = runner.passes(seconds / 2, probe=False)
        finally:
            tracer.uninstall()
        measured = untraced + traced
    else:
        untraced = measured = runner.passes(seconds)

    t0 = perf_counter()
    oracle = Oracle(pool, runner.config)
    attempted, failed, failures = check_all(oracle, runner, measured)
    ise = ise_ratio(oracle, runner, measured[0], {f["sample"] for f in failures})
    if not trace:
        ref = check_all(Oracle(ref_runner.pool, ref_runner.config), ref_runner, [ref_records])
        attempted, failed, failures = attempted + ref[0], failed + ref[1], failures + ref[2]
    oracle_s = perf_counter() - t0

    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.json")
        metrics = per_layer(tracer, runner.calibration, untraced, traced, len(pool),
                            failed / attempted, ise)
    else:
        metrics = end_to_end(import_s, setup_s, measured, peak_mb, ref_evals)

    first = measured[0]
    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(measured),
        "selections": attempted,
        "import_s": import_s,
        "select_s_median": _median([r.select_s for p in untraced for r in p]),
        "select_s_total": _median([sum(r.select_s for r in p) for p in untraced]),
        "uncalibrated": timings(untraced, calibrated=False),
        "calibration_loop_s": _median(runner.calibration.times),
        "evals": [r.result.n_evals for r in first],
        "rows_after_dedup": [oracle.x_used(r.index).shape[0] for r in first],
        "ise_ratio": ise,
        "oracle_s": oracle_s,
        "failures": failures,
        "env": environment(),
    }
    if not trace:
        info["reference_evals"] = [r.result.n_evals for r in ref_records]
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result
