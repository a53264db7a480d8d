"""The benchmark tracer's hooks still find every name they patch.

``perfbench/tracing.py`` wraps package functions where their callers
look them up, so deleting or renaming one of those names breaks
``perfbench/run.py --trace 1``.  This test loads the tracer by path,
installs it, runs a small selection and density under it, and checks
that uninstalling puts every original back.
"""

import importlib.util
from pathlib import Path
from time import perf_counter

import numpy as np

import fastband.fftconv
import fastband.functionals
import fastband.linalg
import fastband.mixtures
import fastband.selector
from fastband import SelectorConfig, kde_on_grid, linear_binning, make_grid

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

OWNERS = (
    fastband.selector,
    fastband.functionals,
    fastband.fftconv,
    fastband.mixtures,
    fastband.fftconv.CountsFftCache,
    fastband.linalg.BandwidthMatrix,
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return {(owner.__name__, name): value
            for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_install_and_uninstall_restore_every_hook():
    before = _snapshot()
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        during = _snapshot()
        changed = {key for key in before if during[key] is not before[key]}
        for key in [("fastband.functionals", "normal_pdf"),
                    ("fastband.functionals", "convolve"),
                    ("fastband.selector", "convolve"),
                    ("CountsFftCache", "get"),
                    ("BandwidthMatrix", "__init__")]:
            assert key in changed, key

        x = np.random.default_rng(3).standard_normal((120, 2))
        res = fastband.selector.select_bandwidth(
            x, SelectorConfig(grid_size=30, max_iter=5)
        )
        gc = linear_binning(x, make_grid(x, (30, 30)))
        assert np.all(np.isfinite(fastband.selector.kde_on_grid(gc, res.h)))
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert kde_on_grid is fastband.selector.kde_on_grid
    names = {span[0] for span in tracer.spans}
    # Selection scores through its prepared scorer, not build_kernel_grid;
    # the density still builds a matrix and convolves.
    assert {"selector.select_bandwidth", "fftconv.convolve",
            "linalg.BandwidthMatrix"} <= names


def test_traced_selection_records_every_layer_per_evaluation():
    # The selector scores every evaluation through one prepared scorer,
    # so the per-evaluation layers are no longer spans: the result
    # carries their counts and times itself.
    x = np.random.default_rng(5).standard_normal((90, 2))
    for mode in ("direct-exact", "fft-L"):
        tracer = _load_tracing().Tracer()
        try:
            tracer.install()
            t0 = perf_counter()
            res = fastband.selector.select_bandwidth(
                x, SelectorConfig(mode=mode, grid_size=30, max_iter=20))
            wall_ms = (perf_counter() - t0) * 1000.0
        finally:
            tracer.uninstall()
        spans = [span[0] for span in tracer.spans]
        counts = tracer.counts["selector.select_bandwidth"]
        assert res.n_rejected == counts["selector.evals_rejected"] == 0
        assert counts["selector.evals"] == res.n_evals > 20
        assert spans.count("selector.nelder_mead") == 1
        # Only the start is encoded through a BandwidthMatrix.
        assert spans.count("linalg.BandwidthMatrix") == 1
        assert sum(res.rejections.values()) == res.n_rejected
        phases = [res.binning_ms, res.dedup_ms, res.precompute_ms, res.decode_ms,
                  res.score_ms]
        assert min(phases[1:]) > 0.0 and sum(phases) <= wall_ms
        if mode == "direct-exact":
            assert res.kernel_points == 0
        else:
            assert res.kernel_points > 0
