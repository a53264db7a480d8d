"""Tests for the LSCV objective, the simplex minimizer, and selection."""

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from fastband import (
    MAX_FUNCTIONAL_ORDER,
    SELECTOR_MODES,
    AllDuplicates,
    BandwidthMatrix,
    FastbandError,
    GridCounts,
    NormalMixture,
    OutOfRange,
    PairDifferences,
    SelectorConfig,
    ShapeMismatch,
    SimplexResult,
    SpdParam,
    TooFewPoints,
    dedup,
    exact_ise,
    kde_on_grid,
    linear_binning,
    lscv_objective,
    make_grid,
    mixture_catalog,
    nelder_mead,
    normal_pdf,
    normal_scale_start,
    sample_mixture,
    select_bandwidth,
)
import fastband
from fastband import functionals, linalg

from .conftest import lscv_eta_tensor


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def lscv_two_point_oracle():
    """Hand-evaluated objective for X = {0, 1}, H = 1, d = 1.

    n^-2 [T(0) + T(1) + T(-1) + T(0)] + 2 n^-1 K_H(0) with
    T(u) = phi_2(u) - 2 phi_1(u).
    """
    def phi(u, var):
        return math.exp(-0.5 * u * u / var) / math.sqrt(2 * math.pi * var)

    t0 = phi(0, 2) - 2 * phi(0, 1)
    t1 = phi(1, 2) - 2 * phi(1, 1)
    return 0.25 * (2 * t0 + 2 * t1) + phi(0, 1)


def kde_direct_oracle(x, h, points):
    """Plain KDE evaluated without binning."""
    vals = np.zeros(points.shape[0])
    for xi in x:
        vals += normal_pdf(points - xi, h)
    return vals / x.shape[0]


# ---------------------------------------------------------------------------
# sample preparation
# ---------------------------------------------------------------------------

def test_dedup_removes_repeats():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 0.5]])
    out = dedup(x)
    assert out.shape == (3, 2)


def test_dedup_requires_two_distinct_points():
    with pytest.raises(AllDuplicates):
        dedup(np.ones((5, 2)))
    with pytest.raises(AllDuplicates):
        dedup(np.tile([[1.5, -2.0, 0.0]], (7, 1)))
    # A sample without columns is no sample, whatever its row count.
    with pytest.raises(ShapeMismatch):
        dedup(np.empty((4, 0)))
    with pytest.raises(ShapeMismatch):
        dedup(np.ones((4, 2, 2)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dedup_matches_numpy_unique_rows(d):
    # Same rows in the same lexicographic order as np.unique(axis=0), on
    # distinct samples (one sort) and on each input that takes the lexsort
    # route: ties in the first column only, repeated rows, rounded samples.
    for seed in range(4):
        x = np.random.default_rng([d, seed]).standard_normal((400, d))
        tied, repeated = x.copy(), x.copy()
        tied[::7, 0] = x[3, 0]
        repeated[::5] = x[2]
        for y in (x, tied, repeated, np.round(x, 1), np.round(x)):
            assert np.array_equal(dedup(y), np.unique(y, axis=0))
        # At d = 1 a tie in the first column is a repeated row: rows 0, 7,
        # ..., 399 join row 3.
        assert dedup(x).shape[0] == 400 and dedup(repeated).shape[0] == 320
        assert dedup(tied).shape[0] == (342 if d == 1 else 400)


def test_dedup_signed_zeros_compare_equal_and_keep_the_first_row():
    x = np.array([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0], [-1.0, 0.5]])
    out = dedup(x)
    assert np.array_equal(out, np.unique(x, axis=0))
    assert out.shape == (3, 2) and not np.signbit(out[1, 0])
    out = dedup(x[[2, 1, 0, 3]])
    assert out.shape == (3, 2) and np.signbit(out[1, 0])
    # Signed zeros in the first column only tie there; both rows stay.
    y = np.array([[0.0, 1.0], [-0.0, 2.0], [1.0, 0.0]])
    assert np.array_equal(dedup(y), np.unique(y, axis=0))


def test_normal_scale_start_formula(rng):
    x = rng.standard_normal((200, 2))
    h0 = normal_scale_start(x)
    assert np.allclose(h0, 200 ** (-2.0 / 6.0) * np.cov(x, rowvar=False))
    hd = normal_scale_start(x, diagonal=True)
    assert hd[0, 1] == 0.0


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_lscv_objective_hand_example():
    x = np.array([[0.0], [1.0]])
    val = lscv_objective(x, np.array([[1.0]]), mode="direct-exact")
    assert val == pytest.approx(lscv_two_point_oracle(), rel=1e-12)
    assert val == pytest.approx(0.0089245, abs=1e-7)


def test_lscv_binned_tracks_exact(rng):
    x = rng.standard_normal((250, 2))
    gc = linear_binning(x, make_grid(x, (120, 120)))
    h = 0.25 * np.eye(2)
    exact = lscv_objective(x, h, mode="direct-exact")
    binned = lscv_objective(gc, h, mode="fft-M")
    assert binned == pytest.approx(exact, rel=2e-3)


@pytest.mark.parametrize("mode", SELECTOR_MODES)
# t: the closed-form T_H kernel at r = 0; eta: the Hermite-product kernels at r = 2.
@pytest.mark.parametrize("r", [pytest.param(0, id="t"), pytest.param(2, id="eta")])
def test_lscv_objective_builds_no_further_bandwidth_matrix(rng, monkeypatch, mode, r):
    x = rng.standard_normal((80, 2))
    data = x if mode == "direct-exact" else linear_binning(x, make_grid(x, (30, 30)))
    bw = BandwidthMatrix(normal_scale_start(x))
    built = []
    init = BandwidthMatrix.__init__

    def counting_init(self, h):
        built.append(h)
        init(self, h)

    monkeypatch.setattr(BandwidthMatrix, "__init__", counting_init)
    assert np.isfinite(lscv_objective(data, bw, r=r, mode=mode))
    assert built == []
    # Given as an array, h is built once, and no matrix is built for 2H.
    assert np.isfinite(lscv_objective(data, bw.h, r=r, mode=mode))
    assert len(built) == 1 and built[0] is bw.h


@pytest.mark.parametrize("source", ["matrix", "theta"])
@pytest.mark.parametrize("mode", ["direct-exact", "fft-L", "fft-M", "direct-binned"])
def test_order_zero_evaluation_computes_only_what_it_reads(rng, monkeypatch, mode, source):
    # One evaluation: the bandwidth, then the objective.  The
    # constructor factors h in Python floats, from a matrix or from
    # coordinates, so an inv would be H^-1, which the exact route does
    # not read.  Only fft-L reads lambda_max, once, to size its box: in
    # Python floats at d = 2, by one eigvalsh at d = 3.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counting(name, fn))
    for d, size in ((2, 30), (3, 8)):
        x = rng.standard_normal((80, d))
        data = PairDifferences(x) if mode == "direct-exact" else linear_binning(
            x, make_grid(x, (size,) * d))
        h = normal_scale_start(x)
        param = SpdParam(d)
        theta = param.encode(h)
        calls.clear()
        bw = BandwidthMatrix(h) if source == "matrix" else param.bandwidth(theta)
        assert np.isfinite(lscv_objective(data, bw, mode=mode))
        assert calls == (Counter(eigvalsh=1) if (mode, d) == ("fft-L", 3) else Counter())


@pytest.mark.parametrize("r", [0, 2])
def test_lscv_objective_on_pair_differences_equals_raw_sample(rng, r):
    x = rng.standard_normal((70, 2))
    h = normal_scale_start(x)
    cached = lscv_objective(PairDifferences(x), h, r=r, mode="direct-exact")
    assert cached == lscv_objective(x, h, r=r, mode="direct-exact")


def test_binned_modes_reject_pair_differences(rng):
    x = rng.standard_normal((30, 2))
    # Counts summing to 0 are no binned sample: every pair sum would be 0 / 0.
    empty = GridCounts(grid=make_grid(x, (8, 8)), counts=np.zeros((8, 8)))
    for mode in SELECTOR_MODES:
        if mode != "direct-exact":
            with pytest.raises(ShapeMismatch):
                lscv_objective(PairDifferences(x), np.eye(2), mode=mode)
            for call in (lambda: lscv_objective(empty, np.eye(2), mode=mode),
                         lambda: functionals.psi_binned(empty, np.eye(2), mode=mode),
                         lambda: functionals.q_r_binned(empty, np.eye(2), 0, mode=mode),
                         lambda: kde_on_grid(empty, np.eye(2), mode=mode)):
                with pytest.raises(TooFewPoints):
                    call()


def test_direct_exact_selection_builds_the_pair_table_once(rng, monkeypatch):
    built = []
    blocks = functionals._pair_blocks

    def counting_blocks(x, **kwargs):
        built.append(x.shape)
        return blocks(x, **kwargs)

    monkeypatch.setattr(functionals, "_pair_blocks", counting_blocks)
    x = rng.standard_normal((60, 2))
    res = select_bandwidth(x, SelectorConfig(mode="direct-exact", max_iter=30))
    assert res.n_evals > 30
    assert built == [(60, 2)]


def test_lscv_forms_agree(rng):
    x = rng.standard_normal((60, 2))
    h = 0.3 * np.eye(2)
    a = lscv_objective(x, h, mode="direct-exact")
    assert a == pytest.approx(lscv_eta_tensor(x, h), rel=1e-13)


# ---------------------------------------------------------------------------
# Nelder-Mead
# ---------------------------------------------------------------------------

def test_nelder_mead_quadratic_bowl():
    target = np.array([3.0, -2.0, 0.5])

    def f(t):
        return float(np.sum((t - target) ** 2))

    res = nelder_mead(f, np.zeros(3), rel_tol=1e-10)
    assert res.converged
    assert np.allclose(res.theta, target, atol=1e-4)
    assert res.f < 1e-8


def test_nelder_mead_rosenbrock_matches_reference():
    def rosen(t):
        return float(
            100.0 * (t[1] - t[0] ** 2) ** 2 + (1.0 - t[0]) ** 2
        )

    start = np.array([-1.2, 1.0])
    ours = nelder_mead(rosen, start, max_iter=5000, rel_tol=1e-10)
    ref = minimize(rosen, start, method="Nelder-Mead",
                   options={"maxiter": 5000, "xatol": 1e-10, "fatol": 1e-10})
    assert ours.iterations <= 5000
    assert np.allclose(ours.theta, [1.0, 1.0], atol=1e-4)
    assert np.allclose(ours.theta, ref.x, atol=1e-4)
    assert ours.f <= ref.fun + 1e-8


def test_nelder_mead_handles_infinite_regions():
    def f(t):
        if t[0] < 0:
            return np.inf
        return (t[0] - 1.0) ** 2

    res = nelder_mead(f, np.array([2.0]))
    assert res.theta[0] == pytest.approx(1.0, abs=1e-5)


def test_nelder_mead_counts_rejected_evaluations():
    seen = []

    def f(t):
        value = np.nan if t[0] < 0.9 else (np.inf if t[1] > 2.1 else np.sum((t - 1.0) ** 2))
        seen.append(value)
        return value

    res = nelder_mead(f, np.array([2.0, 2.0]))
    assert res.n_evals == len(seen)
    assert res.n_rejected == sum(not np.isfinite(v) for v in seen) > 0


def _nelder_mead_array_reference(func, theta0, max_iter=2000, rel_tol=1e-7, shrinks=None):
    """Nelder-Mead on numpy arrays: the reference ``nelder_mead`` matches bit for bit.

    ``shrinks``, when a list, gets one entry per shrink step.
    """
    alpha, beta, gamma = 1.0, 0.5, 2.0
    theta0 = np.asarray(theta0, dtype=float).ravel()
    p = theta0.size

    evals = [0]
    rejected = [0]

    def f(t):
        evals[0] += 1
        v = func(t)
        if math.isfinite(v):
            return float(v)
        rejected[0] += 1
        return math.inf

    simplex = [theta0.copy()]
    for j in range(p):
        vertex = theta0.copy()
        step = 0.1 * abs(vertex[j]) if abs(vertex[j]) > 1e-8 else 0.1
        vertex[j] += step
        simplex.append(vertex)
    simplex = np.array(simplex)
    fvals = np.array([f(v) for v in simplex])

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]

        f_spread = abs(fvals[-1] - fvals[0])
        x_spread = np.max(np.abs(simplex[1:] - simplex[0]))
        scale = rel_tol * (1.0 + abs(fvals[0]))
        if f_spread < scale and x_spread < rel_tol * (1.0 + np.max(np.abs(simplex[0]))):
            converged = True
            break

        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + alpha * (centroid - simplex[-1])
        fr = f(reflected)

        if fr < fvals[0]:
            expanded = centroid + gamma * (reflected - centroid)
            fe = f(expanded)
            if fe < fr:
                simplex[-1], fvals[-1] = expanded, fe
            else:
                simplex[-1], fvals[-1] = reflected, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, fr
        else:
            if fr < fvals[-1]:
                contracted = centroid + beta * (reflected - centroid)
            else:
                contracted = centroid + beta * (simplex[-1] - centroid)
            fc = f(contracted)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = contracted, fc
            else:
                if shrinks is not None:
                    shrinks.append(it)
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                fvals[1:] = [f(v) for v in simplex[1:]]

    order = np.argsort(fvals, kind="stable")
    simplex, fvals = simplex[order], fvals[order]
    return SimplexResult(
        theta=simplex[0], f=float(fvals[0]), iterations=it,
        n_evals=evals[0], converged=converged, n_rejected=rejected[0],
    )


def _rosen(t):
    return float(sum(100.0 * (t[k + 1] - t[k] ** 2) ** 2 + (1.0 - t[k]) ** 2
                     for k in range(t.size - 1)))


def _inf_below_diagonal(t):
    return math.inf if t[0] + t[1] < 0.5 else float((t[0] - 0.1) ** 2 + 3.0 * t[1] ** 2)


def _rotated_bowl(t):
    a = np.arange(1.0, t.size + 1.0)
    return float(np.sum(a * (t - 0.3) ** 2) + 0.4 * np.sum(t[:-1] * t[1:]))


def _box_max(t):
    # Piecewise constant off a coarse lattice: flat faces force shrinks.
    return float(np.max(np.floor(np.abs(t - 0.37) * 8.0)) + 1e-3 * np.sum(t ** 2))


_SIMPLEX_CASES = {
    "rosenbrock-3d": (_rosen, [-1.2, 1.0, 0.8], {"max_iter": 5000, "rel_tol": 1e-10}),
    "inf-region": (_inf_below_diagonal, [2.0, 2.0], {}),
    "shrink": (_box_max, [1.5, -0.7], {}),
    "p1": (lambda t: float((t[0] - 1.0) ** 2 + 0.1 * abs(t[0])), [2.0], {}),
    "p6": (_rotated_bowl, [0.0, 1.0, -2.0, 0.5, 1e-9, 3.0], {"rel_tol": 1e-9}),
    "max-iter-0": (_rosen, [-1.2, 1.0, 0.8], {"max_iter": 0}),
    "budget-out": (_rosen, [-1.2, 1.0, 0.8], {"max_iter": 60}),
}


@pytest.mark.parametrize("case", sorted(_SIMPLEX_CASES))
def test_nelder_mead_keeps_the_array_iterates(case):
    # The list-based simplex evaluates the same points in the same order
    # and returns the same bits as the array version it replaced.
    func, start, kwargs = _SIMPLEX_CASES[case]
    calls, ref_calls, shrinks = [], [], []

    def recorded(log):
        def g(t):
            assert isinstance(t, np.ndarray) and t.shape == (len(start),)
            log.append(t.tobytes())
            return func(t)
        return g

    ours = nelder_mead(recorded(calls), np.array(start), **kwargs)
    ref = _nelder_mead_array_reference(recorded(ref_calls), np.array(start),
                                       shrinks=shrinks, **kwargs)
    assert calls == ref_calls
    assert ours.theta.tobytes() == ref.theta.tobytes()
    assert ours.f.hex() == ref.f.hex()
    for name in ("iterations", "n_evals", "n_rejected", "converged"):
        assert getattr(ours, name) == getattr(ref, name), name
    if case == "shrink":
        assert shrinks
    if case == "inf-region":
        assert ours.n_rejected > 0
    if case == "budget-out":
        assert not ours.converged and ours.iterations == 60
    if case == "max-iter-0":
        assert ours.iterations == 0 and ours.n_evals == 4


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_select_bandwidth_returns_spd_and_converges(rng):
    x = rng.standard_normal((300, 2))
    res = select_bandwidth(x, SelectorConfig(grid_size=100))
    assert res.converged
    assert np.allclose(res.h, res.h.T)
    assert np.all(np.linalg.eigvalsh(res.h) > 0)
    assert res.grid is not None
    assert res.n_used == 300


def test_order_two_selection_converges_and_binned_tracks_exact(rng):
    # r = 2 in a binned and the exact mode: a finite SPD H, close between
    # the modes, where the binned objective tracks the exact one as in
    # criterion 9: its gap falls as the grid refines, to 1e-3 at grid 300.
    x = rng.standard_normal((300, 2))
    results = {mode: select_bandwidth(x, SelectorConfig(mode=mode, r=2))
               for mode in ("fft-L", "direct-exact")}
    for res in results.values():
        assert res.converged and np.isfinite(res.objective)
        assert np.all(np.isfinite(res.h)) and np.allclose(res.h, res.h.T)
        assert np.all(np.linalg.eigvalsh(res.h) > 0)
        exact = lscv_objective(x, res.h, r=2, mode="direct-exact")
        gaps = [abs(lscv_objective(linear_binning(x, make_grid(x, (g, g))), res.h, r=2)
                    - exact) / abs(exact) for g in (150, 300)]
        assert gaps[1] < gaps[0] and gaps[1] <= 1e-3, gaps
    assert np.allclose(results["fft-L"].h, results["direct-exact"].h, rtol=0.05, atol=0.01)


def test_select_bandwidth_modes_agree_on_gaussian(rng):
    x = rng.standard_normal((400, 2))
    h_l = select_bandwidth(x, SelectorConfig(mode="fft-L", grid_size=120)).h
    h_m = select_bandwidth(x, SelectorConfig(mode="fft-M", grid_size=120)).h
    scale = np.max(np.abs(h_m))
    assert np.max(np.abs(h_l - h_m)) <= 0.10 * scale


def test_select_bandwidth_diagonal_constraint(rng):
    x = rng.standard_normal((200, 2))
    res = select_bandwidth(x, SelectorConfig(grid_size=80, diagonal=True))
    assert res.h[0, 1] == 0.0
    assert res.h[1, 0] == 0.0


def test_select_bandwidth_reads_1d_sample_as_one_column():
    x = np.random.default_rng(0).standard_normal(300)
    for mode in ("fft-L", "direct-exact"):
        cfg = SelectorConfig(mode=mode, grid_size=60)
        res = select_bandwidth(x, cfg)
        assert res.h.shape == (1, 1) and res.n_used == 300
        assert np.array_equal(res.h, select_bandwidth(x[:, None], cfg).h)


_EXACT_SELECTION = """
import numpy as np
from fastband import SelectorConfig, mixture_catalog, sample_mixture, select_bandwidth
x = sample_mixture(mixture_catalog("correlated"), 150, np.random.default_rng(11))
res = select_bandwidth(x, SelectorConfig(mode="direct-exact"))
print(res.h.tobytes().hex(), res.n_evals, res.objective.hex())
"""


def _outputs_by_blas_threads(code):
    """stdout of ``code`` run in fresh interpreters with 1 and with 2 BLAS threads."""
    src = str(Path(fastband.__file__).resolve().parents[1])
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        out[threads] = run.stdout
    return out


def test_direct_exact_selection_does_not_depend_on_blas_threads():
    # Each block of an n = 150 sample holds 11,175 pairs, above the size
    # at which a BLAS reduction would split across threads.
    out = _outputs_by_blas_threads(_EXACT_SELECTION)
    assert out["1"] == out["2"]


_BINNED_SELECTION = """
import numpy as np
from fastband import (SelectorConfig, build_kernel_grid, linear_binning, make_grid,
                      mixture_catalog, normal_scale_start, psi_binned, sample_mixture,
                      select_bandwidth)
from fastband.selector import dedup
x = dedup(sample_mixture(mixture_catalog("bimodal"), 2000, np.random.default_rng(14)))
gc = linear_binning(x, make_grid(x, (150, 150)))
h0 = normal_scale_start(x)
for mode in ("fft-M", "fft-L"):
    size = build_kernel_grid(gc.grid, h0, mode=mode).size
    res = select_bandwidth(x, SelectorConfig(mode=mode, grid_size=150))
    print(mode, size, psi_binned(gc, h0, mode=mode).hex(), res.h.tobytes().hex(),
          res.n_evals, res.objective.hex())
"""


def test_fft_selection_does_not_depend_on_blas_threads():
    # At the normal-scale start both kernel tables exceed 10^4 entries,
    # the size above which a BLAS dot product splits across threads.
    out = _outputs_by_blas_threads(_BINNED_SELECTION)
    sizes = [int(line.split()[1]) for line in out["1"].splitlines()]
    assert len(sizes) == 2 and min(sizes) > 10_000
    assert out["1"] == out["2"]


@pytest.mark.parametrize("name", ["correlated", "bimodal", "trimodal"])
def test_fft_l_selection_matches_a_lapack_sized_box(monkeypatch, name):
    # lambda_max only sizes the fft-L box, through a ceil, so its Python
    # floats select bit for bit what LAPACK's eigvalsh selects.
    x = sample_mixture(mixture_catalog(name), 500, np.random.default_rng(11))
    cfg = SelectorConfig(grid_size=60)
    gc = linear_binning(x, make_grid(x, (60, 60)))

    def outputs():
        res = select_bandwidth(x, cfg)
        return (res.h.tobytes(), res.objective, res.n_evals,
                kde_on_grid(gc, res.h).tobytes())

    fast = outputs()
    # Every lambda_max, the selector's per step and kde_on_grid's, is
    # read through this one routine.
    monkeypatch.setattr(linalg, "_largest_eigenvalue_rows",
                        lambda rows: float(np.linalg.eigvalsh(np.array(rows))[-1]))
    assert outputs() == fast


@pytest.mark.parametrize("rep", range(3))
def test_fragile_coarse_grid_selection_passes_the_constructor(rep):
    # Criterion 7's coarse setting, where the simplex runs toward
    # near-singular H.  Every evaluation builds H through the validating
    # constructor, so whatever the selector returns must pass it again.
    x = sample_mixture(mixture_catalog("fragile"), 256,
                       np.random.default_rng([20260820, 256, rep]))
    res = select_bandwidth(x, SelectorConfig(mode="fft-L", grid_size=20))
    assert np.all(np.isfinite(res.h)) and np.isfinite(res.objective)
    BandwidthMatrix(res.h)


@pytest.mark.parametrize("rep", range(3))
def test_selection_counts_rejected_evaluations(rep):
    # The same coarse fragile setting: evaluations near the singular
    # boundary are rejected as inf and counted.
    x = sample_mixture(mixture_catalog("fragile"), 256,
                       np.random.default_rng([20260820, 256, rep]))
    res = select_bandwidth(x, SelectorConfig(mode="fft-L", grid_size=20))
    assert 0 <= res.n_rejected <= res.n_evals
    calm = select_bandwidth(np.random.default_rng(rep).standard_normal((100, 2)))
    assert calm.n_rejected == 0


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("bad", [1e300, np.nan, np.inf, -np.inf])
def test_extreme_coordinates_are_rejected_evaluations(monkeypatch, bad, diagonal):
    # A coordinate whose exponential (on the diagonal) or square (off it)
    # overflows, or a NaN or infinite one, is a typed rejection of the
    # factor path, counted as inf, not a crash.  At max_iter = 0 the
    # start simplex is the only work, and every vertex keeps the bad
    # coordinate (or turns it into NaN).
    x = np.random.default_rng(4).standard_normal((60, 2))
    for pos in range(2 if diagonal else 3):
        theta0 = np.zeros(2 if diagonal else 3)
        theta0[pos] = bad
        monkeypatch.setattr(SpdParam, "encode", lambda self, h, t=theta0: t.copy())
        for mode in ("fft-L", "direct-exact"):
            res = select_bandwidth(x, SelectorConfig(mode=mode, grid_size=20, max_iter=0,
                                                     diagonal=diagonal))
            assert res.n_rejected == res.n_evals == theta0.size + 1
            assert res.objective == math.inf


@pytest.mark.parametrize("mode", ["fft-L", "direct-exact"])
def test_selection_with_a_far_outlier_does_not_raise(mode):
    x = np.random.default_rng(6).standard_normal((300, 2))
    x = np.vstack([x, [1e6, 1e6]])
    res = select_bandwidth(x, SelectorConfig(mode=mode))
    assert 0 <= res.n_rejected <= res.n_evals and np.isfinite(res.objective)


@pytest.mark.parametrize("mode, r, diagonal", [
    ("direct-exact", 0, False), ("fft-L", 0, False), ("fft-L", 0, True), ("fft-L", 2, False),
    ("fft-M", 0, False), ("direct-binned", 0, False), ("direct-exact", 2, False),
])
def test_selected_h_is_the_one_the_objective_evaluated(monkeypatch, mode, r, diagonal):
    # A sample whose r = 2 selection does not collapse to a thin H;
    # direct-binned convolves offset by offset, so on a coarse grid.
    x = np.random.default_rng(2).standard_normal((300, 2))
    grid = 30 if mode == "direct-binned" else 150
    seen = []
    minimize = fastband.selector.nelder_mead

    def recording(func, theta0, **kwargs):
        def f(theta):
            value = func(theta)
            seen.append((theta.copy(), value))
            return value
        return minimize(f, theta0, **kwargs)

    monkeypatch.setattr(fastband.selector, "nelder_mead", recording)
    res = select_bandwidth(x, SelectorConfig(mode=mode, r=r, diagonal=diagonal, grid_size=grid))
    param = SpdParam(2, diagonal=diagonal)
    assert np.array_equal(res.h, param.decode(res.theta))
    data = PairDifferences(dedup(x)) if mode == "direct-exact" else linear_binning(
        dedup(x), res.grid)
    # The selector and the public constructor factor h the same way, and
    # one scorer scores both, at every iterate.
    assert len(seen) == res.n_evals
    for theta, value in seen:
        if value == math.inf:
            with pytest.raises(FastbandError):
                lscv_objective(data, param.decode(theta), r=r, mode=mode)
        else:
            assert lscv_objective(data, param.decode(theta), r=r, mode=mode) == value
    assert res.objective == lscv_objective(data, res.h, r=r, mode=mode)


@pytest.mark.parametrize("seed", [[3, 0], [3, 1]], ids=["s0", "s1"])
@pytest.mark.parametrize("cov", [
    np.eye(3), np.array([[1.0, 0.7, 0.4], [0.7, 1.0, 0.5], [0.4, 0.5, 1.0]]),
], ids=["standard", "correlated"])
def test_fft_l_selects_a_3d_bandwidth(cov, seed):
    # A coarse 3-D grid still resolves the selected kernel, whose ISE
    # stays near the normal-scale one, and the binned objective stays
    # near the exact one at the same H.
    mix = NormalMixture(np.ones(1), np.zeros((1, 3)), cov)
    x = sample_mixture(mix, 300, np.random.default_rng(seed))
    res = select_bandwidth(x, SelectorConfig(mode="fft-L", grid_size=31))
    assert res.converged and res.n_rejected == 0
    assert math.sqrt(np.linalg.eigvalsh(res.h)[0]) >= np.max(res.grid.delta)
    ise = exact_ise(x, BandwidthMatrix(res.h), mix)
    assert ise < 1.5 * exact_ise(x, BandwidthMatrix(normal_scale_start(x)), mix)
    exact = lscv_objective(x, res.h, mode="direct-exact")
    assert abs(res.objective - exact) < 0.1 * abs(exact)


def test_select_bandwidth_reports_its_binning_time(rng):
    x = rng.standard_normal((200, 2))
    assert select_bandwidth(x, SelectorConfig(grid_size=40)).binning_ms > 0.0
    cfg = SelectorConfig(mode="direct-exact", max_iter=5)
    assert select_bandwidth(x, cfg).binning_ms == 0.0


def test_select_bandwidth_too_few_points(rng):
    with pytest.raises(TooFewPoints):
        select_bandwidth(rng.standard_normal((5, 2)))
    # A covariance needs two rows.
    with pytest.raises(TooFewPoints):
        normal_scale_start(rng.standard_normal((1, 2)))


@pytest.mark.parametrize("mode", ["fft-L", "direct-exact"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_select_bandwidth_rejects_non_finite_sample(rng, mode, bad):
    x = rng.standard_normal((50, 2))
    with pytest.raises(ShapeMismatch):
        select_bandwidth(x.reshape(25, 2, 2), SelectorConfig(mode=mode, grid_size=30))
    with pytest.raises(ShapeMismatch):
        normal_scale_start(x.reshape(25, 2, 2))
    x[7, 1] = bad
    with pytest.raises(OutOfRange):
        select_bandwidth(x, SelectorConfig(mode=mode, grid_size=30))
    with pytest.raises(OutOfRange):
        normal_scale_start(x)


@pytest.mark.parametrize("field, value", [
    ("tau", 0.0), ("tau", -1.0), ("tau", np.inf), ("tau", np.nan),
    ("grid_size", 50.5), ("grid_size", 1), ("grid_size", True),
    ("margin_fraction", -0.1), ("margin_fraction", np.nan),
    ("max_iter", -1), ("max_iter", 10.0),
    ("r", -1), ("r", MAX_FUNCTIONAL_ORDER + 1), ("r", 1.5), ("r", True),
])
def test_selector_config_rejects_bad_fields(field, value):
    with pytest.raises(OutOfRange):
        SelectorConfig(**{field: value})


def test_selector_config_accepts_edge_values():
    cfg = SelectorConfig(
        grid_size=np.int64(2), margin_fraction=0.0, max_iter=0, tau=1e-3
    )
    assert cfg.max_iter == 0


def test_select_bandwidth_dedups_duplicates(rng):
    base = rng.standard_normal((50, 2))
    x = np.vstack([base, base[:10]])
    res = select_bandwidth(x, SelectorConfig(grid_size=60))
    assert res.n_used == 50


def test_select_bandwidth_scale_equivariance_sanity(rng):
    # Doubling the data scale should roughly quadruple the bandwidth.
    x = rng.standard_normal((400, 2))
    h1 = select_bandwidth(x, SelectorConfig(grid_size=100)).h
    h2 = select_bandwidth(2.0 * x, SelectorConfig(grid_size=100)).h
    ratio = np.trace(h2) / np.trace(h1)
    assert 3.0 < ratio < 5.5


# ---------------------------------------------------------------------------
# KDE on the grid
# ---------------------------------------------------------------------------

def test_kde_on_grid_mass_and_accuracy(rng):
    from fastband import grid_points

    x = rng.standard_normal((200, 2))
    grid = make_grid(x, (50, 50))
    gc = linear_binning(x, grid)
    h = normal_scale_start(x)
    dens = kde_on_grid(gc, h, mode="fft-M")

    mass = float(dens.sum() * np.prod(grid.delta))
    assert 0.95 <= mass <= 1.001

    ref = kde_direct_oracle(x, h, grid_points(grid)).reshape(grid.shape)
    peak = ref.max()
    assert np.max(np.abs(dens - ref)) <= 0.02 * peak


def test_kde_on_grid_modes_agree(rng):
    x = rng.standard_normal((150, 2))
    gc = linear_binning(x, make_grid(x, (40, 40)))
    h = 0.3 * np.eye(2)
    a = kde_on_grid(gc, h, mode="fft-M")
    b = kde_on_grid(gc, h, mode="direct-binned")
    assert np.allclose(a, b, atol=1e-12)


def test_kde_on_grid_fft_m_at_smallest_wrap_free_padding(rng):
    # At M = 22 the full-support kernel has L = 21 and convolve pads to
    # 64 points per axis (M + 2L - 1 = 63), where padded_size_full gives
    # 128.  The result must still equal the transform-free route.
    x = rng.standard_normal((150, 2))
    gc = linear_binning(x, make_grid(x, (22, 22)))
    h = normal_scale_start(x)
    a = kde_on_grid(gc, h, mode="fft-M")
    b = kde_on_grid(gc, h, mode="direct-binned")
    assert np.allclose(a, b, rtol=0.0, atol=1e-12 * np.max(np.abs(b)))


@pytest.mark.parametrize("d_h", [1, 3])
@pytest.mark.parametrize("mode", ["fft-L", "fft-M", "direct-binned"])
def test_kde_on_grid_rejects_a_bandwidth_of_another_dimension(rng, mode, d_h):
    x = rng.standard_normal((100, 2))
    gc = linear_binning(x, make_grid(x, (20, 20)))
    with pytest.raises(ShapeMismatch):
        kde_on_grid(gc, 0.3 * np.eye(d_h), mode=mode)
