"""Tests for the LSCV objective, the simplex minimizer, and selection."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from fastband import (
    SELECTOR_MODES,
    AllDuplicates,
    BandwidthMatrix,
    OutOfRange,
    PairDifferences,
    SelectorConfig,
    ShapeMismatch,
    TooFewPoints,
    dedup,
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
from fastband import functionals


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
@pytest.mark.parametrize("form", ["t", "eta"])
def test_lscv_objective_builds_no_further_bandwidth_matrix(rng, monkeypatch, mode, form):
    x = rng.standard_normal((80, 2))
    data = x if mode == "direct-exact" else linear_binning(x, make_grid(x, (30, 30)))
    bw = BandwidthMatrix(normal_scale_start(x))
    built = []
    init = BandwidthMatrix.__init__

    def counting_init(self, h):
        built.append(h)
        init(self, h)

    monkeypatch.setattr(BandwidthMatrix, "__init__", counting_init)
    assert np.isfinite(lscv_objective(data, bw, mode=mode, form=form))
    assert built == []


@pytest.mark.parametrize("r, form", [(0, "t"), (0, "eta"), (2, "eta")])
def test_lscv_objective_on_pair_differences_equals_raw_sample(rng, r, form):
    x = rng.standard_normal((70, 2))
    h = normal_scale_start(x)
    cached = lscv_objective(PairDifferences(x), h, r=r, mode="direct-exact", form=form)
    assert cached == lscv_objective(x, h, r=r, mode="direct-exact", form=form)


def test_binned_modes_reject_pair_differences(rng):
    x = rng.standard_normal((30, 2))
    for mode in SELECTOR_MODES:
        if mode != "direct-exact":
            with pytest.raises(ShapeMismatch):
                lscv_objective(PairDifferences(x), np.eye(2), mode=mode)


def test_direct_exact_selection_builds_the_pair_table_once(rng, monkeypatch):
    built = []
    blocks = functionals._pair_blocks

    def counting_blocks(x):
        built.append(x.shape)
        return blocks(x)

    monkeypatch.setattr(functionals, "_pair_blocks", counting_blocks)
    x = rng.standard_normal((60, 2))
    res = select_bandwidth(x, SelectorConfig(mode="direct-exact", max_iter=30))
    assert res.n_evals > 30
    assert built == [(60, 2)]


def test_lscv_forms_agree(rng):
    x = rng.standard_normal((60, 2))
    h = 0.3 * np.eye(2)
    a = lscv_objective(x, h, mode="direct-exact", form="t")
    b = lscv_objective(x, h, mode="direct-exact", form="eta")
    assert a == pytest.approx(b, rel=1e-13)


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


def test_select_bandwidth_reports_its_binning_time(rng):
    x = rng.standard_normal((200, 2))
    assert select_bandwidth(x, SelectorConfig(grid_size=40)).binning_ms > 0.0
    cfg = SelectorConfig(mode="direct-exact", max_iter=5)
    assert select_bandwidth(x, cfg).binning_ms == 0.0


def test_select_bandwidth_too_few_points(rng):
    with pytest.raises(TooFewPoints):
        select_bandwidth(rng.standard_normal((5, 2)))


@pytest.mark.parametrize("mode", ["fft-L", "direct-exact"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_select_bandwidth_rejects_non_finite_sample(rng, mode, bad):
    x = rng.standard_normal((50, 2))
    x[7, 1] = bad
    with pytest.raises(OutOfRange):
        select_bandwidth(x, SelectorConfig(mode=mode, grid_size=30))


@pytest.mark.parametrize("field, value", [
    ("tau", 0.0), ("tau", -1.0), ("tau", np.inf), ("tau", np.nan),
    ("grid_size", 50.5), ("grid_size", 1), ("grid_size", True),
    ("margin_fraction", -0.1), ("margin_fraction", np.nan),
    ("max_iter", -1), ("max_iter", 10.0),
    ("rel_tol", 0.0), ("rel_tol", -1e-7), ("rel_tol", np.nan),
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
