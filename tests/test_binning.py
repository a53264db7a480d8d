"""Tests for grid construction and linear binning."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastband.binning
from fastband import (
    DegenerateAxis,
    GridCounts,
    GridSpec,
    OutOfRange,
    ShapeMismatch,
    autocorrelate,
    grid_points,
    kde_on_grid,
    linear_binning,
    lscv_objective,
    make_grid,
    psi_binned,
)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def binning_oracle(x, grid):
    """Linear binning by explicit per-point, per-corner loops."""
    counts = np.zeros(grid.shape)
    delta = grid.delta
    for point in np.atleast_2d(x):
        t = [(point[k] - grid.lo[k]) / delta[k] for k in range(grid.d)]
        base = [min(int(tk), grid.shape[k] - 2) for k, tk in enumerate(t)]
        frac = [tk - bk for tk, bk in zip(t, base)]
        for corner in np.ndindex(*(2,) * grid.d):
            w = 1.0
            idx = []
            for k, c in enumerate(corner):
                w *= frac[k] if c else 1.0 - frac[k]
                idx.append(base[k] + c)
            counts[tuple(idx)] += w
    return counts


# ---------------------------------------------------------------------------
# GridSpec and make_grid
# ---------------------------------------------------------------------------

def test_grid_spec_delta_and_nodes():
    g = GridSpec(lo=[0.0, -1.0], hi=[1.0, 1.0], shape=(5, 3))
    assert np.allclose(g.delta, [0.25, 1.0])
    assert np.allclose(g.axis_nodes(0), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.axis_nodes(1)[0] == g.lo[1]
    assert g.axis_nodes(1)[-1] == g.hi[1]


def test_grid_spec_delta_is_cached_and_read_only():
    g = GridSpec(lo=[0.0, -1.0, 2.0], hi=[1.0, 1.0, 2.7], shape=(5, 3, 8))
    assert g.delta is g.delta
    assert np.array_equal(g.delta, (g.hi - g.lo) / (np.array(g.shape) - 1))
    with pytest.raises(ValueError):
        g.delta[0] = 1.0


def test_grid_spec_offsets_and_steps_are_cached():
    g = GridSpec(lo=[0.0, -1.0, 2.0], hi=[1.0, 1.0, 2.7], shape=(5, 3, 8))
    assert g.steps is g.steps and g.offsets is g.offsets
    assert g.steps == tuple(g.delta.tolist())
    assert all(type(step) is float for step in g.steps)
    for k, (off, m) in enumerate(zip(g.offsets, g.shape)):
        assert off.shape == (2 * m - 1,) + (1,) * (g.d - 1 - k)
        assert np.array_equal(off.ravel(), g.delta[k] * np.arange(1 - m, m))
        assert off.ravel()[m - 1] == 0.0
        with pytest.raises(ValueError):
            off[0] = 1.0


def test_grid_spec_validation():
    with pytest.raises(OutOfRange):
        GridSpec(lo=[0.0], hi=[1.0], shape=(1,))
    with pytest.raises(OutOfRange):
        GridSpec(lo=[1.0], hi=[0.0], shape=(4,))
    with pytest.raises(ShapeMismatch):
        GridSpec(lo=[0.0, 1.0], hi=[1.0], shape=(4,))
    for lo, hi in (([0.0, 0.0], [np.inf, 1.0]), ([-np.inf, 0.0], [1.0, 1.0]),
                   ([0.0, np.nan], [1.0, 1.0])):
        with pytest.raises(OutOfRange):
            GridSpec(lo=lo, hi=hi, shape=(5, 5))


def test_grid_counts_must_fit_the_grid(rng):
    # Counts that do not fit the grid would reach the scorers, which
    # raised a raw broadcast error or, in kde_on_grid, returned a density
    # of the counts' shape.
    grid = make_grid(rng.standard_normal((40, 2)), (10, 10))
    for bad in (np.ones((7, 9)), np.ones(100), np.ones((10, 10, 1))):
        for call in (lambda: GridCounts(grid, bad),
                     lambda: psi_binned(GridCounts(grid, bad), np.eye(2)),
                     lambda: lscv_objective(GridCounts(grid, bad), np.eye(2)),
                     lambda: kde_on_grid(GridCounts(grid, bad), np.eye(2))):
            with pytest.raises(ShapeMismatch):
                call()
    assert GridCounts(grid, np.ones((10, 10))).n == 100.0


@pytest.mark.parametrize("shape", [(9.7,), (9.0,), (True,), (np.float64(9.0),), 9.7])
def test_grid_spec_refuses_non_integer_node_counts(shape):
    # int() would truncate 9.7 to 9 nodes, and True would pass as 1.
    with pytest.raises(OutOfRange):
        GridSpec(lo=[0.0], hi=[1.0], shape=shape)
    assert GridSpec(lo=[0.0], hi=[1.0], shape=(np.int32(9),)).shape == (9,)


def test_make_grid_refuses_non_integer_node_counts(rng):
    x = rng.standard_normal((20, 2))
    for shape in ((9.7, 9), (9, 9.0), (9, False), 9.7):
        with pytest.raises(OutOfRange):
            make_grid(x, shape)
    assert make_grid(x, (9, np.int64(8))).shape == (9, 8)
    assert make_grid(x[:, 0], 9).shape == (9,)


def test_make_grid_margin_formula(rng):
    x = rng.uniform(-3.0, 5.0, size=(40, 2))
    g = make_grid(x, (32, 48), margin_fraction=0.05)
    rngs = x.max(axis=0) - x.min(axis=0)
    assert np.allclose(g.lo, x.min(axis=0) - 0.05 * rngs)
    assert np.allclose(g.hi, x.max(axis=0) + 0.05 * rngs)
    assert g.shape == (32, 48)


def test_make_grid_degenerate_axis():
    x = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    with pytest.raises(DegenerateAxis):
        make_grid(x, (8, 8))


def test_make_grid_rejects_negative_margin(rng):
    for margin in (-0.1, np.nan, np.inf):
        with pytest.raises(OutOfRange):
            make_grid(rng.standard_normal((10, 2)), (10, 10), margin_fraction=margin)


# ---------------------------------------------------------------------------
# linear binning
# ---------------------------------------------------------------------------

def test_binning_point_on_node():
    g = GridSpec(lo=[0.0], hi=[1.0], shape=(2,))
    counts = linear_binning([[0.0]], g).counts
    assert counts.tolist() == [1.0, 0.0]


def test_binning_quarter_point():
    g = GridSpec(lo=[0.0], hi=[1.0], shape=(2,))
    counts = linear_binning([[0.25]], g).counts
    assert np.allclose(counts, [0.75, 0.25])


def test_binning_cell_center_2d():
    g = GridSpec(lo=[0.0, 0.0], hi=[1.0, 1.0], shape=(2, 2))
    counts = linear_binning([[0.5, 0.5]], g).counts
    assert np.allclose(counts, 0.25 * np.ones((2, 2)))


def test_binning_rejects_outside_points():
    g = GridSpec(lo=[0.0], hi=[1.0], shape=(4,))
    with pytest.raises(OutOfRange):
        linear_binning([[1.5]], g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_binning_rejects_non_finite_points(bad):
    g = GridSpec(lo=[0.0, 0.0], hi=[1.0, 1.0], shape=(4, 4))
    with pytest.raises(OutOfRange):
        linear_binning([[0.5, 0.5], [0.2, bad]], g)


def test_autocorrelation_computed_once_per_grid_counts(rng, monkeypatch):
    calls = []
    real = fastband.binning._half_autocorrelation

    def counting(counts):
        calls.append(counts.shape)
        return real(counts)

    monkeypatch.setattr(fastband.binning, "_half_autocorrelation", counting)
    x = rng.standard_normal((100, 2))
    gc = linear_binning(x, make_grid(x, (20, 20)))
    for scale in (0.2, 0.5, 1.0):
        for mode in ("fft-M", "fft-L"):
            psi_binned(gc, scale * np.eye(2), mode=mode)
    assert calls == [(20, 20)]
    linear_binning(x, gc.grid).folded_autocorrelation
    assert len(calls) == 2


@pytest.mark.parametrize("d, m", [(1, 9), (1, 10), (2, 7), (3, 5)])
def test_folded_autocorrelation_sums_even_kernels_like_the_full_table(rng, d, m):
    x = rng.standard_normal((60, d))
    gc = linear_binning(x, make_grid(x, (m,) * d))
    a, w = autocorrelate(gc.counts), gc.folded_autocorrelation
    assert w is gc.folded_autocorrelation and not w.flags.writeable
    assert w.shape == (m,) + a.shape[1:]
    ref = a[m - 1:] + np.flip(a)[m - 1:]
    ref[0] /= 2.0
    assert np.array_equal(w, ref)
    # 0 <= W <= 2 A(0), up to the transform's round-off.
    a0 = a[(m - 1,) * d]
    assert np.all(w >= -1e-12 * a0) and np.all(w <= 2.0 * a0 * (1.0 + 1e-12))
    k = rng.random(a.shape)
    k += np.flip(k)
    assert np.sum(w * k[m - 1:]) == pytest.approx(np.sum(a * k), rel=1e-13)


@pytest.mark.parametrize("d, m", [(1, 9), (1, 10), (2, 7), (2, 8), (3, 5), (3, 6)])
def test_folded_autocorrelation_row_zero_is_exactly_symmetric(rng, d, m):
    x = rng.standard_normal((60, d))
    w = linear_binning(x, make_grid(x, (m,) * d)).folded_autocorrelation
    assert np.array_equal(w[0], np.flip(w[0]))


def add_at_binning(x, grid):
    """Linear binning with one ``np.add.at`` per cell corner, corners in ``product`` order."""
    t = np.clip((x - grid.lo) / grid.delta, 0.0, np.array(grid.shape) - 1)
    base = np.minimum(t.astype(int), np.array(grid.shape) - 2)
    frac = t - base
    counts = np.zeros(grid.shape)
    for corner in itertools.product((0, 1), repeat=grid.d):
        w = np.ones(x.shape[0])
        for k, c in enumerate(corner):
            w = w * (frac[:, k] if c else 1.0 - frac[:, k])
        np.add.at(counts, tuple(base[:, k] + corner[k] for k in range(grid.d)), w)
    return counts


@pytest.mark.parametrize("d", [1, 2, 3])
def test_binning_counts_equal_corner_major_add_at_bitwise(rng, d):
    # Points on nodes, on the upper edge and many to a cell, so several
    # terms meet in one node and their summation order shows.
    x = rng.standard_normal((3000, d))
    grid = make_grid(x, (17,) * d)
    x[:50] = grid.lo
    x[50:100] = grid.hi
    x[100:200] = grid.lo + grid.delta * rng.integers(0, 17, size=(100, d))
    counts = linear_binning(x, grid).counts
    assert counts.shape == grid.shape
    assert np.array_equal(counts, add_at_binning(x, grid))


def test_binning_matches_loop_oracle(rng):
    for d in (1, 2, 3):
        x = rng.uniform(-1.0, 2.0, size=(50, d))
        g = make_grid(x, tuple(rng.integers(3, 9, size=d)))
        counts = linear_binning(x, g).counts
        assert np.allclose(counts, binning_oracle(x, g), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=3),
)
def test_binning_mass_conservation(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n + 1, d))
    x[0] = x[1] + 1.0
    g = make_grid(x, (7,) * d)
    gc = linear_binning(x, g)
    assert gc.n == pytest.approx(n + 1, abs=1e-9)
    assert np.all(gc.counts >= -1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_binning_is_additive_over_samples(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(30, 2))
    g = GridSpec(lo=[-.1, -.1], hi=[1.1, 1.1], shape=(9, 6))
    both = linear_binning(x, g).counts
    first = linear_binning(x[:17], g).counts
    second = linear_binning(x[17:], g).counts
    assert np.allclose(both, first + second, atol=1e-12)


# ---------------------------------------------------------------------------
# grid_points
# ---------------------------------------------------------------------------

def test_grid_points_row_major_layout():
    g = GridSpec(lo=[0.0, 10.0], hi=[1.0, 12.0], shape=(2, 3))
    pts = grid_points(g)
    assert pts.shape == (6, 2)
    expected = [
        [0.0, 10.0], [0.0, 11.0], [0.0, 12.0],
        [1.0, 10.0], [1.0, 11.0], [1.0, 12.0],
    ]
    assert np.allclose(pts, expected)


def test_grid_points_align_with_counts_layout(rng):
    x = rng.uniform(0.0, 1.0, size=(20, 2))
    g = make_grid(x, (4, 5))
    pts = grid_points(g).reshape(g.shape + (2,))
    assert pts[2, 3, 0] == pytest.approx(g.axis_nodes(0)[2])
    assert pts[2, 3, 1] == pytest.approx(g.axis_nodes(1)[3])
