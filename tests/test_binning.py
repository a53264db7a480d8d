"""Tests for grid construction and linear binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastband.binning
from fastband import (
    DegenerateAxis,
    GridSpec,
    OutOfRange,
    ShapeMismatch,
    grid_points,
    linear_binning,
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


def test_grid_spec_validation():
    with pytest.raises(OutOfRange):
        GridSpec(lo=[0.0], hi=[1.0], shape=(1,))
    with pytest.raises(OutOfRange):
        GridSpec(lo=[1.0], hi=[0.0], shape=(4,))
    with pytest.raises(ShapeMismatch):
        GridSpec(lo=[0.0, 1.0], hi=[1.0], shape=(4,))


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
    with pytest.raises(OutOfRange):
        make_grid(rng.standard_normal((10, 1)), (8,), margin_fraction=-0.1)


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
    real = fastband.binning.autocorrelate

    def counting(counts):
        calls.append(counts.shape)
        return real(counts)

    monkeypatch.setattr(fastband.binning, "autocorrelate", counting)
    x = rng.standard_normal((100, 2))
    gc = linear_binning(x, make_grid(x, (20, 20)))
    for scale in (0.2, 0.5, 1.0):
        for mode in ("fft-M", "fft-L"):
            psi_binned(gc, scale * np.eye(2), mode=mode)
    assert calls == [(20, 20)]
    linear_binning(x, gc.grid).autocorrelation
    assert len(calls) == 2


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
