"""Tests for CV kernels, psi statistics, and Q_r V-statistics."""

import math

import numpy as np
import pytest

from fastband import (
    OutOfRange,
    build_kernel_grid,
    convolve,
    cv_kernel,
    eta_kernel_grid,
    kh_zero,
    linear_binning,
    make_grid,
    padded_size_full,
    psi_binned,
    psi_direct,
    q_r_binned,
    q_r_exact,
    t_h,
)

from .conftest import random_spd


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def gauss_pdf_oracle(u, cov):
    """Gaussian density from first principles for tiny dimensions."""
    u = np.asarray(u, dtype=float)
    d = u.size
    det = np.linalg.det(cov)
    quad = float(u @ np.linalg.solve(cov, u))
    return math.exp(-0.5 * quad) / ((2 * math.pi) ** (d / 2) * math.sqrt(det))


def psi_pairwise_oracle(x, h):
    """Double loop over all ordered pairs of the CV kernel at r=0."""
    x = np.atleast_2d(x)
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            u = x[i] - x[j]
            total += gauss_pdf_oracle(u, 2 * h) - 2 * gauss_pdf_oracle(u, h)
    return total / (n * n)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_t_h_at_origin_example():
    assert t_h(np.zeros(2), np.eye(2)) == pytest.approx(-0.2387324, abs=1e-7)


def test_t_h_matches_first_principles(rng):
    h = random_spd(rng, 2)
    u = rng.standard_normal(2)
    expect = gauss_pdf_oracle(u, 2 * h) - 2 * gauss_pdf_oracle(u, h)
    assert t_h(u, h) == pytest.approx(expect, rel=1e-12)


def test_kh_zero_examples():
    assert kh_zero(np.array([[2.25]])) == pytest.approx(0.2659615, abs=1e-7)
    assert kh_zero(np.eye(2)) == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)


def test_cv_kernel_forms_agree_at_order_zero(rng):
    h = random_spd(rng, 2)
    u = rng.standard_normal((50, 2))
    t_form = cv_kernel(u, h, r=0, form="t")
    eta_form = cv_kernel(u, h, r=0, form="eta")
    assert np.allclose(t_form, eta_form, rtol=1e-13, atol=1e-15)


def test_cv_kernel_t_form_requires_order_zero(rng):
    with pytest.raises(OutOfRange):
        cv_kernel(np.zeros(2), np.eye(2), r=2, form="t")


# ---------------------------------------------------------------------------
# kernel grids
# ---------------------------------------------------------------------------

def test_kernel_grid_shapes_per_mode(rng):
    x = rng.standard_normal((60, 2))
    grid = make_grid(x, (24, 30))
    h = 0.2 * np.eye(2)
    full = build_kernel_grid(grid, h, mode="fft-M")
    assert full.shape == (47, 59)
    trunc = build_kernel_grid(grid, h, mode="fft-L")
    assert all(s % 2 == 1 for s in trunc.shape)
    assert all(ts <= fs for ts, fs in zip(trunc.shape, full.shape))


def test_kernel_grid_center_and_symmetry(rng):
    x = rng.standard_normal((60, 2))
    grid = make_grid(x, (16, 16))
    h = 0.3 * np.eye(2)
    k = build_kernel_grid(grid, h, mode="fft-M")
    center = tuple((s - 1) // 2 for s in k.shape)
    assert k[center] == pytest.approx(t_h(np.zeros(2), h), rel=1e-12)
    assert np.allclose(k, k[::-1, ::-1], rtol=1e-12)


def test_eta_kernel_grid_center(rng):
    x = rng.standard_normal((60, 2))
    grid = make_grid(x, (16, 16))
    k = eta_kernel_grid(grid, np.eye(2), 1, mode="fft-M")
    center = tuple((s - 1) // 2 for s in k.shape)
    assert k[center] == pytest.approx(-0.3183099, abs=1e-7)


# ---------------------------------------------------------------------------
# psi statistics
# ---------------------------------------------------------------------------

def test_psi_direct_matches_pairwise_oracle(rng):
    x = rng.standard_normal((12, 2))
    h = random_spd(rng, 2, scale=0.5)
    assert psi_direct(x, h) == pytest.approx(psi_pairwise_oracle(x, h), rel=1e-12)


def test_psi_direct_axis_rescaling_identity(rng):
    # Scaling every axis by s and H by s^2 multiplies the statistic by s^-d.
    x = rng.standard_normal((30, 2))
    h = random_spd(rng, 2, scale=0.4)
    s = 2.5
    base = psi_direct(x, h)
    scaled = psi_direct(s * x, s * s * h)
    assert scaled == pytest.approx(base / s**2, rel=1e-10)


def test_psi_binned_modes_agree(rng):
    x = rng.standard_normal((150, 2))
    gc = linear_binning(x, make_grid(x, (32, 32)))
    h = random_spd(rng, 2, scale=0.3)
    for r in (0, 2):
        full = psi_binned(gc, h, r=r, mode="fft-M")
        direct = psi_binned(gc, h, r=r, mode="direct-binned")
        assert full == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("d, m", [(1, 41), (1, 40), (2, 25), (2, 24), (3, 9), (3, 10)])
def test_psi_binned_autocorrelation_route_matches_convolution(rng, d, m):
    # The FFT modes read the cached autocorrelation; the reference here
    # is n^-2 sum c (c * k) from an explicit FFT convolution.
    x = rng.standard_normal((120, d))
    gc = linear_binning(x, make_grid(x, (m,) * d))
    h = random_spd(rng, d, scale=0.3)
    counts = gc.counts
    for mode in ("fft-M", "fft-L"):
        for r in (0, 2):
            kernel = build_kernel_grid(gc.grid, h, r=r, mode=mode, tau=2.0)
            conv = convolve(counts, kernel, padded_shape=padded_size_full(counts.shape))
            ref = np.sum(counts * conv) / gc.n**2
            got = psi_binned(gc, h, r=r, mode=mode, tau=2.0)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_psi_binned_approaches_exact_with_refinement(rng):
    x = rng.standard_normal((100, 2))
    h = 0.5 * np.eye(2)
    exact = psi_direct(x, h)
    errs = []
    for g in (16, 32, 64):
        gc = linear_binning(x, make_grid(x, (g, g)))
        errs.append(abs(psi_binned(gc, h, mode="fft-M") - exact))
    assert errs[0] > errs[1] > errs[2]


def test_psi_binned_forms_agree(rng):
    x = rng.standard_normal((80, 2))
    gc = linear_binning(x, make_grid(x, (24, 24)))
    h = 0.4 * np.eye(2)
    t_form = psi_binned(gc, h, mode="fft-M", form="t")
    eta_form = psi_binned(gc, h, mode="fft-M", form="eta")
    assert t_form == pytest.approx(eta_form, rel=1e-12)


def test_psi_modes_validated(rng):
    x = rng.standard_normal((30, 2))
    gc = linear_binning(x, make_grid(x, (8, 8)))
    with pytest.raises(OutOfRange):
        psi_binned(gc, np.eye(2), mode="fft-X")


# ---------------------------------------------------------------------------
# Q_r statistics
# ---------------------------------------------------------------------------

def test_q_r_zero_equals_gaussian_vstat(rng):
    # At r=0 the eta kernel is the plain density, so Q_0 is a KDE-style sum.
    x = rng.standard_normal((15, 2))
    sigma = random_spd(rng, 2)
    total = 0.0
    for i in range(15):
        for j in range(15):
            total += gauss_pdf_oracle(x[i] - x[j], sigma)
    assert q_r_exact(x, sigma, 0) == pytest.approx(total / 225.0, rel=1e-12)


def test_q_r_binned_tracks_exact(rng):
    x = 0.3 * rng.standard_normal((120, 2))
    sigma = np.eye(2)
    gc = linear_binning(x, make_grid(x, (80, 80)))
    for r in (0, 2):
        qb = q_r_binned(gc, sigma, r, mode="fft-M")
        qe = q_r_exact(x, sigma, r)
        assert qb == pytest.approx(qe, rel=2e-3)


def test_q_r_fft_modes_agree(rng):
    x = rng.standard_normal((90, 2))
    gc = linear_binning(x, make_grid(x, (40, 40)))
    sigma = 1.5 * np.eye(2)
    a = q_r_binned(gc, sigma, 2, mode="fft-M")
    b = q_r_binned(gc, sigma, 2, mode="direct-binned")
    assert a == pytest.approx(b, rel=1e-12)
