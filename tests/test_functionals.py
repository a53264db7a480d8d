"""Tests for CV kernels, psi statistics, and Q_r V-statistics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from fastband import (
    PSI_MODES,
    BandwidthMatrix,
    GridSpec,
    NormalMixture,
    OutOfRange,
    PairDifferences,
    SelectorConfig,
    ShapeMismatch,
    TooFewPoints,
    as_bandwidth,
    build_kernel_grid,
    convolve,
    cv_kernel,
    dedup,
    effective_halfwidths,
    eta_kernel_grid,
    eta_rs,
    exact_ise,
    grid_points,
    kde_on_grid,
    kh_zero,
    linear_binning,
    lscv_objective,
    make_grid,
    mixture_catalog,
    normal_pdf,
    normal_scale_start,
    padded_size_full,
    psi_binned,
    psi_direct,
    q_r_binned,
    q_r_exact,
    sample_mixture,
    select_bandwidth,
    t_h,
)
from fastband import functionals
from fastband.gaussian import _whitened_sq_axes

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


def eta_tensor(u, sigma, r):
    """``eta_r`` from the derivative tensor of :func:`eta_rs`, the general-weight engine."""
    bw = as_bandwidth(sigma)
    return eta_rs(u, bw, r, 0, np.eye(bw.d))


def cv_tensor(u, h, r):
    """``eta_r(u; 2H) - 2 eta_r(u; H)`` from the derivative tensor, with ``2H`` factored afresh."""
    bw = as_bandwidth(h)
    return eta_tensor(u, BandwidthMatrix(2.0 * bw.h), r) - 2.0 * eta_tensor(u, bw, r)


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


def _t_h_scipy(u, h):
    """``K_2H`` and ``K_H`` at ``u`` from scipy."""
    mean = np.zeros(h.shape[0])
    k2 = multivariate_normal(mean=mean, cov=2.0 * h).pdf(u)
    k1 = multivariate_normal(mean=mean, cov=h).pdf(u)
    return k2, k1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_t_h_matches_scipy(rng, d):
    # T_H changes sign, so the error is measured against the size of
    # its two terms, K_2H + 2 K_H.
    h = random_spd(rng, d, scale=rng.uniform(0.05, 2.0))
    u = rng.standard_normal((60, d))
    k2, k1 = _t_h_scipy(u, h)
    assert np.all(np.abs(t_h(u, h) - (k2 - 2.0 * k1)) <= 1e-12 * (k2 + 2.0 * k1))


def test_t_h_rotated_ill_conditioning_within_rounding_bound(rng):
    # Each term obeys the normal_pdf bound for a rotated condition-1e8
    # matrix, 10 cond eps (1 + q / 2) relative with q its quadratic form.
    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    h = rot @ np.diag([1.0, 1e-8]) @ rot.T
    h = 0.5 * (h + h.T)
    cond = np.linalg.cond(h)
    u = rng.multivariate_normal(np.zeros(2), h, size=200)
    k2, k1 = _t_h_scipy(u, h)
    dist = multivariate_normal(mean=np.zeros(2), cov=h)
    quad = -2.0 * (dist.logpdf(u) - dist.logpdf(np.zeros(2)))
    tol = 10.0 * cond * np.finfo(float).eps
    bound = tol * (1.0 + 0.25 * quad) * k2 + tol * (1.0 + 0.5 * quad) * 2.0 * k1
    assert np.all(np.abs(t_h(u, h) - (k2 - 2.0 * k1)) <= bound)


def test_edge_bandwidth_accepted_by_every_2h_consumer():
    # Accepted near the rounding margin (1 - rho^2 = 7.7e-15, margin
    # 0.90): every consumer of 2H reads the factors of H, by Gaussian
    # homogeneity, and gives a finite value.  A fresh factorization of
    # the rounded 2H is accepted too, but its determinant is not 4 det(H)
    # here (K_2H(0) moves by 1.8%), so the tensor engine is checked
    # through the same homogeneity, eta_0(u; 2H) = 2^-1 eta_0(u / sqrt 2; H).
    h = np.array([
        [6.19747244582656e-08, 1.1168038847478056e-04],
        [1.1168038847478056e-04, 0.2012515469637482],
    ])
    bw = BandwidthMatrix(h)
    mix = mixture_catalog("fragile")
    x = sample_mixture(mix, 40, np.random.default_rng(0))
    u = np.array([[0.0, 0.0], [1e-4, 0.3]])
    assert np.isfinite(BandwidthMatrix(2.0 * h).det)
    assert np.all(np.isfinite(t_h(u, bw)))
    tensor = 0.5 * eta_tensor(u / np.sqrt(2.0), bw, 0) - 2.0 * eta_tensor(u, bw, 0)
    assert np.allclose(tensor, t_h(u, bw), rtol=1e-10)
    assert np.all(np.isfinite(cv_kernel(u, bw, r=2)))
    assert np.isfinite(psi_direct(x, bw, r=2))
    assert np.all(np.isfinite(build_kernel_grid(make_grid(x, (20, 20)), bw, r=2)))
    assert np.isfinite(exact_ise(x, bw, mix))


def test_kh_zero_examples():
    assert kh_zero(np.array([[2.25]])) == pytest.approx(0.2659615, abs=1e-7)
    assert kh_zero(np.eye(2)) == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)


def test_cv_kernel_forms_agree_at_order_zero(rng):
    # The closed form T_H against the tensor engine's eta_0(2H) - 2 eta_0(H).
    h = random_spd(rng, 2)
    u = rng.standard_normal((50, 2))
    assert np.allclose(cv_kernel(u, h, r=0), cv_tensor(u, h, 0), rtol=1e-13, atol=1e-15)


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


def _offset_points(grid, shape):
    """Offsets ``delta * j`` as (P, d) points, in the layout of a table of ``shape``."""
    axes = [dk * np.arange(-(s // 2), s // 2 + 1) for dk, s in zip(grid.delta, shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


@pytest.mark.parametrize("shape", [(31,), (40,), (15, 22), (9, 12, 11)])
@pytest.mark.parametrize("mode", PSI_MODES)
def test_half_space_tables_match_pointwise_kernels(rng, shape, mode):
    # The mirrored half-space tables, broadcast at every r, against the
    # kernels evaluated at every meshgrid offset (at r = 2 by the tensor
    # engine); tau = 2 makes the fft-L box truncate.
    d = len(shape)
    x = rng.standard_normal((80, d))
    grid = make_grid(x, shape)
    h = random_spd(rng, d, scale=0.1)
    bw = BandwidthMatrix(h)
    for table, func, lam in (
        (build_kernel_grid(grid, h, mode=mode, tau=2.0), lambda u: t_h(u, h),
         2.0 * bw.lambda_max),
        (eta_kernel_grid(grid, h, 0, mode=mode, tau=2.0), lambda u: normal_pdf(u, h),
         bw.lambda_max),
        (build_kernel_grid(grid, h, r=2, mode=mode, tau=2.0),
         lambda u: cv_tensor(u, h, 2), 2.0 * bw.lambda_max),
        (eta_kernel_grid(grid, h, 2, mode=mode, tau=2.0), lambda u: eta_tensor(u, h, 2),
         bw.lambda_max),
    ):
        if mode == "fft-L":
            half = effective_halfwidths(lam, grid.delta, grid.shape, 2.0)
            assert any(l < m - 1 for l, m in zip(half, shape))
        else:
            half = tuple(m - 1 for m in shape)
        assert table.shape == tuple(2 * l + 1 for l in half)
        ref = func(_offset_points(grid, table.shape)).reshape(table.shape)
        assert np.max(np.abs(table - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(table, np.flip(table))


def test_half_space_tables_rotated_ill_conditioning(rng):
    # Both routes whiten by the same inverse Cholesky factor, so they
    # agree far inside the 10 cond eps (1 + q / 2) bound that holds
    # each against scipy for this matrix.
    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    h = rot @ np.diag([1.0, 1e-8]) @ rot.T
    h = 0.5 * (h + h.T)
    x = rng.multivariate_normal(np.zeros(2), h, size=200)
    grid = make_grid(x, (41, 30))
    for mode in PSI_MODES:
        for table, ref_func in (
            (build_kernel_grid(grid, h, mode=mode), lambda u: t_h(u, h)),
            (eta_kernel_grid(grid, h, 0, mode=mode), lambda u: normal_pdf(u, h)),
        ):
            ref = ref_func(_offset_points(grid, table.shape)).reshape(table.shape)
            assert np.max(np.abs(table - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.array_equal(table, np.flip(table))


def test_half_space_table_overflow_is_zero_without_warning():
    # On this accepted H (det about 1e-290) the whitened offsets along
    # the first axis square past the float range; the table is 0 there,
    # and no overflow warning escapes.
    h = np.array([[1e-320, 0.0], [0.0, 1e30]])
    grid = make_grid(np.array([[0.0, 0.0], [1.0, 1.0]]), (8, 8))
    k = build_kernel_grid(grid, h, mode="fft-M")
    center = tuple((s - 1) // 2 for s in k.shape)
    assert np.all(np.isfinite(k))
    assert k[center] == t_h(np.zeros(2), h)
    assert np.all(k[: center[0]] == 0.0)


@pytest.mark.parametrize("d_h", [1, 3])
def test_kernel_tables_reject_a_bandwidth_of_another_dimension(rng, d_h):
    # A smaller or a larger H than the 2-D grid: the broadcast tables,
    # the pointwise ones and the binned sums built on them all refuse it.
    x = rng.standard_normal((60, 2))
    grid = make_grid(x, (12, 12))
    gc = linear_binning(x, grid)
    h = 0.2 * np.eye(d_h)
    for mode in PSI_MODES:
        for call in (
            lambda: build_kernel_grid(grid, h, mode=mode),
            lambda: build_kernel_grid(grid, h, r=2, mode=mode),
            lambda: eta_kernel_grid(grid, h, 0, mode=mode),
            lambda: eta_kernel_grid(grid, h, 2, mode=mode),
            lambda: psi_binned(gc, h, mode=mode),
            lambda: q_r_binned(gc, h, 0, mode=mode),
        ):
            with pytest.raises(ShapeMismatch):
                call()


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


def _full_double_sum(x, f):
    """``n^-2 sum_i sum_j f(X_i - X_j)`` over every ordered pair, diagonal included."""
    n, d = x.shape
    diffs = (x[:, None, :] - x[None, :, :]).reshape(-1, d)
    return float(np.sum(f(diffs))) / (n * n)


def _exact_ise_oracle(x, h, mix):
    """``exact_ise`` with its f-hat squared term summed over every ordered pair."""
    n, _ = x.shape
    fhat_sq = _full_double_sum(x, lambda u: multivariate_normal(cov=2.0 * h).pdf(u))
    cross = sum(
        w * np.sum(multivariate_normal(mean=mu, cov=h + sig).pdf(x))
        for w, mu, sig in zip(mix.weights, mix.means, mix.covs)
    )
    f_sq = sum(
        wq * wp * multivariate_normal(mean=mup, cov=sigq + sigp).pdf(muq)
        for wq, muq, sigq in zip(mix.weights, mix.means, mix.covs)
        for wp, mup, sigp in zip(mix.weights, mix.means, mix.covs)
    )
    return fhat_sq - 2.0 * cross / n + f_sq


@pytest.mark.parametrize("budget", [5, None])
@pytest.mark.parametrize("n", [2, 7, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_half_pair_sums_match_full_double_sum(rng, monkeypatch, d, n, budget):
    # A budget of 5 pairs makes rows straddle blocks.
    if budget is not None:
        monkeypatch.setattr(functionals, "_PAIR_BUDGET", budget)
    x = 100.0 + rng.standard_normal((n, d))
    h = random_spd(rng, d, scale=0.6)
    for data in (x, PairDifferences(x)):
        assert psi_direct(data, h) == pytest.approx(
            _full_double_sum(x, lambda u: t_h(u, h)), rel=1e-12, abs=0.0)
        assert psi_direct(data, h, r=2) == pytest.approx(
            _full_double_sum(x, lambda u: cv_tensor(u, h, 2)), rel=1e-12, abs=0.0)
        for r in (0, 2):
            assert q_r_exact(data, h, r) == pytest.approx(
                _full_double_sum(x, lambda u: eta_tensor(u, h, r)), rel=1e-12, abs=0.0)
    if d == 2:
        mix = mixture_catalog("bimodal")
        assert exact_ise(x - 100.0, h, mix) == pytest.approx(
            _exact_ise_oracle(x - 100.0, h, mix), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("budget", [4, 5, 1 << 14])
def test_pair_differences_layout(rng, monkeypatch, budget):
    monkeypatch.setattr(functionals, "_PAIR_BUDGET", budget)
    x = rng.standard_normal((9, 3))
    pairs = PairDifferences(x)
    assert (pairs.n, pairs.d) == (9, 3)
    for block in pairs.blocks:
        assert block.shape[0] == 3 and block.shape[1] <= budget
        assert block.flags.c_contiguous
    expected = np.array([x[i] - x[j] for i in range(9) for j in range(i + 1, 9)]).T
    assert np.array_equal(np.concatenate(pairs.blocks, axis=1), expected)


def test_pair_differences_table_is_one_buffer(rng, monkeypatch):
    monkeypatch.setattr(functionals, "_PAIR_BUDGET", 5)
    x = rng.standard_normal((9, 2))
    blocks = PairDifferences(x).blocks
    base = blocks[0].base
    assert len(blocks) == 8 and base is not None and base.size == 2 * 36
    assert all(block.base is base for block in blocks)


def test_pair_differences_table_is_built_once(rng, monkeypatch):
    built = []
    blocks = functionals._pair_blocks

    def counting_blocks(x, **kwargs):
        built.append(x.shape)
        return blocks(x, **kwargs)

    monkeypatch.setattr(functionals, "_pair_blocks", counting_blocks)
    x = rng.standard_normal((40, 2))
    pairs = PairDifferences(x)
    h = 0.3 * np.eye(2)
    first = psi_direct(pairs, h)
    assert psi_direct(pairs, 0.5 * np.eye(2)) != first
    assert q_r_exact(pairs, h, 0) > 0.0
    assert psi_direct(pairs, h) == first
    assert built == [(40, 2)]
    psi_direct(x, h)
    psi_direct(x, h)
    assert len(built) == 3


def test_raw_sample_streams_its_pair_differences(rng):
    # The full table at n = 2000, d = 2 is 8 * 2 * 1999000 bytes = 32 MB.
    x = rng.standard_normal((2000, 2))
    h = 0.2 * np.eye(2)
    tracemalloc.start()
    try:
        psi_direct(x, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("d", [1, 2, 3])
def test_t_block_sums_match_the_kernel_values(rng, monkeypatch, d):
    # Each block's K_H(0) (2^{-d/2} sum e - 2 sum e^2) against the sum of
    # its T_H values, and the whole statistic against the ordered double
    # sum, for H from far below to far above the spread of the data.
    monkeypatch.setattr(functionals, "_PAIR_BUDGET", 4)
    x = rng.standard_normal((11, d))
    for scale in (1e-3, 0.05, 1.0, 30.0):
        h = random_spd(rng, d, scale=scale)
        bw = BandwidthMatrix(h)
        for block in PairDifferences(x).blocks:
            assert functionals._t_sum(block, bw) == pytest.approx(
                np.sum(t_h(block.T, h)), rel=1e-12, abs=1e-300)
        for data in (x, PairDifferences(x)):
            assert psi_direct(data, h) == pytest.approx(
                _full_double_sum(x, lambda u: t_h(u, h)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_t_block_sums_match_an_exactly_rounded_sum(rng, monkeypatch, d):
    # The block sums of e and e^2 (numpy's pairwise summation, no BLAS)
    # against math.fsum of the same e values.
    monkeypatch.setattr(functionals, "_PAIR_BUDGET", 37)
    x = rng.standard_normal((40, d))
    for scale in (1e-3, 0.05, 1.0, 30.0):
        bw = BandwidthMatrix(random_spd(rng, d, scale=scale))
        for block in PairDifferences(x).blocks:
            e = np.exp(-0.25 * _whitened_sq_axes(block, bw)).tolist()
            sum_e, sum_e2 = math.fsum(e), math.fsum(v * v for v in e)
            peak, c = kh_zero(bw), 2.0 ** (-d / 2)
            expected = peak * (c * sum_e - 2.0 * sum_e2)
            tol = 1e-13 * peak * (c * sum_e + 2.0 * sum_e2)
            assert abs(functionals._t_sum(block, bw) - expected) <= tol


@pytest.mark.parametrize("d", [1, 2, 3])
def test_psi_direct_at_zero_term_keeps_its_bits(rng, d):
    # psi_direct is (n T_H(0) + 2 sum_{i<j} T_H) / n^2 to the bit, with
    # T_H(0) the array expression K_H(0) e (2^{-d/2} - 2 e) at
    # e = exp(-0.0) = 1.
    x = rng.standard_normal((30, d))
    n = x.shape[0]
    for scale in (1e-3, 0.3, 40.0):
        bw = BandwidthMatrix(random_spd(rng, d, scale=scale))
        e = np.exp(-0.25 * np.zeros(1))
        at_zero = float((kh_zero(bw) * e * (2.0 ** (-d / 2) - 2.0 * e))[0])
        pairs = sum(float(functionals._t_sum(b, bw)) for b in PairDifferences(x).blocks)
        for data in (x, PairDifferences(x)):
            assert psi_direct(data, bw) == (n * at_zero + 2.0 * pairs) / (n * n)


def test_psi_direct_near_singular_bandwidth_is_finite_without_warning(rng):
    # An accepted H (det about 1e-290) whose whitened differences square
    # past the float range along the first axis: every pair term is 0.
    x = rng.standard_normal((40, 2))
    h = np.array([[1e-320, 0.0], [0.0, 1e30]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for data in (x, PairDifferences(x)):
            value = psi_direct(data, h)
            assert np.isfinite(value)
            assert value == pytest.approx(t_h(np.zeros(2), h) / 40, rel=1e-14)


@pytest.mark.parametrize("n", [1, 5])
def test_psi_direct_rejects_a_bandwidth_of_another_dimension(rng, n):
    x = rng.standard_normal((n, 2))
    for data in (x, PairDifferences(x)):
        for h in (np.eye(1), np.eye(3)):
            with pytest.raises(ShapeMismatch):
                psi_direct(data, h)
            with pytest.raises(ShapeMismatch):
                psi_direct(data, h, r=2)
            with pytest.raises(ShapeMismatch):
                q_r_exact(data, h, 0)


# Each route takes a sample and its dimension d, which sizes the bandwidth,
# the mixture or the grid it is read against.
_EXACT_ROUTES = {
    "psi_direct": lambda x, d: psi_direct(x, 0.3 * np.eye(d)),
    "q_r_exact": lambda x, d: q_r_exact(x, 0.3 * np.eye(d), 1),
    "lscv_objective": lambda x, d: lscv_objective(x, 0.3 * np.eye(d), mode="direct-exact"),
    "PairDifferences": lambda x, d: PairDifferences(x),
    "exact_ise": lambda x, d: exact_ise(
        x, 0.3 * np.eye(d), NormalMixture([1.0], np.zeros((1, d)), [np.eye(d)])),
}

# Every entry point that takes a sample, each returning arrays to compare.
_SAMPLE_ROUTES = {
    **_EXACT_ROUTES,
    "PairDifferences": lambda x, d: PairDifferences(x).x,
    "select_bandwidth": lambda x, d: select_bandwidth(
        x, SelectorConfig(grid_size=20, max_iter=20)).h,
    "normal_scale_start": lambda x, d: normal_scale_start(x),
    "dedup": lambda x, d: dedup(x),
    "make_grid": lambda x, d: grid_points(make_grid(x, (9,) * d)),
    "linear_binning": lambda x, d: linear_binning(
        x, GridSpec(lo=[-6.0] * d, hi=[6.0] * d, shape=(9,) * d)).counts,
}


@pytest.mark.parametrize("route", sorted(_SAMPLE_ROUTES))
@pytest.mark.parametrize("x, error", [
    (np.zeros((2, 3, 2)), ShapeMismatch),
    (np.zeros((0, 2)), TooFewPoints),
    (np.array([[0.0, 1.0], [np.nan, 0.5]]), OutOfRange),
    (np.array([[0.0, 1.0], [np.inf, 0.5]]), OutOfRange),
    (np.array([[0.0, 1.0], [2.0, -np.inf]]), OutOfRange),
    (np.array(1.5), ShapeMismatch),
    (np.zeros((4, 0)), ShapeMismatch),
    (np.random.default_rng(8).standard_normal(30), None),
], ids=["3-D", "no-rows", "nan", "inf", "-inf", "0-d", "no-columns", "1-d"])
def test_exact_routes_refuse_a_bad_sample_with_a_typed_error(route, x, error):
    # Every sample entry reads a raw sample by one rule, where it first
    # reads it, not with a raw ValueError, a ZeroDivisionError or a
    # silent NaN.  A 1-d sample is no bad sample: it is n points in one
    # dimension, the same as its (n, 1) column.  A bad one is read
    # against its own last axis (one for 0-d), so that the refusal comes
    # from the sample, not from a bandwidth or grid of another dimension.
    call = _SAMPLE_ROUTES[route]
    if error is None:
        assert np.array_equal(call(x, 1), call(x[:, None], 1))
        return
    with pytest.raises(error):
        call(x, x.shape[-1] if x.ndim else 1)


@pytest.mark.parametrize("route", sorted(_EXACT_ROUTES))
def test_exact_routes_accept_one_point(route):
    # One point is still a sample: its pair sum is the kernel at 0.
    out = _EXACT_ROUTES[route](np.ones((1, 2)), 2)
    assert out.blocks == () if route == "PairDifferences" else math.isfinite(out)


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
    # The binned sum on the broadcast table against n^-2 sum c (c * k)
    # with k the tensor engine's kernel at every offset.
    x = rng.standard_normal((80, 2))
    gc = linear_binning(x, make_grid(x, (24, 24)))
    h = 0.4 * np.eye(2)
    shape = tuple(2 * m - 1 for m in gc.counts.shape)
    for r in (0, 2):
        kernel = cv_tensor(_offset_points(gc.grid, shape), h, r).reshape(shape)
        conv = convolve(gc.counts, kernel, padded_shape=padded_size_full(gc.counts.shape))
        ref = np.sum(gc.counts * conv) / gc.n**2
        assert psi_binned(gc, h, r=r, mode="fft-M") == pytest.approx(ref, rel=1e-12)


def test_psi_modes_validated(rng):
    x = rng.standard_normal((30, 2))
    gc = linear_binning(x, make_grid(x, (8, 8)))
    # The mode is decoded once, where the pair sum or table is prepared,
    # and an unknown one, or "direct-exact" at a binned-only entry point,
    # is out of range at every entry point.
    for mode in ("fft-X", "direct-exact"):
        for call in (lambda: psi_binned(gc, np.eye(2), mode=mode),
                     lambda: q_r_binned(gc, np.eye(2), 0, mode=mode)):
            with pytest.raises(OutOfRange):
                call()
    for call in (lambda: lscv_objective(gc, np.eye(2), mode="fft-X"),
                 lambda: build_kernel_grid(gc.grid, np.eye(2), mode="fft-X"),
                 lambda: eta_kernel_grid(gc.grid, np.eye(2), 0, mode="fft-X"),
                 lambda: kde_on_grid(gc, np.eye(2), mode="fft-X")):
        with pytest.raises(OutOfRange):
            call()
    # fft-L sizes its box from tau: a non-finite tau is out of range at
    # every binned entry point, not a raw error from math.ceil.
    h = 0.1 * np.eye(2)
    for tau in (np.nan, np.inf):
        for call in (lambda: build_kernel_grid(gc.grid, h, mode="fft-L", tau=tau),
                     lambda: psi_binned(gc, h, mode="fft-L", tau=tau),
                     lambda: q_r_binned(gc, h, 0, mode="fft-L", tau=tau),
                     lambda: lscv_objective(gc, h, mode="fft-L", tau=tau),
                     lambda: kde_on_grid(gc, h, mode="fft-L", tau=tau)):
            with pytest.raises(OutOfRange):
                call()


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
