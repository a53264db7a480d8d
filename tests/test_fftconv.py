"""Tests for padding arithmetic and FFT convolution on grids."""

import numpy as np
import pytest
from scipy.signal import fftconvolve

from fastband import (
    CountsFftCache,
    OutOfRange,
    ShapeMismatch,
    autocorrelate,
    convolve,
    convolve_direct,
    effective_halfwidths,
    padded_size_full,
    padded_size_truncated,
    zero_pad_counts,
    zero_pad_kernel,
)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def convolution_oracle(counts, kernel):
    """Linear convolution by quadruple loops, zero outside the counts box."""
    halfwidths = tuple((s - 1) // 2 for s in kernel.shape)
    out = np.zeros(counts.shape)
    for j in np.ndindex(*counts.shape):
        acc = 0.0
        for offs in np.ndindex(*kernel.shape):
            src = tuple(jk - (ok - lk) for jk, ok, lk in zip(j, offs, halfwidths))
            if all(0 <= sk < mk for sk, mk in zip(src, counts.shape)):
                acc += kernel[offs] * counts[src]
        out[j] = acc
    return out


# ---------------------------------------------------------------------------
# support sizing
# ---------------------------------------------------------------------------

def test_effective_halfwidths_example():
    assert effective_halfwidths(1.0, [0.5], (100,), tau=3.7) == (8,)


def test_effective_halfwidths_clips_at_grid(rng):
    assert effective_halfwidths(100.0, [0.1], (20,), tau=3.7) == (19,)


def test_effective_halfwidths_validation():
    with pytest.raises(OutOfRange):
        effective_halfwidths(-1.0, [0.5], (100,))
    with pytest.raises(OutOfRange):
        effective_halfwidths(1.0, [0.5], (100,), tau=0.0)
    with pytest.raises(ShapeMismatch):
        effective_halfwidths(1.0, [0.5, 0.5], (100,))


def test_padded_size_full_examples():
    assert padded_size_full((20,)) == (64,)
    assert padded_size_full((50,)) == (256,)
    assert padded_size_full((150,)) == (512,)
    assert padded_size_full((20, 150)) == (64, 512)


def test_padded_size_truncated_examples():
    assert padded_size_truncated((100,), (8,)) == (128,)
    assert padded_size_truncated((150, 150), (50, 30)) == (256, 256)


def test_padded_sizes_are_sufficient_powers_of_two(rng):
    for _ in range(50):
        m = int(rng.integers(2, 300))
        l = int(rng.integers(1, m))
        (p,) = padded_size_truncated((m,), (l,))
        assert p >= m + 2 * l - 1
        assert p & (p - 1) == 0
        (pf,) = padded_size_full((m,))
        assert pf >= 3 * m - 1
        assert pf & (pf - 1) == 0


# ---------------------------------------------------------------------------
# padding layout
# ---------------------------------------------------------------------------

def test_zero_pad_kernel_layout():
    kernel = np.arange(1.0, 6.0)
    padded = zero_pad_kernel(kernel, (8,))
    assert padded.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0, 0.0]
    assert padded[2] == kernel[2]


def test_zero_pad_kernel_rejects_even_axes():
    with pytest.raises(ShapeMismatch):
        zero_pad_kernel(np.ones(4), (8,))


def test_zero_pad_counts_layout():
    counts = np.ones((2, 3))
    padded = zero_pad_counts(counts, (4, 4))
    assert padded[:2, :3].sum() == 6.0
    assert padded.sum() == 6.0


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolve_impulse_reproduces_kernel():
    counts = np.zeros(9)
    counts[4] = 1.0
    kernel = np.array([1.0, 2.0, 7.0, 2.0, 1.0])
    out = convolve(counts, kernel)
    assert np.allclose(out[2:7], kernel, atol=1e-12)
    assert np.allclose(out[:2], 0.0, atol=1e-12)
    assert np.allclose(out[7:], 0.0, atol=1e-12)


def test_convolve_matches_loop_oracle(rng):
    for shape, kshape in [((7,), (5,)), ((6, 5), (3, 5)), ((4, 4, 3), (3, 3, 3))]:
        counts = rng.standard_normal(shape)
        kernel = rng.standard_normal(kshape)
        ref = convolution_oracle(counts, kernel)
        assert np.allclose(convolve(counts, kernel), ref, atol=1e-12)
        assert np.allclose(convolve_direct(counts, kernel), ref, atol=1e-12)


def test_convolve_full_width_kernel(rng):
    counts = rng.standard_normal((6, 4))
    kernel = rng.standard_normal((11, 7))
    ref = convolution_oracle(counts, kernel)
    padded = padded_size_full(counts.shape)
    assert np.allclose(convolve(counts, kernel, padded_shape=padded), ref, atol=1e-12)


def test_convolve_fft_equals_direct_on_realistic_sizes(rng):
    counts = rng.random((40, 35))
    kernel = rng.standard_normal((21, 13))
    a = convolve(counts, kernel)
    b = convolve_direct(counts, kernel)
    assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))


def test_counts_fft_cache_reuses_transforms(rng):
    counts = rng.random((16, 16))
    kernel = rng.standard_normal((9, 9))
    cache = CountsFftCache(counts)
    padded = padded_size_truncated(counts.shape, (4, 4))
    direct = convolve(counts, kernel, padded_shape=padded)
    cached = convolve(counts, kernel, padded_shape=padded,
                      counts_fft=cache.get(padded))
    assert np.allclose(direct, cached, atol=1e-14)
    assert cache.get(padded) is cache.get(padded)


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

def test_autocorrelate_matches_flipped_convolution(rng):
    for shape in [(7,), (8,), (6, 5), (4, 4, 3), (5, 6, 7)]:
        counts = rng.random(shape)
        ref = fftconvolve(counts, counts[(slice(None, None, -1),) * counts.ndim])
        out = autocorrelate(counts)
        assert out.shape == tuple(2 * m - 1 for m in shape)
        assert np.allclose(out, ref, rtol=0.0, atol=1e-12 * ref.max())


def test_autocorrelate_layout():
    counts = np.array([1.0, 2.0, 0.0, 3.0])
    out = autocorrelate(counts)
    # A(j) = sum_i c_i c_{i+j}, zero offset at index M - 1 = 3.
    expect = [3.0, 6.0, 2.0, 14.0, 2.0, 6.0, 3.0]
    assert np.allclose(out, expect, atol=1e-12)
