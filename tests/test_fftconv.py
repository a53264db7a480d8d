"""Tests for padding arithmetic and FFT convolution on grids."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.signal import fftconvolve

import fastband
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
)
from fastband.fftconv import _next_fast_len_real


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
    for lam, tau in ((np.nan, 3.7), (np.inf, 3.7), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(OutOfRange):
            effective_halfwidths(lam, [0.5], (100,), tau=tau)
    for step in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(OutOfRange):
            effective_halfwidths(1.0, [step], (100,))


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


def test_convolve_rejects_even_kernel_axes():
    with pytest.raises(ShapeMismatch):
        convolve(np.ones(9), np.ones(4))


def test_convolve_rejects_padded_shape_below_m_plus_l(rng):
    # M = 10, L = 4: a wrap reaches the window below 14 points per axis.
    counts = rng.random(10)
    kernel = rng.standard_normal(9)
    for padded in [(13,), (10,)]:
        with pytest.raises(OutOfRange):
            convolve(counts, kernel, padded_shape=padded)
    with pytest.raises(ShapeMismatch):
        convolve(counts, kernel, padded_shape=(14, 14))
    exact = convolve(counts, kernel, padded_shape=(14,))
    assert np.allclose(exact, convolve_direct(counts, kernel), atol=1e-12)
    cache = CountsFftCache(counts)
    with pytest.raises(OutOfRange):
        cache.get((9,))
    with pytest.raises(OutOfRange):
        convolve(counts, kernel, padded_shape=(13,), counts_fft=cache.get((13,)))


def test_convolve_default_padding_fits_one_point_kernel():
    counts = np.arange(1.0, 10.0)
    out = convolve(counts, np.array([2.0]))
    assert np.allclose(out, 2.0 * counts, atol=1e-12)


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


# ---------------------------------------------------------------------------
# the numpy.fft route against scipy.fft
# ---------------------------------------------------------------------------
# The transforms run through numpy.fft; scipy.fft, which the library no
# longer imports, is the oracle.  Both wrap the same pocketfft code, so a
# convolution must match bit for bit.  The autocorrelation computes only
# the half j_1 >= 0, through a half-size inverse that the oracle's full
# inverse does not share, so it is held to round-off instead.

def _scipy_autocorrelate(counts):
    padded = tuple(sfft.next_fast_len(2 * m - 1, real=True) for m in counts.shape)
    spec = sfft.rfftn(counts, s=padded)
    circular = sfft.irfftn(spec.real ** 2 + spec.imag ** 2, s=padded)
    offsets = [np.arange(1 - m, m) % p for m, p in zip(counts.shape, padded)]
    return circular[np.ix_(*offsets)]


def _scipy_convolve(counts, kernel, padded):
    counts_fft = sfft.rfftn(counts, s=padded)
    # Bound to a name: a temporary right operand lets numpy reuse its
    # buffer and swap the factors, and a swapped complex product can
    # round differently.
    kernel_fft = sfft.rfftn(kernel, s=padded)
    full = sfft.irfftn(counts_fft * kernel_fft, s=padded)
    halfwidths = [(k - 1) // 2 for k in kernel.shape]
    return full[tuple(slice(l, l + m) for l, m in zip(halfwidths, counts.shape))]


def test_next_fast_len_real_matches_scipy():
    got = [_next_fast_len_real(n) for n in range(1, 10 ** 5 + 1)]
    assert got == [sfft.next_fast_len(n, real=True) for n in range(1, 10 ** 5 + 1)]


@pytest.mark.parametrize("shape", [
    (7,), (300,), (338,), (675,), (150, 150), (300, 300), (151, 77),
    (9, 10, 11), (20, 21, 22), (25, 24, 18, 15), (6, 7, 8, 9),
])
def test_autocorrelate_matches_scipy_bitwise(rng, shape):
    counts = rng.poisson(3.0, shape).astype(float)
    out, ref = autocorrelate(counts), _scipy_autocorrelate(counts)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-14 * ref[tuple(m - 1 for m in shape)]


@pytest.mark.parametrize("shape, kshape", [
    ((50,), (11,)), ((150,), (299,)), ((150, 150), (41, 61)), ((151, 150), (301, 299)),
    ((20, 21, 22), (7, 9, 11)), ((6, 7, 5, 9), (5, 7, 3, 9)),
])
def test_convolve_matches_scipy_bitwise(rng, shape, kshape):
    counts = rng.poisson(3.0, shape).astype(float)
    kernel = rng.random(kshape)
    halfwidths = [(k - 1) // 2 for k in kshape]
    for padded in (padded_size_truncated(shape, halfwidths), padded_size_full(shape)):
        expect = _scipy_convolve(counts, kernel, padded)
        assert np.array_equal(convolve(counts, kernel, padded_shape=padded), expect)
        cache = CountsFftCache(counts)
        assert np.array_equal(cache.get(padded), sfft.rfftn(counts, s=padded))
        cached = convolve(counts, kernel, padded_shape=padded, counts_fft=cache.get(padded))
        assert np.array_equal(cached, expect)


def test_import_loads_no_scipy():
    src = str(Path(fastband.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, fastband, fastband.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
