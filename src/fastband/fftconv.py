"""Grid-count autocorrelation and zero-padded FFT convolution with kernel grids."""

import math

import numpy as np
import scipy.fft as sfft

from .errors import OutOfRange, ShapeMismatch

__all__ = [
    "DEFAULT_TAU",
    "effective_halfwidths",
    "padded_size_full",
    "padded_size_truncated",
    "zero_pad_counts",
    "zero_pad_kernel",
    "convolve",
    "convolve_direct",
    "autocorrelate",
    "CountsFftCache",
]

# Kernel support is truncated at tau standard deviations of the widest
# principal direction of the widest kernel tabulated (2H for the
# cross-validation kernel).  At 3.7 the dropped Gaussian tail leaves a
# relative score gap of about 1e-5 to 1e-4.
DEFAULT_TAU = 3.7


# ---------------------------------------------------------------------------
# support sizing
# ---------------------------------------------------------------------------

def effective_halfwidths(lambda_max, delta, shape, tau=DEFAULT_TAU):
    """Kernel half-widths, in grid steps, for a truncated kernel grid.

    The kernel is carried out to ``tau`` times its largest principal
    standard deviation ``sqrt(lambda_max)`` and never beyond the full
    grid half-width ``M_k - 1``:
    ``L_k = min(M_k - 1, ceil(tau sqrt(lambda_max) / delta_k))``.  For
    the cross-validation kernel the widest component is ``K_{2H}``, so
    callers pass ``lambda_max = 2 lambda_max(H)``.

    The truncation is exact bookkeeping, not an approximation of the
    kept part: a binned sum over the box ``B = [-L, L]^d`` equals the
    full-support sum minus exactly the terms at offsets outside ``B``.
    With counts ``c``, their autocorrelation ``A`` and kernel ``k``,
    the dropped part ``n^-2 sum_{j not in B} k(delta j) A(j)`` is at
    most ``(sum c^2 / n^2) sum_{j not in B} |k(delta j)|`` in absolute
    value, because ``0 <= A(j) <= A(0) = sum c^2``.

    Parameters
    ----------
    lambda_max : float
        Largest eigenvalue of the bandwidth matrix.
    delta : (d,) array_like
        Grid step per axis.
    shape : sequence of int
        Grid nodes per axis.
    tau : float, optional
        Truncation radius in standard deviations (default 3.7).

    Returns
    -------
    tuple of int
        Half-width ``L_k`` per axis, each at least 1.
    """
    if lambda_max <= 0:
        raise OutOfRange("lambda_max must be positive")
    if tau <= 0:
        raise OutOfRange("tau must be positive")
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if delta.size != len(shape):
        raise ShapeMismatch("delta and shape must agree in dimension")
    radius = tau * math.sqrt(lambda_max)
    out = []
    for dk, mk in zip(delta, shape):
        lk = min(int(mk) - 1, math.ceil(radius / dk))
        out.append(max(1, lk))
    return tuple(out)


def _next_pow2(n):
    """Smallest power of two that is at least ``n``."""
    return 1 << max(0, (int(n) - 1)).bit_length()


def padded_size_full(shape):
    """Padded FFT sizes for full-support kernels: powers of two >= 3M - 1."""
    return tuple(_next_pow2(3 * int(m) - 1) for m in shape)


def padded_size_truncated(shape, halfwidths):
    """Padded FFT sizes for truncated kernels: powers of two >= M + 2L - 1."""
    if len(shape) != len(halfwidths):
        raise ShapeMismatch("shape and halfwidths must agree in dimension")
    return tuple(
        _next_pow2(int(m) + 2 * int(l) - 1) for m, l in zip(shape, halfwidths)
    )


# ---------------------------------------------------------------------------
# padding
# ---------------------------------------------------------------------------

def _check_padded(data_shape, padded_shape):
    if len(padded_shape) != len(data_shape):
        raise ShapeMismatch("padded shape has wrong dimension")
    for p, m in zip(padded_shape, data_shape):
        if p < m:
            raise OutOfRange(f"padded size {p} smaller than data size {m}")


def zero_pad_counts(counts, padded_shape):
    """Embed the counts array at the origin of a zero block."""
    counts = np.asarray(counts, dtype=float)
    _check_padded(counts.shape, padded_shape)
    out = np.zeros(padded_shape)
    out[tuple(slice(0, m) for m in counts.shape)] = counts
    return out


def zero_pad_kernel(kernel, padded_shape):
    """Embed a kernel grid at the origin of a zero block.

    The kernel array covers offsets ``-L_k .. L_k`` per axis, so its
    first entry is the most negative offset and the zero offset sits at
    index ``L_k``.  Padding preserves that layout.
    """
    kernel = np.asarray(kernel, dtype=float)
    if any(s % 2 == 0 for s in kernel.shape):
        raise ShapeMismatch("kernel axes must have odd length 2L + 1")
    _check_padded(kernel.shape, padded_shape)
    out = np.zeros(padded_shape)
    out[tuple(slice(0, s) for s in kernel.shape)] = kernel
    return out


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _halfwidths_of(kernel):
    return tuple((s - 1) // 2 for s in kernel.shape)


def convolve(counts, kernel, padded_shape=None, counts_fft=None):
    """Linear convolution of counts with a kernel grid, via circular FFT.

    Computes ``s_j = sum_i counts_i kernel_{j - i}`` for every grid node
    ``j``, with counts treated as zero outside the grid.  Both arrays
    are zero-padded to a common power-of-two shape, multiplied in the
    frequency domain with real-input transforms, and the valid window
    is extracted at offset ``L_k`` per axis.

    Parameters
    ----------
    counts : ndarray
        Grid counts, shape ``M``.
    kernel : ndarray
        Kernel grid over offsets ``-L .. L`` per axis, shape ``2L + 1``.
    padded_shape : tuple of int, optional
        FFT shape; defaults to ``padded_size_truncated``.
    counts_fft : ndarray, optional
        Precomputed real transform (``rfftn``) of the zero-padded counts
        at ``padded_shape``, as returned by :class:`CountsFftCache`.

    Returns
    -------
    ndarray
        Convolution values on the original grid, shape ``M``.
    """
    counts = np.asarray(counts, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if counts.ndim != kernel.ndim:
        raise ShapeMismatch("counts and kernel must have equal rank")
    halfwidths = _halfwidths_of(kernel)
    if padded_shape is None:
        padded_shape = padded_size_truncated(counts.shape, halfwidths)
    if counts_fft is None:
        counts_fft = sfft.rfftn(zero_pad_counts(counts, padded_shape))
    kernel_fft = sfft.rfftn(zero_pad_kernel(kernel, padded_shape))
    full = sfft.irfftn(counts_fft * kernel_fft, s=padded_shape)
    window = tuple(
        slice(l, l + m) for l, m in zip(halfwidths, counts.shape)
    )
    return full[window]


def convolve_direct(counts, kernel):
    """Same convolution as :func:`convolve`, summed offset by offset.

    Slower than the FFT route but free of padding and round-off from
    the transform, which makes it the reference for equivalence checks.
    """
    counts = np.asarray(counts, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if counts.ndim != kernel.ndim:
        raise ShapeMismatch("counts and kernel must have equal rank")
    halfwidths = _halfwidths_of(kernel)
    m = counts.shape
    out = np.zeros(m)
    for flat in np.ndindex(*kernel.shape):
        kv = kernel[flat]
        if kv == 0.0:
            continue
        offset = [f - l for f, l in zip(flat, halfwidths)]
        dst = tuple(
            slice(max(0, o), mk + min(0, o)) for o, mk in zip(offset, m)
        )
        src = tuple(
            slice(max(0, -o), mk + min(0, -o)) for o, mk in zip(offset, m)
        )
        out[dst] += kv * counts[src]
    return out


def autocorrelate(counts):
    """Autocorrelation of a counts array over every grid offset.

    Returns ``A(j) = sum_i counts_i counts_{i + j}`` for offsets
    ``j_k = -(M_k - 1) .. M_k - 1``, so the zero offset sits at index
    ``M_k - 1`` on each axis; the layout matches a full-support kernel
    grid.  For any kernel grid ``k`` the binned pair sum is
    ``sum_i c_i (c * k)_i = sum_j A(j) k(delta j)``, so one transform
    pair per sample serves every bandwidth.  The real transforms run
    at ``next_fast_len(2 M_k - 1)`` per axis, long enough that the
    circular product does not wrap.

    Parameters
    ----------
    counts : ndarray
        Grid counts, shape ``M``.

    Returns
    -------
    ndarray of shape ``(2 M_1 - 1, ..., 2 M_d - 1)``.
    """
    counts = np.asarray(counts, dtype=float)
    padded = tuple(sfft.next_fast_len(2 * m - 1, real=True) for m in counts.shape)
    spec = sfft.rfftn(counts, s=padded)
    circular = sfft.irfftn(spec.real ** 2 + spec.imag ** 2, s=padded)
    offsets = [np.arange(1 - m, m) % p for m, p in zip(counts.shape, padded)]
    return circular[np.ix_(*offsets)]


class CountsFftCache:
    """Reusable real transforms of one counts array across padded shapes.

    Feeds the ``counts_fft`` argument of :func:`convolve` when one
    counts array is convolved with many kernels.  The forward transform
    of the counts is memoized per padded shape.
    """

    def __init__(self, counts):
        self.counts = np.asarray(counts, dtype=float)
        self._cache = {}

    def get(self, padded_shape):
        """``rfftn`` of the zero-padded counts at ``padded_shape``."""
        key = tuple(int(p) for p in padded_shape)
        if key not in self._cache:
            self._cache[key] = sfft.rfftn(zero_pad_counts(self.counts, key))
        return self._cache[key]
