"""Grid-count autocorrelation and zero-padded FFT convolution with kernel grids."""

import math

import numpy as np

from .errors import OutOfRange, ShapeMismatch

__all__ = [
    "DEFAULT_TAU",
    "effective_halfwidths",
    "padded_size_full",
    "padded_size_truncated",
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

    Raises
    ------
    OutOfRange
        If ``lambda_max`` or ``tau`` is not finite and positive, or a
        step of ``delta`` is not.
    ShapeMismatch
        If ``delta`` and ``shape`` differ in length.
    """
    delta = np.asarray(delta, dtype=float).ravel().tolist()
    if len(delta) != len(shape):
        raise ShapeMismatch("delta and shape must agree in dimension")
    if not all(math.isfinite(dk) and dk > 0 for dk in delta):
        raise OutOfRange("every grid step must be finite and positive")
    return _halfwidths(lambda_max, delta, shape, tau)


def _halfwidths(lambda_max, steps, shape, tau):
    """:func:`effective_halfwidths` for ``steps``, a sequence of Python floats.

    Checks ``lambda_max`` and ``tau`` but trusts ``steps``; NaN fails
    ``0 < x < inf``, so every non-finite value raises ``OutOfRange``.
    """
    if not 0 < lambda_max < math.inf:
        raise OutOfRange(f"lambda_max must be finite and positive, got {lambda_max!r}")
    if not 0 < tau < math.inf:
        raise OutOfRange(f"tau must be finite and positive, got {tau!r}")
    radius = tau * math.sqrt(lambda_max)
    return tuple([max(1, min(int(mk) - 1, math.ceil(radius / dk)))
                  for dk, mk in zip(steps, shape)])


def _next_pow2(n):
    """Smallest power of two that is at least ``n``."""
    return 1 << max(0, (int(n) - 1)).bit_length()


def _next_fast_len_real(n):
    """Smallest 5-smooth integer that is at least ``n``.

    Real transforms are fastest at sizes with no prime factor above 5.
    This is scipy's ``next_fast_len(n, real=True)``.
    """
    n = int(n)
    best = _next_pow2(n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 * _next_pow2(-(-n // p35)))
            p35 *= 3
        p5 *= 5
    return best


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
# transforms
# ---------------------------------------------------------------------------

def _rfftn(a, s):
    """Real transform of ``a`` zero-padded to shape ``s``.

    The real pass runs over the last axis, then the complex passes over
    axes ``0 .. d-2`` in increasing order.  ``np.fft.rfftn`` orders the
    complex passes differently for ``d >= 3``, which changes the last
    bits of the result.
    """
    out = np.fft.rfft(a, n=s[-1], axis=-1)
    for axis in range(len(s) - 1):
        out = np.fft.fft(out, n=s[axis], axis=axis)
    return out


def _irfftn(a, s):
    """Inverse of :func:`_rfftn` at shape ``s``; overwrites the complex ``a``.

    The passes run unscaled and the result is scaled once by
    ``1 / prod(s)``; per-pass scaling rounds differently.
    """
    for axis in range(len(s) - 1):
        np.fft.ifft(a, axis=axis, norm="forward", out=a)
    out = np.fft.irfft(a, n=s[-1], axis=-1, norm="forward")
    out *= 1.0 / math.prod(s)
    return out


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _halfwidths_of(kernel):
    return tuple((s - 1) // 2 for s in kernel.shape)


def _check_padded(padded_shape, data_shape, halfwidths):
    """Reject FFT shapes too small for the window; ``padded_k >= M_k + L_k``."""
    if len(padded_shape) != len(data_shape):
        raise ShapeMismatch("padded shape has wrong dimension")
    for p, m, l in zip(padded_shape, data_shape, halfwidths):
        if p < m + l:
            raise OutOfRange(f"padded size {p} smaller than {m} + {l}")


def convolve(counts, kernel, padded_shape=None, counts_fft=None):
    """Linear convolution of counts with a kernel grid, via circular FFT.

    Computes ``s_j = sum_i counts_i kernel_{j - i}`` for every grid node
    ``j``, with counts treated as zero outside the grid.  Both arrays
    are zero-padded to a common shape by the real transforms, multiplied
    in the frequency domain, and the valid window is extracted at
    offset ``L_k`` per axis.  The circular wrap misses that window
    exactly when ``padded_k >= M_k + L_k``.

    Parameters
    ----------
    counts : ndarray
        Grid counts, shape ``M``.
    kernel : ndarray
        Kernel grid over offsets ``-L .. L`` per axis, shape ``2L + 1``.
    padded_shape : tuple of int, optional
        FFT shape, at least ``M + L`` per axis; defaults to
        ``padded_size_truncated``.
    counts_fft : ndarray, optional
        Precomputed real transform of the counts zero-padded to
        ``padded_shape``, as returned by :meth:`CountsFftCache.get`.

    Returns
    -------
    ndarray
        Convolution values on the original grid, shape ``M``.

    A rank mismatch or an even kernel axis raises ``ShapeMismatch``, a
    ``padded_shape`` below ``M + L`` on some axis ``OutOfRange``.
    """
    counts = np.asarray(counts, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if counts.ndim != kernel.ndim:
        raise ShapeMismatch("counts and kernel must have equal rank")
    if any(s % 2 == 0 for s in kernel.shape):
        raise ShapeMismatch("kernel axes must have odd length 2L + 1")
    halfwidths = _halfwidths_of(kernel)
    if padded_shape is None:
        # Sizing a one-point kernel as L = 1 keeps M + L within the pad.
        padded_shape = padded_size_truncated(counts.shape, [max(1, l) for l in halfwidths])
    _check_padded(padded_shape, counts.shape, halfwidths)
    if counts_fft is None:
        counts_fft = _rfftn(counts, padded_shape)
    kernel_fft = _rfftn(kernel, padded_shape)
    # The product goes into the kernel's spectrum, which nothing else
    # holds, and the inverse transforms it in place.  The counts stay the
    # first factor: a complex product with swapped factors can round
    # differently.
    full = _irfftn(np.multiply(counts_fft, kernel_fft, out=kernel_fft), padded_shape)
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
    ``sum_i c_i (c * k)_i = sum_j A(j) k(delta j)``, so one
    autocorrelation per sample serves every bandwidth.

    ``A(-j) = A(j)``, so only the half ``j_1 >= 0`` is computed (see
    :func:`_half_autocorrelation`) and the other half is that table
    mirrored through the origin.

    Parameters
    ----------
    counts : ndarray
        Grid counts, shape ``M``.

    Returns
    -------
    ndarray of shape ``(2 M_1 - 1, ..., 2 M_d - 1)``.
    """
    half = _half_autocorrelation(counts)
    return np.concatenate((np.flip(half[1:]), half))


def _half_autocorrelation(counts):
    """The autocorrelation ``A(j)`` of the counts on the half space ``j_1 >= 0``.

    Shape ``(M_1, 2 M_2 - 1, ..., 2 M_d - 1)``: rows ``j_1 = 0 .. M_1 -
    1``, and offsets ``-(M_k - 1) .. M_k - 1`` on the other axes, the
    zero offset at index ``(0, M_2 - 1, ..., M_d - 1)``.

    The counts' real transform runs at the smallest 5-smooth size
    ``P_k >= 2 M_k - 1`` per axis, long enough that the circular
    product does not wrap.  Their power spectrum is real and even, so
    the inverse's first pass is a real-input transform (``ihfft``) that
    keeps only the ``M_1`` rows wanted, and the remaining passes run on
    those rows alone.  The passes are unscaled and the result is scaled
    once by ``1 / prod(P)``.
    """
    counts = np.asarray(counts, dtype=float)
    shape = counts.shape
    padded = tuple(_next_fast_len_real(2 * m - 1) for m in shape)
    spec = _rfftn(counts, padded)
    power = spec.real ** 2
    power += spec.imag ** 2
    del spec
    if len(shape) == 1:
        half = np.fft.irfft(power, n=padded[0], norm="forward")[:shape[0]]
    else:
        part = np.fft.ihfft(power, axis=0, norm="forward")[:shape[0]]
        del power
        for axis in range(1, len(shape) - 1):
            np.fft.ifft(part, axis=axis, norm="forward", out=part)
        half = np.fft.irfft(part, n=padded[-1], axis=-1, norm="forward")
    half *= 1.0 / math.prod(padded)
    for axis, (m, p) in enumerate(zip(shape[1:], padded[1:]), start=1):
        below = [slice(None)] * len(shape)
        above = [slice(None)] * len(shape)
        below[axis] = slice(p - m + 1, p)
        above[axis] = slice(0, m)
        half = np.concatenate((half[tuple(below)], half[tuple(above)]), axis=axis)
    return half


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
        """Real transform of the counts zero-padded to ``padded_shape``, at least ``M``."""
        key = tuple(int(p) for p in padded_shape)
        if key not in self._cache:
            _check_padded(key, self.counts.shape, (0,) * self.counts.ndim)
            self._cache[key] = _rfftn(self.counts, key)
        return self._cache[key]
