"""Cross-validation kernels and integrated density derivative functionals."""

import math
from functools import cached_property
from string import ascii_letters

import numpy as np

from .binning import GridCounts
from .errors import OutOfRange, ShapeMismatch
# ``convolve``, ``normal_pdf`` and ``eta_r`` are unused here;
# perfbench/tracing.py patches them by these names.
from .fftconv import DEFAULT_TAU, _halfwidths, convolve, convolve_direct
from .gaussian import (
    _as_points,
    _eta_axes,
    _eta_zero,
    _peak,
    _whitened_sq_axes,
    eta_r,
    normal_pdf,
)
from .linalg import as_bandwidth

__all__ = [
    "PSI_MODES",
    "PairDifferences",
    "t_h",
    "kh_zero",
    "cv_kernel",
    "build_kernel_grid",
    "eta_kernel_grid",
    "psi_binned",
    "psi_direct",
    "q_r_binned",
    "q_r_exact",
]

# Binned evaluation strategies for the pairwise sums.
PSI_MODES = ("direct-binned", "fft-M", "fft-L")

# Most pairs i < j per difference block on the exact O(n^2) routes.
_PAIR_BUDGET = 1 << 14


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def t_h(u, h):
    """Cross-validation kernel ``K_{2H}(u) - 2 K_H(u)``.

    Computed with one whitening and one exponential.  With
    ``q = u^T H^-1 u`` and ``(2H)^-1 = H^-1 / 2``, both Gaussians are
    powers of ``e = exp(-q / 4)``:
    ``T_H(u) = K_H(0) e (2^{-d/2} - 2 e)``.  No matrix is formed or
    factored for ``2H``.

    Parameters
    ----------
    u : (n, d) or (d,) array_like
        Difference vectors.
    h : (d, d) array_like or BandwidthMatrix
        Bandwidth matrix.

    Returns
    -------
    (n,) ndarray, or float for a single point.
    """
    return cv_kernel(u, h)


def _t_of_q(q, bw):
    """``T_H`` from the array ``q = u^T H^-1 u``, in place, see :func:`t_h`.

    ``q`` is overwritten and returned, as ``e (a - b e)`` with the
    Python floats ``a = 2^{-d/2} K_H(0)`` and ``b = 2 K_H(0)``: three
    passes after the exponential, one temporary.
    """
    peak = _peak(bw)
    e = q
    e *= -0.25
    np.exp(e, out=e)
    gap = e * (-2.0 * peak)
    gap += 2.0 ** (-bw.d / 2) * peak
    e *= gap
    return e


def kh_zero(h):
    """Gaussian kernel height at the origin, ``(2 pi)^{-d/2} det(H)^{-1/2}``."""
    return _peak(as_bandwidth(h))


def cv_kernel(u, h, r=0):
    """Order-``r`` CV kernel ``eta_r(u; 2H) - 2 eta_r(u; H)`` at points ``u``, see :func:`_cv_axes`.

    :func:`t_h` at ``r == 0``.  An ``(n,)`` array, or a float for a single point.
    """
    bw = as_bandwidth(h)
    u, single = _as_points(u, bw.d)
    # An overflowing quadratic form gives the kernel's limit, 0.
    with np.errstate(over="ignore"):
        val = _cv_axes(u.T, bw, r)
    return float(val[0]) if single else val


def _cv_axes(terms, bw, r, out=None):
    """:func:`cv_kernel` from per-axis terms, as in :func:`~fastband.gaussian._eta_axes`.

    At ``r == 0``, :func:`t_h` of the whitening ``u^T H^-1 u``.  Above
    0, the term of ``2H`` follows from ``H`` by Gaussian homogeneity,
    ``eta_r(u; 2H) = 2^{-d/2-r} eta_r(u / sqrt(2); H)``, so both terms
    read the one eigendecomposition of ``H`` and no matrix is made for
    ``2H``.
    """
    if r == 0:
        return _t_of_q(_whitened_sq_axes(terms, bw, out=out), bw)
    root = math.sqrt(2.0)
    wide = _eta_axes([terms[k] / root for k in range(bw.d)], bw, r)
    wide *= 2.0 ** (-bw.d / 2 - r)
    return np.subtract(wide, 2.0 * _eta_axes(terms, bw, r), out=out)


# ---------------------------------------------------------------------------
# kernel grids
# ---------------------------------------------------------------------------

def _tabulate_half(fill, bw, grid, factor, mode, tau):
    """Tabulate an even kernel at the grid offsets ``delta * j``, ``j`` in ``[-L, L]^d``.

    ``L_k = M_k - 1`` for the full-support modes; ``"fft-L"`` sizes the
    box from ``factor * bw.lambda_max``, the largest eigenvalue of
    ``factor * H``, the widest Gaussian tabulated (see
    :func:`effective_halfwidths`); no other mode reads ``lambda_max``.
    Every kernel
    here is even (a Gaussian's derivatives of even order), so
    ``fill(axes, out)`` writes it into the slab ``j_1 >= 0`` only, from
    offsets ``axes[k]`` that broadcast along their axis (read-only
    slices of ``grid.offsets``), and the slab ``j_1 < 0`` is one copy of
    that half mirrored through the origin by negative-step slices,
    ``k(-j) = k(j)`` exactly.
    Raises ``ShapeMismatch`` if ``H = bw`` and the grid differ in dimension.
    """
    if bw.d != grid.d:
        raise ShapeMismatch(f"bandwidth is {bw.d}-D but the grid is {grid.d}-D")
    if mode == "fft-L":
        halfwidths = _halfwidths(factor * bw.lambda_max, grid.steps, grid.shape, tau)
    elif mode in PSI_MODES:
        halfwidths = [m - 1 for m in grid.shape]
    else:
        raise OutOfRange(f"unknown mode {mode!r}; expected one of {PSI_MODES}")
    axes = [off[m - 1 - l:m + l] for off, m, l in zip(grid.offsets, grid.shape, halfwidths)]
    l1 = halfwidths[0]
    table = np.empty([2 * l + 1 for l in halfwidths])
    half = table[l1:]
    axes[0] = axes[0][l1:]
    # An overflowing quadratic form is inf, where every kernel here is 0.
    with np.errstate(over="ignore"):
        fill(axes, half)
    table[:l1] = table[(slice(None, None, -1),) * bw.d][:l1]
    return table


def build_kernel_grid(grid, h, r=0, mode="fft-M", tau=DEFAULT_TAU):
    """Tabulate the order-``r`` CV kernel on grid offsets.

    The kernel is evaluated at ``delta * j`` for every integer offset
    ``j`` in ``[-L_1, L_1] x ... x [-L_d, L_d]``.  Full-support modes
    (``"direct-binned"`` and ``"fft-M"``) use ``L_k = M_k - 1``; the
    truncated mode (``"fft-L"``) clips the support to ``tau`` standard
    deviations of the wider kernel ``2H``, with
    ``L_k = min(M_k - 1, ceil(tau sqrt(2 lambda_max(H)) / delta_k))``
    (see :func:`effective_halfwidths`), with ``lambda_max(H)`` from
    ``BandwidthMatrix.lambda_max``: at d <= 2 in Python floats, so an
    order-0 table calls no ``np.linalg`` routine (see
    :func:`~fastband.linalg.largest_eigenvalue`).  The truncated grid is the
    full-support grid with the offsets outside that box removed, so the
    ``"fft-L"`` sum equals the ``"fft-M"`` sum minus exactly the terms
    at those offsets.

    The half space ``j_1 >= 0`` is tabulated by broadcasting per-axis
    terms (see :func:`_cv_axes`) and mirrored (see :func:`_tabulate_half`).

    Returns
    -------
    ndarray of shape ``(2 L_1 + 1, ..., 2 L_d + 1)``.
    """
    bw = as_bandwidth(h)
    return _tabulate_half(lambda axes, out: _cv_axes(axes, bw, r, out=out),
                          bw, grid, 2.0, mode, tau)


def eta_kernel_grid(grid, sigma, r, mode="fft-M", tau=DEFAULT_TAU):
    """Tabulate ``eta_r(.; sigma)`` on grid offsets, same layout as above.

    At ``r == 0``, the Gaussian density of ``u^T sigma^-1 u``.
    """
    bw = as_bandwidth(sigma)
    return _tabulate_half(lambda axes, out: _eta_axes(axes, bw, r, out=out),
                          bw, grid, 1.0, mode, tau)


# ---------------------------------------------------------------------------
# binned pairwise sums
# ---------------------------------------------------------------------------

def _binned_vstat(gc, kernel, mode):
    """Evaluate ``n^-2 sum_i c_i (c * k)_i`` for a tabulated even kernel.

    ``"direct-binned"`` convolves offset by offset.  The FFT modes use
    the identity ``sum_i c_i (c * k)_i = sum_j A(j) k(delta j)`` with the
    count autocorrelation ``A``, restricted to the kernel's box ``B``.
    For an even ``k`` that sum is ``sum_{j in B, j_1 >= 0} W(j)
    k(delta j)`` with the cached folded table ``W``
    (``GridCounts.folded_autocorrelation``): half the multiply-adds,
    read in place by ``np.einsum``, which sums in numpy's own loop, so
    no BLAS call is made and the result does not depend on the BLAS
    thread count.  The terms dropped outside ``B`` are then at most
    ``(2 sum c^2 / n^2) sum_{j not in B, j_1 >= 0} |k(delta j)|`` in
    absolute value, since ``0 <= W <= 2 A(0)`` and ``A(0) = sum c^2``.
    """
    n = gc.n
    if mode == "direct-binned":
        pair_sum = np.sum(gc.counts * convolve_direct(gc.counts, kernel))
    else:
        # The folded table's zero offset sits at index (0, M_2 - 1, ...),
        # and axis k of the kernel spans 2 L_k + 1 offsets around it.
        l1 = kernel.shape[0] // 2
        box = [slice(0, l1 + 1)]
        for m, s in zip(gc.grid.shape[1:], kernel.shape[1:]):
            box.append(slice(m - 1 - s // 2, m + s // 2))
        axes = ascii_letters[:kernel.ndim]
        pair_sum = np.einsum(f"{axes},{axes}->", gc.folded_autocorrelation[tuple(box)],
                             kernel[l1:])
    return float(pair_sum / (n * n))


def psi_binned(gc, h, r=0, mode="fft-L", tau=DEFAULT_TAU):
    """Binned double sum of the order-``r`` CV kernel.

    Approximates ``n^-2 sum_i sum_j cv_kernel(X_i - X_j; H)`` by linear
    binning: with counts ``c`` and the tabulated kernel ``k`` (see
    :func:`build_kernel_grid`), returns ``n^-2 sum_i c_i (c * k)_i``.
    Each call costs one kernel tabulation and one sum, made as in
    :func:`_binned_vstat`: in the FFT modes over half the table against
    the count autocorrelation folded onto it once per sample
    (``gc.folded_autocorrelation``), without BLAS; in
    ``"direct-binned"`` offset by offset, without any transform.
    ``"fft-L"`` drops exactly the terms at offsets outside its box, a
    part that :func:`_binned_vstat` bounds.

    Parameters
    ----------
    gc : GridCounts
        Binned sample.
    h : (d, d) array_like or BandwidthMatrix
        Bandwidth matrix.
    r : int, optional
        Functional order (default 0).
    mode : str, optional
        One of ``"direct-binned"``, ``"fft-M"``, ``"fft-L"``.
    tau : float, optional
        Truncation radius for ``"fft-L"``, in standard deviations of the
        wider kernel ``2H``.

    Returns
    -------
    float
    """
    if not isinstance(gc, GridCounts):
        raise ShapeMismatch("psi_binned expects GridCounts from linear_binning")
    kernel = build_kernel_grid(gc.grid, h, r=r, mode=mode, tau=tau)
    return _binned_vstat(gc, kernel, mode)


def q_r_binned(gc, sigma, r, mode="fft-L", tau=DEFAULT_TAU):
    """Binned V-statistic ``n^-2 sum_i c_i (c * k)_i`` with ``k = eta_r``."""
    if not isinstance(gc, GridCounts):
        raise ShapeMismatch("q_r_binned expects GridCounts from linear_binning")
    kernel = eta_kernel_grid(gc.grid, sigma, r, mode=mode, tau=tau)
    return _binned_vstat(gc, kernel, mode)


# ---------------------------------------------------------------------------
# exact pairwise sums
# ---------------------------------------------------------------------------

class PairDifferences:
    """Differences ``X_i - X_j`` over the pairs ``i < j`` of one sample.

    The exact route's analogue of ``GridCounts.folded_autocorrelation``:
    the differences do not depend on ``H``, so the table is built on first
    use and cached, and every later evaluation only reads it.  The
    sample is copied and treated as fixed.

    Attributes
    ----------
    x : (n, d) ndarray
        The sample.
    n, d : int
        Sample size and dimension.
    blocks : tuple of (d, p) ndarray
        The ``n (n - 1) / 2`` differences in row-major pair order,
        ``(0, 1), (0, 2), ..., (n - 2, n - 1)``, cut into contiguous
        blocks of at most ``_PAIR_BUDGET`` pairs, views of one buffer of
        ``8 d n (n - 1) / 2`` bytes (cached).
    """

    def __init__(self, x):
        self.x = np.array(x, dtype=float, ndmin=2)
        self.n, self.d = self.x.shape

    @cached_property
    def blocks(self):
        return tuple(_pair_blocks(self.x, table=True))


def _pair_blocks(x, table=False):
    """Yield ``X_i - X_j``, ``i < j``, as ``(d, p)`` blocks, see :class:`PairDifferences`.

    Each block is filled row by row (a row may straddle two blocks), so
    no ``n x n`` array or index table is formed.  A row costs one ufunc
    call on prepared views.  Filling a run of whole rows by one
    broadcast subtraction compressed to ``j > i`` was measured slower
    at n = 2000 and 4000: its extra passes over the data cost more than
    the calls it saves.  The blocks are contiguous views of one buffer: with ``table`` it holds
    the whole table and each block is its own slice; otherwise it holds
    one block and is refilled for the next, so a streaming caller must
    use each block before asking for the next.
    """
    xt = np.ascontiguousarray(x.T)
    # points[i] is X_i as a (d, 1) column, a cheaper view than xt[:, i, None].
    points = np.ascontiguousarray(x)[:, :, None]
    d, n = xt.shape
    total = n * (n - 1) // 2
    buf = np.empty(d * (total if table else min(total, _PAIR_BUDGET)))
    start, i, j = 0, 0, 1
    while start < total:
        p = min(_PAIR_BUDGET, total - start)
        offset = d * start if table else 0
        block = buf[offset:offset + d * p].reshape(d, p)
        pos = 0
        while pos < p:
            take = min(n - j, p - pos)
            np.subtract(points[i], xt[:, j:j + take], block[:, pos:pos + take])
            pos += take
            j += take
            if j == n:
                i += 1
                j = i + 1
        start += p
        yield block


def _pairwise_vstat(data, bw, of_block, at_zero):
    """``n^-2 sum_i sum_j f(X_i - X_j)`` for an even ``f``, from the pairs ``i < j``.

    Evaluates ``n^-2 [n f(0) + 2 sum_{i<j} f(X_i - X_j)]``, exact for
    every kernel served here: a centred Gaussian and its even-order
    derivatives are even.  ``of_block`` maps a ``(d, p)`` block of
    differences to the sum of ``f`` over its ``p`` pairs, and
    ``at_zero`` is ``f(0)``.  ``data`` is a :class:`PairDifferences`,
    whose cached table is read, or a raw ``(n, d)`` sample, whose
    blocks are streamed and not kept.

    Raises
    ------
    ShapeMismatch
        If the sample and ``H = bw`` differ in dimension.
    """
    if isinstance(data, PairDifferences):
        n, d, blocks = data.n, data.d, data.blocks
    else:
        x = np.atleast_2d(np.asarray(data, dtype=float))
        (n, d), blocks = x.shape, _pair_blocks(x)
    if d != bw.d:
        raise ShapeMismatch(f"sample is {d}-D but the bandwidth is {bw.d}-D")
    total = sum(float(of_block(block)) for block in blocks)
    return (n * float(at_zero) + 2.0 * total) / (n * n)


def _t_sum(u, bw):
    """Sum of ``T_H`` over a ``(d, p)`` block of differences, see :func:`t_h`.

    With ``e = exp(-q / 4)`` per pair, ``sum T_H = K_H(0) (2^{-d/2}
    sum e - 2 sum e^2)``: two ``sum``s (numpy's pairwise summation), the
    second after squaring ``e`` in place, and no array of ``T_H``
    values.  No BLAS call is made: a ``dot`` over a block this long
    would run on BLAS threads, so the sum's time and its last bits would
    depend on the BLAS thread count.
    """
    e = _whitened_sq_axes(u, bw)
    e *= -0.25
    np.exp(e, out=e)
    sum_e = e.sum()
    e *= e
    return _peak(bw) * (2.0 ** (-bw.d / 2) * sum_e - 2.0 * e.sum())


def psi_direct(x, h, r=0):
    """Exact pairwise double sum of the order-``r`` CV kernel.

    Returns ``n^-2 sum_i sum_j cv_kernel(X_i - X_j; H)``, evaluated over
    the ``n (n - 1) / 2`` pairs ``i < j`` (see :func:`_pairwise_vstat`),
    with the rows of each ``(d, p)`` block of differences as the
    per-axis terms of :func:`_cv_axes`.  At ``r == 0`` the block sum is
    ``K_H(0) (2^{-d/2} sum e - 2 sum e^2)``, ``e = exp(-q / 4)`` (see
    :func:`_t_sum`).

    Parameters
    ----------
    x : (n, d) array_like or PairDifferences
        Raw sample, whose differences are streamed block by block and
        not kept, or the sample's cached difference table.
    h : (d, d) array_like or BandwidthMatrix
        Bandwidth matrix.
    r : int, optional
        Functional order (default 0).

    Returns
    -------
    float
    """
    bw = as_bandwidth(h)
    # eta_r(0; 2H) - 2 eta_r(0; H) = eta_r(0; H) (2^{-d/2-r} - 2) in Python
    # floats, by the homogeneity of _cv_axes; at r == 0, T_H(0).
    at_zero = _eta_zero(bw, r) * (2.0 ** (-bw.d / 2 - r) - 2.0)
    if r == 0:
        # An overflowing quadratic form gives the kernel's limit, 0.
        with np.errstate(over="ignore"):
            return _pairwise_vstat(x, bw, lambda u: _t_sum(u, bw), at_zero)
    return _pairwise_vstat(x, bw, lambda u: np.sum(_cv_axes(u, bw, r)), at_zero)


def q_r_exact(x, sigma, r):
    """Exact pairwise V-statistic of ``eta_r``; ``x`` as in :func:`psi_direct`."""
    bw = as_bandwidth(sigma)
    return _pairwise_vstat(x, bw, lambda u: np.sum(_eta_axes(u, bw, r)), _eta_zero(bw, r))
