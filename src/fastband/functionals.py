"""Cross-validation kernels and integrated density derivative functionals."""

from functools import cached_property

import numpy as np

from .binning import GridCounts
from .errors import OutOfRange, ShapeMismatch
# ``convolve`` and ``normal_pdf`` are unused here; perfbench/tracing.py
# patches them by these names.
from .fftconv import DEFAULT_TAU, convolve, convolve_direct, effective_halfwidths
from .gaussian import (
    _as_points,
    _density_of_q,
    _peak,
    _whitened_sq,
    _whitened_sq_axes,
    _whitened_sq_grid,
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
    bw = as_bandwidth(h)
    u, single = _as_points(u, bw.d)
    # An overflowing quadratic form gives e = 0, the kernel's limit.
    with np.errstate(over="ignore"):
        val = _t_of_q(_whitened_sq(u, bw), bw)
    return float(val[0]) if single else val


def _t_of_q(q, bw):
    """``T_H`` from ``q = u^T H^-1 u``, see :func:`t_h`."""
    e = np.exp(-0.25 * q)
    return _peak(bw) * e * (2.0 ** (-bw.d / 2) - 2.0 * e)


def kh_zero(h):
    """Gaussian kernel height at the origin, ``(2 pi)^{-d/2} det(H)^{-1/2}``."""
    return _peak(as_bandwidth(h))


def cv_kernel(u, h, r=0, form="t"):
    """Order-``r`` cross-validation kernel ``eta_r(u; 2H) - 2 eta_r(u; H)``.

    For ``r == 0`` this equals :func:`t_h`.  The ``form`` switch picks
    the computation route: ``"t"`` goes through the closed form of
    :func:`t_h` and only exists at ``r == 0``; ``"eta"`` goes through
    the derivative engine, with ``2H`` from ``BandwidthMatrix.scaled``,
    and works at every order.  Both routes implement the same function.
    """
    if form == "t":
        if r != 0:
            raise OutOfRange("the t form of the kernel is only defined at r = 0")
        return t_h(u, h)
    if form != "eta":
        raise OutOfRange(f"unknown kernel form {form!r}")
    bw = as_bandwidth(h)
    return eta_r(u, bw.scaled(2.0), r) - 2.0 * eta_r(u, bw, r)


# ---------------------------------------------------------------------------
# kernel grids
# ---------------------------------------------------------------------------

def _offset_axes(grid, lambda_max, mode, tau):
    """Half-widths ``L`` and offset vectors ``delta_k * [-L_k, ..., L_k]``.

    ``L_k = M_k - 1`` for the full-support modes; ``"fft-L"`` sizes the
    box from ``lambda_max``, the largest eigenvalue of the widest
    Gaussian tabulated (see :func:`effective_halfwidths`).
    """
    if mode not in PSI_MODES:
        raise OutOfRange(f"unknown mode {mode!r}; expected one of {PSI_MODES}")
    if mode == "fft-L":
        halfwidths = effective_halfwidths(lambda_max, grid.delta, grid.shape, tau)
    else:
        halfwidths = tuple(m - 1 for m in grid.shape)
    axes = [dk * np.arange(-lk, lk + 1) for dk, lk in zip(grid.delta, halfwidths)]
    return halfwidths, axes


def _tabulate(func, grid, lambda_max, mode, tau):
    """Evaluate ``func`` at the grid offsets ``delta * j``, ``j`` in ``[-L, L]^d``.

    ``func`` maps a ``(P, d)`` matrix of offsets to kernel values; the
    box is that of :func:`_offset_axes`.
    """
    halfwidths, axes = _offset_axes(grid, lambda_max, mode, tau)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return np.asarray(func(pts)).reshape(tuple(2 * l + 1 for l in halfwidths))


def _tabulate_of_q(of_q, bw, grid, lambda_max, mode, tau):
    """Tabulate a kernel given as a function of ``q = u^T H^-1 u``, ``H = bw``.

    Same box and layout as :func:`_tabulate`.  Such a kernel is even, so
    ``q`` is built by broadcasting per-axis terms (see
    :func:`_whitened_sq_grid`) over the half space ``j_1 >= 0`` only,
    and the slab ``j_1 < 0`` is that half mirrored through the origin,
    ``k(-j) = k(j)`` exactly.

    Raises
    ------
    ShapeMismatch
        If ``H`` and the grid differ in dimension.
    """
    if bw.d != grid.d:
        raise ShapeMismatch(f"bandwidth is {bw.d}-D but the grid is {grid.d}-D")
    halfwidths, axes = _offset_axes(grid, lambda_max, mode, tau)
    axes[0] = axes[0][halfwidths[0]:]
    # An overflowing quadratic form is inf, where every kernel here is 0.
    with np.errstate(over="ignore"):
        half = of_q(_whitened_sq_grid(axes, bw))
    return np.concatenate((np.flip(half[1:]), half))


def build_kernel_grid(grid, h, r=0, mode="fft-M", tau=DEFAULT_TAU, form="t"):
    """Tabulate the order-``r`` CV kernel on grid offsets.

    The kernel is evaluated at ``delta * j`` for every integer offset
    ``j`` in ``[-L_1, L_1] x ... x [-L_d, L_d]``.  Full-support modes
    (``"direct-binned"`` and ``"fft-M"``) use ``L_k = M_k - 1``; the
    truncated mode (``"fft-L"``) clips the support to ``tau`` standard
    deviations of the wider kernel ``2H``, with
    ``L_k = min(M_k - 1, ceil(tau sqrt(2 lambda_max(H)) / delta_k))``
    (see :func:`effective_halfwidths`).  The truncated grid is the
    full-support grid with the offsets outside that box removed, so the
    ``"fft-L"`` sum equals the ``"fft-M"`` sum minus exactly the terms
    at those offsets.

    The order-0 ``"t"`` form depends on ``u`` only through
    ``u^T H^-1 u``, so it is tabulated over the half space ``j_1 >= 0``
    by broadcasting and mirrored, ``k(-j) = k(j)`` exactly; the
    ``"eta"`` form and orders above 0 evaluate every offset as a point.

    Returns
    -------
    ndarray of shape ``(2 L_1 + 1, ..., 2 L_d + 1)``.
    """
    bw = as_bandwidth(h)
    if form == "t" and r == 0:
        return _tabulate_of_q(lambda q: _t_of_q(q, bw), bw, grid,
                              2.0 * bw.lambda_max, mode, tau)
    if form == "t":
        form = "eta"
    return _tabulate(lambda u: cv_kernel(u, bw, r=r, form=form),
                     grid, 2.0 * bw.lambda_max, mode, tau)


def eta_kernel_grid(grid, sigma, r, mode="fft-M", tau=DEFAULT_TAU):
    """Tabulate ``eta_r(.; sigma)`` on grid offsets, same layout as above.

    At ``r == 0`` this is the Gaussian density, tabulated over the half
    space and mirrored as in :func:`build_kernel_grid`.
    """
    bw = as_bandwidth(sigma)
    if r == 0:
        return _tabulate_of_q(lambda q: _density_of_q(q, bw), bw, grid,
                              bw.lambda_max, mode, tau)
    return _tabulate(lambda u: eta_r(u, bw, r), grid, bw.lambda_max, mode, tau)


# ---------------------------------------------------------------------------
# binned pairwise sums
# ---------------------------------------------------------------------------

def _binned_vstat(gc, kernel, mode):
    """Evaluate ``n^-2 sum_i c_i (c * k)_i`` for a tabulated kernel.

    ``"direct-binned"`` convolves offset by offset.  The FFT modes use
    the identity ``sum_i c_i (c * k)_i = sum_j A(j) k(delta j)`` with the
    cached count autocorrelation ``A``, restricted to the kernel's box.
    """
    counts = gc.counts
    n = gc.n
    if mode == "direct-binned":
        pair_sum = np.sum(counts * convolve_direct(counts, kernel))
    else:
        halfwidths = ((s - 1) // 2 for s in kernel.shape)
        box = tuple(slice(m - 1 - l, m + l) for m, l in zip(counts.shape, halfwidths))
        pair_sum = np.vdot(gc.autocorrelation[box], kernel)
    return float(pair_sum / (n * n))


def psi_binned(gc, h, r=0, mode="fft-L", tau=DEFAULT_TAU, form="t"):
    """Binned double sum of the order-``r`` CV kernel.

    Approximates ``n^-2 sum_i sum_j cv_kernel(X_i - X_j; H)`` by linear
    binning: with counts ``c`` and the tabulated kernel ``k``, returns
    ``n^-2 sum_i c_i (c * k)_i``, which equals ``n^-2 sum_j k(delta j)
    A(j)`` with ``A`` the autocorrelation of the counts.  The FFT modes
    evaluate the second form from ``gc.autocorrelation``, computed once
    per sample, so each call costs one kernel tabulation and one dot
    product; ``"direct-binned"`` evaluates the first form without any
    transform.

    ``"fft-L"`` equals ``"fft-M"`` minus exactly the terms at offsets
    outside its box ``B`` (see :func:`build_kernel_grid`).  The dropped
    part ``n^-2 sum_{j not in B} k(delta j) A(j)`` is at most
    ``(sum c^2 / n^2) sum_{j not in B} |k(delta j)|`` in absolute
    value, since ``0 <= A(j) <= A(0) = sum c^2``.

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
    form : str, optional
        Kernel route, ``"t"`` or ``"eta"``; orders above 0 always use
        the eta route.

    Returns
    -------
    float
    """
    if not isinstance(gc, GridCounts):
        raise ShapeMismatch("psi_binned expects GridCounts from linear_binning")
    kernel = build_kernel_grid(gc.grid, h, r=r, mode=mode, tau=tau, form=form)
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

    The exact route's analogue of ``GridCounts.autocorrelation``: the
    differences do not depend on ``H``, so the table is built on first
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
        blocks of at most ``_PAIR_BUDGET`` pairs (cached; ``8 d n (n - 1)
        / 2`` bytes in all).
    """

    def __init__(self, x):
        self.x = np.array(x, dtype=float, ndmin=2)
        self.n, self.d = self.x.shape

    @cached_property
    def blocks(self):
        return tuple(_pair_blocks(self.x))


def _pair_blocks(x):
    """Yield ``X_i - X_j``, ``i < j``, as ``(d, p)`` blocks, see :class:`PairDifferences`.

    Each block is filled row by row (a row may straddle two blocks), so
    no ``n x n`` array or index table is formed; a caller that does not
    keep the blocks holds one at a time.
    """
    xt = np.ascontiguousarray(x.T)
    d, n = xt.shape
    remaining = n * (n - 1) // 2
    i, j = 0, 1
    while remaining:
        p = min(_PAIR_BUDGET, remaining)
        block = np.empty((d, p))
        pos = 0
        while pos < p:
            take = min(n - j, p - pos)
            np.subtract(xt[:, i, None], xt[:, j:j + take], out=block[:, pos:pos + take])
            pos += take
            j += take
            if j == n:
                i += 1
                j = i + 1
        remaining -= p
        yield block


def _pairwise_vstat(data, bw, of_block, at_zero):
    """``n^-2 sum_i sum_j f(X_i - X_j)`` for an even ``f``, from the pairs ``i < j``.

    Evaluates ``n^-2 [n f(0) + 2 sum_{i<j} f(X_i - X_j)]``, exact for
    every kernel served here: a centred Gaussian and its even-order
    derivatives are even.  ``of_block`` maps a ``(d, p)`` block of
    differences to their ``p`` values of ``f``, and ``at_zero`` is
    ``f(0)``.  ``data`` is a :class:`PairDifferences`, whose cached
    table is read, or a raw ``(n, d)`` sample, whose blocks are
    streamed and not kept.

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
    total = sum(float(np.sum(of_block(block))) for block in blocks)
    return (n * float(at_zero) + 2.0 * total) / (n * n)


def psi_direct(x, h, r=0, form="t"):
    """Exact pairwise double sum of the order-``r`` CV kernel.

    Returns ``n^-2 sum_i sum_j cv_kernel(X_i - X_j; H)``, evaluated over
    the ``n (n - 1) / 2`` pairs ``i < j`` (see :func:`_pairwise_vstat`).
    The order-0 ``"t"`` form builds ``u^T H^-1 u`` per block from the
    per-axis whitening of the exact differences; the ``"eta"`` form and
    orders above 0 go through the derivative engine.

    Parameters
    ----------
    x : (n, d) array_like or PairDifferences
        Raw sample, whose differences are streamed block by block and
        not kept, or the sample's cached difference table.
    h : (d, d) array_like or BandwidthMatrix
        Bandwidth matrix.
    r : int, optional
        Functional order (default 0).
    form : str, optional
        Kernel route, ``"t"`` or ``"eta"``; orders above 0 always use
        the eta route.

    Returns
    -------
    float
    """
    bw = as_bandwidth(h)
    if form == "t" and r == 0:
        # An overflowing quadratic form gives the kernel's limit, 0.
        with np.errstate(over="ignore"):
            return _pairwise_vstat(x, bw, lambda u: _t_of_q(_whitened_sq_axes(u, bw), bw),
                                   _t_of_q(0.0, bw))
    if form == "t":
        form = "eta"
    return _pairwise_vstat(x, bw, lambda u: cv_kernel(u.T, bw, r=r, form=form),
                           cv_kernel(np.zeros(bw.d), bw, r=r, form=form))


def q_r_exact(x, sigma, r):
    """Exact pairwise V-statistic of ``eta_r``; ``x`` as in :func:`psi_direct`."""
    bw = as_bandwidth(sigma)
    return _pairwise_vstat(x, bw, lambda u: eta_r(u.T, bw, r), eta_r(np.zeros(bw.d), bw, r))
