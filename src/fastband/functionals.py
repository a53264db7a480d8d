"""Cross-validation kernels and integrated density derivative functionals."""

import numpy as np

from .binning import GridCounts
from .errors import OutOfRange, ShapeMismatch
# ``convolve`` is unused here; perfbench/tracing.py patches it by this name.
from .fftconv import DEFAULT_TAU, convolve, convolve_direct, effective_halfwidths
from .gaussian import eta_r, normal_pdf
from .linalg import BandwidthMatrix

__all__ = [
    "PSI_MODES",
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

# Pairwise chunk budget for the exact O(n^2) routes.
_PAIR_BUDGET = 1 << 21


def _as_bandwidth(h):
    return h if isinstance(h, BandwidthMatrix) else BandwidthMatrix(h)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def t_h(u, h):
    """Cross-validation kernel ``K_{2H}(u) - 2 K_H(u)``.

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
    bw = _as_bandwidth(h)
    return normal_pdf(u, 2.0 * bw.h) - 2.0 * normal_pdf(u, bw.h)


def kh_zero(h):
    """Gaussian kernel height at the origin, ``(2 pi)^{-d/2} det(H)^{-1/2}``."""
    bw = _as_bandwidth(h)
    return 1.0 / ((2.0 * np.pi) ** (bw.d / 2) * np.sqrt(bw.det))


def cv_kernel(u, h, r=0, form="t"):
    """Order-``r`` cross-validation kernel ``eta_r(u; 2H) - 2 eta_r(u; H)``.

    For ``r == 0`` this equals :func:`t_h`.  The ``form`` switch picks
    the computation route: ``"t"`` goes through plain density
    evaluations and only exists at ``r == 0``; ``"eta"`` goes through
    the derivative engine and works at every order.  Both routes
    implement the same function.
    """
    if form == "t":
        if r != 0:
            raise OutOfRange("the t form of the kernel is only defined at r = 0")
        return t_h(u, h)
    if form != "eta":
        raise OutOfRange(f"unknown kernel form {form!r}")
    bw = _as_bandwidth(h)
    return eta_r(u, 2.0 * bw.h, r) - 2.0 * eta_r(u, bw.h, r)


# ---------------------------------------------------------------------------
# kernel grids
# ---------------------------------------------------------------------------

def _offset_points(delta, halfwidths):
    """Grid offsets ``delta * j`` for ``j`` in the box ``[-L, L]^d``."""
    axes = [dk * np.arange(-lk, lk + 1) for dk, lk in zip(delta, halfwidths)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(delta))


def _support_halfwidths(grid, lambda_max, mode, tau):
    if mode == "fft-L":
        return effective_halfwidths(lambda_max, grid.delta, grid.shape, tau)
    return tuple(m - 1 for m in grid.shape)


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

    Returns
    -------
    ndarray of shape ``(2 L_1 + 1, ..., 2 L_d + 1)``.
    """
    if mode not in PSI_MODES:
        raise OutOfRange(f"unknown mode {mode!r}; expected one of {PSI_MODES}")
    bw = _as_bandwidth(h)
    if form == "t" and r != 0:
        form = "eta"
    halfwidths = _support_halfwidths(grid, 2.0 * bw.lambda_max, mode, tau)
    pts = _offset_points(grid.delta, halfwidths)
    vals = cv_kernel(pts, bw, r=r, form=form)
    return np.asarray(vals).reshape(tuple(2 * l + 1 for l in halfwidths))


def eta_kernel_grid(grid, sigma, r, mode="fft-M", tau=DEFAULT_TAU):
    """Tabulate ``eta_r(.; sigma)`` on grid offsets, same layout as above."""
    if mode not in PSI_MODES:
        raise OutOfRange(f"unknown mode {mode!r}; expected one of {PSI_MODES}")
    bw = _as_bandwidth(sigma)
    halfwidths = _support_halfwidths(grid, bw.lambda_max, mode, tau)
    pts = _offset_points(grid.delta, halfwidths)
    vals = eta_r(pts, bw, r)
    return np.asarray(vals).reshape(tuple(2 * l + 1 for l in halfwidths))


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
    n = counts.sum()
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

def _pairwise_vstat(x, func):
    """Chunked evaluation of ``n^-2 sum_i sum_j func(X_i - X_j)``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    # Differences are built axis by axis, so the inner loop runs over
    # the n partners rather than over the d coordinates; the cost per
    # pair then no longer depends on n.  The rows keep pair order.
    xt = np.ascontiguousarray(x.T)
    chunk = max(1, _PAIR_BUDGET // max(1, n))
    total = 0.0
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        diffs = xt[:, start:stop, None] - xt[:, None, :]
        total += float(np.sum(func(diffs.reshape(d, -1).T)))
    return total / (n * n)


def psi_direct(x, h, r=0, form="t"):
    """Exact pairwise double sum of the order-``r`` CV kernel."""
    bw = _as_bandwidth(h)
    if form == "t" and r != 0:
        form = "eta"
    return _pairwise_vstat(x, lambda u: cv_kernel(u, bw, r=r, form=form))


def q_r_exact(x, sigma, r):
    """Exact pairwise V-statistic of ``eta_r``."""
    bw = _as_bandwidth(sigma)
    return _pairwise_vstat(x, lambda u: eta_r(u, bw, r))
