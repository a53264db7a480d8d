"""Cross-validation kernels and integrated density derivative functionals."""

import math
from collections import namedtuple
from functools import cached_property
from string import ascii_letters

import numpy as np

from .binning import GridCounts
from .errors import OutOfRange, ShapeMismatch, TooFewPoints
# ``convolve``, ``normal_pdf`` and ``eta_r`` are unused here;
# perfbench/tracing.py patches them by these names.
from .fftconv import DEFAULT_TAU, _halfwidths, convolve, convolve_direct
from .gaussian import (
    _as_points,
    _eta_axes,
    _eta_zero,
    _functional_order,
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

def _binned_mode(mode):
    """``(direct, truncated)`` for a binned mode.

    ``direct`` is true for ``"direct-binned"``, which sums offset by
    offset, and ``truncated`` for ``"fft-L"``, which clips the kernel's
    box.  Every binned route decodes its mode here once, before any
    evaluation.  Raises ``OutOfRange`` for any other mode.
    """
    if mode not in PSI_MODES:
        raise OutOfRange(f"unknown binned mode {mode!r}; expected one of {PSI_MODES}")
    return mode == "direct-binned", mode == "fft-L"


def _box_halfwidths(bw, grid, factor, truncated, tau):
    """Half-widths ``L`` of the kernel box ``[-L, L]^d``, in grid steps, as a tuple.

    ``L_k = M_k - 1`` for the full-support modes; the ``truncated`` one
    (``"fft-L"``) sizes the box from ``factor * bw.lambda_max``, the
    largest eigenvalue of ``factor * H``, the widest Gaussian tabulated
    (see :func:`effective_halfwidths`); no other mode reads
    ``lambda_max``.  Raises ``ShapeMismatch`` if ``H = bw`` and the grid
    differ in dimension.
    """
    if bw.d != grid.d:
        raise ShapeMismatch(f"bandwidth is {bw.d}-D but the grid is {grid.d}-D")
    if truncated:
        return _halfwidths(factor * bw.lambda_max, grid.steps, grid.shape, tau)
    return tuple([m - 1 for m in grid.shape])


def _slab_axes(grid, halfwidths):
    """Offsets and shape of the slab ``j_1 >= 0`` of the box ``[-L, L]^d``.

    Every kernel tabulated here is even (a Gaussian's derivatives of
    even order), so only that slab, of shape ``(L_1 + 1, 2 L_2 + 1, ...,
    2 L_d + 1)``, is tabulated: from offsets ``axes[k]`` that broadcast
    along their axis, read-only slices of ``grid.offsets``.  The binned
    sums read the slab alone; :func:`_mirrored` completes the table.
    """
    axes = [off[m - 1 - l:m + l] for off, m, l in zip(grid.offsets, grid.shape, halfwidths)]
    l1 = halfwidths[0]
    axes[0] = axes[0][l1:]
    return axes, (l1 + 1,) + tuple([2 * l + 1 for l in halfwidths[1:]])


def _folded_box(gc, shape):
    """The view of ``gc.folded_autocorrelation`` under a kernel slab of ``shape``.

    The folded table's zero offset sits at index ``(0, M_2 - 1, ...)``,
    and axis ``k > 1`` of the slab spans ``2 L_k + 1`` offsets around it.
    """
    box = [slice(0, shape[0])]
    for m, s in zip(gc.grid.shape[1:], shape[1:]):
        box.append(slice(m - 1 - s // 2, m + s // 2))
    return gc.folded_autocorrelation[tuple(box)]


def _slab(kernel, bw, r, grid, truncated, tau, boxes, counts=None):
    """The slab ``j_1 >= 0`` of ``kernel``'s table at ``H = bw``, and the counts folded under it.

    The one tabulation behind the public tables and every binned pair
    sum.  The box is :func:`_box_halfwidths`'s, for the widest Gaussian
    ``kernel.factor * H``.  Its offsets and shape (:func:`_slab_axes`)
    and, given the binned sample ``counts``, the view of its folded
    autocorrelation under the slab (:func:`_folded_box`; else None)
    depend on the box alone, so they are kept in the dict ``boxes``
    under its half-widths.  An ``"fft-L"`` selection meets tens of boxes
    over hundreds of steps, and reusing them takes about a tenth off a
    step (d = 2, grid 150, 2-CPU x86-64).
    """
    halfwidths = _box_halfwidths(bw, grid, kernel.factor, truncated, tau)
    box = boxes.get(halfwidths)
    if box is None:
        axes, shape = _slab_axes(grid, halfwidths)
        folded = None if counts is None else _folded_box(counts, shape)
        box = boxes[halfwidths] = axes, shape, folded
    axes, shape, folded = box
    return kernel.table(axes, bw, r, out=np.empty(shape)), folded


def _mirrored(half):
    """The full table ``[-L, L]^d`` of an even kernel from its slab ``j_1 >= 0``.

    The slab ``j_1 < 0`` is the slab ``j_1 > 0`` mirrored through the
    origin by negative-step slices, ``k(-j) = k(j)`` exactly.
    """
    l1 = half.shape[0] - 1
    table = np.empty((2 * l1 + 1,) + half.shape[1:])
    table[l1:] = half
    table[:l1] = half[(slice(None, None, -1),) * half.ndim][:l1]
    return table


def _table(kernel, grid, h, r, mode, tau):
    """The full table of ``kernel`` on ``grid``'s offsets: :func:`_slab`, mirrored."""
    bw = as_bandwidth(h)
    truncated = _binned_mode(mode)[1]
    # An overflowing quadratic form gives the kernel's limit, 0.
    with np.errstate(over="ignore"):
        return _mirrored(_slab(kernel, bw, r, grid, truncated, tau, {})[0])


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

    The tabulation is the one every binned evaluation of the objective
    runs (:func:`_slab`, see :class:`_PairScorer`): the half space
    ``j_1 >= 0`` is tabulated by broadcasting per-axis terms (see
    :func:`_cv_axes`, :func:`_slab_axes`), and this table is that slab
    mirrored through the origin (:func:`_mirrored`); the scorer's sums
    read the slab alone.

    Returns
    -------
    ndarray of shape ``(2 L_1 + 1, ..., 2 L_d + 1)``.
    """
    return _table(_CV, grid, h, r, mode, tau)


def eta_kernel_grid(grid, sigma, r, mode="fft-M", tau=DEFAULT_TAU):
    """Tabulate ``eta_r(.; sigma)`` on grid offsets, same layout as above.

    At ``r == 0``, the Gaussian density of ``u^T sigma^-1 u``.  The
    ``"fft-L"`` box is sized from ``sigma`` itself.
    """
    return _table(_ETA, grid, sigma, r, mode, tau)


# ---------------------------------------------------------------------------
# exact pairwise differences
# ---------------------------------------------------------------------------

def _pair_sample(x):
    """``x`` as the ``(n, d)`` float sample of an exact pair sum; a 1-d ``x`` is one point.

    Raises ``ShapeMismatch`` above two dimensions, ``TooFewPoints``
    without a point, and ``OutOfRange`` if a value is NaN or infinite.
    One point is a valid sample: its pair sum is the kernel at 0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim > 2:
        raise ShapeMismatch(f"expected an (n, d) sample, got shape {x.shape}")
    if x.shape[0] == 0:
        raise TooFewPoints("the sample has no points")
    if not np.isfinite(x).all():
        raise OutOfRange("sample contains NaN or infinite values")
    return x


class PairDifferences:
    """Differences ``X_i - X_j`` over the pairs ``i < j`` of one sample.

    The exact route's analogue of ``GridCounts.folded_autocorrelation``:
    the differences do not depend on ``H``, so the table is built on first
    use and cached, and every later evaluation only reads it.  The
    sample is checked as the exact pair sums check a raw one, copied and
    treated as fixed.

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

    Raises
    ------
    ShapeMismatch, TooFewPoints, OutOfRange
        If the sample has more than two dimensions, no point, or a NaN
        or infinite value.
    """

    def __init__(self, x):
        self.x = np.array(_pair_sample(x))
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


# ---------------------------------------------------------------------------
# the pair sums of one prepared sample
# ---------------------------------------------------------------------------

# An even kernel that _PairScorer sums over pairs, as functions of (bw, r):
# factor * H is its widest Gaussian, which sizes the "fft-L" box;
# table(terms, bw, r, out) evaluates it from per-axis terms (as _eta_axes
# does), block_sum(u, bw, r) sums it over a (d, p) block of differences,
# and at_zero(bw, r) is its value at 0, a Python float.
_Kernel = namedtuple("_Kernel", "factor table block_sum at_zero")

# The order-r CV kernel eta_r(.; 2H) - 2 eta_r(.; H) of the LSCV objective.
# At 0 it is eta_r(0; H) (2^{-d/2-r} - 2) in Python floats, by the
# homogeneity of _cv_axes; T_H(0) at r == 0.
_CV = _Kernel(2.0, _cv_axes,
              lambda u, bw, r: _t_sum(u, bw) if r == 0 else np.sum(_cv_axes(u, bw, r)),
              lambda bw, r: _eta_zero(bw, r) * (2.0 ** (-bw.d / 2 - r) - 2.0))
# eta_r(.; Sigma) of the functional Q_r.
_ETA = _Kernel(1.0, _eta_axes, lambda u, bw, r: np.sum(_eta_axes(u, bw, r)), _eta_zero)


class _PairScorer:
    """Pair sums of an even kernel over one prepared sample, as a function of ``H`` alone.

    The one route by which any kernel is summed over pairs: the
    selector's objective and the public wrappers ``lscv_objective``,
    :func:`psi_binned`, :func:`psi_direct`, :func:`q_r_binned` and
    :func:`q_r_exact` each run through one of these.  ``kernel`` is
    ``_CV``, the order-``r`` CV kernel (the default), or ``_ETA``, the
    order-``r`` ``eta_r``.  A scorer is built once per sample: it
    checks ``r``, decodes ``mode`` (:func:`_binned_mode`) and checks the
    data against it, and holds what every evaluation reads.  For
    ``"fft-M"`` and ``"fft-L"`` that is the binned sample with its grid
    and the count autocorrelation folded onto ``j_1 >= 0``, computed
    here; for ``"direct-binned"``, the counts, summed by
    ``convolve_direct``, the FFT-free oracle; for ``"direct-exact"``,
    the sample's ``PairDifferences``, whose table is built here, or a
    raw sample, checked here (:func:`_pair_sample`) and streamed per
    evaluation.  With ``binned``, ``"direct-exact"`` is refused as an
    unknown mode, as the binned wrappers refuse it.

    ``scorer.pair_sum(bw)``, for a ``BandwidthMatrix`` or the
    per-evaluation factors of ``SpdParam.bandwidth``, is
    ``n^-2 sum_i sum_j k(X_i - X_j)``, exact or binned by the mode, and
    with the CV kernel ``scorer(bw)`` is the LSCV objective

        (-1)^r [n^-2 sum_ij (eta_r(X_i - X_j; 2H) - 2 eta_r(X_i - X_j; H))
                + 2 n^-1 eta_r(0; H)]

    Neither checks anything further but the bandwidth's dimension, and
    neither reads the mode string.  Binned evaluations tabulate only the
    kernel's slab ``j_1 >= 0`` (:func:`_slab`), and ``kernel_points``
    counts the entries tabulated; it stays 0 in ``"direct-exact"``.  An
    overflowing quadratic form gives the kernel's limit, 0, so the
    callers evaluate under ``np.errstate(over="ignore")``.

    Raises
    ------
    OutOfRange
        If ``mode`` is unknown, ``r`` is not a functional order, or a
        raw sample has a NaN or infinite value.
    ShapeMismatch
        If ``data`` does not suit ``mode``, or a raw sample has more
        than two dimensions.
    TooFewPoints
        If a raw sample has no point.
    """

    def __init__(self, data, r=0, mode="fft-L", tau=DEFAULT_TAU, kernel=_CV, binned=False):
        if r != 0:
            _functional_order(r)
        self.r, self.tau, self.kernel = r, tau, kernel
        self.kernel_points = 0
        self.exact = mode == "direct-exact" and not binned
        if self.exact:
            if isinstance(data, GridCounts):
                raise ShapeMismatch("direct-exact mode expects the raw sample or PairDifferences")
            if isinstance(data, PairDifferences):
                self.n, self.d = data.n, data.d
                data.blocks  # the pair table, built once, here
            else:
                data = _pair_sample(data)
                self.n, self.d = data.shape
        else:
            self.direct, self.truncated = _binned_mode(mode)
            if not isinstance(data, GridCounts):
                raise ShapeMismatch("binned modes expect GridCounts")
            self.n = data.n
            self._counts = None if self.direct else data
            if not self.direct:
                data.folded_autocorrelation  # folded once, here
            axes = ascii_letters[:data.grid.d]
            self._subscripts = f"{axes},{axes}->"
            self._boxes = {}
        self.data = data

    def pair_sum(self, bw):
        """``n^-2 sum_i sum_j k(X_i - X_j)``, exact or binned by the mode."""
        return self._exact_sum(bw) if self.exact else self._binned_sum(bw)

    def _binned_sum(self, bw):
        """``n^-2 sum_i c_i (c * k)_i`` for the kernel ``k`` from its slab ``j_1 >= 0``.

        ``"direct-binned"`` mirrors the slab into the full table and
        convolves offset by offset.  The FFT modes use the identity
        ``sum_i c_i (c * k)_i = sum_j A(j) k(delta j)`` with the count
        autocorrelation ``A``, restricted to the kernel's box ``B``.  For
        an even ``k`` that sum is ``sum_{j in B, j_1 >= 0} W(j) k(delta
        j)`` with the cached folded table ``W``
        (``GridCounts.folded_autocorrelation``, under the slab): the slab
        alone, read in place by ``np.einsum``, which sums in numpy's own
        loop, so no BLAS call is made and the result does not depend on
        the BLAS thread count.  The terms dropped outside ``B`` are then
        at most ``(2 sum c^2 / n^2) sum_{j not in B, j_1 >= 0} |k(delta
        j)|`` in absolute value, since ``0 <= W <= 2 A(0)`` and
        ``A(0) = sum c^2``.
        """
        gc = self.data
        half, folded = _slab(self.kernel, bw, self.r, gc.grid, self.truncated, self.tau,
                             self._boxes, self._counts)
        self.kernel_points += half.size
        if self.direct:
            pair_sum = np.sum(gc.counts * convolve_direct(gc.counts, _mirrored(half)))
        else:
            pair_sum = np.einsum(self._subscripts, folded, half)
        n = self.n
        return float(pair_sum / (n * n))

    def _exact_sum(self, bw):
        """``n^-2 sum_i sum_j k(X_i - X_j)`` for the kernel ``k``, from the pairs ``i < j``.

        Evaluates ``n^-2 [n k(0) + 2 sum_{i<j} k(X_i - X_j)]``, exact for
        every kernel served here: a centred Gaussian and its even-order
        derivatives are even.  Each ``(d, p)`` block of differences is
        summed by ``kernel.block_sum``: its rows are the per-axis terms
        of :func:`_cv_axes` or :func:`~fastband.gaussian._eta_axes`, and
        the order-0 CV kernel sums as ``K_H(0) (2^{-d/2} sum e - 2 sum
        e^2)``, ``e = exp(-q / 4)`` (see :func:`_t_sum`).  The cached
        table of ``PairDifferences`` is read; a raw sample's blocks are
        streamed and not kept.
        """
        if bw.d != self.d:
            raise ShapeMismatch(f"sample is {self.d}-D but the bandwidth is {bw.d}-D")
        data, kernel, r, n = self.data, self.kernel, self.r, self.n
        blocks = data.blocks if isinstance(data, PairDifferences) else _pair_blocks(data)
        total = sum(float(kernel.block_sum(u, bw, r)) for u in blocks)
        return (n * float(kernel.at_zero(bw, r)) + 2.0 * total) / (n * n)

    def __call__(self, bw):
        pair_part = self.pair_sum(bw)
        at_zero = _eta_zero(bw, self.r)
        sign = -1.0 if self.r % 2 else 1.0
        return sign * (pair_part + 2.0 * at_zero / self.n)


# ---------------------------------------------------------------------------
# public pair sums
# ---------------------------------------------------------------------------

def psi_binned(gc, h, r=0, mode="fft-L", tau=DEFAULT_TAU):
    """Binned double sum of the order-``r`` CV kernel.

    Approximates ``n^-2 sum_i sum_j cv_kernel(X_i - X_j; H)`` by linear
    binning: with counts ``c`` and the tabulated kernel ``k`` (see
    :func:`build_kernel_grid`), returns ``n^-2 sum_i c_i (c * k)_i``.
    A wrapper over the pair sum that every binned evaluation of the
    objective runs (see :class:`_PairScorer`): one tabulation of the
    kernel's slab ``j_1 >= 0`` and one sum: in the FFT modes over that
    slab against the count autocorrelation folded onto it once per
    sample (``gc.folded_autocorrelation``), without BLAS; in
    ``"direct-binned"`` offset by offset over the mirrored table,
    without any transform.  ``"fft-L"`` drops exactly the terms at
    offsets outside its box, a part that :meth:`_PairScorer._binned_sum`
    bounds.

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
    with np.errstate(over="ignore"):
        return _PairScorer(gc, r, mode, tau, binned=True).pair_sum(as_bandwidth(h))


def q_r_binned(gc, sigma, r, mode="fft-L", tau=DEFAULT_TAU):
    """Binned V-statistic ``n^-2 sum_i c_i (c * k)_i`` with ``k = eta_r(.; sigma)``.

    The binned pair sum of :func:`psi_binned` with the kernel ``eta_r``,
    whose ``"fft-L"`` box is sized from ``sigma`` itself (see
    :class:`_PairScorer`).
    """
    with np.errstate(over="ignore"):
        return _PairScorer(gc, r, mode, tau, _ETA, binned=True).pair_sum(as_bandwidth(sigma))


def psi_direct(x, h, r=0):
    """Exact pairwise double sum of the order-``r`` CV kernel.

    Returns ``n^-2 sum_i sum_j cv_kernel(X_i - X_j; H)``, evaluated over
    the ``n (n - 1) / 2`` pairs ``i < j`` (see
    :meth:`_PairScorer._exact_sum`), with the rows of each ``(d, p)``
    block of differences as the per-axis terms of :func:`_cv_axes`.  At
    ``r == 0`` the block sum is ``K_H(0) (2^{-d/2} sum e - 2 sum e^2)``,
    ``e = exp(-q / 4)`` (see :func:`_t_sum`).  A wrapper over the pair
    sum that every ``"direct-exact"`` evaluation of the objective runs
    (see :class:`_PairScorer`).

    Parameters
    ----------
    x : (n, d) array_like or PairDifferences
        Raw sample, whose differences are streamed block by block and
        not kept, or the sample's cached difference table.  A raw sample
        needs at least one point, all finite.
    h : (d, d) array_like or BandwidthMatrix
        Bandwidth matrix.
    r : int, optional
        Functional order (default 0).

    Returns
    -------
    float
    """
    with np.errstate(over="ignore"):
        return _PairScorer(x, r, "direct-exact").pair_sum(as_bandwidth(h))


def q_r_exact(x, sigma, r):
    """Exact pairwise V-statistic of ``eta_r``; ``x`` as in :func:`psi_direct`."""
    with np.errstate(over="ignore"):
        return _PairScorer(x, r, "direct-exact", kernel=_ETA).pair_sum(as_bandwidth(sigma))
