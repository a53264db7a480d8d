"""Dense linear algebra helpers for bandwidth matrices."""

import math
import sys
from functools import cached_property

import numpy as np

from .errors import NotPositiveDefinite, ShapeMismatch, SingularBandwidth

__all__ = [
    "cholesky",
    "largest_eigenvalue",
    "vec",
    "kron_power",
    "BandwidthMatrix",
    "as_bandwidth",
    "SpdParam",
]

# Determinants below this threshold are treated as numerically singular.
_DET_FLOOR = 1e-300

# Rounding margin per dimension of the BandwidthMatrix factorization, see
# _factor_rows.
_MARGIN = 8.0 * sys.float_info.epsilon


# ---------------------------------------------------------------------------
# free functions
# ---------------------------------------------------------------------------

def _exp(x):
    """``exp(x)`` of a Python float, ``inf`` where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _power(x, k):
    """``x ** k`` of a Python float, ``inf`` where it overflows."""
    try:
        return x ** k
    except OverflowError:
        return math.inf


def _as_square(m):
    """Validate and return ``m`` as a float square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _symmetric_rows(m):
    """Rows of a validated square float matrix ``m``, as Python floats.

    ``m`` must be symmetric, exactly or to ``allclose(m, m.T, rtol=1e-10,
    atol=1e-12)``, and finite (:func:`_finite_rows`).
    """
    # An exactly symmetric m, such as SpdParam.decode's L L^T, is settled
    # on its Python floats, which costs less than an array comparison at
    # bandwidth sizes; a NaN fails both tests.
    rows = m.tolist()
    if not (rows == m.T.tolist() or np.allclose(m, m.T, rtol=1e-10, atol=1e-12)):
        raise NotPositiveDefinite("matrix is not symmetric")
    return _finite_rows(rows)


def _finite_rows(rows):
    """``rows``, if every entry is finite."""
    if not all(math.isfinite(a) for row in rows for a in row):
        raise NotPositiveDefinite("matrix is not finite")
    return rows


def _factor_rows(rows):
    """Cholesky factor, whitening factor and determinant of a symmetric matrix, in Python floats.

    ``rows`` holds a symmetric ``H`` row by row, of which the lower
    triangle is read.  Returns the rows of the lower-triangular ``L``
    (row ``i`` holds its ``i + 1`` leading entries), the rows of the
    upper-triangular ``W = inv(L^T)`` (by back substitution, column
    ``c`` from ``W_cc = 1 / L_cc`` up) and ``det = prod(diag L)^2``.

    This is the one factorization behind every ``BandwidthMatrix``, and
    it refuses ``H`` with a margin for rounding, so that whatever it
    accepts, LAPACK's Cholesky (the reference in the tests) accepts too,
    on any BLAS: their last bits differ (OpenBLAS scales a column by
    ``1 / L_jj`` where this divides, and refuses some ``H`` whose pivot
    is positive in correctly rounded division).  Each factorization is
    exact for ``H`` perturbed by about ``d eps sqrt(H_ii H_jj)`` in entry
    ``(i, j)``, so the two agree where that is small against
    ``lambda_min`` of the correlation form ``C = D^-1/2 H D^-1/2``,
    ``D = diag(H)``.  ``s = |D^1/2 W|_F^2`` bounds ``1 / lambda_min(C)``
    from above; ``H`` is accepted only if the margin ``m = 8 d eps s`` is
    below 1 and ``det (1 - m)`` clears ``_DET_FLOOR``.  Over 3e5
    ill-conditioned random ``H`` at d = 2 and 3, LAPACK failed only where
    ``eps s >= 1.6``, and the two determinants differed by at most
    ``12 eps s`` relative.  Two simpler tests let through matrices that
    LAPACK refuses: pivots above ``8 d eps H_jj`` (at d = 3 the error of
    an early small pivot carries into later rows; LAPACK failed where
    the smallest pivot was 1e-8 of its diagonal entry), and
    ``det >= _DET_FLOOR (1 + 8 d eps)`` (a fragile-mixture ``H`` whose
    small pivot lost most of its digits to cancellation has determinant
    1.06e-300 here and 9.97e-301 from LAPACK).

    Raises
    ------
    NotPositiveDefinite
        If a pivot is not positive (NaN included) or ``m >= 1``.
    SingularBandwidth
        If ``det`` is not finite or ``det (1 - m) < _DET_FLOOR``.
    """
    d = len(rows)
    chol = []
    for j, row in enumerate(rows):
        lj = []
        for k, lk in enumerate(chol):
            s = row[k]
            for i in range(k):
                s -= lj[i] * lk[i]
            lj.append(s / lk[k])
        pivot = row[j]
        for a in lj:
            pivot -= a * a
        if not pivot > 0.0:
            raise NotPositiveDefinite(f"pivot {pivot} of row {j} is not positive")
        lj.append(math.sqrt(pivot))
        chol.append(lj)
    w = [[0.0] * d for _ in range(d)]
    for c in range(d):
        w[c][c] = 1.0 / chol[c][c]
        for i in range(c - 1, -1, -1):
            s = 0.0
            for k in range(i + 1, c + 1):
                s -= chol[k][i] * w[k][c]
            w[i][c] = s / chol[i][i]
    spread = 0.0
    for i, wi in enumerate(w):
        root = math.sqrt(rows[i][i])
        for a in wi[i:]:
            a *= root
            spread += a * a
    margin = _MARGIN * d * spread
    if not margin < 1.0:
        raise NotPositiveDefinite(f"too close to singular: margin {margin} is not below 1")
    det = _power(math.prod([lj[-1] for lj in chol]), 2)
    if not (math.isfinite(det) and det * (1.0 - margin) >= _DET_FLOOR):
        raise SingularBandwidth(f"determinant {det} is not usable")
    return chol, w, det


def cholesky(m):
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    Parameters
    ----------
    m : (d, d) array_like
        Symmetric matrix to factor.

    Returns
    -------
    (d, d) ndarray
        Lower-triangular ``L`` with ``L @ L.T == m``.

    Raises
    ------
    NotPositiveDefinite
        If ``m`` is not finite and symmetric positive definite.
    """
    m = _as_square(m)
    _symmetric_rows(m)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def largest_eigenvalue(m):
    """Largest eigenvalue of a symmetric matrix, read from its lower triangle.

    At d <= 2 it is computed in Python floats with no LAPACK call:
    ``m_00`` at d = 1, and ``(a + c) / 2 + hypot((a - c) / 2, b)`` with
    ``a, b, c = m_00, m_10, m_11`` at d = 2, where for a positive
    semidefinite ``m`` both terms are non-negative, so nothing cancels
    (within a few eps of ``eigvalsh``).  Above d = 2, ``eigvalsh(m)[-1]``.
    """
    return _largest_eigenvalue_rows(_as_square(m).tolist())


def _largest_eigenvalue_rows(rows):
    """:func:`largest_eigenvalue` of a matrix given as rows of Python floats."""
    if len(rows) > 2:
        return float(np.linalg.eigvalsh(np.array(rows))[-1])
    if len(rows) == 1:
        return rows[0][0]
    (a, _), (b, c) = rows
    return (a + c) / 2 + math.hypot((a - c) / 2, b)


def vec(m):
    """Stack the columns of a matrix into one vector (column-major)."""
    m = _as_square(m)
    return np.ravel(m, order="F")


def kron_power(v, r):
    """r-fold Kronecker power of a vector; ``r == 0`` gives ``[1.0]``."""
    v = np.asarray(v, dtype=float).ravel()
    out = np.array([1.0])
    for _ in range(int(r)):
        out = np.kron(out, v)
    return out


# ---------------------------------------------------------------------------
# bandwidth matrix wrapper
# ---------------------------------------------------------------------------

class _Factors:
    """A bandwidth matrix given as rows of Python floats, with cached factors.

    Everything a ``BandwidthMatrix`` holds, from one :func:`_factor_rows`
    of ``rows``: the rows of the whitening factor ``W = inv(L^T)`` and the
    determinant are computed here; ``h``, ``chol``, ``whiten``, ``inv``,
    ``lambda_max`` and ``eig`` on first read.  The rows must already be
    symmetric and finite.  ``BandwidthMatrix`` is the validating
    constructor from an array; :meth:`SpdParam.bandwidth`, the
    selector's per-step decode, builds one of these straight from the
    rows of ``L L^T``, which are symmetric by construction, with no array
    made.

    Raises
    ------
    NotPositiveDefinite, SingularBandwidth
        As :func:`_factor_rows`.
    """

    def __init__(self, rows):
        self.rows = rows
        self.d = len(rows)
        self._chol_rows, self.whiten_rows, self.det = _factor_rows(rows)

    @cached_property
    def h(self):
        return np.array(self.rows)

    @cached_property
    def chol(self):
        return np.array([row + [0.0] * (self.d - len(row)) for row in self._chol_rows])

    @cached_property
    def whiten(self):
        return np.array(self.whiten_rows)

    @cached_property
    def inv(self):
        return np.linalg.inv(self.h)

    @cached_property
    def lambda_max(self):
        return _largest_eigenvalue_rows(self.rows)

    @cached_property
    def eig(self):
        vecs, theta, _ = np.linalg.svd(self.whiten)
        return theta ** -2.0, vecs

    def __repr__(self):
        return f"BandwidthMatrix(d={self.d}, det={self.det:.6g})"


class BandwidthMatrix(_Factors):
    """A symmetric positive definite bandwidth matrix with cached factors.

    The constructor validates the matrix in one pass (one conversion and
    copy, one symmetry and finiteness check) and factors it in Python
    floats with no LAPACK call (:func:`_factor_rows`), computing what
    every evaluation reads: the rows of the whitening factor
    ``W = inv(L^T)`` of the Cholesky factor ``L`` and the determinant.
    ``chol`` and ``whiten`` become arrays on first read; ``inv``,
    ``lambda_max`` and ``eig`` are computed on first read and cached:
    only the derivative tensors read ``inv``, only kernels above order 0
    read ``eig``, and only the ``fft-L`` kernel tables read
    ``lambda_max``, so an order-0 exact evaluation computes none.  The
    factors agree with LAPACK's ``cholesky(h)`` and ``inv(L^T)`` to
    rounding, and a rounding margin keeps every accepted ``h`` one that
    LAPACK accepts too.  :meth:`SpdParam.bandwidth` runs the same
    finiteness check and the same factorization on the rows of a decoded
    ``h``, which are symmetric by construction, so it accepts the same
    ``h`` with the same bits and the same exception types; every
    function that takes a ``BandwidthMatrix`` takes its result too
    (:func:`as_bandwidth`).  No matrix is made for a multiple of ``h``:
    the kernels of ``2H`` follow from this one's factors by Gaussian
    homogeneity (see :func:`~fastband.functionals._cv_axes`).

    Parameters
    ----------
    h : (d, d) array_like
        Symmetric positive definite matrix.

    Attributes
    ----------
    h : (d, d) ndarray
        The matrix itself (a defensive copy).
    d : int
        Dimension.
    chol : (d, d) ndarray
        Lower-triangular Cholesky factor ``L`` (lazy).
    whiten : (d, d) ndarray
        Upper-triangular ``W = inv(L^T)``, so ``z = x W`` has
        ``|z|^2 = x^T H^-1 x`` (lazy; the kernels read its rows,
        ``whiten_rows``).
    det : float
        Determinant of ``h``, the squared product of ``diag(L)``.
    inv : (d, d) ndarray
        Inverse of ``h``, ``np.linalg.inv(h)`` (lazy).
    lambda_max : float
        Largest eigenvalue of ``h``, :func:`largest_eigenvalue` (lazy):
        in Python floats at d <= 2, ``eigvalsh(h)[-1]`` above.
    eig : tuple of (d,) and (d, d) ndarray
        Eigenvalues (ascending) and eigenvectors of ``h`` from the SVD of
        ``W``, ``H^-1 = W W^T`` (lazy); ``eigh(h)`` can round a small one to 0.

    Raises
    ------
    NotPositiveDefinite
        If ``h`` is not symmetric, not finite, or not positive definite
        by the rounding margin of :func:`_factor_rows`.
    SingularBandwidth
        If the determinant, less that margin, is not usable.
    """

    def __init__(self, h):
        self.h = _as_square(np.array(h, dtype=float))
        super().__init__(_symmetric_rows(self.h))


def as_bandwidth(h):
    """Return ``h`` if it is a BandwidthMatrix or ``SpdParam.bandwidth``'s factors, else validate it into one."""
    return h if isinstance(h, _Factors) else BandwidthMatrix(h)


# ---------------------------------------------------------------------------
# smooth parametrization of the SPD cone
# ---------------------------------------------------------------------------

class SpdParam:
    """Log-Cholesky coordinates for symmetric positive definite matrices.

    A full d-by-d SPD matrix is represented by the ``d * (d + 1) / 2``
    entries of its lower-triangular Cholesky factor, read row by row,
    with the diagonal entries stored on log scale.  Every real vector
    decodes to a valid SPD matrix, which makes the coordinates safe for
    unconstrained optimization.  With ``diagonal=True`` only the ``d``
    log-diagonal entries are kept and decoded matrices are diagonal.

    Parameters
    ----------
    d : int
        Matrix dimension.
    diagonal : bool, optional
        Restrict to diagonal matrices (default False).
    """

    def __init__(self, d, diagonal=False):
        self.d = int(d)
        self.diagonal = bool(diagonal)

    @property
    def n_params(self):
        """Length of the coordinate vector."""
        return self.d if self.diagonal else self.d * (self.d + 1) // 2

    def encode(self, h):
        """Map an SPD matrix to its coordinate vector."""
        bw = as_bandwidth(h)
        if bw.d != self.d:
            raise ShapeMismatch(f"expected dimension {self.d}, got {bw.d}")
        ell = bw.chol
        if self.diagonal:
            return np.log(np.diag(ell))
        theta = np.empty(self.n_params)
        k = 0
        for i in range(self.d):
            for j in range(i + 1):
                theta[k] = np.log(ell[i, i]) if i == j else ell[i, j]
                k += 1
        return theta

    def decode(self, theta):
        """Map a coordinate vector back to an SPD matrix.

        ``H`` is the lower triangle of ``L L^T`` in Python floats,
        mirrored, so it is exactly symmetric.  An exponential that
        overflows is ``inf``, so a coordinate too large for a float gives
        a non-finite ``H``, not an exception.
        """
        return np.array(self._rows(theta))

    def bandwidth(self, theta):
        """The bandwidth ``decode(theta)``, factored from its rows with no array made.

        The selector's decode at every step.  ``_rows`` mirrors every
        entry, so the rows are exactly symmetric and the constructor's
        symmetry test could only fail on a NaN, which the finiteness test
        refuses with the same type.  The rows then go through the
        constructor's :func:`_factor_rows`, so this accepts and rejects
        exactly the ``h`` that ``BandwidthMatrix(decode(theta))`` does,
        with the same bits and the same exception types, and the result
        has every attribute of that ``BandwidthMatrix`` (``h`` on first
        read).  ``chol`` is the Cholesky factor of the rounded ``h``, not
        the ``L`` that ``theta`` holds.

        Raises
        ------
        NotPositiveDefinite
            If ``h`` is within the rounding margin of singular, or is not
            finite (an overflowing, NaN or infinite coordinate).
        SingularBandwidth
            If the determinant, less that margin, is not usable.
        """
        return _Factors(_finite_rows(self._rows(theta)))

    def _rows(self, theta):
        """``H = L L^T`` of ``theta`` as rows of Python floats, see :meth:`decode`."""
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.n_params:
            raise ShapeMismatch(
                f"expected {self.n_params} coordinates, got {theta.size}"
            )
        coords = theta.tolist()
        d = self.d
        if self.diagonal:
            h = [[0.0] * d for _ in range(d)]
            for i, t in enumerate(coords):
                e = _exp(t)
                h[i][i] = e * e
            return h
        # Row i of L holds its i + 1 leading entries, the diagonal one last.
        ell, k = [], 0
        for i in range(d):
            row = coords[k:k + i + 1]
            row[i] = _exp(row[i])
            ell.append(row)
            k += i + 1
        h = [[0.0] * d for _ in range(d)]
        for i, li in enumerate(ell):
            hi = h[i]
            for j in range(i + 1):
                lj = ell[j]
                s = li[0] * lj[0]
                for k in range(1, j + 1):
                    s += li[k] * lj[k]
                hi[j] = h[j][i] = s
        return h
