"""Dense linear algebra helpers for bandwidth matrices."""

import math
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


# ---------------------------------------------------------------------------
# free functions
# ---------------------------------------------------------------------------

def _usable_det(det):
    if not math.isfinite(det) or det < _DET_FLOOR:
        raise SingularBandwidth(f"determinant {det} is not usable")
    return det


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


def _factor(m):
    """Cholesky factor of a validated square float matrix, see :func:`cholesky`."""
    # An exactly symmetric m, such as the selector's L L^T, is settled
    # on its Python floats, which costs less than an array comparison at
    # bandwidth sizes; a NaN fails both tests.
    rows = m.tolist()
    exact = all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i + 1))
    if not (exact or np.allclose(m, m.T, rtol=1e-10, atol=1e-12)):
        raise NotPositiveDefinite("matrix is not symmetric")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


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
        If ``m`` is not symmetric positive definite.
    """
    return _factor(_as_square(m))


def largest_eigenvalue(m):
    """Largest eigenvalue of a symmetric matrix."""
    m = _as_square(m)
    return float(np.linalg.eigvalsh(m)[-1])


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

class BandwidthMatrix:
    """A symmetric positive definite bandwidth matrix with cached factors.

    The constructor validates the matrix in one pass (one conversion and
    copy, one symmetry check, then the factorization) and eagerly
    computes what every evaluation reads: the Cholesky factor
    ``np.linalg.cholesky(h)``, its whitening factor
    ``np.linalg.inv(chol.T)`` and the determinant.  ``inv``,
    ``lambda_max`` and ``eig`` are computed on first read and cached:
    only the derivative tensors read ``inv``, only kernels above order 0
    read ``eig``, and only the binned modes' kernel tables read
    ``lambda_max``, so an order-0 exact evaluation computes none.

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
        Lower-triangular Cholesky factor ``L``.
    whiten : (d, d) ndarray
        Upper-triangular ``W = inv(L^T)``, so ``z = x W`` has
        ``|z|^2 = x^T H^-1 x``.
    det : float
        Determinant of ``h``, the squared product of ``diag(L)``.
    inv : (d, d) ndarray
        Inverse of ``h``, ``np.linalg.inv(h)`` (lazy).
    lambda_max : float
        Largest eigenvalue of ``h``, ``eigvalsh(h)[-1]`` (lazy).
    eig : tuple of (d,) and (d, d) ndarray
        Eigenvalues (ascending) and eigenvectors of ``h`` from the SVD of
        ``W``, ``H^-1 = W W^T`` (lazy); ``eigh(h)`` can round a small one to 0.

    Raises
    ------
    NotPositiveDefinite
        If ``h`` is not symmetric positive definite.
    SingularBandwidth
        If the determinant underflows to an unusable magnitude.
    """

    # (source, factor) for a matrix made by ``scaled``, else None.
    _scaled_from = None

    def __init__(self, h):
        self.h = _as_square(np.array(h, dtype=float))
        self.d = self.h.shape[0]
        self.chol = _factor(self.h)
        self.whiten = np.linalg.inv(self.chol.T)
        self.det = _usable_det(_power(math.prod(self.chol.diagonal().tolist()), 2))

    @cached_property
    def inv(self):
        if self._scaled_from is None:
            return np.linalg.inv(self.h)
        source, factor = self._scaled_from
        return source.inv / factor

    @cached_property
    def lambda_max(self):
        if self._scaled_from is None:
            return largest_eigenvalue(self.h)
        source, factor = self._scaled_from
        return factor * source.lambda_max

    @cached_property
    def eig(self):
        if self._scaled_from is None:
            vecs, theta, _ = np.linalg.svd(self.whiten)
            return theta ** -2.0, vecs
        source, factor = self._scaled_from
        lam, vecs = source.eig
        return factor * lam, vecs

    def scaled(self, factor):
        """Return a new BandwidthMatrix equal to ``factor * h``, without refactoring.

        The cached factors are rescaled: ``chol`` by ``sqrt(factor)``,
        ``whiten`` by ``1 / sqrt(factor)`` and ``det`` by ``factor^d``;
        on first read, ``inv`` is this matrix's ``inv / factor``,
        ``lambda_max`` its ``factor * lambda_max`` and ``eig`` its
        eigenvectors with the eigenvalues times ``factor``.  So every
        ``h`` the constructor accepted scales, even where a Cholesky of
        the rounded ``2 h`` would fail.  A factor that is not positive
        raises ``NotPositiveDefinite``.
        """
        factor = float(factor)
        if not factor > 0.0:
            raise NotPositiveDefinite(f"scale factor {factor} is not positive")
        out = object.__new__(BandwidthMatrix)
        out.det = _usable_det(self.det * _power(factor, self.d))
        root = np.sqrt(factor)
        out.h, out.d, out.chol = factor * self.h, self.d, root * self.chol
        out.whiten = self.whiten / root
        out._scaled_from = (self, factor)
        return out

    def __repr__(self):
        return f"BandwidthMatrix(d={self.d}, det={self.det:.6g})"


def as_bandwidth(h):
    """Return ``h`` if it is a BandwidthMatrix, else validate it into one."""
    return h if isinstance(h, BandwidthMatrix) else BandwidthMatrix(h)


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
        """Map a coordinate vector back to an SPD matrix."""
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.n_params:
            raise ShapeMismatch(
                f"expected {self.n_params} coordinates, got {theta.size}"
            )
        if self.diagonal:
            return np.diag(np.exp(theta) ** 2)
        ell = np.zeros((self.d, self.d))
        k = 0
        for i in range(self.d):
            for j in range(i + 1):
                ell[i, j] = np.exp(theta[k]) if i == j else theta[k]
                k += 1
        return ell @ ell.T
