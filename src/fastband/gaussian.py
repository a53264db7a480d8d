"""Gaussian densities, their higher derivatives, and eta functionals."""

import math

import numpy as np

from .errors import OutOfRange, ShapeMismatch
from .linalg import as_bandwidth, kron_power, vec

__all__ = [
    "MAX_FUNCTIONAL_ORDER",
    "normal_pdf",
    "gaussian_derivative_vector",
    "eta_rs",
    "eta_r",
]

# Highest functional order r + s accepted by eta_rs.  The derivative
# engine itself is capped at twice this value.
MAX_FUNCTIONAL_ORDER = 8

# Rough cap on tensor entries held at once when chunking eta evaluations.
_CHUNK_BUDGET = 1 << 22


def _as_points(x, d=None):
    """Return ``x`` as an (n, d) float array, remembering if it was 1-d."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if d is not None and x.shape[1] != d:
        raise ShapeMismatch(f"points have dimension {x.shape[1]}, expected {d}")
    return x, single


def _whitened_sq(x, bw):
    """Quadratic form ``x^T H^-1 x = |L^-1 x|^2`` per row, ``L = bw.chol``.

    Whitening by ``L^-1`` (``bw.whiten = inv(L^T)``) rather than
    multiplying by ``H^-1`` keeps the accuracy of a triangular solve
    when ``H`` is ill-conditioned.
    """
    z = x @ bw.whiten
    return np.einsum("ij,ij->i", z, z)


def _whitened_sq_axes(terms, bw, out=None):
    """Quadratic form ``u^T H^-1 u`` from per-axis terms ``terms[k] = u_k``.

    The whitening of :func:`_whitened_sq`, one coordinate at a time:
    with ``W = bw.whiten``, ``z_m = sum_k terms[k] W[k, m]`` and the
    result is ``sum_m z_m^2``.  ``W`` is upper triangular, so ``z_m``
    only sums ``k <= m``.  The terms may be any arrays that broadcast
    together, such as the rows of a ``(d, p)`` block of difference
    vectors or 1-D offsets laid along grid axes (``z_0`` then stays
    1-D).  Negating every term negates every ``z_m`` exactly, so
    ``q(-u) == q(u)`` bitwise.  ``out``, shaped as the broadcast
    result, receives the last ``z_m`` and then the sum, in place, with
    the same bits.
    """
    w = bw.whiten
    q = None
    for m in range(bw.d):
        into = out if m == bw.d - 1 else None
        if m == 0:
            z = np.multiply(terms[0], w[0, 0], out=into)
        else:
            z = terms[0] * w[0, m]
            for k in range(1, m):
                z = z + terms[k] * w[k, m]
            z = np.add(z, terms[m] * w[m, m], out=into)
        # z is a new array or out, and its shape spans every axis q spans.
        z *= z
        q = z if q is None else np.add(q, z, out=z)
    return q


def _peak(bw):
    """Gaussian density at the origin, ``(2 pi)^{-d/2} det(H)^{-1/2}``."""
    return 1.0 / ((2.0 * math.pi) ** (bw.d / 2) * math.sqrt(bw.det))


def _density_of_q(q, bw):
    """Gaussian density ``K_H(0) exp(-q / 2)`` from the array ``q``, in place.

    ``q`` is the quadratic form; it is overwritten and returned.
    """
    q *= -0.5
    np.exp(q, out=q)
    q *= _peak(bw)
    return q


# ---------------------------------------------------------------------------
# density and derivatives
# ---------------------------------------------------------------------------

def normal_pdf(x, sigma):
    """Zero-mean Gaussian density with covariance ``sigma`` at points ``x``.

    Parameters
    ----------
    x : (n, d) or (d,) array_like
        Evaluation points.
    sigma : (d, d) array_like or BandwidthMatrix
        Covariance matrix.

    Returns
    -------
    (n,) ndarray, or float for a single point.
    """
    bw = as_bandwidth(sigma)
    x, single = _as_points(x, bw.d)
    # A near-singular covariance sends the quadratic form to inf; the
    # density limit is 0 there, so the overflow is benign.
    with np.errstate(over="ignore"):
        val = _density_of_q(_whitened_sq(x, bw), bw)
    return float(val[0]) if single else val


def gaussian_derivative_vector(x, sigma, order):
    """All order-``order`` partial derivatives of the zero-mean Gaussian.

    Derivatives are taken of the density itself, so the order-0 result
    is the density and the order-1 result is its gradient.  The tensor
    is symmetric in its derivative indices.  Computed by the two-term
    recursion

        g_m[i, J] = -u_i g_{m-1}[J] - sum_p (S^-1)_{i, j_p} g_{m-2}[J \\ j_p]

    with ``u = S^-1 x``, which follows from differentiating the order
    ``m - 1`` tensor once more.

    Parameters
    ----------
    x : (n, d) array_like
        Evaluation points.
    sigma : (d, d) array_like or BandwidthMatrix
        Covariance matrix.
    order : int
        Derivative order, between 0 and ``2 * MAX_FUNCTIONAL_ORDER``.

    Returns
    -------
    ndarray of shape (n,) + (d,) * order
    """
    order = int(order)
    if not 0 <= order <= 2 * MAX_FUNCTIONAL_ORDER:
        raise OutOfRange(f"derivative order {order} outside [0, {2 * MAX_FUNCTIONAL_ORDER}]")
    bw = as_bandwidth(sigma)
    x, _ = _as_points(x, bw.d)
    n, d = x.shape

    u = x @ bw.inv
    g_prev2 = None
    with np.errstate(over="ignore"):
        g_prev = _density_of_q(_whitened_sq(x, bw), bw)
    if order == 0:
        return g_prev

    g = -u * g_prev[:, None]
    for m in range(2, order + 1):
        g_prev2, g_prev = g_prev, g
        g = -u.reshape((n, d) + (1,) * (m - 1)) * g_prev[:, None, ...]
        for p in range(1, m):
            s_shape = [1] * (m + 1)
            s_shape[1] = d
            s_shape[p + 1] = d
            sinv = bw.inv.reshape(s_shape)
            g = g - sinv * np.expand_dims(np.expand_dims(g_prev2, 1), p + 1)
    return g


# ---------------------------------------------------------------------------
# eta functionals
# ---------------------------------------------------------------------------

def eta_rs(x, sigma, r, s, a, b=None):
    """Contraction of Gaussian derivatives against Kronecker weight vectors.

    Evaluates ``w . D^(2r+2s) phi_sigma(x)`` where the weight vector is
    ``kron_power(vec(a), r)`` Kronecker-multiplied with
    ``kron_power(vec(b), s)``.  Because the derivative tensor is fully
    symmetric the index ordering inside the weight vector is immaterial.

    Parameters
    ----------
    x : (n, d) or (d,) array_like
        Evaluation points.
    sigma : (d, d) array_like or BandwidthMatrix
        Covariance of the underlying Gaussian.
    r, s : int
        Weight multiplicities, with ``r + s <= MAX_FUNCTIONAL_ORDER``.
    a : (d, d) array_like
        Matrix whose vectorization is repeated ``r`` times.
    b : (d, d) array_like, optional
        Matrix repeated ``s`` times; required when ``s > 0``.

    Returns
    -------
    (n,) ndarray, or float for a single point.
    """
    r, s = int(r), int(s)
    if r < 0 or s < 0 or r + s > MAX_FUNCTIONAL_ORDER:
        raise OutOfRange(f"functional order r + s = {r + s} outside [0, {MAX_FUNCTIONAL_ORDER}]")
    if s > 0 and b is None:
        raise ShapeMismatch("b is required when s > 0")
    bw = as_bandwidth(sigma)
    x, single = _as_points(x, bw.d)
    n, d = x.shape
    order = 2 * (r + s)

    w = kron_power(vec(np.asarray(a, dtype=float)), r)
    if s > 0:
        w = np.kron(w, kron_power(vec(np.asarray(b, dtype=float)), s))

    chunk = max(1, int(_CHUNK_BUDGET // max(1, d**order)))
    out = np.empty(n)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        g = gaussian_derivative_vector(x[start:stop], bw, order)
        out[start:stop] = g.reshape(stop - start, -1) @ w
    return float(out[0]) if single else out


def eta_r(x, sigma, r):
    """Iterated-Laplacian functional, ``eta_rs`` with identity weights."""
    bw = as_bandwidth(sigma)
    return eta_rs(x, bw, r, 0, np.eye(bw.d))
