"""Gaussian densities, their higher derivatives, and eta functionals."""

import math
from itertools import product
from numbers import Integral

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

# Highest functional order r + s accepted by eta_rs, and r by eta_r.
# The derivative engine itself is capped at twice this value.
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


def _whitened_sq_axes(terms, bw, out=None):
    """Quadratic form ``u^T H^-1 u = |L^-1 u|^2`` from per-axis terms ``terms[k] = u_k``.

    Whitening by ``L^-1`` (``L = bw.chol``) rather than multiplying by
    ``H^-1`` keeps the accuracy of a triangular solve when ``H`` is
    ill-conditioned.  With ``W = inv(L^T)``, read from its rows
    ``bw.whiten_rows`` (Python floats),
    ``z_m = sum_k terms[k] W[k, m]`` and the result is ``sum_m z_m^2``.
    ``W`` is upper triangular, so ``z_m`` only sums ``k <= m``.  The
    terms may be any arrays that broadcast together: the columns of
    ``(n, d)`` points, the rows of a ``(d, p)`` block of difference
    vectors, or 1-D offsets laid along grid axes (``z_0`` then stays
    1-D).  Negating every term negates every ``z_m`` exactly, so
    ``q(-u) == q(u)`` bitwise.  ``out``, shaped as the broadcast
    result, receives the last ``z_m`` and then the sum, in place, with
    the same bits.
    """
    w = bw.whiten_rows
    q = None
    for m in range(bw.d):
        into = out if m == bw.d - 1 else None
        if m == 0:
            z = np.multiply(terms[0], w[0][0], out=into)
        else:
            z = terms[0] * w[0][m]
            for k in range(1, m):
                z = z + terms[k] * w[k][m]
            z = np.add(z, terms[m] * w[m][m], out=into)
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
    return eta_r(x, sigma, 0)


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
    g_prev = _eta_axes(x.T, bw, 0)
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


def _functional_order(r):
    """``r`` as an int, if it is an integer (not a bool) in ``[0, MAX_FUNCTIONAL_ORDER]``."""
    if isinstance(r, bool) or not isinstance(r, Integral) or not 0 <= r <= MAX_FUNCTIONAL_ORDER:
        raise OutOfRange(f"functional order {r!r} is not an integer in [0, {MAX_FUNCTIONAL_ORDER}]")
    return int(r)


def _hermite_sum(zs, lam, r):
    """``r! sum_{|a| = r} prod_m lam_m^{-a_m} He_{2 a_m}(z_m) / a_m!``, see :func:`_eta_axes`."""
    factors = []
    for z, l in zip(zs, lam):
        # factor[a] = l^-a He_2a(z) / a!, from He_{n+1} = z He_n - n He_{n-1}.
        factor, prev, he = [None], 1.0, z
        for n in range(1, 2 * r):
            prev, he = he, z * he - n * prev
            if n % 2:
                factor.append(he / (l ** len(factor) * math.factorial(len(factor))))
        factors.append(factor)
    return math.factorial(r) * sum(math.prod(f[a] for f, a in zip(factors, alpha) if a)
                                   for alpha in product(range(r + 1), repeat=len(factors))
                                   if sum(alpha) == r)


def _eta_axes(terms, bw, r, out=None):
    """``eta_r(u; H) = Delta^r phi_H(u)`` from per-axis terms, as in :func:`_whitened_sq_axes`.

    The Laplacian is invariant under rotation, so in the eigenbasis
    ``H = Q diag(lam) Q^T`` (``bw.eig``), with
    ``z_m = sum_k terms[k] Q[k, m] / sqrt(lam_m)``, the density is a
    product of 1-D Gaussians and

        Delta^r phi_H = phi_H r! sum_{|a| = r} prod_m lam_m^{-a_m} He_{2 a_m}(z_m) / a_m!

    with ``He`` the probabilists' Hermite polynomials: ``C(r + d - 1,
    d - 1)`` products instead of the ``d^(2r)`` tensor of :func:`eta_rs`
    (the identity-weight case of Chacon & Duong 2015).  At ``r == 0``
    this is the density of :func:`_whitened_sq_axes`, with no
    eigendecomposition.  ``out``, shaped as the result, receives it.
    ``r`` must be an integer in ``[0, MAX_FUNCTIONAL_ORDER]``.
    """
    r = _functional_order(r)
    # An overflowing quadratic form gives the density's limit, 0.
    with np.errstate(over="ignore"):
        if r == 0:
            return _density_of_q(_whitened_sq_axes(terms, bw, out=out), bw)
        lam, vecs = bw.eig
        w = vecs / np.sqrt(lam)
        zs = [sum(terms[k] * w[k, m] for k in range(bw.d)) for m in range(bw.d)]
        q = sum(z * z for z in zs)
        return np.multiply(_density_of_q(q, bw), _hermite_sum(zs, lam, r), out=out)


def _eta_zero(bw, r):
    """``eta_r(0; H)`` of :func:`_eta_axes` in Python floats, ``K_H(0)`` at ``r == 0``.

    The objective adds it per evaluation, where :func:`eta_r` costs 20 times as long.
    """
    if r == 0:
        return _peak(bw)
    return _peak(bw) * _hermite_sum([0.0] * bw.d, bw.eig[0].tolist(), _functional_order(r))


def eta_r(x, sigma, r):
    """Iterated-Laplacian functional ``Delta^r phi_sigma(x)``, ``eta_rs`` with identity weights.

    From Hermite products, see :func:`_eta_axes`.  An ``(n,)`` array, or
    a float for a single point.
    """
    bw = as_bandwidth(sigma)
    x, single = _as_points(x, bw.d)
    val = _eta_axes(x.T, bw, r)
    return float(val[0]) if single else val
