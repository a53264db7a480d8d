"""Tests for Gaussian derivatives and eta functionals."""

import itertools

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from fastband import (
    MAX_FUNCTIONAL_ORDER,
    OutOfRange,
    SelectorConfig,
    ShapeMismatch,
    build_kernel_grid,
    cv_kernel,
    eta_kernel_grid,
    eta_r,
    eta_rs,
    gaussian_derivative_vector,
    linear_binning,
    lscv_objective,
    make_grid,
    mixture_catalog,
    mixture_pdf,
    normal_pdf,
    psi_binned,
    psi_direct,
    q_r_binned,
    q_r_exact,
    select_bandwidth,
    t_h,
)

from .conftest import random_spd


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

# 4th-order central difference stencil for one differentiation.
_STENCIL = ((-2.0, 1.0 / 12.0), (-1.0, -8.0 / 12.0), (1.0, 8.0 / 12.0), (2.0, -1.0 / 12.0))


def fd_derivative_oracle(x, sigma, index, step):
    """Partial derivative of the Gaussian density by nested FD stencils.

    ``index`` is the tuple of differentiation axes.  Each derivative is
    a 4-point stencil, so the full mixed derivative sums over
    ``4^len(index)`` density evaluations done with scipy.
    """
    d = len(x)
    dist = multivariate_normal(mean=np.zeros(d), cov=sigma)
    pts = []
    weights = []
    for combo in itertools.product(_STENCIL, repeat=len(index)):
        shift = np.array(x, dtype=float)
        w = 1.0
        for axis, (offset, coeff) in zip(index, combo):
            shift[axis] += offset * step
            w *= coeff / step
        pts.append(shift)
        weights.append(w)
    vals = dist.pdf(np.array(pts)) if pts else dist.pdf(x)
    return float(np.dot(np.atleast_1d(vals), weights))


def vec_oracle(m):
    """Column stacking by explicit loops."""
    p = m.shape[0]
    return [m[i, j] for j in range(p) for i in range(p)]


def eta_contraction_oracle(x, sigma, r, s, a, b):
    """Brute-force eta: explicit weight vector dotted with the full tensor."""
    g = gaussian_derivative_vector(np.asarray(x)[None, :], sigma, 2 * (r + s))[0]
    w = [1.0]
    factors = [vec_oracle(np.asarray(a, dtype=float))] * r
    if s:
        factors += [vec_oracle(np.asarray(b, dtype=float))] * s
    for f in factors:
        w = [wi * fj for wi in w for fj in f]
    flat = np.asarray(g).reshape(-1)
    return float(sum(gi * wi for gi, wi in zip(flat, w)))


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_normal_pdf_standard_values():
    assert normal_pdf(np.zeros(2), np.eye(2)) == pytest.approx(0.1591549, abs=1e-7)
    assert normal_pdf(np.zeros(1), np.eye(1)) == pytest.approx(0.3989423, abs=1e-7)


def test_normal_pdf_matches_scipy(rng):
    for d in (1, 2, 3):
        sigma = random_spd(rng, d)
        x = rng.standard_normal((40, d))
        ours = normal_pdf(x, sigma)
        ref = multivariate_normal(mean=np.zeros(d), cov=sigma).pdf(x)
        assert np.allclose(ours, ref, rtol=1e-12)


def test_normal_pdf_matches_scipy_at_condition_1e8(rng):
    # Ill-conditioning from axis scales, as with coordinates in unrelated
    # units, leaves the density well determined to rounding.
    scales = np.diag([1.0, 1e-4])
    sigma = scales @ np.array([[1.0, 0.6], [0.6, 1.0]]) @ scales
    assert np.linalg.cond(sigma) > 1e8
    x = rng.multivariate_normal(np.zeros(2), sigma, size=200)
    ref = multivariate_normal(mean=np.zeros(2), cov=sigma).pdf(x)
    assert np.allclose(normal_pdf(x, sigma), ref, rtol=1e-12, atol=0.0)


def test_normal_pdf_rotated_ill_conditioning_within_rounding_bound(rng):
    # A rotated sigma with condition 1e8 is known only to about
    # cond * eps relative in its small eigenvalue, so in any route the
    # determinant carries a relative error of order cond * eps and the
    # quadratic form q one of order cond * eps * q.  Allow ten times the
    # density error that follows.
    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    sigma = rot @ np.diag([1.0, 1e-8]) @ rot.T
    sigma = 0.5 * (sigma + sigma.T)
    cond = np.linalg.cond(sigma)
    x = rng.multivariate_normal(np.zeros(2), sigma, size=200)
    dist = multivariate_normal(mean=np.zeros(2), cov=sigma)
    ref = dist.pdf(x)
    quad = -2.0 * (dist.logpdf(x) - dist.logpdf(np.zeros(2)))
    bound = 10.0 * cond * np.finfo(float).eps * (1.0 + 0.5 * quad)
    assert np.all(np.abs(normal_pdf(x, sigma) / ref - 1.0) <= bound)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivative_order_zero_is_density(rng):
    sigma = random_spd(rng, 2)
    x = rng.standard_normal((10, 2))
    assert np.allclose(
        gaussian_derivative_vector(x, sigma, 0), normal_pdf(x, sigma), rtol=1e-14
    )


def test_derivative_gradient_closed_form(rng):
    sigma = random_spd(rng, 3)
    x = rng.standard_normal((5, 3))
    grad = gaussian_derivative_vector(x, sigma, 1)
    expect = -(x @ np.linalg.inv(sigma)) * normal_pdf(x, sigma)[:, None]
    assert np.allclose(grad, expect, rtol=1e-12)


def test_derivative_tensor_is_symmetric(rng):
    sigma = random_spd(rng, 2)
    x = rng.standard_normal((3, 2))
    g = gaussian_derivative_vector(x, sigma, 3)
    assert np.allclose(g, np.swapaxes(g, 1, 2))
    assert np.allclose(g, np.swapaxes(g, 2, 3))


def test_derivatives_match_finite_differences(rng):
    for d in (1, 2, 3):
        sigma = random_spd(rng, d)
        x = rng.uniform(-1.0, 1.0, size=d)
        for order in (1, 2, 3):
            g = gaussian_derivative_vector(x[None, :], sigma, order)[0]
            for index in itertools.product(range(d), repeat=order):
                ref = fd_derivative_oracle(x, sigma, index, step=0.02)
                val = np.asarray(g)[index] if order else float(g)
                tol = max(1e-8, 1e-5 * abs(ref))
                assert abs(val - ref) <= tol, (d, order, index)


def test_derivative_order_cap():
    with pytest.raises(OutOfRange):
        gaussian_derivative_vector(np.zeros((1, 2)), np.eye(2), 17)
    with pytest.raises(OutOfRange):
        gaussian_derivative_vector(np.zeros((1, 2)), np.eye(2), -1)


# ---------------------------------------------------------------------------
# eta functionals
# ---------------------------------------------------------------------------

def test_eta_r_known_values():
    assert eta_r(np.array([0.0]), np.eye(1), 1) == pytest.approx(-0.3989423, abs=1e-7)
    assert eta_r(np.zeros(2), np.eye(2), 1) == pytest.approx(-0.3183099, abs=1e-7)
    assert eta_r(np.zeros(2), np.eye(2), 0) == pytest.approx(0.1591549, abs=1e-7)


def test_eta_rs_matches_brute_force_contraction(rng):
    cases = [
        (2, 1, 0), (2, 2, 0), (2, 1, 1), (2, 0, 2), (2, 2, 1),
        (3, 1, 0), (3, 1, 1),
    ]
    for d, r, s in cases:
        sigma = random_spd(rng, d)
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        x = rng.uniform(-1.0, 1.0, size=d)
        ours = eta_rs(x, sigma, r, s, a, b)
        ref = eta_contraction_oracle(x, sigma, r, s, a, b)
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12), (d, r, s)


def test_eta_r_equals_eta_rs_with_identity(rng):
    sigma = random_spd(rng, 2)
    x = rng.standard_normal((6, 2))
    assert np.allclose(
        eta_r(x, sigma, 2), eta_rs(x, sigma, 2, 0, np.eye(2)), rtol=1e-13
    )


def test_eta_chunking_is_seamless(rng):
    sigma = random_spd(rng, 2)
    x = rng.standard_normal((500, 2))
    full = eta_rs(x, sigma, 4, 0, np.eye(2))
    rows = np.array([eta_rs(xi, sigma, 4, 0, np.eye(2)) for xi in x])
    assert np.allclose(full, rows, rtol=1e-12)


def _rotated(rng, eigenvalues):
    """``Q diag(eigenvalues) Q^T`` for a random orthogonal ``Q``."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))
    s = q @ np.diag(eigenvalues) @ q.T
    return 0.5 * (s + s.T)


def test_eta_r_hermite_products_match_tensor_engine(rng):
    # eta_r (Hermite products in the eigenbasis) against eta_rs (the
    # derivative tensor contracted with vec(I)).  Each is the density
    # times a polynomial in the whitened point: the normal_pdf bound
    # 10 cond eps (1 + q / 2) for the density, with q the largest
    # quadratic form, and r + 1 for the order, relative to max |eta|.
    eps = np.finfo(float).eps
    for d in (1, 2, 3):
        sigmas = [random_spd(rng, d, scale=rng.uniform(0.05, 2.0)) for _ in range(3)]
        if d > 1:
            sigmas.append(_rotated(rng, np.geomspace(1.0, 1e-8, d)))
        for sigma in sigmas:
            x = np.vstack([np.zeros(d), rng.multivariate_normal(np.zeros(d), sigma, size=100)])
            q = np.max(np.sum(x * np.linalg.solve(sigma, x.T).T, axis=1))
            for r in range(5):
                ref = eta_rs(x, sigma, r, 0, np.eye(d))
                bound = 10.0 * np.linalg.cond(sigma) * eps * (r + 1) * (1.0 + q / 2)
                assert np.max(np.abs(eta_r(x, sigma, r) - ref)) <= bound * np.max(np.abs(ref))


_X = np.random.default_rng(11).standard_normal((40, 2))
_GC = linear_binning(_X, make_grid(_X, (12, 12)))
_H = 0.4 * np.eye(2)

# Every entry point that takes an order.
_ORDER_ENTRIES = {
    "SelectorConfig": lambda r: select_bandwidth(
        _X, SelectorConfig(r=r, grid_size=12, max_iter=10)).h,
    "psi_binned": lambda r: psi_binned(_GC, _H, r),
    "q_r_binned": lambda r: q_r_binned(_GC, _H, r),
    "psi_direct": lambda r: psi_direct(_X, _H, r),
    "q_r_exact": lambda r: q_r_exact(_X, _H, r),
    "lscv_objective": lambda r: lscv_objective(_GC, _H, r),
    "build_kernel_grid": lambda r: build_kernel_grid(_GC.grid, _H, r),
    "eta_kernel_grid": lambda r: eta_kernel_grid(_GC.grid, _H, r),
    "cv_kernel": lambda r: cv_kernel(_X[:5], _H, r),
    "eta_r": lambda r: eta_r(_X[:5], _H, r),
    "eta_rs r": lambda r: eta_rs(_X[:5], _H, r, 0, np.eye(2)),
    "eta_rs s": lambda r: eta_rs(_X[:5], _H, 0, r, np.eye(2), _H),
    "gaussian_derivative_vector": lambda r: gaussian_derivative_vector(_X[:5], _H, r),
}
# The top of each range, MAX_FUNCTIONAL_ORDER but for the derivative engine.
_ORDER_TOPS = {"gaussian_derivative_vector": 2 * MAX_FUNCTIONAL_ORDER}
# One above the top of each entry's range.
_ABOVE = "above"


@pytest.mark.parametrize("r", [-1, _ABOVE, 1.5, True, 0.0, False, np.int64(2)],
                         ids=["-1", str(MAX_FUNCTIONAL_ORDER + 1), "1.5", "True", "0.0", "False",
                              "int64"])
def test_eta_r_order_must_be_an_integer_in_range(r):
    # One rule at every entry: an integer, not a bool, in [0, top].  A
    # numpy integer is one, and gives the bits of the Python int.
    for name, call in _ORDER_ENTRIES.items():
        if isinstance(r, np.int64):
            assert np.array_equal(call(r), call(int(r))), name
            continue
        top = _ORDER_TOPS.get(name, MAX_FUNCTIONAL_ORDER)
        with pytest.raises(OutOfRange):
            call(top + 1 if r is _ABOVE else r)


_POINT_ENTRIES = {
    "normal_pdf": lambda x: normal_pdf(x, _H),
    "eta_r": lambda x: eta_r(x, _H, 1),
    "cv_kernel": lambda x: cv_kernel(x, _H, 1),
    "t_h": lambda x: t_h(x, _H),
    "mixture_pdf": lambda x: mixture_pdf(mixture_catalog("bimodal"), x),
    "eta_rs": lambda x: eta_rs(x, _H, 1, 0, np.eye(2)),
    "gaussian_derivative_vector": lambda x: gaussian_derivative_vector(x, _H, 2),
}


@pytest.mark.parametrize("entry", sorted(_POINT_ENTRIES))
def test_points_are_one_point_or_an_n_by_d_array(entry):
    # A (d,) array is one point, valued as the (1, d) array of it; any
    # other shape is refused, not read as (n, d) rows.
    call = _POINT_ENTRIES[entry]
    assert np.array_equal(np.ravel(call(_X[0])), np.ravel(call(_X[:1])))
    with pytest.raises(ShapeMismatch):
        call(np.zeros((4, 2, 2)))


def test_eta_functional_order_cap():
    with pytest.raises(OutOfRange):
        eta_rs(np.zeros(2), np.eye(2), 5, 4, np.eye(2), np.eye(2))
