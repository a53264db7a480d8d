"""Tests for dense linear algebra helpers and the SPD parametrization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastband import (
    BandwidthMatrix,
    NotPositiveDefinite,
    ShapeMismatch,
    SingularBandwidth,
    SpdParam,
    as_bandwidth,
    cholesky,
    kron_power,
    largest_eigenvalue,
    vec,
)

from .conftest import random_spd


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def eig2x2_oracle(m):
    """Largest eigenvalue of a symmetric 2x2 from the characteristic polynomial."""
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    half_trace = 0.5 * (a + c)
    disc = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return half_trace + disc


def power_iteration_oracle(m, iters=5000):
    """Largest eigenvalue by plain power iteration (SPD input)."""
    v = np.ones(m.shape[0])
    for _ in range(iters):
        w = m @ v
        v = w / np.linalg.norm(w)
    return float(v @ m @ v)


def kron_oracle(a, b):
    """Kronecker product via explicit loops."""
    out = np.empty(len(a) * len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i * len(b) + j] = ai * bj
    return out


# ---------------------------------------------------------------------------
# cholesky
# ---------------------------------------------------------------------------

def test_cholesky_reconstructs_and_is_lower(rng):
    for d in (1, 2, 3, 5):
        m = random_spd(rng, d)
        ell = cholesky(m)
        assert np.allclose(ell @ ell.T, m, rtol=1e-12, atol=1e-12)
        assert np.allclose(ell, np.tril(ell))
        assert np.all(np.diag(ell) > 0)


def test_cholesky_rejects_non_spd():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ShapeMismatch):
        cholesky(np.ones((2, 3)))


def _symmetry_edge_matrices():
    """Matrices at the edges of ``allclose(m, m.T, rtol=1e-10, atol=1e-12)``."""
    inf, nan = np.inf, np.nan
    tol = 1e-12 + 1e-10 * 3.0
    pairs = [
        (0.5, 0.5), (0.0, -0.0), (3.0, 3.0 + 0.99 * tol), (3.0, 3.0 + 1.01 * tol),
        (3.0 + 0.99 * tol, 3.0), (3.0 + 1.01 * tol, 3.0), (0.0, 0.99e-12),
        (0.0, 1.01e-12), (1e300, 1e300 * (1 + 1e-11)), (1e300, 1e300 * (1 + 1e-9)),
        (-1e-320, 1e-320), (inf, inf), (-inf, -inf), (inf, -inf), (-inf, inf),
        (inf, 1.0), (1.0, inf), (inf, 1e308), (nan, nan), (nan, 1.0), (1.0, nan),
        (nan, inf),
    ]
    out = []
    for a, b in pairs:
        out.append(np.array([[2.0, a], [b, 2.0]]))
        out.append(np.array([[a, 0.5, 0.0], [0.5, 1.0, b], [0.0, a, 1.0]]))
    for diag in (inf, -inf, nan, -0.0):
        out.append(np.array([[diag, 0.5], [0.5, 1.0]]))
    return out


def test_cholesky_symmetry_verdict_matches_allclose():
    rng = np.random.default_rng(5)
    mats = _symmetry_edge_matrices()
    for _ in range(200):
        m = random_spd(rng, 3)
        i, j = rng.choice(3, size=2, replace=False)
        m[i, j] += rng.choice([0.0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9]) * rng.choice([-1, 1])
        mats.append(m)
    for m in mats:
        symmetric = np.allclose(m, m.T, rtol=1e-10, atol=1e-12)
        try:
            cholesky(m)
            rejected = False
        except NotPositiveDefinite as exc:
            rejected = str(exc) == "matrix is not symmetric"
        assert rejected == (not symmetric), m


# ---------------------------------------------------------------------------
# largest eigenvalue
# ---------------------------------------------------------------------------

def test_largest_eigenvalue_matches_characteristic_polynomial(rng):
    for _ in range(25):
        m = random_spd(rng, 2, scale=rng.uniform(0.1, 50.0))
        lam = largest_eigenvalue(m)
        assert lam == pytest.approx(eig2x2_oracle(m), rel=1e-12)


def test_largest_eigenvalue_matches_power_iteration(rng):
    for d in (3, 4):
        m = random_spd(rng, d)
        lam = largest_eigenvalue(m)
        assert lam == pytest.approx(power_iteration_oracle(m), rel=1e-10)


def test_largest_eigenvalue_annihilates_determinant(rng):
    for _ in range(10):
        m = random_spd(rng, 3)
        lam = largest_eigenvalue(m)
        shifted = m - lam * np.eye(3)
        assert abs(np.linalg.det(shifted)) <= 1e-8 * max(1.0, abs(np.linalg.det(m)))


def test_known_matrix_eigenvalue():
    h_a = np.array([[452.34, -93.96], [-93.96, 26.66]])
    assert largest_eigenvalue(h_a) == pytest.approx(eig2x2_oracle(h_a), rel=1e-14)


# ---------------------------------------------------------------------------
# vec and kron_power
# ---------------------------------------------------------------------------

def test_vec_stacks_columns():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = vec(m)
    assert v.tolist() == [1.0, 3.0, 2.0, 4.0]
    p = m.shape[0]
    for i in range(p):
        for j in range(p):
            assert v[i + p * j] == m[i, j]


def test_kron_power_base_cases():
    v = np.array([1.0, 2.0])
    assert kron_power(v, 0).tolist() == [1.0]
    assert kron_power(v, 1).tolist() == [1.0, 2.0]
    assert kron_power(v, 2).tolist() == [1.0, 2.0, 2.0, 4.0]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=4),
)
def test_kron_power_recursion(values, r):
    v = np.array(values)
    expected = kron_oracle(kron_power(v, r - 1), v)
    assert np.allclose(kron_power(v, r), expected, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# BandwidthMatrix
# ---------------------------------------------------------------------------

def test_bandwidth_matrix_caches_consistent_factors(rng):
    m = random_spd(rng, 3)
    bw = BandwidthMatrix(m)
    assert np.allclose(bw.chol @ bw.chol.T, m)
    assert bw.det == pytest.approx(np.linalg.det(m), rel=1e-10)
    assert np.allclose(bw.inv @ m, np.eye(3), atol=1e-10)
    assert bw.lambda_max == pytest.approx(power_iteration_oracle(m), rel=1e-10)


def test_bandwidth_matrix_rejects_singular():
    with pytest.raises(SingularBandwidth):
        BandwidthMatrix(np.diag([1e-200, 1e-200]))
    with pytest.raises(NotPositiveDefinite):
        BandwidthMatrix(np.diag([1.0, -1.0]))


def test_bandwidth_matrix_scaled():
    bw = BandwidthMatrix(np.eye(2)).scaled(4.0)
    assert np.allclose(bw.h, 4.0 * np.eye(2))
    assert bw.det == pytest.approx(16.0)


def _rel(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("factor", [0.25, 2.0, 3.7])
def test_bandwidth_matrix_scaled_matches_fresh_factorization(rng, d, factor):
    bw = BandwidthMatrix(random_spd(rng, d))
    fresh = BandwidthMatrix(factor * bw.h)
    out = bw.scaled(factor)
    assert isinstance(out, BandwidthMatrix) and out.d == d
    for name in ("h", "chol", "whiten", "det", "inv", "lambda_max"):
        assert _rel(getattr(out, name), getattr(fresh, name)) <= 1e-14, name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bandwidth_matrix_caches_the_whitening_factor(rng, d):
    # The inverse-Cholesky whitening is taken once, as every whitening
    # took it before it was cached, so order-0 tables do not move.
    bw = BandwidthMatrix(random_spd(rng, d))
    assert np.array_equal(bw.whiten, np.linalg.inv(bw.chol.T))
    assert np.array_equal(bw.whiten, np.triu(bw.whiten))


def test_as_bandwidth_keeps_an_existing_matrix():
    bw = BandwidthMatrix(np.eye(2))
    assert as_bandwidth(bw) is bw
    assert np.array_equal(as_bandwidth(np.eye(2)).h, np.eye(2))
    with pytest.raises(NotPositiveDefinite):
        as_bandwidth(-np.eye(2))


def test_bandwidth_matrix_scaled_does_not_refactor(monkeypatch):
    bw = BandwidthMatrix(np.eye(2))
    monkeypatch.setattr(BandwidthMatrix, "__init__", None)
    assert bw.scaled(2.0).det == pytest.approx(4.0)


def test_bandwidth_matrix_scaled_rejects_bad_factors():
    bw = BandwidthMatrix(np.eye(2))
    for factor in (0.0, -1.0, np.nan):
        with pytest.raises(NotPositiveDefinite):
            bw.scaled(factor)
    with pytest.raises(SingularBandwidth):
        bw.scaled(1e-160)


# ---------------------------------------------------------------------------
# SpdParam
# ---------------------------------------------------------------------------

def test_spd_param_roundtrip_known_matrix():
    h_a = np.array([[452.34, -93.96], [-93.96, 26.66]])
    p = SpdParam(2)
    assert np.max(np.abs(p.decode(p.encode(h_a)) - h_a)) < 1e-12 * np.max(np.abs(h_a))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_spd_param_decode_is_always_spd(d, data):
    p = SpdParam(d)
    theta = np.array(
        data.draw(
            st.lists(
                st.floats(-5, 5),
                min_size=p.n_params,
                max_size=p.n_params,
            )
        )
    )
    h = p.decode(theta)
    assert np.allclose(h, h.T)
    ell = cholesky(h)
    assert np.all(np.diag(ell) > 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(0, 10_000))
def test_spd_param_encode_decode_identity(d, seed):
    rng = np.random.default_rng(seed)
    h = random_spd(rng, d, scale=rng.uniform(0.01, 100.0))
    p = SpdParam(d)
    back = p.decode(p.encode(h))
    assert np.max(np.abs(back - h)) <= 1e-12 * max(1.0, np.max(np.abs(h)))


def test_spd_param_diagonal_mode(rng):
    p = SpdParam(3, diagonal=True)
    assert p.n_params == 3
    h = np.diag([4.0, 0.25, 9.0])
    theta = p.encode(h)
    assert np.allclose(p.decode(theta), h)
    off = p.decode(rng.standard_normal(3))
    assert np.count_nonzero(off - np.diag(np.diag(off))) == 0


def test_spd_param_rejects_wrong_sizes():
    p = SpdParam(2)
    with pytest.raises(ShapeMismatch):
        p.decode(np.zeros(2))
    with pytest.raises(ShapeMismatch):
        p.encode(np.eye(3))
