"""Tests for dense linear algebra helpers and the SPD parametrization."""

import math

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


def test_largest_eigenvalue_tracks_lapack_up_to_cond_1e14():
    # The Python-float formula at d <= 2 against LAPACK's eigvalsh: exact
    # at d = 1, and within 4 eps relative at d = 2 however ill-conditioned.
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for cond in np.logspace(0, 14, 29):
        for _ in range(20):
            phi = rng.uniform(0.0, math.pi)
            q = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            h = 10.0 ** rng.uniform(-6, 6) * (q * [1.0, 1.0 / cond]) @ q.T
            h = (h + h.T) / 2
            ref = np.linalg.eigvalsh(h)[-1]
            assert abs(largest_eigenvalue(h) - ref) <= 4 * eps * ref, (cond, h)
    for v in 10.0 ** rng.uniform(-300, 300, size=50):
        assert largest_eigenvalue([[v]]) == np.linalg.eigvalsh([[v]])[-1]


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bandwidth_matrix_factors_are_the_numpy_calls(rng, d):
    # The constructor factors h in Python floats; LAPACK's cholesky(h)
    # and inv(L^T) are the reference, to within about cond(h) eps.  det
    # is the squared diagonal product of its own factor, and it holds
    # its own copy of h.
    for scale in (1e-6, 1.0, 1e6):
        h = random_spd(rng, d, scale=scale)
        bw = BandwidthMatrix(h.tolist())
        chol = np.linalg.cholesky(h)
        tol = max(1e-12, 4.0 * _EPS * np.linalg.cond(h))
        assert _rel(bw.chol, chol) <= tol
        assert _rel(bw.whiten, np.linalg.inv(chol.T)) <= tol
        assert _rel(bw.det, float(np.prod(np.diag(chol)) ** 2)) <= tol
        assert bw.det == float(np.prod(np.diag(bw.chol)) ** 2)
        assert bw.h.tobytes() == h.tobytes() and bw.d == d
    held = h.copy()
    bw = BandwidthMatrix(held)
    held[0, 0] = 99.0
    assert bw.h[0, 0] == h[0, 0]


@pytest.mark.parametrize("h, error", [
    (np.ones(2), ShapeMismatch),
    (np.ones((2, 3)), ShapeMismatch),
    ([[1.0, 0.5], [0.4, 1.0]], NotPositiveDefinite),
    (np.diag([1.0, -1.0]), NotPositiveDefinite),
    ([[np.nan, 0.0], [0.0, 1.0]], NotPositiveDefinite),
    ([[1.0, np.nan], [np.nan, 1.0]], NotPositiveDefinite),
    (np.diag([1e-200, 1e-200]), SingularBandwidth),
    ([[1.0, np.inf], [np.inf, np.inf]], NotPositiveDefinite),
])
def test_bandwidth_matrix_error_types(h, error):
    with pytest.raises(error):
        BandwidthMatrix(h)
    if error is SingularBandwidth:
        # The free function only factors; the determinant is the
        # constructor's test.
        assert np.array_equal(cholesky(h), np.linalg.cholesky(h))
    else:
        with pytest.raises(error):
            cholesky(h)


_EPS = np.finfo(float).eps


def _rel(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("factor", [0.25, 2.0, 3.7])
def test_bandwidth_matrix_scaled_matches_fresh_factorization(rng, d, factor):
    # The factors of h, rescaled by hand, are those of a fresh factor * h:
    # the homogeneity the kernels of 2H rely on instead of a second matrix.
    bw = BandwidthMatrix(random_spd(rng, d))
    fresh = BandwidthMatrix(factor * bw.h)
    root = np.sqrt(factor)
    expect = {"chol": root * bw.chol, "whiten": bw.whiten / root,
              "det": bw.det * factor ** d, "inv": bw.inv / factor,
              "lambda_max": factor * bw.lambda_max}
    for name, value in expect.items():
        assert _rel(getattr(fresh, name), value) <= 1e-14, name
    lam, vecs = fresh.eig
    assert _rel(lam, factor * bw.eig[0]) <= 1e-14
    assert np.allclose(np.abs(vecs.T @ bw.eig[1]), np.eye(d), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bandwidth_matrix_caches_the_whitening_factor(rng, d):
    # The whitening factor is upper-triangular and LAPACK's inv(L^T) of
    # the cached L to within about cond(h) eps.
    h = random_spd(rng, d)
    bw = BandwidthMatrix(h)
    tol = max(1e-12, 4.0 * _EPS * np.linalg.cond(h))
    assert _rel(bw.whiten, np.linalg.inv(bw.chol.T)) <= tol
    assert np.array_equal(bw.whiten, np.triu(bw.whiten))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bandwidth_matrix_lazy_attributes_keep_their_formulas(rng, d):
    # inv and lambda_max are computed on first read.  inv is LAPACK's;
    # lambda_max is in Python floats at d <= 2 and here still equals
    # eigvalsh bit for bit, so the fft-L box does not move.
    h = random_spd(rng, d)
    bw = BandwidthMatrix(h)
    assert "inv" not in vars(bw) and "lambda_max" not in vars(bw)
    assert np.array_equal(bw.inv, np.linalg.inv(h))
    assert bw.lambda_max == np.linalg.eigvalsh(h)[-1]
    assert bw.inv is bw.inv


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bandwidth_matrix_eig_diagonalises_h_and_scales(rng, d):
    h = random_spd(rng, d)
    bw = BandwidthMatrix(h)
    lam, vecs = bw.eig
    assert np.all(np.diff(lam) >= 0)
    assert np.allclose(lam, np.linalg.eigvalsh(h), rtol=1e-13)
    assert np.allclose(vecs @ np.diag(lam) @ vecs.T, h, rtol=0.0, atol=1e-14)
    for factor in (2.0, 2.0 * 3.7):
        scaled_lam, _ = BandwidthMatrix(factor * h).eig
        assert np.allclose(scaled_lam, factor * lam, rtol=1e-14)


def test_bandwidth_matrix_eig_keeps_a_small_eigenvalue():
    # Accepted near the rounding margin (1 - rho^2 = 7.7e-15, margin 0.90,
    # det 9.8e-23): eigh(h) puts its small eigenvalue 4.9e-2 relative
    # below the factorization's, while from the whitening factor it
    # keeps the determinant.
    h = np.array([
        [6.19747244582656e-08, 1.1168038847478056e-04],
        [1.1168038847478056e-04, 0.2012515469637482],
    ])
    bw = BandwidthMatrix(h)
    lam, _ = bw.eig
    assert 0.0 < lam[0]
    assert abs(np.linalg.eigvalsh(h)[0] / lam[0] - 1.0) > 1e-2
    assert np.prod(lam) == pytest.approx(bw.det, rel=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bandwidth_matrix_det_is_the_squared_diagonal_product(rng, d):
    for _ in range(50):
        bw = BandwidthMatrix(random_spd(rng, d, scale=10.0 ** rng.uniform(-8, 8)))
        assert bw.det == float(np.prod(np.diag(bw.chol)) ** 2)
        assert type(bw.det) is float


def test_bandwidth_matrix_det_overflow_is_singular():
    # det = 1e400 does not fit a float: rejected as unusable, no warning.
    with pytest.raises(SingularBandwidth):
        BandwidthMatrix(np.diag([1e200, 1e200]))


def test_as_bandwidth_keeps_an_existing_matrix():
    bw = BandwidthMatrix(np.eye(2))
    assert as_bandwidth(bw) is bw
    assert np.array_equal(as_bandwidth(np.eye(2)).h, np.eye(2))
    with pytest.raises(NotPositiveDefinite):
        as_bandwidth(-np.eye(2))


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


# ---------------------------------------------------------------------------
# SpdParam.bandwidth: the selector's factor path, with no LAPACK call
# ---------------------------------------------------------------------------

def _lapack_accepts(h):
    """Whether LAPACK's Cholesky factors ``h`` with a usable determinant."""
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    root = math.prod(np.diag(chol).tolist())
    det = root * root
    return bool(np.all(np.isfinite(chol))) and math.isfinite(det) and det >= 1e-300


def test_factor_path_refuses_a_pivot_that_lapack_rounds_to_zero():
    # Met by criterion 7's coarse setting (fragile, n = 256, grid 20,
    # default_rng([20260820, 256, 1])).  In Python floats the second
    # pivot is 4.4e-16 > 0; OpenBLAS forms l10 = b (1 / l00), gets
    # exactly 0 and refuses the matrix.  The rounding margin refuses it
    # on any BLAS.
    p = SpdParam(2)
    theta = [-140.407353775145, 1.7019796919003822, -22.521535533260497]
    h = p.decode(theta)
    l10 = h[1, 0] / math.sqrt(h[0, 0])
    assert h[1, 1] - l10 * l10 > 0.0
    with pytest.raises(NotPositiveDefinite):
        BandwidthMatrix(h)
    with pytest.raises(NotPositiveDefinite):
        p.bandwidth(theta)


def test_factor_path_refuses_a_3d_matrix_whose_pivots_clear_their_margin():
    # Its Python-float pivots are 1, 3.5e-11 and 1.8e-6 of their diagonal
    # entries, far above an 8 d eps margin, yet LAPACK fails: at d = 3
    # the error of a small early pivot carries into the later rows.  The
    # margin on the correlation form refuses it.
    p = SpdParam(3)
    theta = [-15.467777678755375, 3012.2427534077974, -4.0324534028357135,
             -0.00010454635200370209, 2195976.136289836, 3.4948281778967925]
    with pytest.raises(NotPositiveDefinite):
        BandwidthMatrix(p.decode(theta))
    with pytest.raises(NotPositiveDefinite):
        p.bandwidth(theta)


def test_factor_path_refuses_criterion_7s_determinant_floor_case():
    # One of criterion 7's fragile selections (seed family 20260820,
    # rep 13) runs to det(H) near the floor 1e-300.  There the
    # determinant from diag(L) is 1.055e-300 and from the Python-float
    # Cholesky of the rounded H 1.06e-300, both above the floor with an
    # 8 d eps margin, yet LAPACK's, from a pivot that lost most of its
    # digits to cancellation, is 9.97e-301.  The rounding margin (1.21
    # here) refuses it before its determinant is read.
    p = SpdParam(2)
    theta = [-331.51034004729235, 12.650416842636773, -13.850548727038664]
    h = p.decode(theta)
    floor = 1e-300 * (1.0 + 16.0 * _EPS)
    assert math.exp(2.0 * (theta[0] + theta[2])) > floor
    l00 = math.sqrt(h[0, 0])
    l10 = h[1, 0] / l00
    assert (l00 * math.sqrt(h[1, 1] - l10 * l10)) ** 2 > floor
    with pytest.raises(NotPositiveDefinite, match="margin"):
        BandwidthMatrix(h)
    with pytest.raises(NotPositiveDefinite, match="margin"):
        p.bandwidth(theta)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.booleans(), st.data())
def test_factor_path_accepts_only_what_lapack_accepts(d, diagonal, data):
    # Diagonal log-entries in [-300, 300] reach both ends of the
    # determinant's range; wide off-diagonal entries make H nearly
    # singular.  Whatever the factor path accepts, LAPACK's Cholesky of
    # the same rounded h accepts too, with a usable determinant.
    p = SpdParam(d, diagonal=diagonal)
    diag = st.floats(-300, 300)
    off = st.floats(-1e6, 1e6)
    if diagonal:
        theta = [data.draw(diag) for _ in range(d)]
    else:
        theta = [data.draw(diag if i == j else off) for i in range(d) for j in range(i + 1)]
    try:
        bw = p.bandwidth(theta)
    except (NotPositiveDefinite, SingularBandwidth):
        return
    assert _lapack_accepts(bw.h)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_factor_path_agrees_with_lapack(d, data):
    # The factor path is the public constructor's, bit for bit.  Against
    # LAPACK, two backward-stable Cholesky factorizations of one rounded
    # H differ by up to about cond(H) eps: 1e-12 relative where H is well
    # conditioned.  (Over 6e4 random theta the worst gap was 1.3
    # cond(H) eps.)
    p = SpdParam(d)
    theta = data.draw(st.lists(st.floats(-5, 5), min_size=p.n_params, max_size=p.n_params))
    try:
        bw = p.bandwidth(theta)
    except (NotPositiveDefinite, SingularBandwidth):
        return
    public = BandwidthMatrix(p.decode(theta))
    for name in ("h", "chol", "whiten"):
        assert getattr(bw, name).tobytes() == getattr(public, name).tobytes(), name
    assert bw.det == public.det
    chol = np.linalg.cholesky(bw.h)
    whiten = np.linalg.inv(chol.T)
    tol = max(1e-12, 4.0 * _EPS * np.linalg.cond(bw.h))
    assert _rel(bw.chol, chol) <= tol
    assert _rel(bw.whiten, whiten) <= tol
    assert _rel(bw.det, float(np.prod(np.diag(chol)) ** 2)) <= tol
    assert np.array_equal(bw.h, p.decode(theta)) and bw.d == d
    assert np.array_equal(bw.chol, np.tril(bw.chol))
    assert np.array_equal(bw.whiten, np.triu(bw.whiten))
    for name in ("inv", "lambda_max", "eig"):
        assert name not in vars(bw)


@pytest.mark.parametrize("bad", [1e300, -1e300, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("diagonal", [False, True])
def test_factor_path_rejects_extreme_coordinates_by_type(bad, diagonal):
    # An exponential or a square that overflows or underflows, a NaN or
    # an infinity: decode returns a non-finite or singular H, and the
    # factor path refuses it as not positive definite rather than with
    # an OverflowError.
    p = SpdParam(2, diagonal=diagonal)
    for pos in range(p.n_params):
        theta = np.zeros(p.n_params)
        theta[pos] = bad
        assert p.decode(theta).shape == (2, 2)
        with pytest.raises(NotPositiveDefinite):
            p.bandwidth(theta)
