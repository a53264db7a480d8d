"""Shared helpers for the test suite."""

import numpy as np
import pytest

from fastband import BandwidthMatrix, eta_rs


def random_spd(rng, d, scale=1.0):
    """Random symmetric positive definite matrix with a sane condition number."""
    a = rng.standard_normal((d, d))
    m = a @ a.T + d * np.eye(d)
    return scale * m / np.trace(m) * d


def lscv_eta_tensor(x, h):
    """The r = 0 objective ``n^-2 sum_ij (eta_0(2H) - 2 eta_0(H)) + 2 n^-1 eta_0(0; H)``.

    Every kernel value comes from the tensor engine ``eta_rs``, over all
    ordered pairs, diagonal included.
    """
    n, d = x.shape
    bw = BandwidthMatrix(h)
    diffs = (x[:, None, :] - x[None, :, :]).reshape(-1, d)
    two_h = BandwidthMatrix(2.0 * bw.h)
    pairs = eta_rs(diffs, two_h, 0, 0, np.eye(d)) - 2.0 * eta_rs(diffs, bw, 0, 0, np.eye(d))
    return float(np.sum(pairs)) / (n * n) + 2.0 * eta_rs(np.zeros(d), bw, 0, 0, np.eye(d)) / n


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
