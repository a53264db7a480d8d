"""Tests for normal mixtures, sampling, and the exact ISE formula."""

import json

import numpy as np
import pytest
from scipy.special import ndtr

import fastband.mixtures
from fastband.cli import main

from fastband import (
    BandwidthMatrix,
    NormalMixture,
    NotPositiveDefinite,
    OutOfRange,
    ParseError,
    SingularBandwidth,
    UnknownModel,
    catalog_names,
    exact_ise,
    load_mixture,
    mixture_catalog,
    mixture_pdf,
    sample_mixture,
)

from .conftest import random_spd


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def marginal_cdf_oracle(mix, axis, t):
    """CDF of the mixture's 1-d marginal along one axis, in closed form."""
    total = np.zeros_like(np.atleast_1d(t), dtype=float)
    for w, mu, cov in zip(mix.weights, mix.means, mix.covs):
        sd = np.sqrt(cov[axis, axis])
        total += w * ndtr((np.atleast_1d(t) - mu[axis]) / sd)
    return total


def ise_quadrature_oracle(x, h, mix, half_extent=8.0, nodes=400):
    """Midpoint quadrature of the squared KDE-minus-mixture difference."""
    centers = x.mean(axis=0)
    axes = [
        np.linspace(c - half_extent, c + half_extent, nodes, endpoint=False)
        + half_extent / nodes
        for c in centers
    ]
    step = axes[0][1] - axes[0][0]
    gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])

    from fastband import normal_pdf

    fhat = np.zeros(pts.shape[0])
    for xi in x:
        fhat += normal_pdf(pts - xi, h.h if isinstance(h, BandwidthMatrix) else h)
    fhat /= x.shape[0]
    f = mixture_pdf(mix, pts)
    return float(np.sum((fhat - f) ** 2) * step * step)


# ---------------------------------------------------------------------------
# the mixture type
# ---------------------------------------------------------------------------

def test_mixture_validates_weights(tmp_path):
    with pytest.raises(OutOfRange):
        NormalMixture([0.5, 0.4], np.zeros((2, 2)), [np.eye(2), np.eye(2)])
    with pytest.raises(OutOfRange):
        NormalMixture([1.5, -0.5], np.zeros((2, 2)), [np.eye(2), np.eye(2)])
    # A NaN weight, and a NaN or infinite mean, are refused by the
    # constructor, so a mixture file holding one is a parse error and an
    # input error (exit 2) of the CLI.
    covs = [np.eye(2), np.eye(2)]
    for weights, means in (([np.nan, 1.0], np.zeros((2, 2))),
                           ([0.5, 0.5], [[0.0, np.nan], [1.0, 1.0]]),
                           ([0.5, 0.5], [[0.0, 0.0], [np.inf, 1.0]])):
        with pytest.raises(OutOfRange):
            NormalMixture(weights, means, covs)
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps({"weights": weights, "means": np.asarray(means).tolist(),
                                    "covs": np.asarray(covs).tolist()}))
        with pytest.raises(ParseError):
            load_mixture(path)
        assert main(["ise-study", "--model-file", str(path), "--n", "50", "--grids", "10",
                     "--reps", "1"]) == 2


def test_mixture_pdf_single_component():
    mix = NormalMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
    assert mixture_pdf(mix, np.zeros(2)) == pytest.approx(0.1591549, abs=1e-7)


def test_mixture_pdf_degenerate_pair_equals_single():
    single = NormalMixture([1.0], [[0.5, -0.2]], [0.7 * np.eye(2)])
    pair = NormalMixture(
        [0.5, 0.5], [[0.5, -0.2], [0.5, -0.2]], [0.7 * np.eye(2), 0.7 * np.eye(2)]
    )
    pts = np.random.default_rng(5).standard_normal((20, 2))
    assert np.allclose(mixture_pdf(single, pts), mixture_pdf(pair, pts), rtol=1e-14)


def test_mixture_pdf_integrates_to_one(rng):
    mix = mixture_catalog("trimodal")
    nodes = 350
    axis = np.linspace(-9.0, 9.0, nodes, endpoint=False) + 9.0 / nodes
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    step = axis[1] - axis[0]
    mass = mixture_pdf(mix, pts).sum() * step * step
    assert mass == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampler_is_deterministic():
    mix = mixture_catalog("bimodal")
    a = sample_mixture(mix, 100, np.random.default_rng(9))
    b = sample_mixture(mix, 100, np.random.default_rng(9))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [2.5, 2.0, True, np.float64(3.0), "3"])
def test_sampler_refuses_non_integer_counts(n):
    # int() would truncate 2.5 to 2 draws, and True would pass as 1.
    with pytest.raises(OutOfRange):
        sample_mixture(mixture_catalog("standard"), n, np.random.default_rng(0))
    assert sample_mixture(mixture_catalog("standard"), np.int64(3),
                          np.random.default_rng(0)).shape == (3, 2)


def test_sampler_degenerate_weight_uses_single_component():
    mix = NormalMixture([1.0], [[5.0, 5.0]], [0.01 * np.eye(2)])
    x = sample_mixture(mix, 50, np.random.default_rng(2))
    assert np.all(np.abs(x - 5.0) < 1.0)


def test_sampler_mean_near_target():
    mix = mixture_catalog("standard")
    x = sample_mixture(mix, 100_000, np.random.default_rng(31))
    assert np.all(np.abs(x.mean(axis=0)) < 0.02)


def test_sampler_marginals_pass_ks_bound():
    for name in ("standard", "fragile", "trimodal"):
        mix = mixture_catalog(name)
        x = sample_mixture(mix, 100_000, np.random.default_rng(77))
        for axis in range(mix.d):
            s = np.sort(x[:, axis])
            cdf = marginal_cdf_oracle(mix, axis, s)
            n = s.size
            upper = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
            lower = np.max(np.abs(cdf - np.arange(0, n) / n))
            assert max(upper, lower) < 0.02, (name, axis)


# ---------------------------------------------------------------------------
# exact ISE
# ---------------------------------------------------------------------------

def test_exact_ise_nonnegative(rng):
    mix = mixture_catalog("asymmetric-bimodal")
    for _ in range(5):
        x = sample_mixture(mix, 60, rng)
        h = random_spd(rng, 2, scale=rng.uniform(0.05, 1.0))
        assert exact_ise(x, h, mix) >= -1e-10


def test_exact_ise_matches_quadrature(rng):
    mix = mixture_catalog("correlated")
    x = sample_mixture(mix, 50, np.random.default_rng(123))
    h = 0.3 * np.eye(2)
    closed = exact_ise(x, h, mix)
    quad = ise_quadrature_oracle(x, h, mix)
    assert closed == pytest.approx(quad, rel=1e-4)


def test_exact_ise_improves_with_sensible_bandwidth(rng):
    mix = mixture_catalog("standard")
    good, bad = [], []
    for seed in range(20):
        x = sample_mixture(mix, 500, np.random.default_rng(seed))
        from fastband import normal_scale_start

        h = normal_scale_start(x)
        good.append(exact_ise(x, h, mix))
        bad.append(exact_ise(x, 0.1 * h, mix))
    assert np.median(good) < np.median(bad)


@pytest.mark.parametrize("cov, error", [
    ([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]], NotPositiveDefinite),
    ([[1e-200, 0.0], [0.0, 1e-200]], SingularBandwidth),
])
def test_mixture_covariances_pass_the_bandwidth_rule(tmp_path, cov, error):
    # LAPACK's Cholesky accepts both, but BandwidthMatrix, which every
    # density and ISE on the mixture factors them with, refuses them: the
    # first is within its rounding margin of singular, the second has a
    # determinant below its floor.  So the mixture refuses them when built.
    assert np.all(np.isfinite(np.linalg.cholesky(np.array(cov))))
    with pytest.raises(error):
        NormalMixture([1.0], [[0.0, 0.0]], [cov])
    path = tmp_path / "mixture.json"
    path.write_text(json.dumps({"weights": [1.0], "means": [[0.0, 0.0]], "covs": [cov]}))
    with pytest.raises(ParseError):
        load_mixture(path)


# ---------------------------------------------------------------------------
# catalog and file I/O
# ---------------------------------------------------------------------------

def test_catalog_contents():
    names = catalog_names()
    for expected in (
        "standard",
        "correlated",
        "bimodal",
        "asymmetric-bimodal",
        "trimodal",
        "fragile",
    ):
        assert expected in names
    std = mixture_catalog("standard")
    assert std.q == 1
    assert np.allclose(std.covs[0], np.eye(2))
    frag = mixture_catalog("fragile")
    assert frag.q == 2
    assert np.max(np.diag(frag.covs[1])) <= 1e-2


def test_catalog_unknown_name():
    with pytest.raises(UnknownModel):
        mixture_catalog("nonexistent")


def test_catalog_builds_a_fresh_mixture_per_call():
    assert catalog_names() == ("asymmetric-bimodal", "bimodal", "correlated",
                               "fragile", "standard", "trimodal")
    for name in catalog_names():
        a, b = mixture_catalog(name), mixture_catalog(name)
        assert a is not b
        for u, v in ((a.weights, b.weights), (a.means, b.means), (a.covs, b.covs)):
            assert u is not v and np.array_equal(u, v)
    mixture_catalog("standard").covs[0, 0, 0] = 5.0
    assert mixture_catalog("standard").covs[0, 0, 0] == 1.0


def test_catalog_lookup_builds_only_the_requested_mixture(monkeypatch):
    built = []
    real = fastband.mixtures.NormalMixture

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(fastband.mixtures, "NormalMixture", counting)
    catalog_names()
    assert built == []
    assert mixture_catalog("trimodal").q == 3
    assert len(built) == 1


def test_load_mixture_roundtrip(tmp_path):
    mix = mixture_catalog("trimodal")
    path = tmp_path / "mix.json"
    path.write_text(
        json.dumps(
            {
                "weights": mix.weights.tolist(),
                "means": mix.means.tolist(),
                "covs": mix.covs.tolist(),
            }
        )
    )
    loaded = load_mixture(path)
    assert np.allclose(loaded.weights, mix.weights)
    assert np.allclose(loaded.means, mix.means)
    assert np.allclose(loaded.covs, mix.covs)


def test_load_mixture_rejects_bad_files(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ParseError):
        load_mixture(bad_json)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"weights": [1.0]}))
    with pytest.raises(ParseError):
        load_mixture(missing)

    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps({"weights": [0.6, 0.6], "means": [[0], [1]], "covs": [[[1]], [[1]]]})
    )
    with pytest.raises(ParseError):
        load_mixture(invalid)
