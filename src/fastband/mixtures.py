"""Normal mixture targets: sampling, density, and exact integrated squared error."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, ParseError, ShapeMismatch, UnknownModel
from .binning import _as_sample
from .functionals import q_r_exact
from .gaussian import _as_points, normal_pdf
from .linalg import as_bandwidth, cholesky

__all__ = [
    "NormalMixture",
    "mixture_pdf",
    "sample_mixture",
    "exact_ise",
    "mixture_catalog",
    "catalog_names",
    "load_mixture",
]

# ---------------------------------------------------------------------------
# the mixture type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalMixture:
    """A finite mixture of multivariate Gaussians.

    Attributes
    ----------
    weights : (q,) ndarray
        Positive component weights summing to one.
    means : (q, d) ndarray
        Component means, finite.
    covs : (q, d, d) ndarray
        Component covariances, each symmetric positive definite.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        cv = np.asarray(self.covs, dtype=float)
        if cv.ndim == 2:
            cv = cv[None, :, :]
        if not (w.shape[0] == mu.shape[0] == cv.shape[0]):
            raise ShapeMismatch("weights, means and covs disagree on component count")
        if cv.shape[1:] != (mu.shape[1], mu.shape[1]):
            raise ShapeMismatch("covariance blocks disagree with mean dimension")
        if not np.all(w > 0):
            raise OutOfRange("weights must be positive")
        if not np.isfinite(mu).all():
            raise OutOfRange("means must be finite")
        if abs(w.sum() - 1.0) > 1e-12:
            raise OutOfRange(f"weights sum to {w.sum()}, expected 1")
        for sig in cv:
            cholesky(sig)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", cv)

    @property
    def d(self):
        """Dimension of the mixture."""
        return self.means.shape[1]

    @property
    def q(self):
        """Number of components."""
        return self.weights.shape[0]


# ---------------------------------------------------------------------------
# density and sampling
# ---------------------------------------------------------------------------

def mixture_pdf(mix, x):
    """Mixture density ``sum_q w_q Phi_{Sigma_q}(x - mu_q)``.

    Parameters
    ----------
    mix : NormalMixture
    x : (n, d) or (d,) array_like

    Returns
    -------
    (n,) ndarray, or float for a single point.
    """
    pts, single = _as_points(x, mix.d)
    out = np.zeros(pts.shape[0])
    for w, mu, sig in zip(mix.weights, mix.means, mix.covs):
        out += w * normal_pdf(pts - mu, sig)
    return float(out[0]) if single else out


def sample_mixture(mix, n, rng):
    """Draw ``n`` points from a normal mixture.

    Component labels follow the weights, then each point is its
    component mean plus a Cholesky-colored standard normal draw.  The
    result is deterministic for a given generator state.

    Parameters
    ----------
    mix : NormalMixture
    n : int
        Number of draws, at least 1.
    rng : numpy.random.Generator

    Returns
    -------
    (n, d) ndarray
    """
    n = int(n)
    if n < 1:
        raise OutOfRange("n must be at least 1")
    labels = rng.choice(mix.q, size=n, p=mix.weights)
    z = rng.standard_normal((n, mix.d))
    out = np.empty((n, mix.d))
    for q in range(mix.q):
        idx = labels == q
        if not np.any(idx):
            continue
        ell = cholesky(mix.covs[q])
        out[idx] = mix.means[q] + z[idx] @ ell.T
    return out


# ---------------------------------------------------------------------------
# exact integrated squared error
# ---------------------------------------------------------------------------

def exact_ise(x, h, mix):
    """Integrated squared error of a Gaussian KDE against a normal mixture.

    Expands ``int (fhat - f)^2`` into three closed-form sums of
    Gaussian convolutions:

        n^-2 sum_ij Phi_{2H}(X_i - X_j)
        - 2 n^-1 sum_i sum_q w_q Phi_{H + Sigma_q}(X_i - mu_q)
        + sum_q sum_q' w_q w_q' Phi_{Sigma_q + Sigma_q'}(mu_q - mu_q')

    The first sum reads only the factors of ``H``: since
    ``Phi_{2H}(u) = 2^{-d/2} Phi_H(u / sqrt(2))``, it is ``2^{-d/2}``
    times the exact pair sum ``q_r_exact(x / sqrt(2), H, 0)``, over the
    pairs ``i < j``, streamed; no matrix is made for ``2H``.

    Parameters
    ----------
    x : (n, d) or (n,) array_like
        The KDE's sample, read by :func:`~fastband.binning._as_sample`.
    h : (d, d) array_like or BandwidthMatrix
        The KDE's bandwidth matrix.
    mix : NormalMixture
        The target density.

    Returns
    -------
    float
        Nonnegative up to a tiny numerical floor.

    Raises
    ------
    ShapeMismatch, TooFewPoints, OutOfRange
        For a bad sample, see :func:`~fastband.binning._as_sample`.
    ShapeMismatch
        If the sample, bandwidth and mixture dimensions disagree.
    """
    bw = as_bandwidth(h)
    x = _as_sample(x)
    n, d = x.shape
    if d != mix.d or bw.d != d:
        raise ShapeMismatch("sample, bandwidth and mixture dimensions disagree")

    fhat_sq = 2.0 ** (-d / 2) * q_r_exact(x / math.sqrt(2.0), bw, 0)

    cross = 0.0
    for w, mu, sig in zip(mix.weights, mix.means, mix.covs):
        cross += w * float(np.sum(normal_pdf(x - mu, bw.h + sig)))
    cross *= 2.0 / n

    f_sq = 0.0
    for wq, muq, sigq in zip(mix.weights, mix.means, mix.covs):
        for wp, mup, sigp in zip(mix.weights, mix.means, mix.covs):
            f_sq += wq * wp * normal_pdf(muq - mup, sigq + sigp)

    return fhat_sq - cross + f_sq


# ---------------------------------------------------------------------------
# built-in targets
# ---------------------------------------------------------------------------

_EYE = np.eye(2)
_EYE.flags.writeable = False

# Built-in targets, one factory per name, so a lookup constructs and
# validates only the mixture it returns.
_CATALOG = {
    # Single standard Gaussian.
    "standard": lambda: NormalMixture([1.0], [[0.0, 0.0]], [_EYE]),
    # Single Gaussian with strong positive correlation.
    "correlated": lambda: NormalMixture(
        [1.0], [[0.0, 0.0]], [[[1.0, 0.7], [0.7, 1.0]]]
    ),
    # Two well-separated equal balls.
    "bimodal": lambda: NormalMixture(
        [0.5, 0.5],
        [[-2.0, 0.0], [2.0, 0.0]],
        [0.5 * _EYE, 0.5 * _EYE],
    ),
    # Dominant broad component plus a smaller skewed one.
    "asymmetric-bimodal": lambda: NormalMixture(
        [0.75, 0.25],
        [[-1.0, 0.0], [1.5, 1.0]],
        [_EYE, [[0.49, 0.21], [0.21, 0.25]]],
    ),
    # Three modes of unequal weight and shape.
    "trimodal": lambda: NormalMixture(
        [0.4, 0.35, 0.25],
        [[-1.5, -1.0], [1.5, -1.0], [0.0, 1.8]],
        [0.4 * _EYE, [[0.5, -0.2], [-0.2, 0.4]], 0.3 * _EYE],
    ),
    # Broad background plus a sharply concentrated spike holding a
    # tenth of the mass: the spike covariance is 4 I scaled by 1e-3,
    # narrow enough that coarse grids cannot resolve it.
    "fragile": lambda: NormalMixture(
        [0.9, 0.1],
        [[0.0, 0.0], [0.8, 0.8]],
        [_EYE, 0.004 * _EYE],
    ),
}


def catalog_names():
    """Names accepted by :func:`mixture_catalog`."""
    return tuple(sorted(_CATALOG))


def mixture_catalog(name):
    """Build a built-in mixture by name; each call returns a new object.

    The catalog spans the usual qualitative shapes: ``"standard"``,
    ``"correlated"``, ``"bimodal"``, ``"asymmetric-bimodal"``,
    ``"trimodal"``, and the concentrated ``"fragile"`` model whose
    spike component defeats coarse binning grids.

    Raises
    ------
    UnknownModel
        If the name is not in the catalog.
    """
    try:
        build = _CATALOG[name]
    except KeyError:
        raise UnknownModel(
            f"unknown mixture {name!r}; choose from {', '.join(catalog_names())}"
        ) from None
    return build()


def load_mixture(path):
    """Read a mixture from a JSON file.

    The file holds ``weights`` (list), ``means`` (list of lists) and
    ``covs`` (list of matrices); the arrays are validated like any
    other mixture.

    Raises
    ------
    ParseError
        If the file is not valid JSON or lacks the required fields.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read mixture file {path}: {exc}") from exc
    try:
        weights = raw["weights"]
        means = raw["means"]
        covs = raw["covs"]
    except (TypeError, KeyError) as exc:
        raise ParseError(
            f"mixture file {path} needs fields weights, means, covs"
        ) from exc
    try:
        return NormalMixture(weights, means, covs)
    except (OutOfRange, ShapeMismatch, ValueError) as exc:
        raise ParseError(f"mixture file {path} is invalid: {exc}") from exc
