"""Least-squares cross-validation bandwidth selection and grid KDE."""

import math
import time
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional

import numpy as np

from .binning import GridCounts, GridSpec, linear_binning, make_grid
from .errors import (
    AllDuplicates,
    FastbandError,
    OutOfRange,
    ShapeMismatch,
    TooFewPoints,
)
from .fftconv import DEFAULT_TAU, convolve, convolve_direct
from .functionals import (
    PairDifferences,
    eta_kernel_grid,
    kh_zero,
    psi_binned,
    psi_direct,
)
from .gaussian import eta_r
from .linalg import BandwidthMatrix, SpdParam, as_bandwidth

__all__ = [
    "SELECTOR_MODES",
    "SelectorConfig",
    "SelectionResult",
    "SimplexResult",
    "dedup",
    "normal_scale_start",
    "lscv_objective",
    "nelder_mead",
    "select_bandwidth",
    "kde_on_grid",
]

# Evaluation strategies for the selection objective.
SELECTOR_MODES = ("direct-exact", "direct-binned", "fft-M", "fft-L")


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------

@dataclass
class SelectorConfig:
    """Knobs for :func:`select_bandwidth`.

    Attributes
    ----------
    mode : str
        Objective evaluation strategy, one of ``SELECTOR_MODES``
        (default ``"fft-L"``).
    grid_size : int
        Nodes per axis for the binned modes (default 150), an integer
        of at least 2.
    margin_fraction : float
        Grid margin beyond the sample range (default 0.05), finite and
        nonnegative.
    tau : float
        Kernel truncation radius for ``"fft-L"`` (default 3.7), in
        standard deviations of the wider kernel ``2H`` of the
        objective; finite and positive.
    r : int
        Derivative order of the target functional (default 0, the
        density itself).
    diagonal : bool
        Restrict the search to diagonal bandwidth matrices.
    dedup : bool
        Drop duplicate sample rows before selecting (default True).
    min_points : int
        Smallest accepted sample size after deduplication (default 10).
    max_iter : int
        Simplex iteration budget (default 2000), an integer of at least
        0; at 0 only the starting simplex is evaluated.
    rel_tol : float
        Relative convergence tolerance for the simplex (default 1e-7),
        finite and positive.

    Raises
    ------
    OutOfRange
        If a field is outside the range stated above.
    """

    mode: str = "fft-L"
    grid_size: int = 150
    margin_fraction: float = 0.05
    tau: float = DEFAULT_TAU
    r: int = 0
    diagonal: bool = False
    dedup: bool = True
    min_points: int = 10
    max_iter: int = 2000
    rel_tol: float = 1e-7

    def __post_init__(self):
        if self.mode not in SELECTOR_MODES:
            raise OutOfRange(
                f"unknown mode {self.mode!r}; expected one of {SELECTOR_MODES}"
            )
        if not _is_int(self.grid_size) or self.grid_size < 2:
            raise OutOfRange(
                f"grid_size must be an integer >= 2, got {self.grid_size!r}"
            )
        if not (math.isfinite(self.margin_fraction) and self.margin_fraction >= 0):
            raise OutOfRange(
                f"margin_fraction must be finite and >= 0, got {self.margin_fraction!r}"
            )
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise OutOfRange(f"tau must be finite and > 0, got {self.tau!r}")
        if self.min_points < 2:
            raise OutOfRange("min_points must be at least 2")
        if not _is_int(self.max_iter) or self.max_iter < 0:
            raise OutOfRange(f"max_iter must be an integer >= 0, got {self.max_iter!r}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise OutOfRange(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")


def _is_int(value):
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass
class SimplexResult:
    """Outcome of a Nelder-Mead run."""

    theta: np.ndarray
    f: float
    iterations: int
    n_evals: int
    converged: bool


@dataclass
class SelectionResult:
    """Outcome of a bandwidth selection.

    Attributes
    ----------
    h : (d, d) ndarray
        Selected bandwidth matrix.
    objective : float
        Objective value at ``h``.
    iterations : int
        Simplex iterations used.
    n_evals : int
        Objective evaluations used.
    converged : bool
        Whether the simplex met its tolerance within the budget.
    mode : str
        Evaluation strategy that was used.
    n_used : int
        Sample size after deduplication.
    grid : GridSpec or None
        Binning grid for binned modes, None for ``"direct-exact"``.
    binning_ms : float
        Wall time of building that grid and binning the sample into it,
        in milliseconds; 0.0 for ``"direct-exact"``.
    """

    h: np.ndarray
    objective: float
    iterations: int
    n_evals: int
    converged: bool
    mode: str
    n_used: int
    grid: Optional[GridSpec] = None
    binning_ms: float = 0.0
    theta: np.ndarray = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# sample preparation
# ---------------------------------------------------------------------------

def dedup(x):
    """Remove exactly repeated rows from a sample.

    Duplicate points make the cross-validation objective unbounded
    below as the bandwidth shrinks, so selection always runs on
    distinct points.

    Returns
    -------
    (m, d) ndarray of the distinct rows.

    Raises
    ------
    AllDuplicates
        If fewer than two distinct rows remain.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.unique(x, axis=0)
    if out.shape[0] < 2:
        raise AllDuplicates("sample collapses to fewer than two distinct points")
    return out


def normal_scale_start(x, diagonal=False):
    """Normal-scale starting bandwidth ``n^(-2 / (d + 4)) * cov(X)``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    factor = float(n) ** (-2.0 / (d + 4))
    cov = np.cov(x, rowvar=False).reshape(d, d)
    if diagonal:
        cov = np.diag(np.diag(cov))
    return factor * cov


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def lscv_objective(data, h, r=0, mode="fft-L", tau=DEFAULT_TAU, form="t"):
    """Least-squares cross-validation objective for the order-``r`` target.

    Evaluates

        (-1)^r [ n^-2 sum_i sum_j (eta_r(X_i - X_j; 2H) - 2 eta_r(X_i - X_j; H))
                 + 2 n^-1 eta_r(0; H) ]

    which at ``r == 0`` is the classic criterion
    ``n^-2 sum_ij T_H(X_i - X_j) + 2 n^-1 K_H(0)``.  The double sum is
    exact in ``"direct-exact"`` mode and linearly binned otherwise.

    Parameters
    ----------
    data : (n, d) array_like, PairDifferences or GridCounts
        For ``"direct-exact"``, the raw sample (its pair differences
        are streamed and not kept) or its cached ``PairDifferences``;
        for the binned modes, the binned sample.
    h : (d, d) array_like or BandwidthMatrix
        Bandwidth matrix.
    r : int, optional
        Functional order (default 0).
    mode : str, optional
        One of ``SELECTOR_MODES``.
    tau : float, optional
        Truncation radius for ``"fft-L"``, in standard deviations of the
        wider kernel ``2H``.
    form : str, optional
        Kernel route, ``"t"`` or ``"eta"``; both compute the same
        objective, orders above 0 always take the eta route.

    Returns
    -------
    float
    """
    if mode not in SELECTOR_MODES:
        raise OutOfRange(f"unknown mode {mode!r}; expected one of {SELECTOR_MODES}")
    bw = as_bandwidth(h)
    if mode == "direct-exact":
        if isinstance(data, GridCounts):
            raise ShapeMismatch("direct-exact mode expects the raw sample or PairDifferences")
        if isinstance(data, PairDifferences):
            n = data.n
        else:
            data = np.atleast_2d(np.asarray(data, dtype=float))
            n = data.shape[0]
        pair_part = psi_direct(data, bw, r=r, form=form)
    else:
        if not isinstance(data, GridCounts):
            raise ShapeMismatch("binned modes expect GridCounts")
        n = data.n
        pair_part = psi_binned(data, bw, r=r, mode=mode, tau=tau, form=form)
    if form == "t" and r == 0:
        at_zero = kh_zero(bw)
    else:
        at_zero = eta_r(np.zeros(bw.d), bw, r)
    sign = -1.0 if r % 2 else 1.0
    return sign * (pair_part + 2.0 * at_zero / n)


# ---------------------------------------------------------------------------
# simplex minimizer
# ---------------------------------------------------------------------------

def nelder_mead(func, theta0, max_iter=2000, rel_tol=1e-7):
    """Minimize a function with the Nelder-Mead simplex.

    Uses reflection 1.0, contraction 0.5, expansion 2.0, and shrink
    0.5.  The initial simplex perturbs each coordinate of ``theta0`` by
    10 percent of its magnitude, or by 0.1 when the coordinate is
    essentially zero.  The run stops when both the function spread and
    the vertex spread fall below ``rel_tol`` relative to the best
    vertex, or when the iteration budget runs out.

    Parameters
    ----------
    func : callable
        Maps a coordinate vector to a float.
    theta0 : (p,) array_like
        Starting point.
    max_iter : int, optional
        Iteration budget (default 2000).
    rel_tol : float, optional
        Relative convergence tolerance (default 1e-7).

    Returns
    -------
    SimplexResult
    """
    alpha, beta, gamma = 1.0, 0.5, 2.0
    theta0 = np.asarray(theta0, dtype=float).ravel()
    p = theta0.size

    evals = [0]

    def f(t):
        evals[0] += 1
        v = func(t)
        return float(v) if np.isfinite(v) else np.inf

    simplex = [theta0.copy()]
    for j in range(p):
        vertex = theta0.copy()
        step = 0.1 * abs(vertex[j]) if abs(vertex[j]) > 1e-8 else 0.1
        vertex[j] += step
        simplex.append(vertex)
    simplex = np.array(simplex)
    fvals = np.array([f(v) for v in simplex])

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]

        f_spread = abs(fvals[-1] - fvals[0])
        x_spread = np.max(np.abs(simplex[1:] - simplex[0]))
        scale = rel_tol * (1.0 + abs(fvals[0]))
        if f_spread < scale and x_spread < rel_tol * (1.0 + np.max(np.abs(simplex[0]))):
            converged = True
            break

        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + alpha * (centroid - simplex[-1])
        fr = f(reflected)

        if fr < fvals[0]:
            expanded = centroid + gamma * (reflected - centroid)
            fe = f(expanded)
            if fe < fr:
                simplex[-1], fvals[-1] = expanded, fe
            else:
                simplex[-1], fvals[-1] = reflected, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, fr
        else:
            if fr < fvals[-1]:
                contracted = centroid + beta * (reflected - centroid)
            else:
                contracted = centroid + beta * (simplex[-1] - centroid)
            fc = f(contracted)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = contracted, fc
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                fvals[1:] = [f(v) for v in simplex[1:]]

    order = np.argsort(fvals, kind="stable")
    simplex, fvals = simplex[order], fvals[order]
    return SimplexResult(
        theta=simplex[0], f=float(fvals[0]), iterations=it,
        n_evals=evals[0], converged=converged,
    )


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def select_bandwidth(x, config=None):
    """Choose an unconstrained bandwidth matrix by cross-validation.

    Prepares the sample once, then minimizes the LSCV objective over
    the log-Cholesky coordinates of the bandwidth with a Nelder-Mead
    simplex started at the normal-scale bandwidth.  The binned modes
    bin the sample; the FFT modes transform the counts once, on the
    first evaluation, and every later evaluation is a kernel
    tabulation and a dot product.  ``"direct-exact"`` builds the
    sample's ``PairDifferences`` once, on the first evaluation, and
    every evaluation sums the kernel over its ``n (n - 1) / 2`` pairs.

    Parameters
    ----------
    x : (n, d) or (n,) array_like
        Sample points; a 1-d array is read as ``n`` points in one
        dimension.
    config : SelectorConfig, optional
        Selection knobs; defaults are sensible for moderate samples.

    Returns
    -------
    SelectionResult

    Raises
    ------
    OutOfRange
        If the sample contains NaN or infinite values.
    TooFewPoints
        If fewer than ``config.min_points`` distinct points remain.

    Examples
    --------
    >>> rng = np.random.default_rng(7)
    >>> x = rng.standard_normal((400, 2))
    >>> res = select_bandwidth(x)
    >>> res.h.shape
    (2, 2)
    """
    cfg = config or SelectorConfig()
    x = np.asarray(x, dtype=float)
    x = x.reshape(-1, 1) if x.ndim == 1 else np.atleast_2d(x)
    if not np.all(np.isfinite(x)):
        raise OutOfRange("sample contains NaN or infinite values")
    if cfg.dedup:
        x = dedup(x)
    n, d = x.shape
    if n < cfg.min_points:
        raise TooFewPoints(f"need at least {cfg.min_points} distinct points, got {n}")

    grid = None
    gc = None
    binning_ms = 0.0
    if cfg.mode != "direct-exact":
        t0 = time.perf_counter()
        grid = make_grid(x, (cfg.grid_size,) * d, cfg.margin_fraction)
        gc = linear_binning(x, grid)
        binning_ms = (time.perf_counter() - t0) * 1000.0
    data = PairDifferences(x) if cfg.mode == "direct-exact" else gc

    param = SpdParam(d, diagonal=cfg.diagonal)
    theta0 = param.encode(normal_scale_start(x, diagonal=cfg.diagonal))

    def objective(theta):
        try:
            h = BandwidthMatrix(param.decode(theta))
            return lscv_objective(data, h, r=cfg.r, mode=cfg.mode, tau=cfg.tau)
        except (FastbandError, np.linalg.LinAlgError, FloatingPointError):
            return np.inf

    sim = nelder_mead(objective, theta0, max_iter=cfg.max_iter, rel_tol=cfg.rel_tol)
    return SelectionResult(
        h=param.decode(sim.theta),
        objective=sim.f,
        iterations=sim.iterations,
        n_evals=sim.n_evals,
        converged=sim.converged,
        mode=cfg.mode,
        n_used=n,
        grid=grid,
        binning_ms=binning_ms,
        theta=sim.theta,
    )


# ---------------------------------------------------------------------------
# density on the grid
# ---------------------------------------------------------------------------

def kde_on_grid(gc, h, mode="fft-L", tau=DEFAULT_TAU):
    """Kernel density estimate at every grid node from binned counts.

    Computes ``n^-1 (c * k)_j`` with ``k`` the Gaussian kernel grid for
    ``h``, which approximates the KDE of the original sample at node
    ``j``.

    Parameters
    ----------
    gc : GridCounts
        Binned sample.
    h : (d, d) array_like or BandwidthMatrix
        Bandwidth matrix.
    mode : str, optional
        ``"fft-L"``, ``"fft-M"`` or ``"direct-binned"``.
    tau : float, optional
        Truncation radius for ``"fft-L"``.

    Returns
    -------
    ndarray
        Density values with the grid's shape.
    """
    if not isinstance(gc, GridCounts):
        raise ShapeMismatch("kde_on_grid expects GridCounts from linear_binning")
    kernel = eta_kernel_grid(gc.grid, h, 0, mode=mode, tau=tau)
    if mode == "direct-binned":
        conv = convolve_direct(gc.counts, kernel)
    else:
        conv = convolve(gc.counts, kernel)
    return conv / gc.n
