"""Least-squares cross-validation bandwidth selection and grid KDE."""

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Optional

import numpy as np

from .binning import GridCounts, GridSpec, _as_sample, _is_int, linear_binning, make_grid
from .errors import (
    AllDuplicates,
    FastbandError,
    OutOfRange,
    ShapeMismatch,
    TooFewPoints,
)
from .fftconv import DEFAULT_TAU, convolve, convolve_direct
# ``psi_binned`` and ``psi_direct`` are unused here; perfbench/tracing.py
# patches them by these names.
from .functionals import (
    PSI_MODES,
    PairDifferences,
    _binned_mode,
    _PairScorer,
    eta_kernel_grid,
    psi_binned,
    psi_direct,
)
from .gaussian import _functional_order
from .linalg import SpdParam, as_bandwidth

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
SELECTOR_MODES = ("direct-exact",) + PSI_MODES

# Fewest distinct sample points select_bandwidth accepts.
_MIN_POINTS = 10

# Exceptions that make an evaluation a rejection, scored as inf.
_REJECTED = (FastbandError, np.linalg.LinAlgError, FloatingPointError)


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
        density itself), an integer in ``[0, MAX_FUNCTIONAL_ORDER]``.
    diagonal : bool
        Restrict the search to diagonal bandwidth matrices.
    max_iter : int
        Simplex iteration budget (default 2000), an integer of at least
        0; at 0 only the starting simplex is evaluated.

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
    max_iter: int = 2000

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
        _functional_order(self.r)
        if not _is_int(self.max_iter) or self.max_iter < 0:
            raise OutOfRange(f"max_iter must be an integer >= 0, got {self.max_iter!r}")


@dataclass
class SimplexResult:
    """Outcome of a Nelder-Mead run."""

    theta: np.ndarray
    f: float
    iterations: int
    n_evals: int
    converged: bool
    n_rejected: int = 0


@dataclass
class SelectionResult:
    """Outcome of a bandwidth selection.

    Attributes
    ----------
    h : (d, d) ndarray
        Selected bandwidth matrix: ``SpdParam.decode(theta)``, the ``h``
        that the objective evaluated at ``theta``.
    objective : float
        Objective value at ``h``, as the selector evaluated it, from the
        factors of ``SpdParam.bandwidth``.  It equals
        ``lscv_objective(data, h)`` bit for bit: ``BandwidthMatrix(h)``
        is factored the same way, and both are scored by the same code.
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
    dedup_ms : float
        Wall time of dropping the sample's repeated rows (:func:`dedup`),
        in milliseconds.
    binning_ms : float
        Wall time of building that grid and binning the sample into it,
        in milliseconds; 0.0 for ``"direct-exact"``.
    n_rejected : int
        Evaluations the objective rejected, by an exception (a matrix
        too close to singular, or coordinates that overflow, say) or a
        non-finite value; each counted as ``inf``.  At most ``n_evals``.
    precompute_ms : float
        Wall time of the per-sample work done once before the search, in
        milliseconds: the folded count autocorrelation for ``"fft-M"``
        and ``"fft-L"``, the pair table for ``"direct-exact"`` (about 0
        for ``"direct-binned"``, which sums the counts directly).
    decode_ms : float
        Time spent mapping the simplex's coordinates to the factors of
        ``H``, summed over evaluations, in milliseconds.
    score_ms : float
        Time spent scoring those factors (kernel tabulation and pair
        sum), summed over evaluations, in milliseconds.  The simplex's
        own bookkeeping is outside all four times.
    kernel_points : int
        Kernel table entries tabulated, summed over evaluations: the
        slab ``j_1 >= 0`` of each table; 0 for ``"direct-exact"``.
    rejections : dict of str to int
        Rejected evaluations by cause: the exception's type name, or
        ``"non-finite"`` for a score that is not finite.  The counts sum
        to ``n_rejected``.
    theta : (p,) ndarray
        Log-Cholesky coordinates of ``h`` (see ``SpdParam``).
    """

    h: np.ndarray
    objective: float
    iterations: int
    n_evals: int
    converged: bool
    mode: str
    n_used: int
    grid: Optional[GridSpec] = None
    dedup_ms: float = 0.0
    binning_ms: float = 0.0
    n_rejected: int = 0
    precompute_ms: float = 0.0
    decode_ms: float = 0.0
    score_ms: float = 0.0
    kernel_points: int = 0
    rejections: dict = field(default_factory=dict)
    theta: np.ndarray = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# sample preparation
# ---------------------------------------------------------------------------

def dedup(x):
    """Remove exactly repeated rows from a sample.

    Duplicate points make the cross-validation objective unbounded
    below as the bandwidth shrinks, so selection always runs on
    distinct points.  On tied (rounded or discretised) data that
    changes the estimand: the bandwidth is selected for the distinct
    rows, not for the sample.  For 300 standard normal points in 2-D
    rounded to 0.5, 72 to 84 distinct rows remain (seeds 0 to 3) and
    the diagonal of the selected ``H`` is 4 to 9 times that selected on
    the unrounded points.

    ``x`` is read by :func:`~fastband.binning._as_sample`: a 1-d ``x``
    is ``n`` points in one dimension.  The result has the rows and the
    order of ``np.unique(x, axis=0)``.  The first column is sorted
    first, by a stable ``argsort``; when its values all differ, as for
    continuous data, that order is final and no row repeats.  Otherwise
    the rows are sorted by a column ``lexsort`` (first column first) and
    a row is dropped when it equals the row before it.  Rows that differ
    only in the sign of a zero compare equal, so they take that second
    route; of those the first in ``x`` is kept, where ``np.unique`` may
    keep either.

    Returns
    -------
    (m, d) ndarray of the distinct rows.

    Raises
    ------
    ShapeMismatch, TooFewPoints, OutOfRange
        For a bad sample, see :func:`~fastband.binning._as_sample`.
    AllDuplicates
        If fewer than two distinct rows remain.
    """
    x = _as_sample(x)
    order = np.argsort(x[:, 0], kind="stable")
    first = x[order, 0]
    if (first[1:] != first[:-1]).all():
        out = x[order]
    else:
        rows = x[np.lexsort(x.T[::-1])]
        keep = np.ones(rows.shape[0], dtype=bool)
        np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
        out = rows[keep]
    if out.shape[0] < 2:
        raise AllDuplicates("sample collapses to fewer than two distinct points")
    return out


def normal_scale_start(x, diagonal=False):
    """Normal-scale starting bandwidth ``n^(-2 / (d + 4)) * cov(X)``.

    ``x`` is an ``(n, d)`` sample, read by
    :func:`~fastband.binning._as_sample`.

    Raises
    ------
    ShapeMismatch, TooFewPoints, OutOfRange
        For a bad sample, see :func:`~fastband.binning._as_sample`.
    TooFewPoints
        If it has fewer than two rows, which a covariance needs.
    """
    x = _as_sample(x)
    n, d = x.shape
    if n < 2:
        raise TooFewPoints(f"need at least 2 points for a covariance, got {n}")
    factor = float(n) ** (-2.0 / (d + 4))
    cov = np.cov(x, rowvar=False).reshape(d, d)
    if diagonal:
        cov = np.diag(np.diag(cov))
    return factor * cov


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def lscv_objective(data, h, r=0, mode="fft-L", tau=DEFAULT_TAU):
    """Least-squares cross-validation objective for the order-``r`` target.

    Evaluates

        (-1)^r [ n^-2 sum_i sum_j (eta_r(X_i - X_j; 2H) - 2 eta_r(X_i - X_j; H))
                 + 2 n^-1 eta_r(0; H) ]

    which at ``r == 0`` is the classic criterion
    ``n^-2 sum_ij T_H(X_i - X_j) + 2 n^-1 K_H(0)``.  The double sum is
    exact in ``"direct-exact"`` mode and linearly binned otherwise.
    A wrapper over the scorer that :func:`select_bandwidth` prepares
    once per sample and calls at every step (see
    :class:`~fastband.functionals._PairScorer`), so it returns the
    selector's value bit for bit.

    Parameters
    ----------
    data : (n, d) or (n,) array_like, PairDifferences or GridCounts
        For ``"direct-exact"``, the raw sample (read by
        :func:`~fastband.binning._as_sample`; its pair differences are
        streamed and not kept) or its cached ``PairDifferences``; for
        the binned modes, the binned sample, whose counts must not sum
        to 0.
    h : (d, d) array_like or BandwidthMatrix
        Bandwidth matrix.
    r : int, optional
        Functional order (default 0).
    mode : str, optional
        One of ``SELECTOR_MODES``.
    tau : float, optional
        Truncation radius for ``"fft-L"``, in standard deviations of the
        wider kernel ``2H``.

    Returns
    -------
    float
    """
    with np.errstate(over="ignore"):
        return _PairScorer(data, r, mode, tau)(as_bandwidth(h))


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

    The simplex is kept as lists of Python floats, so its bookkeeping
    costs no small-array numpy calls.  Every step is the IEEE double
    arithmetic of an array implementation: vertices are ranked by a
    stable sort, the centroid is a column sum taken row by row from
    ``0.0`` and divided by ``p``, and the factors 1, 0.5 and 2 scale
    exactly.

    Parameters
    ----------
    func : callable
        Maps a coordinate vector, a fresh ``(p,)`` ndarray, to a float;
        a non-finite value is taken as ``inf`` and counted in
        ``n_rejected``.
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
    start = np.asarray(theta0, dtype=float).ravel().tolist()
    p = len(start)
    n_evals = n_rejected = 0

    def f(vertex):
        nonlocal n_evals, n_rejected
        n_evals += 1
        v = func(np.array(vertex))
        if math.isfinite(v):
            return float(v)
        n_rejected += 1
        return math.inf

    simplex = [start]
    for j in range(p):
        vertex = start.copy()
        vertex[j] += 0.1 * abs(vertex[j]) if abs(vertex[j]) > 1e-8 else 0.1
        simplex.append(vertex)
    fvals = [f(v) for v in simplex]

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        order = sorted(range(p + 1), key=fvals.__getitem__)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        best, worst = simplex[0], simplex[-1]

        # The vertex spread is tested element by element, so a NaN
        # coordinate fails it as it fails against an array's NaN maximum.
        if (abs(fvals[-1] - fvals[0]) < rel_tol * (1.0 + abs(fvals[0]))
                and _within(simplex[1:], best, rel_tol * (1.0 + max(map(abs, best))))):
            converged = True
            break

        centroid = [reduce(add, column, 0.0) / p for column in zip(*simplex[:-1])]
        reflected = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = f(reflected)

        if fr < fvals[0]:
            expanded = [c + 2.0 * (r - c) for c, r in zip(centroid, reflected)]
            fe = f(expanded)
            if fe < fr:
                simplex[-1], fvals[-1] = expanded, fe
            else:
                simplex[-1], fvals[-1] = reflected, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, fr
        else:
            toward = reflected if fr < fvals[-1] else worst
            contracted = [c + 0.5 * (t - c) for c, t in zip(centroid, toward)]
            fc = f(contracted)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = contracted, fc
            else:
                simplex[1:] = [[b + 0.5 * (v - b) for b, v in zip(best, vertex)]
                               for vertex in simplex[1:]]
                fvals[1:] = [f(v) for v in simplex[1:]]

    best = min(range(p + 1), key=fvals.__getitem__)
    return SimplexResult(
        theta=np.array(simplex[best]), f=fvals[best], iterations=it,
        n_evals=n_evals, converged=converged, n_rejected=n_rejected,
    )


def _within(vertices, best, tol):
    """Whether every coordinate of every vertex is within ``tol`` of ``best``."""
    return all(abs(v - b) < tol for vertex in vertices for v, b in zip(vertex, best))


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def select_bandwidth(x, config=None):
    """Choose an unconstrained bandwidth matrix by cross-validation.

    Prepares the sample once (dropping repeated rows, see
    :func:`dedup`), then minimizes the LSCV objective over the
    log-Cholesky coordinates of the bandwidth with a Nelder-Mead
    simplex started at the normal-scale bandwidth, to the default
    tolerance of :func:`nelder_mead`.  The binned modes bin the sample,
    and one scorer is prepared per sample
    (:class:`~fastband.functionals._PairScorer`): the FFT modes fold the
    count autocorrelation once, and ``"direct-exact"`` builds the
    sample's ``PairDifferences``.  Each evaluation then factors ``H``
    straight from the coordinates, in Python floats with no array made
    (``SpdParam.bandwidth``, which accepts exactly the matrices that
    ``BandwidthMatrix(h)`` accepts), and scores it: a tabulation of the
    kernel's slab ``j_1 >= 0`` and one sum over it (see
    :func:`~fastband.functionals.psi_binned`), or a sum over the
    ``n (n - 1) / 2`` pairs.  The result carries the time of each phase.

    Parameters
    ----------
    x : (n, d) or (n,) array_like
        Sample points, read by :func:`~fastband.binning._as_sample`.
    config : SelectorConfig, optional
        Selection knobs; defaults are sensible for moderate samples.

    Returns
    -------
    SelectionResult

    Raises
    ------
    ShapeMismatch, TooFewPoints, OutOfRange
        For a bad sample, see :func:`~fastband.binning._as_sample`.
    TooFewPoints
        If fewer than 10 distinct points remain.

    Examples
    --------
    >>> rng = np.random.default_rng(7)
    >>> x = rng.standard_normal((400, 2))
    >>> res = select_bandwidth(x)
    >>> res.h.shape
    (2, 2)
    """
    cfg = config or SelectorConfig()
    t0 = time.perf_counter()
    x = dedup(x)
    dedup_ms = (time.perf_counter() - t0) * 1000.0
    n, d = x.shape
    if n < _MIN_POINTS:
        raise TooFewPoints(f"need at least {_MIN_POINTS} distinct points, got {n}")

    grid = None
    binning_ms = 0.0
    if cfg.mode == "direct-exact":
        data = PairDifferences(x)
    else:
        t0 = time.perf_counter()
        grid = make_grid(x, (cfg.grid_size,) * d, cfg.margin_fraction)
        data = linear_binning(x, grid)
        binning_ms = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    scorer = _PairScorer(data, cfg.r, cfg.mode, cfg.tau)
    precompute_ms = (time.perf_counter() - t0) * 1000.0

    param = SpdParam(d, diagonal=cfg.diagonal)
    theta0 = param.encode(normal_scale_start(x, diagonal=cfg.diagonal))
    clock = [0, 0]
    rejections = Counter()

    def objective(theta):
        t0 = time.perf_counter_ns()
        t1 = None
        try:
            factors = param.bandwidth(theta)
            t1 = time.perf_counter_ns()
            value = scorer(factors)
        except _REJECTED as exc:
            value, kind = math.inf, type(exc).__name__
        else:
            kind = None if math.isfinite(value) else "non-finite"
        t2 = time.perf_counter_ns()
        t1 = t2 if t1 is None else t1
        clock[0] += t1 - t0
        clock[1] += t2 - t1
        if kind is not None:
            rejections[kind] += 1
        return value

    # An overflowing quadratic form gives the kernel's limit, 0.
    with np.errstate(over="ignore"):
        sim = nelder_mead(objective, theta0, max_iter=cfg.max_iter)
    return SelectionResult(
        h=param.decode(sim.theta),
        objective=sim.f,
        iterations=sim.iterations,
        n_evals=sim.n_evals,
        converged=sim.converged,
        mode=cfg.mode,
        n_used=n,
        grid=grid,
        dedup_ms=dedup_ms,
        binning_ms=binning_ms,
        n_rejected=sim.n_rejected,
        precompute_ms=precompute_ms,
        decode_ms=clock[0] / 1e6,
        score_ms=clock[1] / 1e6,
        kernel_points=scorer.kernel_points,
        rejections=dict(rejections),
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

    Raises
    ------
    TooFewPoints
        If the counts sum to 0.
    """
    if not isinstance(gc, GridCounts):
        raise ShapeMismatch("kde_on_grid expects GridCounts from linear_binning")
    if not gc.n > 0:
        raise TooFewPoints("the binned sample has no weight")
    direct = _binned_mode(mode)[0]
    kernel = eta_kernel_grid(gc.grid, h, 0, mode=mode, tau=tau)
    conv = (convolve_direct if direct else convolve)(gc.counts, kernel)
    return conv / gc.n
