"""Regular grids and linear binning of multivariate samples."""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from numbers import Integral

import numpy as np

from .errors import DegenerateAxis, OutOfRange, ShapeMismatch, TooFewPoints
from .fftconv import _half_autocorrelation

__all__ = ["GridSpec", "GridCounts", "make_grid", "linear_binning", "grid_points"]


def _as_sample(x):
    """``x`` as an ``(n, d)`` float sample; a 1-d ``x`` is ``n`` points in one dimension.

    The one reading of a sample, at every entry point that takes one.

    Raises
    ------
    ShapeMismatch
        If ``x`` is not 2-D after that reading, or has no column.
    TooFewPoints
        If it has no row.
    OutOfRange
        If a value is NaN or infinite.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeMismatch(f"expected an (n, d) sample with d >= 1, got shape {x.shape}")
    if x.shape[0] == 0:
        raise TooFewPoints("the sample has no points")
    if not np.isfinite(x).all():
        raise OutOfRange("sample contains NaN or infinite values")
    return x


def _is_int(value):
    """Whether ``value`` is an integer count: an ``Integral`` that is not a ``bool``."""
    return isinstance(value, Integral) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """A regular rectangular grid.

    Attributes
    ----------
    lo : (d,) ndarray
        Coordinate of the first node on each axis, finite.
    hi : (d,) ndarray
        Coordinate of the last node on each axis, finite.
    shape : tuple of int
        Number of nodes per axis, each an integer of at least 2.

    Raises
    ------
    OutOfRange
        If a node count is not an integer (a float or a bool, say) or
        is below 2, or a bound is not finite or ``hi <= lo`` on some axis.
    ShapeMismatch
        If ``lo``, ``hi`` and ``shape`` differ in dimension.
    """

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        dims = self.shape if np.ndim(self.shape) else (self.shape,)
        if not all(_is_int(m) for m in dims):
            raise OutOfRange(f"node counts must be integers, got {self.shape!r}")
        shape = tuple(int(m) for m in dims)
        if not (lo.shape == hi.shape and lo.size == len(shape)):
            raise ShapeMismatch("lo, hi and shape must agree in dimension")
        if any(m < 2 for m in shape):
            raise OutOfRange("each axis needs at least 2 nodes")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise OutOfRange("lo and hi must be finite")
        if np.any(hi <= lo):
            raise OutOfRange("hi must exceed lo on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)

    @property
    def d(self):
        """Number of axes."""
        return len(self.shape)

    @cached_property
    def delta(self):
        """Node spacing per axis (cached, read-only)."""
        delta = (self.hi - self.lo) / (np.array(self.shape) - 1)
        delta.flags.writeable = False
        return delta

    @cached_property
    def steps(self):
        """Node spacing per axis as Python floats (cached)."""
        return tuple(self.delta.tolist())

    @cached_property
    def offsets(self):
        """Node offsets per axis, ``delta_k * [-(M_k - 1), ..., M_k - 1]`` (cached).

        One read-only vector per axis, shaped to broadcast along axis
        ``k`` of a ``d``-D array, the zero offset at index ``M_k - 1``.
        A kernel box of half-widths ``L`` slices its offsets from these.
        """
        axes = []
        for k, (dk, mk) in enumerate(zip(self.delta, self.shape)):
            axis = (dk * np.arange(1 - mk, mk)).reshape((-1,) + (1,) * (self.d - 1 - k))
            axis.flags.writeable = False
            axes.append(axis)
        return tuple(axes)

    def axis_nodes(self, k):
        """Node coordinates along axis ``k``."""
        return np.linspace(self.lo[k], self.hi[k], self.shape[k])


@dataclass
class GridCounts:
    """Linear-binning weights attached to the grid they live on.

    The counts are treated as fixed once attached: the folded half of
    their autocorrelation is computed on first use and cached.  Only the
    half ``j_1 >= 0`` of the autocorrelation is ever computed; the full
    table is not built.
    """

    grid: GridSpec
    counts: np.ndarray = field(repr=False)

    @cached_property
    def n(self):
        """Total weight, equal to the sample size (cached)."""
        return float(self.counts.sum())

    @cached_property
    def folded_autocorrelation(self):
        """The count autocorrelation ``A`` folded onto the half space ``j_1 >= 0`` (cached).

        ``A`` is read on ``j_1 >= 0`` only, from one half-size inverse
        transform (:func:`~fastband.fftconv._half_autocorrelation`).
        Since ``A(-j) = A(j)``, ``W(j) = 2 A(j)`` for ``j_1 > 0``, and
        on the slab ``j_1 = 0``, ``W(0, j') = (A(0, j') + A(0, -j')) /
        2``, which is exactly symmetric in ``j'``.  So ``sum_j A(j) k(j)
        = sum_{j_1 >= 0} W(j) k(j)`` for every even ``k``, and ``W`` is
        bit for bit the fold of :func:`autocorrelate`'s full table.
        Since ``0 <= A(j) <= A(0)``, ``0 <= W(j) <= 2 A(0)``, up to the
        transform's round-off.  Shape ``(M_1, 2 M_2 - 1, ..., 2 M_d -
        1)``, the zero offset at index ``(0, M_2 - 1, ..., M_d - 1)``;
        read-only.
        """
        half = _half_autocorrelation(self.counts)
        folded = half + half
        folded[0] = (half[0] + np.flip(half[0])) * 0.5
        folded.flags.writeable = False
        return folded


def make_grid(x, shape, margin_fraction=0.05):
    """Build a grid covering a sample with a proportional margin.

    Parameters
    ----------
    x : (n, d) or (n,) array_like
        Sample points, read by :func:`_as_sample`.
    shape : sequence of int
        Nodes per axis, each an integer of at least 2.
    margin_fraction : float, optional
        Fraction of each axis range added below the minimum and above
        the maximum (default 0.05), finite and nonnegative.

    Returns
    -------
    GridSpec

    Raises
    ------
    DegenerateAxis
        If all sample values coincide along some axis.
    OutOfRange
        If ``margin_fraction`` is negative or not finite, or a node
        count is refused by :class:`GridSpec`.
    ShapeMismatch, TooFewPoints, OutOfRange
        For a bad sample, see :func:`_as_sample`.
    """
    x = _as_sample(x)
    if not (math.isfinite(margin_fraction) and margin_fraction >= 0):
        raise OutOfRange(f"margin_fraction must be finite and >= 0, got {margin_fraction!r}")
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    rng = maxs - mins
    bad = np.nonzero(rng == 0)[0]
    if bad.size:
        raise DegenerateAxis(f"axis {bad[0]} has zero range")
    lo = mins - margin_fraction * rng
    hi = maxs + margin_fraction * rng
    return GridSpec(lo=lo, hi=hi, shape=shape)


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

def linear_binning(x, grid):
    """Spread each sample point over the 2^d nodes of its grid cell.

    Each point contributes weight ``prod_k w_k`` to a corner, where
    ``w_k`` is one minus the normalized distance to that corner along
    axis ``k``.  Weights over the corners of a cell sum to one, so the
    counts sum to the sample size.

    The weights and flat node indices of all ``2^d`` corners go
    corner-major into one ``(2^d, n)`` buffer each and are summed by
    one ``np.bincount``, which adds each node's terms in that order,
    from 0: corner by corner, point by point within a corner.

    Parameters
    ----------
    x : (n, d) or (n,) array_like
        Sample points, read by :func:`_as_sample`, all inside the grid box.
    grid : GridSpec

    Returns
    -------
    GridCounts

    Raises
    ------
    OutOfRange
        If any point lies outside ``[lo, hi]``.
    ShapeMismatch
        If the sample and the grid differ in dimension.
    ShapeMismatch, TooFewPoints, OutOfRange
        For a bad sample, see :func:`_as_sample`.
    """
    x = _as_sample(x)
    if x.shape[1] != grid.d:
        raise ShapeMismatch(f"points have dimension {x.shape[1]}, grid has {grid.d}")
    delta = grid.delta
    t = (x - grid.lo) / delta
    eps = 1e-9
    if np.any(t < -eps) or np.any(t > np.array(grid.shape) - 1 + eps):
        raise OutOfRange("sample point outside the grid box")
    t = np.clip(t, 0.0, np.array(grid.shape) - 1)
    base = np.minimum(t.astype(int), np.array(grid.shape) - 2)
    frac = t - base
    flat = np.ravel_multi_index(tuple(base.T), grid.shape)
    corners = list(product((0, 1), repeat=grid.d))
    weights = np.empty((len(corners), x.shape[0]))
    idx = np.empty((len(corners), x.shape[0]), dtype=np.intp)
    for row, corner in enumerate(corners):
        w = np.ones(x.shape[0])
        for k, c in enumerate(corner):
            w = w * (frac[:, k] if c else 1.0 - frac[:, k])
        weights[row] = w
        np.add(flat, np.ravel_multi_index(corner, grid.shape), out=idx[row])
    counts = np.bincount(idx.ravel(), weights=weights.ravel(), minlength=math.prod(grid.shape))
    return GridCounts(grid=grid, counts=counts.reshape(grid.shape))


def grid_points(grid):
    """All node coordinates as an array in row-major node order.

    The first axis index varies slowest, matching the memory layout of
    the counts array.

    Parameters
    ----------
    grid : GridSpec

    Returns
    -------
    (prod(shape), d) ndarray
    """
    axes = [grid.axis_nodes(k) for k in range(grid.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, grid.d)
