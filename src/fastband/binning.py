"""Regular grids and linear binning of multivariate samples."""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .errors import DegenerateAxis, OutOfRange, ShapeMismatch
from .fftconv import autocorrelate

__all__ = ["GridSpec", "GridCounts", "make_grid", "linear_binning", "grid_points"]


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
        Number of nodes per axis, each at least 2.
    """

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        shape = tuple(int(m) for m in np.atleast_1d(self.shape))
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
    their autocorrelation is computed on first use and cached, and the
    full autocorrelation it folds is not kept.
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

        ``A`` is :func:`autocorrelate` of the counts, a temporary.

        ``W(j) = A(j) + A(-j)`` for ``j_1 > 0`` and ``(A(j) + A(-j)) / 2``
        on the slab ``j_1 = 0``, so ``sum_j A(j) k(j) = sum_{j_1 >= 0}
        W(j) k(j)`` for every even ``k``.  Since ``0 <= A(j) <= A(0)``,
        ``0 <= W(j) <= 2 A(0)``.  Shape ``(M_1, 2 M_2 - 1, ..., 2 M_d -
        1)``, the zero offset at index ``(0, M_2 - 1, ..., M_d - 1)``;
        read-only.
        """
        a = autocorrelate(self.counts)
        m = self.counts.shape[0]
        folded = a[m - 1:] + np.flip(a)[m - 1:]
        folded[0] *= 0.5
        folded.flags.writeable = False
        return folded


def make_grid(x, shape, margin_fraction=0.05):
    """Build a grid covering a sample with a proportional margin.

    Parameters
    ----------
    x : (n, d) array_like
        Sample points.
    shape : sequence of int
        Nodes per axis.
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
        If ``margin_fraction`` is negative or not finite.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
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
    return GridSpec(lo=lo, hi=hi, shape=tuple(shape))


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

def linear_binning(x, grid):
    """Spread each sample point over the 2^d nodes of its grid cell.

    Each point contributes weight ``prod_k w_k`` to a corner, where
    ``w_k`` is one minus the normalized distance to that corner along
    axis ``k``.  Weights over the corners of a cell sum to one, so the
    counts sum to the sample size.

    Parameters
    ----------
    x : (n, d) array_like
        Sample points, all inside the grid box.
    grid : GridSpec

    Returns
    -------
    GridCounts

    Raises
    ------
    OutOfRange
        If any point is NaN or infinite, or lies outside ``[lo, hi]``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != grid.d:
        raise ShapeMismatch(f"points have dimension {x.shape[1]}, grid has {grid.d}")
    if not np.all(np.isfinite(x)):
        raise OutOfRange("sample contains NaN or infinite values")
    delta = grid.delta
    t = (x - grid.lo) / delta
    eps = 1e-9
    if np.any(t < -eps) or np.any(t > np.array(grid.shape) - 1 + eps):
        raise OutOfRange("sample point outside the grid box")
    t = np.clip(t, 0.0, np.array(grid.shape) - 1)
    base = np.minimum(t.astype(int), np.array(grid.shape) - 2)
    frac = t - base
    counts = np.zeros(grid.shape)
    for corner in product((0, 1), repeat=grid.d):
        w = np.ones(x.shape[0])
        for k, c in enumerate(corner):
            w = w * (frac[:, k] if c else 1.0 - frac[:, k])
        idx = tuple(base[:, k] + corner[k] for k in range(grid.d))
        np.add.at(counts, idx, w)
    return GridCounts(grid=grid, counts=counts)


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
