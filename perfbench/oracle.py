"""Correctness oracle for one selection and its density, run outside timing.

Checks, per selection:

1. ``converged``: the simplex met its tolerance, and H is finite and SPD.
2. ``grid_step`` (binned modes): H's smallest principal standard deviation
   is at least one grid step; below that the binned objective cannot
   resolve the kernel and the optimum is suspect.
3. ``objective``: the reported objective matches an FFT-free re-evaluation
   at H to a relative 1e-10.  Binned modes re-bin the deduplicated sample,
   tabulate the CV kernel over the mode's own support (full for fft-M, the
   tau-truncated box for fft-L) and sum with ``convolve_direct``; the exact
   mode is checked against a plain numpy pairwise sum.
4. ``density``: the ``kde_on_grid`` output is finite and its grid mass lies
   in [0.95, 1.001], the check the ``density`` command makes.

The Gaussian, the binning and the pairwise sums here are the benchmark's own
numpy code, so a defect in the library's versions does not cancel out.
"""

import math
from itertools import product

import numpy as np

from fastband import convolve_direct, grid_points, mixture_pdf, normal_scale_start

OBJECTIVE_RTOL = 1e-10
MASS_RANGE = (0.95, 1.001)


def gauss(u, h):
    """Zero-mean Gaussian density with covariance ``h`` at the rows of ``u``."""
    u = np.atleast_2d(u)
    d = h.shape[0]
    quad = np.einsum("ij,jk,ik->i", u, np.linalg.inv(h), u)
    return np.exp(-0.5 * quad) / math.sqrt((2.0 * math.pi) ** d * np.linalg.det(h))


def cv_kernel(u, h):
    """``K_{2H}(u) - 2 K_H(u)``."""
    return gauss(u, 2.0 * h) - 2.0 * gauss(u, h)


def bin_counts(x, grid):
    """Linear-binning weights of ``x`` on ``grid``."""
    shape = np.array(grid.shape)
    t = np.clip((x - grid.lo) / grid.delta, 0.0, shape - 1)
    base = np.minimum(np.floor(t).astype(int), shape - 2)
    frac = t - base
    counts = np.zeros(grid.shape)
    for corner in product((0, 1), repeat=x.shape[1]):
        w = np.prod([frac[:, k] if c else 1.0 - frac[:, k] for k, c in enumerate(corner)], axis=0)
        np.add.at(counts, tuple(base[:, k] + c for k, c in enumerate(corner)), w)
    return counts


def support_halfwidths(grid, h, mode, tau):
    """Kernel half-widths of a binned mode: full grid, or tau std of 2H."""
    if mode != "fft-L":
        return tuple(m - 1 for m in grid.shape)
    radius = tau * math.sqrt(np.linalg.eigvalsh(2.0 * h)[-1])
    return tuple(
        max(1, min(m - 1, math.ceil(radius / dk))) for dk, m in zip(grid.delta, grid.shape)
    )


def binned_objective(x_used, grid, h, mode, tau):
    """LSCV objective from binned counts, summed offset by offset."""
    counts = bin_counts(x_used, grid)
    half = support_halfwidths(grid, h, mode, tau)
    axes = [dk * np.arange(-lk, lk + 1) for dk, lk in zip(grid.delta, half)]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(half))
    kernel = cv_kernel(offsets, h).reshape(tuple(2 * l + 1 for l in half))
    n = counts.sum()
    pair = float(np.sum(counts * convolve_direct(counts, kernel)) / (n * n))
    return pair + 2.0 * float(gauss(np.zeros(len(half)), h)[0]) / n


def exact_objective(x_used, h):
    """LSCV objective from the exact pairwise sum."""
    n, d = x_used.shape
    diffs = (x_used[:, None, :] - x_used[None, :, :]).reshape(-1, d)
    pair = float(np.sum(cv_kernel(diffs, h))) / (n * n)
    return pair + 2.0 * float(gauss(np.zeros(d), h)[0]) / n


def density_summary(gc, values):
    """(all finite, grid mass) of ``kde_on_grid`` output on ``gc``'s grid."""
    return bool(np.all(np.isfinite(values))), float(values.sum() * np.prod(gc.grid.delta))


class Oracle:
    """Checks selections on one pool; memoizes work that repeats across passes.

    Deduplicated samples and re-evaluated objectives depend only on the
    sample and H, so a pass that reproduces an earlier H reuses them.
    """

    def __init__(self, pool, config):
        self.pool = pool
        self.config = config
        self._x_used = {}
        self._objective = {}

    def x_used(self, i):
        """The sample as the selector sees it, after dropping duplicate rows."""
        if i not in self._x_used:
            self._x_used[i] = np.unique(self.pool[i].x, axis=0)
        return self._x_used[i]

    def reference_objective(self, i, res):
        key = (i, res.h.tobytes())
        if key not in self._objective:
            if res.mode == "direct-exact":
                val = exact_objective(self.x_used(i), res.h)
            else:
                val = binned_objective(self.x_used(i), res.grid, res.h, res.mode, self.config.tau)
            self._objective[key] = val
        return self._objective[key]

    def check(self, i, res, density):
        """Failed check names for selection ``res`` on sample ``i``, with details.

        ``density`` is ``density_summary`` of the ``kde_on_grid`` output at ``res.h``.
        """
        failures = []
        h = res.h
        eig = np.linalg.eigvalsh(h) if np.all(np.isfinite(h)) else np.array([np.nan])
        if not (res.converged and np.allclose(h, h.T) and np.all(eig > 0)):
            failures.append(("converged", f"converged={res.converged} eigenvalues={eig}"))
            return failures
        if res.grid is not None:
            min_std, step = math.sqrt(eig[0]), float(np.min(res.grid.delta))
            if min_std < step:
                failures.append(
                    ("grid_step", f"smallest principal std {min_std:.3g} < step {step:.3g}"))
        ref = self.reference_objective(i, res)
        if not abs(res.objective - ref) <= OBJECTIVE_RTOL * abs(ref):
            failures.append(("objective", f"reported {res.objective!r}, re-evaluated {ref!r}"))
        finite, mass = density
        if not (finite and MASS_RANGE[0] <= mass <= MASS_RANGE[1]):
            failures.append(("density", f"grid mass {mass:.6f}"))
        return failures

    def ise(self, i, h, density_at):
        """ISE of the grid density ``density_at(h)`` against the generating mixture.

        Taken by quadrature over the density grid: O(grid nodes), where
        ``exact_ise`` is O(n^2) and would dominate a run at n = 2000.
        """
        gc, values = density_at(h)
        truth = mixture_pdf(self.pool[i].mixture, grid_points(gc.grid)).reshape(gc.grid.shape)
        return float(np.sum((values - truth) ** 2) * np.prod(gc.grid.delta))

    def ise_ratio(self, i, h, density_at):
        """ISE at ``h`` over the ISE at the normal-scale start on the same sample.

        The common sample cancels most of the ISE's seed-to-seed spread.
        """
        start = normal_scale_start(self.x_used(i))
        return self.ise(i, h, density_at) / self.ise(i, start, density_at)
