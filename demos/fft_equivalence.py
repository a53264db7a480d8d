"""
Binned pair sums: exact equivalence and truncated speed
=======================================================

The binned cross-validation statistic ``n^-2 sum_i c_i (c * k)_i`` is a
convolution of grid counts with a kernel sampled on grid offsets.  It
equals ``n^-2 sum_j A(j) k(delta j)`` with ``A`` the autocorrelation of
the counts, which one forward real FFT and a half-size inverse per
sample compute.  Computed
three ways:

* ``direct-binned``   explicit convolution over kernel offsets (the oracle)
* ``fft-M``           ``A`` summed against the full-range kernel, over the
                      half space ``j_1 >= 0`` with ``A`` folded onto it
* ``fft-L``           the same with the kernel cut at tau standard deviations

The first two agree to machine precision.  The third trades a small,
controlled error for a much smaller kernel table.
"""

import time

import numpy as np

from fastband import (
    autocorrelate,
    effective_halfwidths,
    linear_binning,
    make_grid,
    normal_scale_start,
    psi_binned,
)

rng = np.random.default_rng(11)

x = rng.standard_normal((2000, 2))
h = normal_scale_start(x)

# ----------------------------------------------------------------------
# The three routes on one problem
# ----------------------------------------------------------------------

gc = linear_binning(x, make_grid(x, (80, 80)))
direct = psi_binned(gc, h, mode="direct-binned")
full = psi_binned(gc, h, mode="fft-M")
trunc = psi_binned(gc, h, mode="fft-L")

print("direct-binned :", direct)
print("fft-M         :", full, f"  (rel gap {abs(full - direct) / abs(direct):.2e})")
print("fft-L         :", trunc, f"  (rel gap {abs(trunc - full) / abs(full):.2e})")

# ----------------------------------------------------------------------
# Why fft-L is cheaper: fewer kernel points per evaluation
# ----------------------------------------------------------------------

grid180 = make_grid(x, (180, 180))
lam = 2.0 * np.linalg.eigvalsh(h)[-1]
halfwidths = effective_halfwidths(lam, grid180.delta, grid180.shape)
print("\ngrid shape           :", grid180.shape)
print("truncated halfwidths :", halfwidths)
print("kernel points, full  :", int(np.prod([2 * m - 1 for m in grid180.shape])))
print("kernel points, trunc :", int(np.prod([2 * l + 1 for l in halfwidths])))

# ----------------------------------------------------------------------
# Wall-clock comparison at a larger grid
# ----------------------------------------------------------------------

gc180 = linear_binning(x, grid180)
t0 = time.perf_counter()
autocorrelate(gc180.counts)
print(f"\nautocorrelation, once per sample : {1000 * (time.perf_counter() - t0):7.2f} ms")
for mode in ("fft-M", "fft-L"):
    t0 = time.perf_counter()
    for _ in range(5):
        psi_binned(gc180, h, mode=mode)
    dt = (time.perf_counter() - t0) / 5
    print(f"{mode:6s} at 180x180  : {1000 * dt:7.2f} ms per evaluation")
