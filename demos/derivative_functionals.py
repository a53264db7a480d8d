"""
Gaussian derivative tensors and density functionals
===================================================

Higher-order selectors need integrated density derivative functionals.
Their kernels eta_r are iterated Laplacians of the Gaussian density.
In the eigenbasis of the covariance the density is a product of 1-D
Gaussians, so eta_r is the density times a short sum of products of
1-D Hermite polynomials.  The general-weight engine behind eta_rs is
the full tensor of Gaussian partial derivatives, generated by a
two-term recursion and contracted against direction matrices; with
identity directions it gives eta_r again.  The pairwise V-statistic
Q_r built from eta_r has a binned form that converges to the exact sum
as the grid refines.
"""

import numpy as np

from fastband import (
    eta_r,
    eta_rs,
    gaussian_derivative_vector,
    linear_binning,
    make_grid,
    q_r_binned,
    q_r_exact,
)

rng = np.random.default_rng(5)

# ----------------------------------------------------------------------
# Derivative tensors at a point
# ----------------------------------------------------------------------

sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
pt = np.array([[0.4, -0.2]])

for order in (0, 1, 2):
    t = gaussian_derivative_vector(pt, sigma, order)[0]
    print(f"order {order} tensor shape {np.shape(t)}:")
    print(np.round(np.asarray(t), 5))

# The order-2 tensor is symmetric, as mixed partials must be.

# ----------------------------------------------------------------------
# Scalar kernels eta_r
# ----------------------------------------------------------------------

print("\neta_0 at origin (the density itself):", eta_r(np.zeros(2), sigma, 0))
print("eta_1 at origin, identity direction :", eta_r(np.zeros(2), sigma, 1))
print("eta_2 at origin, identity direction :", eta_r(np.zeros(2), sigma, 2))

# The tensor engine, contracted with vec(I), gives the same values.
print("eta_2 at origin from the tensor     :", eta_rs(np.zeros(2), sigma, 2, 0, np.eye(2)))

# ----------------------------------------------------------------------
# Q_r: binned estimates converge to the exact double sum
# ----------------------------------------------------------------------

x = 0.4 * rng.standard_normal((400, 2))
scale = np.eye(2)

for r in (0, 2, 4):
    exact = q_r_exact(x, scale, r)
    print(f"\nQ_{r} exact: {exact:.10f}")
    print("grid     binned value        relative error")
    for m in (40, 80, 160):
        gc = linear_binning(x, make_grid(x, (m, m)))
        val = q_r_binned(gc, scale, r, mode="fft-M")
        print(f"{m:4d}   {val:+.10f}    {abs(val - exact) / abs(exact):.2e}")
