"""A tour of the spline machinery underneath the curve estimate.

The ridge function is represented in a B-spline basis, and roughness is
charged through the integrated squared second derivative of that basis.
This script builds a small basis by hand and checks the properties the
fitting code leans on: partition of unity, the Greville interpolation
points, and a curvature penalty that vanishes exactly on affine functions.
"""

import numpy as np

from jenseneffect import (
    basis_matrix,
    greville_abscissae,
    make_spline_basis,
    penalty_matrix,
)

# a deliberately tiny basis so every matrix fits on screen
basis = make_spline_basis(0.0, 1.0, dim=8, degree=5)
print(f"basis: dim={basis.dim} degree={basis.degree} on [{basis.lo}, {basis.hi}]")

# B-splines sum to one everywhere inside the domain
x = np.linspace(0.0, 1.0, 9)
phi = basis_matrix(basis, x)
print("\nrow sums of the design matrix (should all be 1):")
print(np.array2string(phi.sum(axis=1), precision=15))

# Greville abscissae: evaluating at these points makes a spline with
# coefficients d pass (approximately) through d itself for affine d
grev = greville_abscissae(basis)
print("\nGreville abscissae:")
print(np.array2string(grev, precision=4))

# the penalty matrix integrates products of second derivatives
P = penalty_matrix(basis)
print(f"\npenalty matrix: shape {P.shape}, symmetric to "
      f"{np.abs(P - P.T).max():.2e}, min eigenvalue {np.linalg.eigvalsh(P).min():.2e}")

# an affine function has zero curvature, so its coefficients are penalty-free;
# coefficients sampled from an affine function at the Greville points
# reproduce that function exactly
d_affine = 2.0 * grev - 0.5
print(f"\npenalty charged to an affine curve: {d_affine @ P @ d_affine:.3e}")

d_wiggle = np.sin(6.0 * grev)
print(f"penalty charged to a wiggly curve:  {d_wiggle @ P @ d_wiggle:.3e}")
