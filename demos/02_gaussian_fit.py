"""Fit a penalized single-index model to log-normal response data.

The model is E[log Y | X] = g(X beta) with g an unknown smooth curve and
beta a unit-length direction. We simulate from a known square-root curve,
fit along a grid of smoothing levels, and compare the curve picked by
generalized cross-validation against the truth.
"""

import numpy as np

from jenseneffect import Dataset, ModelSpec, basis_matrix, fit_path

rng = np.random.default_rng(7)
n, p = 400, 4
X = rng.uniform(0.0, 0.5, size=(n, p))
true_beta = np.full(p, 1.0 / np.sqrt(p))
s = X @ true_beta
y = np.sqrt(s) * np.exp(0.02 * rng.standard_normal(n))

spec = ModelSpec(family="gaussian_log", p=p)
path = fit_path(spec, Dataset(y=y, X=X))

print("smoothing path (generalized cross-validation):")
for lam, f, gcv in zip(path.grid, path.fits, path.gcv):
    marker = "  <- selected" if lam == path.grid[path.selected] else ""
    print(f"  lambda={lam:10.3e}  gcv={gcv:.6e}  converged={f.converged}{marker}")

best = path.fits[path.selected]
print(f"\nestimated direction: {np.array2string(best.coeffs.beta, precision=4)}")
print(f"true direction:      {np.array2string(true_beta, precision=4)}")

# compare the fitted curve to log sqrt(s) at a few index values
probe = np.linspace(s.min() + 0.02, s.max() - 0.02, 6)
ghat = basis_matrix(best.basis, probe) @ best.coeffs.d
print("\n   s        ghat      log sqrt(s)")
for si, gi in zip(probe, ghat):
    print(f"  {si:.3f}  {gi:9.4f}  {np.log(np.sqrt(si)):9.4f}")
