"""Test the sign of the Jensen effect for a Poisson response.

The Jensen effect delta is the gap between the average fitted response and
the fitted response at the average index: delta < 0 means variability in
the covariates lowers the expected response, which happens under a concave
curve. The test tracks the studentized estimate along the whole smoothing
path and compares its extreme against Monte Carlo critical values, so no
single smoothing level has to be trusted.
"""

import numpy as np

from jenseneffect import (
    Dataset,
    ModelSpec,
    ScenarioConfig,
    fit_path,
    gen_dataset,
    jensen_test,
    true_delta,
)

# a saturating (concave) mean curve from the built-in scenario catalog
cfg = ScenarioConfig("pois-logistic", n=500, param=8.0, seed=3)
X, y = gen_dataset(cfg, replicate=0)
print(f"scenario {cfg.scenario}: n={cfg.n}, steepness a={cfg.param_}")
print(f"population delta (200k-draw quadrature): {true_delta(cfg):.4f}")

path = fit_path(ModelSpec(family="poisson", p=X.shape[1]), Dataset(y=y, X=X))
res = jensen_test(path, direction="test_negative", seed=1)

print("\n  log10(lambda)   delta_hat        t")
for k, lam in enumerate(path.grid):
    t_k = res.t[res.kept.index(k)] if k in res.kept else float("nan")
    print(f"      {np.log10(lam):6.2f}     {res.deltas[k]:+.5f}   {t_k:+8.3f}")

print(f"\nstatistic (most negative t): {res.statistic:.3f}")
print(f"critical value at alpha={res.alpha}: {res.critical_value:.3f}")
print(f"p-value: {res.p_value:.4f}")
print("decision:", "variability reduces the mean (reject)" if res.reject else "no evidence")
