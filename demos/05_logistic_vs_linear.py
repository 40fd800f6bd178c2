"""Compare a logistic single-index fit against the plain linear-logistic model.

For binary responses the interesting null is not "no Jensen effect" but
"the effect is exactly what a linear-logistic model already implies",
because the logistic link is itself curved. The reference fit supplies that
implied effect, and the test asks whether the single-index estimate departs
from it anywhere along the smoothing path.

Two cases: data generated from a genuinely linear-logistic model (the test
should stay quiet) and data whose success probability peaks at intermediate
index values, an optimum in the middle of the range. Monotone success curves
are usually too close to some linear-logistic fit for this test to separate
at practical sample sizes; a non-monotone one departs decisively.
"""

import numpy as np
from scipy.special import expit

from jenseneffect import (
    Dataset,
    ModelSpec,
    alternative_null_test,
    fit_path,
    linear_logistic_reference,
)


def run_case(title, X, y, p):
    data = Dataset(y=y, X=X)
    path = fit_path(ModelSpec(family="bernoulli_logit", p=p), data)
    ref = linear_logistic_reference(data)
    res = alternative_null_test(path, ref, seed=11)
    print(f"\n{title}")
    print(f"  reference delta (implied by the linear-logistic fit): {ref.delta_inf:+.5f}")
    print(f"  largest departure |t| along the path: {abs(res.statistic):.3f}"
          f"  critical: {res.critical_value:.3f}  p={res.p_value:.4f}")
    print(f"  decision: {'departs from linear-logistic' if res.reject else 'consistent with linear-logistic'}")


rng = np.random.default_rng(19)
p = 3

# case 1: the null is true by construction
X1 = rng.uniform(0.0, 1.0, size=(400, p))
y1 = rng.binomial(1, expit(-1.0 + X1 @ np.array([1.5, 0.8, 0.4]))).astype(float)
run_case("linear-logistic truth", X1, y1, p)

# case 2: success is most likely at intermediate index values
X2 = rng.uniform(0.0, 1.0, size=(800, p))
s2 = X2 @ np.full(p, p ** -0.5)
pi2 = 0.1 + 0.65 * np.exp(-(((s2 - 0.9) / 0.35) ** 2))
y2 = rng.binomial(1, pi2).astype(float)
run_case("success curve peaked in the middle of the range", X2, y2, p)
