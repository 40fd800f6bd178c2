"""Jensen-effect estimation and smoothing-path hypothesis tests.

The Jensen effect of covariate variability is

    delta = mean_i h(g(E_i)) - h(g(E_bar))

(with h the family's Jensen transform, `Family.h`: exp for gaussian_log /
poisson, logistic for bernoulli_logit; a paired family averages the
difference per observation so extra covariates stay at their own values).
delta_hat is computed at every lambda on a fitted path; a multivariate
normal null for the normalized process t_lambda gives a critical value for
min/max-type statistics, simulated rather than asymptotic because the
per-lambda estimates are strongly dependent. The direction table
`_STATISTICS` gives the observed and the null statistic and their tail;
`_functional` gives delta and its gradient for spline and linear fits alike.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import basis_matrix
from .errors import (
    DegenerateVarianceError,
    NumericalError,
    SeparationError,
    TestInfeasibleError,
)
from .inference import LambdaPath, _fit_system, _noise_scale
from .inference import coef_cov  # noqa: F401  perfbench/tracing.py wraps jensen.coef_cov by name
from .model import FAMILY_TABLE, Dataset, FitResult, ModelSpec, _irls

__all__ = [
    "EvalSet",
    "JensenTestResult",
    "LinearReference",
    "DIRECTIONS",
    "make_eval_set",
    "delta_hat",
    "delta_cov",
    "truncate_psd",
    "t_process",
    "null_critical_value",
    "jensen_test",
    "linear_logistic_reference",
    "alternative_null_test",
]

# the direction table: direction -> (its statistic of t along `axis`, rejects in the lower tail)
_STATISTICS = {
    "test_negative": (np.min, True),
    "test_positive": (np.max, False),
    "test_vs_linear_logistic": (lambda t, axis: np.abs(t).max(axis=axis), False),
}
DIRECTIONS = tuple(_STATISTICS)
REFERENCE_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class EvalSet:
    """Augmented evaluation points for one fit.

    Unpaired families: n index values followed by their mean, weights
    (1/n, ..., 1/n, -1). Paired: n interleaved pairs (observed index, index
    with the environmental part averaged), weights (1/n, -1/n, ...);
    `offsets` carries any extra-covariate contribution that enters after
    the link (outside_index placement).
    """

    family: str
    points: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    phi_plus: np.ndarray

    def __post_init__(self) -> None:
        if abs(float(np.sum(self.weights))) > 1e-12:
            raise ValueError("evaluation weights must sum to zero")
        if self.phi_plus.shape[0] != self.points.size:
            raise ValueError("evaluation matrix row count must match the points")


@dataclass(frozen=True, eq=False)
class JensenTestResult:
    """A completed smoothing-path test."""

    deltas: np.ndarray
    sigma_delta: np.ndarray
    t: np.ndarray
    sigma_t: np.ndarray
    kept: tuple[int, ...]
    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    direction: str
    alpha: float
    n_null_sims: int
    seed: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class LinearReference:
    """Linear-logistic fit of the same data: the 'no curvature' reference.

    delta_inf is the Jensen functional applied to the linear fit and
    `influence_row` its d(delta_inf)/dy (length n). Subtracted from the
    influence row of delta_hat at each grid value (see `delta_cov`), it
    gives the rows U of the difference process, whose covariance is
    U diag(w_ref) U'.
    """

    intercept: float
    beta_inf: np.ndarray
    gamma_inf: np.ndarray
    fitted_pi: np.ndarray
    delta_inf: float
    influence_row: np.ndarray


def _mean_snap(x: np.ndarray) -> float:
    # a degenerate spread must evaluate at the shared point bit-for-bit
    if np.ptp(x) == 0.0:
        return float(x[0])
    return float(np.mean(x))


def make_eval_set(spec: ModelSpec, data: Dataset, fit: FitResult) -> EvalSet:
    """Build the augmented evaluation points for one fit, in its own frame."""
    n = data.n
    if not FAMILY_TABLE[spec.family].paired:
        E = fit.index_values
        points = np.append(E, _mean_snap(E))
        weights = np.append(np.full(n, 1.0 / n), -1.0)
        offsets = np.zeros(n + 1)
    else:
        x = data.X @ fit.coeffs.beta
        base = np.zeros(n)
        after = np.zeros(n)
        if spec.q > 0:
            contrib = data.A @ fit.coeffs.gamma
            if spec.extra_placement == "inside_index":
                base = contrib
            else:
                after = contrib
        xbar = _mean_snap(x)
        points = np.empty(2 * n)
        points[0::2] = base + x
        points[1::2] = base + xbar
        weights = _paired_weights(n)
        offsets = np.repeat(after, 2)
    phi_plus = basis_matrix(fit.basis, points)
    return EvalSet(
        family=spec.family, points=points, weights=weights, offsets=offsets, phi_plus=phi_plus
    )


def _paired_weights(n: int) -> np.ndarray:
    return np.tile([1.0 / n, -1.0 / n], n)


def _functional(
    family: str, rows: np.ndarray, weights: np.ndarray, offsets, coef: np.ndarray
) -> tuple[float, np.ndarray]:
    """(delta, c) at g = rows @ coef + offsets: delta = sum_i a_i h(g_i), or
    the mean pair difference for a paired family (identical pair members
    cancel exactly), and its gradient in coef, c = rows' (a * h'(g))."""
    fam = FAMILY_TABLE[family]
    g = rows @ coef + offsets
    hv = fam.h(g)
    if np.ptp(hv) == 0.0:
        delta = 0.0
    elif fam.paired:
        diffs = hv[0::2] - hv[1::2]
        delta = float(np.sum(diffs) / diffs.size)
    else:
        delta = float(weights @ hv)
    return delta, rows.T @ (weights * fam.h_prime(g))


def delta_hat(fit: FitResult, ev: EvalSet) -> float:
    """The Jensen-effect estimate for one fit.

    Exactly zero whenever the fitted values are constant over the evaluation
    points, and (paired case) whenever every pair is degenerate.
    """
    return _functional(ev.family, ev.phi_plus, ev.weights, ev.offsets, fit.coeffs.d)[0]


def truncate_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetrize and clip negative eigenvalues at zero."""
    sym = 0.5 * (mat + mat.T)
    w, V = np.linalg.eigh(sym)
    if w.size and w[0] >= 0:
        return sym
    w = np.maximum(w, 0.0)
    out = (V * w) @ V.T
    return 0.5 * (out + out.T)


def _terms(fit: FitResult, ev: EvalSet) -> tuple[float, np.ndarray]:
    """(delta_hat, its influence row Phi M^-1 c = d(delta_hat) / d(W z)) for
    one fit: the gradient c of delta_hat in the spline coefficients carried
    into observation space through d_hat = M^-1 Phi' W z."""
    phi, _, _, V = _fit_system(fit)
    delta, c = _functional(ev.family, ev.phi_plus, ev.weights, ev.offsets, fit.coeffs.d)
    return delta, phi @ (V @ c)


def _path_terms(path: LambdaPath) -> tuple[np.ndarray, np.ndarray]:
    """(delta_hat, influence row) at every grid value, one fit at a time, so
    that only one fit's evaluation set is alive at once."""
    deltas = np.empty(len(path.fits))
    rows = np.empty((len(path.fits), path.data.n))
    for k, f in enumerate(path.fits):
        ev = make_eval_set(path.spec, path.data, f)
        deltas[k], rows[k] = _terms(f, ev)
        del ev  # free this fit's set before the next one is built
    return deltas, rows


def _row_cov(path: LambdaPath, rows: np.ndarray, what: str) -> np.ndarray:
    """s G diag(w_ref) G', projected to the PSD cone, for influence rows G."""
    scaled = rows * path.weight_ref[None, :]
    scaled *= _noise_scale(path)  # in place: one m x n temporary, not two
    sigma = truncate_psd(scaled @ rows.T)
    if np.all(np.diag(sigma) <= 0.0):
        raise DegenerateVarianceError(f"estimated variance of {what} is zero on the whole grid")
    return sigma


def delta_cov(path: LambdaPath, evals: list[EvalSet]) -> np.ndarray:
    """Covariance of the delta_hat process across the lambda grid, by the
    delta method: s G diag(w_ref) G' over the influence rows G (one per
    grid value), projected to the PSD cone. s is the gaussian residual
    variance (1 for poisson and logit) and w_ref the family weights at the
    GCV-selected lambda. Entry (i, j) equals c_i' coef_cov(path, i, j) c_j.
    """
    if len(evals) != len(path.fits):
        raise ValueError("need one evaluation set per grid value")
    rows = np.array([_terms(f, ev)[1] for f, ev in zip(path.fits, evals)])
    return _row_cov(path, rows, "delta_hat")


def t_process(deltas: np.ndarray, sigma_delta: np.ndarray):
    """Normalize the delta process: t = delta / sd, sigma_t the correlation.

    Grid entries with nonpositive estimated variance are dropped (with a
    warning); returns (t, sigma_t, kept_indices).
    """
    deltas = np.asarray(deltas, dtype=float)
    var = np.diag(sigma_delta).copy()
    kept = np.flatnonzero(var > 0.0)
    if kept.size < deltas.size:
        _warnings.warn(
            f"dropping {deltas.size - kept.size} grid entries with nonpositive "
            "delta variance",
            RuntimeWarning,
            stacklevel=2,
        )
    if kept.size == 0:
        raise TestInfeasibleError("no grid entry has positive delta variance")
    sd = np.sqrt(var[kept])
    t = deltas[kept] / sd
    sigma_t = sigma_delta[np.ix_(kept, kept)] / np.outer(sd, sd)
    return t, sigma_t, tuple(int(k) for k in kept)


def _symmetric_root(sigma: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if w.size and w[0] < -1e-8 * max(1.0, abs(w[-1])):
        raise NumericalError(
            "correlation matrix is not positive semidefinite after projection"
        )
    w = np.maximum(w, 0.0)
    return (V * np.sqrt(w)) @ V.T


def _check_test_options(alpha: float, n_sims: int, seed: int) -> None:
    """The test options' input checks, made before anything is computed."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")
    if n_sims < 1:
        raise ValueError("n_sims must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")


def null_critical_value(
    sigma_t: np.ndarray,
    alpha: float,
    direction: str,
    n_sims: int = 5000,
    seed: int = 0,
):
    """Monte-Carlo critical value for the chosen direction.

    Draws n_sims vectors from N(0, sigma_t) through the symmetric square
    root. Returns (critical, p_value_fn) where p_value_fn maps an observed
    statistic to the fraction of null draws at least as extreme.
    """
    _check_test_options(alpha, n_sims, seed)
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")
    root = _symmetric_root(np.asarray(sigma_t, dtype=float))
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n_sims, root.shape[0])) @ root
    statistic, lower = _STATISTICS[direction]
    stats = statistic(draws, axis=1)
    critical = float(np.quantile(stats, alpha if lower else 1.0 - alpha))

    def p_value_fn(observed: float) -> float:
        return float(np.mean(stats <= observed if lower else stats >= observed))

    return critical, p_value_fn


def _assemble_result(deltas, sigma, direction, alpha, n_sims, seed):
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        t, sigma_t, kept = t_process(deltas, sigma)
    notes = tuple(str(w.message) for w in caught)
    critical, p_fn = null_critical_value(sigma_t, alpha, direction, n_sims, seed)
    statistic_of, lower = _STATISTICS[direction]
    statistic = float(statistic_of(t, axis=None))
    reject = statistic < critical if lower else statistic > critical
    return JensenTestResult(
        deltas=np.asarray(deltas, dtype=float),
        sigma_delta=sigma,
        t=t,
        sigma_t=sigma_t,
        kept=kept,
        statistic=statistic,
        critical_value=critical,
        p_value=p_fn(statistic),
        reject=reject,
        direction=direction,
        alpha=alpha,
        n_null_sims=n_sims,
        seed=seed,
        warnings=notes,
    )


def jensen_test(
    path: LambdaPath,
    direction: str | None = None,
    alpha: float = 0.05,
    seed: int = 0,
    n_sims: int = 5000,
) -> JensenTestResult:
    """Sign test for the Jensen effect along the whole smoothing path."""
    _check_test_options(alpha, n_sims, seed)
    if direction is None:
        direction = FAMILY_TABLE[path.spec.family].direction
    if direction == "test_vs_linear_logistic":
        raise ValueError(
            "the linear-reference comparison is run through alternative_null_test"
        )
    deltas, rows = _path_terms(path)
    sigma = _row_cov(path, rows, "delta_hat")
    return _assemble_result(deltas, sigma, direction, alpha, n_sims, seed)


# --- linear-logistic reference ------------------------------------------------


def _reference_design(data: Dataset) -> np.ndarray:
    blocks = [np.ones((data.n, 1))]
    if data.A is not None:
        blocks.append(data.A)
    blocks.append(data.X)
    return np.hstack(blocks)


def linear_logistic_reference(data: Dataset, path: LambdaPath | None = None) -> LinearReference:
    """Fit an ordinary linear-logistic model and its Jensen functional.

    `path` is accepted and ignored: the reference depends on the data only,
    and alternative_null_test combines it with any path fitted to the same
    data.
    """
    fam = FAMILY_TABLE["bernoulli_logit"]
    problem = fam.invalid(data.y)
    if problem is not None:
        raise ValueError(problem)
    D = _reference_design(data)
    if np.linalg.matrix_rank(D) < D.shape[1]:
        raise ValueError("reference design [1, A, X] is rank deficient")
    start = np.zeros(D.shape[1])
    mean = min(max(float(np.mean(data.y)), 1e-12), 1 - 1e-12)
    start[0] = np.log(mean / (1 - mean))
    coef, converged = _irls("bernoulli_logit", data.y, D, start, 1e-12, REFERENCE_MAX_ITER)
    if coef is None:
        raise SeparationError("logistic regression diverged (non-finite coefficients)")
    if not converged:
        raise SeparationError(
            f"logistic regression did not converge in {REFERENCE_MAX_ITER} iterations; "
            "the data are (nearly) separated"
        )
    q = 0 if data.A is None else data.A.shape[1]
    fitted = fam.mean(D @ coef)
    # the paired evaluation rows: each design row, then its twin with X at the column means
    Dplus = np.repeat(D, 2, axis=0)
    Dplus[1::2, 1 + q :] = data.X.mean(axis=0)
    delta_inf, sens = _functional("bernoulli_logit", Dplus, _paired_weights(data.n), 0.0, coef)
    # d(delta_inf)/dy through the weighted least-squares coefficient map of
    # the linear fit, D (D' W D)^-1 sens
    DWD = D.T @ (D * fam.weight(fitted)[:, None])
    return LinearReference(
        intercept=float(coef[0]),
        beta_inf=coef[1 + q :].copy(),
        gamma_inf=coef[1 : 1 + q].copy(),
        fitted_pi=fitted,
        delta_inf=delta_inf,
        influence_row=D @ scipy.linalg.solve(DWD, sens, assume_a="sym"),
    )


def alternative_null_test(
    path: LambdaPath,
    ref: LinearReference,
    alpha: float = 0.05,
    seed: int = 0,
    n_sims: int = 5000,
) -> JensenTestResult:
    """Two-sided test of delta_lambda = delta_inf: does the smoothed fit's
    Jensen effect differ from the one a linear-logistic model implies?"""
    _check_test_options(alpha, n_sims, seed)
    if path.spec.family != "bernoulli_logit":
        raise ValueError("the linear-reference comparison applies to the logit family only")
    if ref.influence_row.shape != (path.data.n,):
        raise ValueError("the linear reference was fitted to a dataset of another size")
    deltas, rows = _path_terms(path)
    rows -= ref.influence_row
    sigma = _row_cov(path, rows, "the difference process")
    deltas -= ref.delta_inf
    return _assemble_result(
        deltas, sigma, "test_vs_linear_logistic", alpha, n_sims, seed
    )
