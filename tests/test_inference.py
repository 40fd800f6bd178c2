"""Inference-layer tests.

The smoother and GCV are checked against independent dense-matrix
computations (explicit inverse, explicit trace); the covariance formula
against a parametric bootstrap with the basis and lambda held fixed.
"""

import dataclasses

import numpy as np
import pytest

from jenseneffect.basis import basis_matrix, make_spline_basis, penalty_matrix
from jenseneffect.errors import DegreesOfFreedomError, NumericalError
from jenseneffect.inference import (
    LambdaPath,
    build_path,
    coef_cov,
    effective_df,
    fit_weights,
    gcv,
    sigma2_hat,
    smoother_matrix,
)
from jenseneffect.jensen import _functional, delta_cov, jensen_test, make_eval_set
from jenseneffect.model import Coefficients, Dataset, FitResult, ModelSpec, fit, fit_path


def synthetic_gaussian_fit(n, dim=8, lam=1e-3, seed=0, exact=False):
    """Hand-built gaussian FitResult (no optimizer), q=0, identity beta."""
    rng = np.random.default_rng(seed)
    basis = make_spline_basis(0.0, 1.0, dim=dim, degree=5)
    s = np.linspace(0.01, 0.99, n)
    phi = basis_matrix(basis, s)
    d = rng.normal(size=dim)
    ystar = phi @ d if exact else phi @ d + 0.3 * rng.normal(size=n)
    eta = phi @ d
    return FitResult(
        lam=lam,
        family="gaussian_log",
        coeffs=Coefficients(beta=np.array([1.0]), gamma=np.zeros(0), d=d),
        index_values=s,
        eta=eta,
        mu_or_pi=eta.copy(),
        response=ystar,
        objective=float(np.sum((ystar - eta) ** 2)),
        converged=True,
        n_restarts_used=1,
        basis=basis,
    )


def gaussian_path(n=200, sigma=0.05, seed=5, grid=None):
    rng = np.random.default_rng(seed)
    p = 5
    X = rng.uniform(0.0, 0.5, size=(n, p))
    s = X @ (np.ones(p) / np.sqrt(p))
    ystar = np.log(np.sqrt(s)) + sigma * rng.normal(size=n)
    data = Dataset(y=np.exp(ystar), X=X)
    kwargs = {"lambda_grid": grid} if grid else {}
    spec = ModelSpec(family="gaussian_log", p=p, **kwargs)
    return fit_path(spec, data), data


# --- smoother ---------------------------------------------------------------


def test_smoother_is_identity_in_interpolation_limit():
    f = synthetic_gaussian_fit(n=8, dim=8, lam=0.0)
    S = smoother_matrix(f)
    np.testing.assert_allclose(S, np.eye(8), atol=1e-8)
    assert np.trace(S) == pytest.approx(8.0, abs=1e-8)


def test_smoother_reproduces_fitted_link_on_converged_fit():
    path, data = gaussian_path(n=150)
    f = path.selected_fit
    S = smoother_matrix(f)
    # gaussian working response is Y* itself; S maps it to the fitted g
    np.testing.assert_allclose(S @ f.response, f.eta, atol=1e-8)


@pytest.mark.xfail(
    strict=True,
    reason="the bracket uses lambda P where the unhalved poisson/logit loss needs "
    "2 lambda P (CHANGES.md FOUND on inference.py)",
)
def test_smoother_reproduces_fitted_link_on_converged_poisson_path():
    path, _ = poisson_path(n=200)
    misses = []
    for f in path.fits:
        w = fit_weights(f)
        z = f.eta + (f.response - f.mu_or_pi) / w
        spread = np.linalg.norm(f.eta - f.eta.mean())
        misses.append(np.linalg.norm(smoother_matrix(f) @ z - f.eta) / spread)
    # every fit on the path, not only the selected one (at lambda = 1e6,
    # where the penalty is nearly all nullspace and the miss is smallest)
    assert max(misses) <= 1e-4


def test_smoother_trace_strictly_decreasing_in_lambda():
    # short grid: the trace is strictly decreasing while it is informative
    grid = tuple(np.geomspace(1e-4, 10.0, 12))
    path, _ = gaussian_path(n=150, grid=grid)
    traces = [effective_df(f)[0] for f in path.fits]
    assert all(a > b for a, b in zip(traces, traces[1:]))
    assert all(0 < t < 150 for t in traces)


def test_smoother_trace_nonincreasing_on_default_grid():
    # the full grid saturates at the affine limit (trace -> 2); allow only
    # float-level wiggle there
    path, _ = gaussian_path(n=150)
    traces = np.array([effective_df(f)[0] for f in path.fits])
    assert np.all(np.diff(traces) <= 1e-5)
    assert np.all((traces > 0) & (traces < 150))


def test_smoother_jitter_warning_on_singular_system():
    f = synthetic_gaussian_fit(n=8, dim=8, lam=0.0)
    # collapse the evaluation points: Phi loses rank, bracket is singular
    s = np.full(8, 0.5)
    phi_row = basis_matrix(f.basis, s)
    f = dataclasses.replace(f, index_values=s, eta=phi_row @ f.coeffs.d)
    with pytest.warns(RuntimeWarning, match="jitter"):
        smoother_matrix(f)


# --- gcv --------------------------------------------------------------------


def test_gcv_zero_at_interpolation_with_room():
    f = synthetic_gaussian_fit(n=40, dim=8, lam=1e-4, exact=True)
    assert gcv(f) == 0.0


def test_gcv_classical_reduction_matches_dense_oracle():
    path, _ = gaussian_path(n=120)
    for f in path.fits[::4]:
        S = smoother_matrix(f)
        n = f.eta.size
        rss = float(np.sum((f.response - f.eta) ** 2))
        classical = n * rss / (n - np.trace(S)) ** 2
        assert gcv(f) == pytest.approx(classical, rel=1e-12)


def brute_force_gcv(f):
    phi = basis_matrix(f.basis, f.index_values)
    w = fit_weights(f)
    P = penalty_matrix(f.basis)
    S = phi @ np.linalg.inv(phi.T @ np.diag(w) @ phi + f.lam * P) @ phi.T @ np.diag(w)
    n = f.eta.size
    pearson2 = (f.response - f.mu_or_pi) ** 2 / np.maximum(w, 1e-300)
    if f.family == "gaussian_log":
        pearson2 = (f.response - f.eta) ** 2
    return float(n * np.sum(pearson2) / (n - np.trace(S)) ** 2)


def poisson_path(n=250, seed=17):
    rng = np.random.default_rng(seed)
    p = 5
    X = rng.uniform(0.0, 20.0, size=(n, p))
    s = X @ (np.ones(p) / np.sqrt(p))
    y = rng.poisson(np.exp(s / 8.0)).astype(float)
    data = Dataset(y=y, X=X)
    spec = ModelSpec(family="poisson", p=p)
    return fit_path(spec, data), data


def test_gcv_grid_argmin_matches_brute_force():
    for path in (gaussian_path(n=150)[0], poisson_path(n=200)[0]):
        brute = np.array([brute_force_gcv(f) for f in path.fits])
        # the dense-inverse route differs from the factorized route at the
        # near-singular small-lambda end; the selected index must agree exactly
        np.testing.assert_allclose(path.gcv, brute, rtol=1e-6)
        assert path.selected == int(np.argmin(brute))


def test_gcv_degenerate_df_error():
    f = synthetic_gaussian_fit(n=8, dim=8, lam=0.0)
    with pytest.raises(DegreesOfFreedomError):
        gcv(f)


def test_gcv_invariant_to_observation_order():
    path, _ = gaussian_path(n=120)
    f = path.selected_fit
    perm = np.random.default_rng(2).permutation(f.eta.size)
    g = dataclasses.replace(
        f,
        index_values=f.index_values[perm],
        eta=f.eta[perm],
        mu_or_pi=f.mu_or_pi[perm],
        response=f.response[perm],
    )
    assert gcv(g) == pytest.approx(gcv(f), rel=1e-12)


# --- sigma2 -----------------------------------------------------------------


def test_sigma2_zero_residuals():
    f = synthetic_gaussian_fit(n=40, dim=8, lam=1e-4, exact=True)
    spec = ModelSpec(family="gaussian_log", p=1, lambda_grid=(1e-4,))
    data = Dataset(y=np.exp(f.response), X=f.index_values[:, None])
    path = build_path(spec, data, [f])
    assert sigma2_hat(path) == pytest.approx(0.0, abs=1e-25)


def test_sigma2_interpolating_smoother_errors():
    f = synthetic_gaussian_fit(n=8, dim=8, lam=0.0)
    spec = ModelSpec(family="gaussian_log", p=5, lambda_grid=(1e-4,))
    data = Dataset(y=np.exp(f.response), X=np.tile(f.index_values[:, None], (1, 5)))
    path = LambdaPath(
        spec=spec,
        data=data,
        grid=(f.lam,),
        fits=(f,),
        gcv=np.array([np.nan]),
        selected=0,
        sigma2=None,
        weight_ref=np.ones(8),
    )
    # S = I makes df_res = n - 2n + n - p = -p
    with pytest.raises(DegreesOfFreedomError):
        sigma2_hat(path)


def test_sigma2_wrong_family():
    path, _ = poisson_path(n=100)
    with pytest.raises(ValueError):
        sigma2_hat(path)


def test_sigma2_recovers_known_noise_level():
    hits = 0
    reps = 50
    for r in range(reps):
        rng = np.random.default_rng([2026, r])
        X = rng.uniform(0.0, 0.5, size=(1000, 5))
        s = X @ (np.ones(5) / np.sqrt(5))
        ystar = np.log(np.sqrt(s)) + 0.05 * rng.normal(size=1000)
        path = fit_path(ModelSpec(family="gaussian_log", p=5), Dataset(y=np.exp(ystar), X=X))
        if path.sigma2 is not None and 0.045 <= np.sqrt(path.sigma2) <= 0.055:
            hits += 1
    assert hits >= 0.9 * reps


# --- coef_cov ---------------------------------------------------------------


def test_coef_cov_symmetry_and_psd():
    for path in (gaussian_path(n=150)[0], poisson_path(n=200)[0]):
        i = path.selected
        C = coef_cov(path, i, i)
        scale = max(np.abs(C).max(), 1e-30)
        assert np.max(np.abs(C - C.T)) <= 1e-8 * scale
        evals = np.linalg.eigvalsh(0.5 * (C + C.T))
        assert evals.min() >= -1e-8 * scale


def test_coef_cov_transpose_identity():
    path, _ = gaussian_path(n=150)
    i, j = 3, 11
    Cij = coef_cov(path, i, j)
    Cji = coef_cov(path, j, i)
    scale = max(np.abs(Cij).max(), 1e-30)
    assert np.max(np.abs(Cij - Cji.T)) <= 1e-10 * scale


def test_delta_cov_matches_pairwise_coef_cov_oracle():
    # the influence-row covariance against the K x K coefficient covariance
    # contracted pair by pair with the delta sensitivities
    for path, data in (gaussian_path(n=150), poisson_path(n=200)):
        evals = [make_eval_set(path.spec, data, f) for f in path.fits]
        sens = [
            _functional(ev.family, ev.phi_plus, ev.n, ev.offsets, f.coeffs.d)[1]
            for ev, f in zip(evals, path.fits)
        ]
        m = len(path.fits)
        oracle = np.array(
            [[sens[i] @ coef_cov(path, i, j) @ sens[j] for j in range(m)] for i in range(m)]
        )
        sigma = delta_cov(path, evals)
        # the oracle is PSD up to rounding, so the projection only rounds
        assert np.max(np.abs(sigma - oracle)) <= 1e-10 * np.abs(oracle).max()


def test_gaussian_covariance_needs_sigma2():
    path, data = gaussian_path(n=120)
    bare = dataclasses.replace(path, sigma2=None)
    evals = [make_eval_set(bare.spec, data, f) for f in bare.fits]
    with pytest.raises(DegreesOfFreedomError, match="sigma2"):
        delta_cov(bare, evals)
    with pytest.raises(DegreesOfFreedomError, match="sigma2"):
        jensen_test(bare)
    with pytest.raises(DegreesOfFreedomError, match="sigma2"):
        coef_cov(bare, 0, 1)


def reflect_fit(f, spec):
    """Exact mirror of a fit: negated index, reversed coefficients."""
    c = f.coeffs
    gamma = -c.gamma if (spec.q and spec.extra_placement == "inside_index") else c.gamma
    return dataclasses.replace(
        f,
        coeffs=Coefficients(beta=-c.beta, gamma=gamma, d=c.d[::-1].copy()),
        index_values=-f.index_values,
        eta=f.eta.copy(),
        basis=f.basis.reflected(),
    )


def test_coef_cov_invariant_under_frame_reflection():
    path, _ = gaussian_path(n=120)
    fits = list(path.fits)
    fits[1] = reflect_fit(fits[1], path.spec)
    mixed = dataclasses.replace(path, fits=tuple(fits))
    # reflection reverses the coefficient axis of fit 1 and nothing else
    base = coef_cov(path, 0, 1)
    np.testing.assert_allclose(coef_cov(mixed, 0, 1), base[:, ::-1], rtol=1e-9, atol=1e-9 * np.abs(base).max())
    own = coef_cov(path, 1, 1)
    np.testing.assert_allclose(coef_cov(mixed, 1, 1), own[::-1, ::-1], rtol=1e-9, atol=1e-9 * np.abs(own).max())


def test_coef_cov_rejects_unrelated_bases():
    path, _ = gaussian_path(n=120)
    stranger = dataclasses.replace(
        path.fits[1], basis=make_spline_basis(-5.0, 5.0, dim=path.fits[1].basis.dim, degree=5)
    )
    fits = list(path.fits)
    fits[1] = stranger
    broken = dataclasses.replace(path, fits=tuple(fits))
    with pytest.raises(NumericalError, match="shared"):
        coef_cov(broken, 0, 1)


def test_coef_cov_poisson_matches_parametric_bootstrap():
    rng = np.random.default_rng(2024)
    n, p = 1000, 5
    X = rng.uniform(0.0, 20.0, size=(n, p))
    beta = np.ones(p) / np.sqrt(p)
    s = X @ beta
    mu_true = np.exp(s / 8.0)

    pilot = fit_path(ModelSpec(family="poisson", p=p), Dataset(y=rng.poisson(mu_true).astype(float), X=X))
    k = pilot.selected
    lam = pilot.grid[k]
    basis = pilot.fits[k].basis
    formula_var = np.diag(coef_cov(pilot, k, k))

    spec = ModelSpec(family="poisson", p=p, basis=basis, lambda_grid=(lam,))
    draws = []
    for r in range(200):
        rep_rng = np.random.default_rng([2024, r + 1])
        y = rep_rng.poisson(mu_true).astype(float)
        res = fit(spec, Dataset(y=y, X=X), lam=lam)
        assert res.basis == basis
        draws.append(res.coeffs.d)
    emp_var = np.var(np.asarray(draws), axis=0, ddof=1)

    ratio = formula_var / emp_var
    ok = np.sum((ratio >= 0.5) & (ratio <= 2.0))
    assert ok >= 0.9 * basis.dim


# --- build_path bookkeeping ---------------------------------------------------


def test_build_path_selection_and_weights():
    path, _ = poisson_path(n=200)
    assert 0 <= path.selected < len(path.fits)
    assert np.all(path.weight_ref > 0)
    np.testing.assert_allclose(path.weight_ref, fit_weights(path.selected_fit), rtol=0)
    assert path.grid == tuple(sorted(path.grid))


def test_build_path_warns_when_gcv_selects_an_end_of_the_grid(monkeypatch):
    path, data = gaussian_path(n=120)
    assert path.selected == 0
    note = "GCV selects the {} grid point; its optimum may lie beyond the grid"
    assert f"lambda=0.1: {note.format('first')}" in path.warnings
    fits = list(path.fits[:3])
    for scores, end in (([2.0, 1.0, 3.0], None), ([3.0, 2.0, 1.0], "last"), ([1.0], None)):
        values = iter(scores)
        monkeypatch.setattr("jenseneffect.inference.gcv", lambda f: next(values))
        edge = [w for w in build_path(path.spec, data, fits[: len(scores)]).warnings if "GCV" in w]
        lam = fits[len(scores) - 1].lam
        assert edge == ([] if end is None else [f"lambda={lam:.6g}: {note.format(end)}"])


def test_build_path_raises_when_gcv_everywhere_undefined():
    f = synthetic_gaussian_fit(n=8, dim=8, lam=0.0)
    spec = ModelSpec(family="gaussian_log", p=1, lambda_grid=(1e-4,))
    data = Dataset(y=np.exp(f.response), X=f.index_values[:, None])
    with pytest.raises(NumericalError):
        build_path(spec, data, [f])


def test_build_path_keeps_a_gaussian_path_whose_sigma2_is_refused(monkeypatch):
    path, data = gaussian_path(n=120)
    # tr S = n and tr SS' = 0 make the residual df n - 2n - p negative
    monkeypatch.setattr("jenseneffect.inference.effective_df", lambda fit: (float(fit.eta.size), 0.0))
    refused = build_path(path.spec, data, list(path.fits))
    assert refused.sigma2 is None
    assert refused.warnings[-1].startswith("residual variance unavailable: residual degrees of freedom")
    np.testing.assert_array_equal(refused.gcv, path.gcv)
    assert refused.selected == path.selected
    with pytest.raises(DegreesOfFreedomError, match="sigma2"):
        jensen_test(refused)
