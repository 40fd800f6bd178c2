"""Jensen-effect estimator and smoothing-path test checks.

The estimator is checked against naive per-observation loops, its gradient
against finite differences, and the simulated critical values against
closed-form normal quantiles for sizes one and two.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from jenseneffect.basis import basis_matrix, greville_abscissae, make_spline_basis
from jenseneffect.cli import DIRECTION_FLAGS
from jenseneffect.errors import (
    DegenerateVarianceError,
    SeparationError,
    TestInfeasibleError,
)
from jenseneffect.inference import LambdaPath, _design
from jenseneffect.jensen import (
    DIRECTIONS,
    EvalSet,
    alternative_null_test,
    delta_cov,
    delta_hat,
    jensen_test,
    linear_logistic_reference,
    make_eval_set,
    null_critical_value,
    t_process,
    truncate_psd,
    _assemble_result,
    _functional,
    _row_cov,
    _terms,
)
from jenseneffect.model import (
    FAMILY_TABLE,
    Coefficients,
    Dataset,
    FitResult,
    ModelSpec,
    _initial_coefficients,
    default_lambda_grid,
    fit as fit_model,
    fit_path,
)
from jenseneffect.simlab import CATALOG, ScenarioConfig, gen_dataset


def ghat_scalar(f, point):
    return float((basis_matrix(f.basis, np.array([float(point)])) @ f.coeffs.d)[0])


def link_values(ev, d):
    """h(g+) at an evaluation set's points for spline coefficients d."""
    return FAMILY_TABLE[ev.family].h(ev.phi_plus @ d + ev.offsets)


def brute_delta(spec, data, f):
    """Per-observation loop version of the estimator."""
    n = data.n
    if spec.family in ("gaussian_log", "poisson"):
        E = f.index_values
        ebar = float(E[0]) if np.ptp(E) == 0 else float(np.mean(E))
        acc = 0.0
        for e in E:
            acc += math.exp(ghat_scalar(f, e))
        return acc / n - math.exp(ghat_scalar(f, ebar))
    x = data.X @ f.coeffs.beta
    base = np.zeros(n)
    after = np.zeros(n)
    if spec.q:
        contrib = data.A @ f.coeffs.gamma
        if spec.extra_placement == "inside_index":
            base = contrib
        else:
            after = contrib
    xbar = float(x[0]) if np.ptp(x) == 0 else float(np.mean(x))
    acc = 0.0
    for i in range(n):
        hi = float(expit(ghat_scalar(f, base[i] + x[i]) + after[i]))
        lo = float(expit(ghat_scalar(f, base[i] + xbar) + after[i]))
        acc += hi - lo
    return acc / n


def fitted_instance(family, placement="inside_index", q=0, seed=0, n=150, lam=1.0):
    rng = np.random.default_rng(seed)
    p = 3
    X = rng.uniform(0.0, 1.0, size=(n, p))
    A = rng.normal(0.0, 0.5, size=(n, q)) if q else None
    beta = np.array([2.0, 1.0, 0.5]) / np.linalg.norm([2.0, 1.0, 0.5])
    s = X @ beta
    extra = A @ np.full(q, 0.4) if q else np.zeros(n)
    curve = np.sin(2.0 * s) + 0.5 * s
    if family == "gaussian_log":
        y = np.exp(curve + extra + 0.05 * rng.standard_normal(n))
    elif family == "poisson":
        y = rng.poisson(np.exp(curve + extra)).astype(float)
    else:
        y = rng.binomial(1, expit(2.0 * (curve - 0.5) + extra)).astype(float)
    spec = ModelSpec(family=family, p=p, q=q, extra_placement=placement)
    data = Dataset(y=y, X=X, A=A)
    return spec, data, fit_model(spec, data, lam)


def synthetic_fit(family, d, index_values, basis, beta=None, gamma=None):
    """Minimal hand-built FitResult for estimator mechanics."""
    beta = np.array([1.0]) if beta is None else beta
    gamma = np.zeros(0) if gamma is None else gamma
    eta = basis_matrix(basis, index_values) @ d
    if family == "gaussian_log":
        mu = eta.copy()
        resp = eta.copy()
    elif family == "poisson":
        mu = np.exp(np.clip(eta, -700, 700))
        resp = mu.copy()
    else:
        mu = expit(eta)
        resp = (mu > 0.5).astype(float)
    return FitResult(
        lam=1.0,
        family=family,
        coeffs=Coefficients(beta=beta, gamma=gamma, d=np.asarray(d, dtype=float)),
        index_values=np.asarray(index_values, dtype=float),
        eta=eta,
        mu_or_pi=mu,
        response=resp,
        objective=0.0,
        converged=True,
        n_restarts_used=1,
        basis=basis,
    )


# --- evaluation sets ----------------------------------------------------------


def assert_design_first(spec, data, f, ev):
    """The set opens with the fit's own index values X beta (+ A gamma inside
    the index), so its first n basis rows are the fit's design, bit for bit."""
    n = data.n
    index = data.X @ f.coeffs.beta
    if spec.q and spec.extra_placement == "inside_index":
        index = index + data.A @ f.coeffs.gamma
    assert ev.n == n
    np.testing.assert_array_equal(ev.points[:n], index)
    np.testing.assert_array_equal(ev.phi_plus[:n], _design(f))


def test_eval_set_exp_family_structure():
    spec, data, f = fitted_instance("poisson", q=1)
    ev = make_eval_set(spec, data, f)
    n = data.n
    assert ev.points.size == n + 1
    assert_design_first(spec, data, f, ev)
    assert ev.points[n] == pytest.approx(np.mean(f.index_values), rel=1e-15)
    assert np.all(ev.offsets == 0.0)


def test_eval_set_mean_snap_degenerate():
    basis = make_spline_basis(0.0, 1.0, dim=8)
    E = np.full(7, 0.3)
    f = synthetic_fit("gaussian_log", np.zeros(8), E, basis)
    data = Dataset(y=np.ones(7), X=E[:, None])
    spec = ModelSpec(family="gaussian_log", p=1, basis=basis)
    ev = make_eval_set(spec, data, f)
    assert_design_first(spec, data, f, ev)
    assert ev.points[-1] == 0.3


def test_eval_set_logit_inside_structure():
    for q in (0, 1):
        spec, data, f = fitted_instance("bernoulli_logit", q=q, placement="inside_index")
        ev = make_eval_set(spec, data, f)
        n = data.n
        x = data.X @ f.coeffs.beta
        base = data.A @ f.coeffs.gamma if q else 0.0
        assert ev.points.size == 2 * n
        assert_design_first(spec, data, f, ev)
        np.testing.assert_allclose(ev.points[n:], base + np.mean(x), rtol=1e-15)
        assert np.all(ev.offsets == 0.0)


def test_eval_set_logit_outside_offsets():
    spec, data, f = fitted_instance("bernoulli_logit", q=1, placement="outside_index")
    ev = make_eval_set(spec, data, f)
    n = data.n
    contrib = data.A @ f.coeffs.gamma
    np.testing.assert_array_equal(ev.offsets[:n], contrib)
    np.testing.assert_array_equal(ev.offsets[n:], contrib)
    # index points carry no extra-covariate shift in this placement
    assert_design_first(spec, data, f, ev)


def test_eval_set_of_reflected_fits_opens_with_their_design():
    # on this replicate three fits of the path come out in the reflected frame
    X, y = gen_dataset(ScenarioConfig("pois-logistic", n=100, param=2.0, seed=0), 2)
    data = Dataset(y=y, X=X)
    path = fit_path(ModelSpec(family="poisson", p=X.shape[1]), data)
    reflected = [f for f in path.fits if f.raw_coeffs.beta[0] < 0]
    assert [round(f.lam, 1) for f in reflected] == [88.6, 206.9, 483.3]
    for f in reflected:
        assert_design_first(path.spec, data, f, make_eval_set(path.spec, data, f))


def test_eval_set_needs_observations_and_a_twin():
    basis = make_spline_basis(0.0, 1.0, dim=8)
    pts = np.array([0.2, 0.4])
    for n in (0, 2):
        with pytest.raises(ValueError, match="twin"):
            EvalSet(
                family="poisson",
                points=pts,
                n=n,
                offsets=np.zeros(2),
                phi_plus=basis_matrix(basis, pts),
            )


# --- the estimator against loops ----------------------------------------------


@pytest.mark.parametrize(
    "family,placement,q",
    [
        ("gaussian_log", "inside_index", 0),
        ("gaussian_log", "inside_index", 2),
        ("poisson", "outside_index", 1),
        ("bernoulli_logit", "inside_index", 1),
        ("bernoulli_logit", "outside_index", 1),
    ],
)
def test_delta_hat_matches_bruteforce(family, placement, q):
    spec, data, f = fitted_instance(family, placement=placement, q=q, seed=3)
    ev = make_eval_set(spec, data, f)
    got = delta_hat(f, ev)
    want = brute_delta(spec, data, f)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_delta_hat_constant_curve_is_exact_zero():
    basis = make_spline_basis(0.0, 1.0, dim=8)
    E = np.linspace(0.05, 0.95, 40)
    f = synthetic_fit("poisson", np.zeros(8), E, basis)
    data = Dataset(y=np.ones(40), X=E[:, None])
    spec = ModelSpec(family="poisson", p=1, basis=basis)
    assert delta_hat(f, make_eval_set(spec, data, f)) == 0.0


def test_delta_hat_degenerate_index_exact_zero():
    # identical covariate rows, varying extra covariate after the link:
    # every pair is degenerate, so the estimate must be exactly zero
    basis = make_spline_basis(-1.0, 1.0, dim=8)
    n = 30
    rng = np.random.default_rng(7)
    X = np.full((n, 2), 0.4)
    A = rng.normal(size=(n, 1))
    beta = np.array([1.0, 0.0])
    gamma = np.array([0.7])
    d = rng.normal(size=8)
    f = synthetic_fit("bernoulli_logit", d, X @ beta, basis, beta=beta, gamma=gamma)
    data = Dataset(y=np.zeros(n), X=X, A=A)
    spec = ModelSpec(
        family="bernoulli_logit", p=2, q=1, extra_placement="outside_index", basis=basis
    )
    ev = make_eval_set(spec, data, f)
    assert np.ptp(link_values(ev, d)) != 0.0  # offsets really do vary
    assert delta_hat(f, ev) == 0.0


def test_delta_hat_affine_curve_exp_family_positive():
    # exp of an affine curve is convex, so spread beats the mean
    basis = make_spline_basis(0.0, 2.0, dim=9)
    d = greville_abscissae(basis)
    E = np.linspace(0.1, 1.9, 25)
    f = synthetic_fit("gaussian_log", d, E, basis)
    data = Dataset(y=np.ones(25), X=E[:, None])
    spec = ModelSpec(family="gaussian_log", p=1, basis=basis)
    assert delta_hat(f, make_eval_set(spec, data, f)) > 1e-4


def test_logit_q0_pairs_match_simple_average():
    spec, data, f = fitted_instance("bernoulli_logit", q=0, seed=11)
    ev = make_eval_set(spec, data, f)
    got = delta_hat(f, ev)
    E = data.X @ f.coeffs.beta
    simple = float(
        np.mean(expit(basis_matrix(f.basis, E) @ f.coeffs.d))
        - expit(ghat_scalar(f, np.mean(E)))
    )
    assert abs(got - simple) <= 1e-12 * (1.0 + abs(simple))


def test_delta_hat_overflow_clip_warns():
    basis = make_spline_basis(0.0, 1.0, dim=8)
    E = np.linspace(0.1, 0.9, 12)
    f = synthetic_fit("gaussian_log", np.full(8, 800.0), E, basis)
    data = Dataset(y=np.ones(12), X=E[:, None])
    spec = ModelSpec(family="gaussian_log", p=1, basis=basis)
    ev = make_eval_set(spec, data, f)
    with pytest.warns(RuntimeWarning, match="clipped"):
        out = delta_hat(f, ev)
    assert np.isfinite(out)


# --- sensitivity against finite differences ------------------------------------


@pytest.mark.parametrize("family,q", [("gaussian_log", 0), ("bernoulli_logit", 1)])
def test_sensitivity_matches_fd(family, q):
    placement = "outside_index" if q else "inside_index"
    spec, data, f = fitted_instance(family, placement=placement, q=q, seed=5, n=60)
    ev = make_eval_set(spec, data, f)
    d = f.coeffs.d

    def value(dv):
        hv = link_values(ev, dv)
        return float(np.mean(hv[: ev.n]) - np.mean(hv[ev.n :]))

    grad = _functional(ev.family, ev.phi_plus, ev.n, ev.offsets, d)[1]
    eps = 1e-6
    fd = np.empty_like(d)
    for k in range(d.size):
        dp = d.copy()
        dp[k] += eps
        dm = d.copy()
        dm[k] -= eps
        fd[k] = (value(dp) - value(dm)) / (2 * eps)
    scale = np.max(np.abs(fd)) + 1e-12
    np.testing.assert_allclose(grad, fd, atol=1e-5 * scale)


# --- covariance of the process --------------------------------------------------


def test_truncate_psd_identity_on_psd():
    rng = np.random.default_rng(2)
    B = rng.normal(size=(6, 6))
    mat = B @ B.T
    out = truncate_psd(mat)
    np.testing.assert_allclose(out, mat, atol=1e-10 * np.max(np.abs(mat)))


def test_truncate_psd_projects_indefinite():
    mat = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    out = truncate_psd(mat)
    w = np.linalg.eigvalsh(out)
    assert w.min() >= -1e-12
    assert np.all(np.diag(out) >= 0.0)
    np.testing.assert_allclose(out, out.T, atol=0)


@pytest.fixture(scope="module")
def sqrt_path():
    rng = np.random.default_rng(101)
    n, p = 400, 5
    X = rng.uniform(0.0, 0.5, size=(n, p))
    s = X @ (np.ones(p) / np.sqrt(p))
    y = np.sqrt(s + 0.05) * np.exp(0.01 * rng.standard_normal(n))
    spec = ModelSpec(family="gaussian_log", p=p)
    data = Dataset(y=y, X=X)
    return fit_path(spec, data), data


@pytest.fixture(scope="module")
def convex_path():
    rng = np.random.default_rng(202)
    n, p = 400, 5
    X = rng.uniform(0.0, 0.5, size=(n, p))
    s = X @ (np.ones(p) / np.sqrt(p))
    y = np.exp(-s) * np.exp(0.01 * rng.standard_normal(n))
    spec = ModelSpec(family="gaussian_log", p=p)
    data = Dataset(y=y, X=X)
    return fit_path(spec, data), data


def test_delta_cov_symmetric_psd(sqrt_path):
    path, data = sqrt_path
    evals = [make_eval_set(path.spec, data, f) for f in path.fits]
    sigma = delta_cov(path, evals)
    m = len(path.fits)
    assert sigma.shape == (m, m)
    np.testing.assert_array_equal(sigma, sigma.T)
    w = np.linalg.eigvalsh(sigma)
    assert w.min() >= -1e-10 * max(1.0, w.max())
    assert np.all(np.diag(sigma) >= 0.0)


def test_delta_cov_requires_matching_lengths(sqrt_path):
    path, data = sqrt_path
    with pytest.raises(ValueError, match="per grid value"):
        delta_cov(path, [])


def test_delta_path_invariant_under_frame_reflection(sqrt_path):
    # reflecting one fit (mirrored basis, negated index, reversed d) changes
    # nothing observable: same deltas, same covariance, same statistic
    path, data = sqrt_path
    c = path.fits[2].coeffs
    mirrored = dataclasses.replace(
        path.fits[2],
        coeffs=Coefficients(beta=-c.beta, gamma=c.gamma, d=c.d[::-1].copy()),
        index_values=-path.fits[2].index_values,
        basis=path.fits[2].basis.reflected(),
    )
    fits = list(path.fits)
    fits[2] = mirrored
    mixed = dataclasses.replace(path, fits=tuple(fits))

    evals = [make_eval_set(path.spec, data, f) for f in path.fits]
    evals_mixed = [make_eval_set(path.spec, data, f) for f in mixed.fits]
    deltas = np.array([delta_hat(f, ev) for f, ev in zip(path.fits, evals)])
    deltas_mixed = np.array([delta_hat(f, ev) for f, ev in zip(mixed.fits, evals_mixed)])
    np.testing.assert_allclose(deltas_mixed, deltas, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(
        delta_cov(mixed, evals_mixed), delta_cov(path, evals), rtol=1e-9, atol=1e-18
    )
    base = jensen_test(path, seed=3)
    flipped = jensen_test(mixed, seed=3)
    assert flipped.statistic == pytest.approx(base.statistic, rel=1e-9)
    assert flipped.reject == base.reject


def test_fit_path_reflects_a_fit_into_the_mirrored_frame():
    # on this replicate the optimizer ends with a negative leading index
    # coefficient at three grid points; the fit is stored in the reflected
    # frame, and its fitted values and delta are those of its raw frame
    X, y = gen_dataset(ScenarioConfig("pois-logistic", n=100, param=2.0, seed=0), 2)
    spec = ModelSpec(family="poisson", p=5)
    data = Dataset(y=y, X=X)
    path_basis = _initial_coefficients(spec, data)[1]
    path = fit_path(spec, data)
    reflected = [f for f in path.fits if f.basis != path_basis]
    assert [round(f.lam, 1) for f in reflected] == [88.6, 206.9, 483.3]
    for f in reflected:
        assert f.basis == path_basis.reflected()
        assert f.coeffs.beta[0] > 0
        eta = basis_matrix(f.basis, f.index_values) @ f.coeffs.d
        np.testing.assert_allclose(eta, f.eta, rtol=1e-12, atol=0.0)
        raw = dataclasses.replace(
            f, coeffs=f.raw_coeffs, index_values=-f.index_values, basis=path_basis
        )
        assert delta_hat(f, make_eval_set(spec, data, f)) == pytest.approx(
            delta_hat(raw, make_eval_set(spec, data, raw)), rel=1e-12, abs=0.0
        )


def test_delta_cov_degenerate_variance():
    # a path whose coefficient covariance is identically zero (sigma2 = 0)
    basis = make_spline_basis(0.0, 1.0, dim=8)
    E = np.linspace(0.05, 0.95, 20)
    f = synthetic_fit("gaussian_log", np.ones(8) * 0.3, E, basis)
    data = Dataset(y=np.exp(f.response), X=E[:, None])
    spec = ModelSpec(family="gaussian_log", p=1, basis=basis, lambda_grid=(1.0,))
    path = LambdaPath(
        spec=spec,
        data=data,
        grid=(1.0,),
        fits=[f],
        gcv=(0.1,),
        selected=0,
        sigma2=0.0,
        weight_ref=np.ones(20),
    )
    with pytest.raises(DegenerateVarianceError, match="whole grid"):
        delta_cov(path, [make_eval_set(spec, data, f)])


# --- normalization of the process ------------------------------------------------


def test_t_process_scalar_unit():
    t, sigma_t, kept = t_process(np.array([0.2]), np.array([[0.04]]))
    assert t[0] == pytest.approx(1.0, abs=1e-12)
    assert sigma_t[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert kept == (0,)


def test_t_process_correlation_properties():
    rng = np.random.default_rng(4)
    B = rng.normal(size=(5, 5))
    sigma = B @ B.T
    deltas = rng.normal(size=5)
    t, sigma_t, kept = t_process(deltas, sigma)
    np.testing.assert_allclose(np.diag(sigma_t), 1.0, atol=1e-10)
    assert np.max(np.abs(sigma_t)) <= 1.0 + 1e-8
    assert kept == tuple(range(5))


def test_t_process_drops_nonpositive_with_warning():
    sigma = np.diag([1.0, 0.0, 4.0])
    deltas = np.array([0.5, 9.9, -1.0])
    with pytest.warns(RuntimeWarning, match="nonpositive"):
        t, sigma_t, kept = t_process(deltas, sigma)
    assert kept == (0, 2)
    np.testing.assert_allclose(t, [0.5, -0.5])


def test_t_process_all_dropped_infeasible():
    with pytest.warns(RuntimeWarning, match="nonpositive"):
        with pytest.raises(TestInfeasibleError):
            t_process(np.array([1.0, 2.0]), np.zeros((2, 2)))


# --- simulated critical values ---------------------------------------------------


def test_critical_value_m1_matches_normal_quantile():
    crit, _ = null_critical_value(np.eye(1), 0.05, "test_negative", seed=123)
    assert abs(crit - norm.ppf(0.05)) <= 0.06


def test_critical_value_equicorrelated_matches_m1():
    crit, _ = null_critical_value(np.ones((5, 5)), 0.05, "test_negative", seed=123)
    assert abs(crit - norm.ppf(0.05)) <= 0.06


def test_critical_value_m2_independent():
    # min of two independent normals: Phi(c) = 1 - sqrt(0.95)
    crit, _ = null_critical_value(np.eye(2), 0.05, "test_negative", seed=123)
    assert abs(crit - norm.ppf(1.0 - math.sqrt(0.95))) <= 0.06


def test_critical_value_positive_direction_symmetric():
    crit, _ = null_critical_value(np.eye(1), 0.05, "test_positive", seed=321)
    assert abs(crit - norm.ppf(0.95)) <= 0.06


def test_critical_value_two_sided():
    crit, _ = null_critical_value(np.eye(1), 0.05, "test_vs_linear_logistic", seed=9)
    assert abs(crit - norm.ppf(0.975)) <= 0.06


def test_critical_value_validation():
    with pytest.raises(ValueError, match="alpha"):
        null_critical_value(np.eye(1), 0.7, "test_negative")
    with pytest.raises(ValueError, match="direction"):
        null_critical_value(np.eye(1), 0.05, "sideways")
    with pytest.raises(ValueError, match="n_sims"):
        null_critical_value(np.eye(1), 0.05, "test_negative", n_sims=0)
    with pytest.raises(ValueError, match="seed"):
        null_critical_value(np.eye(1), 0.05, "test_negative", seed=-1)


@pytest.mark.parametrize(
    "options, message",
    [({"alpha": 0.7}, "alpha"), ({"n_sims": 0}, "n_sims"), ({"seed": -1}, "seed")],
)
def test_both_tests_check_their_options_before_reading_the_path(options, message):
    # no path is needed to reject a bad option, so none is built
    with pytest.raises(ValueError, match=message):
        jensen_test(None, **options)
    with pytest.raises(ValueError, match=message):
        alternative_null_test(None, None, **options)


def test_pvalue_reproducible_and_monotone():
    crit1, p1 = null_critical_value(np.eye(3), 0.05, "test_negative", seed=77)
    crit2, p2 = null_critical_value(np.eye(3), 0.05, "test_negative", seed=77)
    assert crit1 == crit2
    assert p1(-2.0) == p2(-2.0)
    assert abs(p1(crit1) - 0.05) <= 0.01
    assert p1(-3.0) <= p1(-1.0)
    assert p1(-50.0) == 0.0
    assert p1(50.0) == 1.0


# --- end-to-end sign tests --------------------------------------------------------


def test_jensen_test_detects_concave_truth(sqrt_path):
    path, _ = sqrt_path
    res = jensen_test(path, seed=7)
    assert res.direction == "test_negative"
    assert res.statistic == pytest.approx(float(res.t.min()))
    assert res.statistic < res.critical_value
    assert res.reject
    assert res.p_value < 0.05
    np.testing.assert_allclose(np.diag(res.sigma_t), 1.0, atol=1e-8)
    assert np.linalg.eigvalsh(res.sigma_t).min() >= -1e-8


def test_jensen_test_convex_truth_accepts(convex_path):
    path, _ = convex_path
    res = jensen_test(path, seed=7)
    assert not res.reject
    assert res.p_value >= 0.05
    assert res.statistic >= res.critical_value


@pytest.mark.parametrize("fixture", ["sqrt_path", "convex_path"])
def test_top_lambda_delta_nonnegative(fixture, request):
    # in the heavy-penalty limit the curve is affine, so the exp-family
    # estimate is a Jensen gap of a convex function: nonnegative up to noise
    path, _ = request.getfixturevalue(fixture)
    res = jensen_test(path, seed=3)
    se_top = math.sqrt(res.sigma_delta[-1, -1])
    assert res.deltas[-1] >= -2.0 * se_top


def test_jensen_test_seed_reproducible(sqrt_path):
    path, _ = sqrt_path
    r1 = jensen_test(path, seed=42)
    r2 = jensen_test(path, seed=42)
    assert r1.p_value == r2.p_value
    assert r1.critical_value == r2.critical_value
    assert r1.statistic == r2.statistic
    r3 = jensen_test(path, seed=43)
    assert r3.critical_value != r1.critical_value


def test_jensen_test_rejects_vs_linear_direction(sqrt_path):
    path, _ = sqrt_path
    with pytest.raises(ValueError, match="alternative_null_test"):
        jensen_test(path, direction="test_vs_linear_logistic")


def test_jensen_test_rejects_an_unknown_direction_before_any_path_work(sqrt_path, monkeypatch):
    def no_eval_set(*args):
        raise AssertionError("make_eval_set called before the direction was checked")

    monkeypatch.setattr("jenseneffect.jensen.make_eval_set", no_eval_set)
    with pytest.raises(ValueError, match="unknown direction 'sideways'"):
        jensen_test(sqrt_path[0], direction="sideways")


# --- linear-logistic reference -----------------------------------------------------


def test_linear_reference_balanced_null():
    rng = np.random.default_rng(12)
    base = rng.uniform(size=(40, 3))
    X = np.repeat(base, 2, axis=0)
    y = np.tile([0.0, 1.0], 40)
    ref = linear_logistic_reference(Dataset(y=y, X=X))
    assert np.max(np.abs(ref.beta_inf)) <= 1e-6
    assert abs(ref.intercept) <= 1e-6
    assert abs(ref.delta_inf) <= 1e-6


def test_linear_reference_delta_bruteforce():
    rng = np.random.default_rng(8)
    n = 120
    X = rng.uniform(size=(n, 2))
    A = rng.normal(size=(n, 1))
    eta = -0.4 + X @ np.array([1.2, -0.8]) + 0.5 * A[:, 0]
    y = rng.binomial(1, expit(eta)).astype(float)
    data = Dataset(y=y, X=X, A=A)
    ref = linear_logistic_reference(data)
    xbar = X.mean(axis=0)
    acc = 0.0
    for i in range(n):
        full = ref.intercept + float(A[i] @ ref.gamma_inf) + float(X[i] @ ref.beta_inf)
        avg = ref.intercept + float(A[i] @ ref.gamma_inf) + float(xbar @ ref.beta_inf)
        acc += float(expit(full)) - float(expit(avg))
    want = acc / n
    assert abs(ref.delta_inf - want) <= 1e-12 * (1.0 + abs(want))


def test_linear_reference_high_prob_negative_delta():
    rng = np.random.default_rng(21)
    n = 400
    X = rng.uniform(size=(n, 2))
    eta = 2.0 + 2.0 * X @ np.array([1.0, 0.5])
    y = rng.binomial(1, expit(eta)).astype(float)
    ref = linear_logistic_reference(Dataset(y=y, X=X))
    assert np.all(ref.fitted_pi > 0.5)  # the logistic is concave up here
    assert ref.delta_inf < 0.0


def test_linear_reference_separation_error():
    x = np.linspace(0.0, 1.0, 80)
    y = (x > 0.5).astype(float)
    with pytest.raises(SeparationError):
        linear_logistic_reference(Dataset(y=y, X=x[:, None]))


def test_linear_reference_nonbinary_error():
    with pytest.raises(ValueError, match="0/1"):
        linear_logistic_reference(Dataset(y=np.full(10, 2.0), X=np.ones((10, 1))))


def _logistic_delta(y, X, A):
    """delta_inf of a linear-logistic fit of y on [1, A, X] by Newton's method
    on the log-likelihood: a solve of its own, which takes y anywhere in
    [0, 1], so that it can be differenced in y."""
    blocks = [np.ones((y.size, 1))] + ([A] if A is not None else [])
    D = np.hstack(blocks + [X])
    Dbar = np.hstack(blocks + [np.broadcast_to(X.mean(axis=0), X.shape)])
    b = np.zeros(D.shape[1])
    for _ in range(100):
        pi = expit(D @ b)
        step = np.linalg.solve(D.T @ (D * (pi * (1.0 - pi))[:, None]), D.T @ (y - pi))
        b += step
        if np.max(np.abs(step)) < 1e-14:
            break
    return float(np.mean(expit(D @ b) - expit(Dbar @ b)))


@pytest.mark.parametrize("q", [0, 1])
def test_linear_reference_influence_row_matches_fd(q):
    rng = np.random.default_rng(77)
    n = 200
    X = rng.uniform(size=(n, 2))
    A = rng.normal(0.0, 0.5, size=(n, 1)) if q else None
    eta = -0.3 + X @ np.array([1.5, 0.8]) + (0.7 * A[:, 0] if q else 0.0)
    y = rng.binomial(1, expit(eta)).astype(float)
    ref = linear_logistic_reference(Dataset(y=y, X=X, A=A))
    assert _logistic_delta(y, X, A) == pytest.approx(ref.delta_inf, rel=1e-10)
    scale = np.max(np.abs(ref.influence_row))
    h = 1e-4
    for i in (0, 17, 123, n - 1):
        up, down = y.copy(), y.copy()
        up[i] += h
        down[i] -= h
        fd = (_logistic_delta(up, X, A) - _logistic_delta(down, X, A)) / (2.0 * h)
        assert abs(ref.influence_row[i] - fd) <= 1e-8 * scale, i


# --- alternative-null comparison -----------------------------------------------------


@pytest.fixture(scope="module")
def linear_logit_path():
    rng = np.random.default_rng(404)
    n, p = 400, 3
    X = rng.uniform(size=(n, p))
    A = rng.normal(0.0, 0.5, size=(n, 1))
    eta = -0.5 + X @ np.array([1.4, 0.7, 0.35]) + 0.6 * A[:, 0]
    y = rng.binomial(1, expit(eta)).astype(float)
    spec = ModelSpec(family="bernoulli_logit", p=p, q=1)
    data = Dataset(y=y, X=X, A=A)
    return fit_path(spec, data), data


def test_alternative_null_centers_on_linear_truth(linear_logit_path):
    path, data = linear_logit_path
    ref = linear_logistic_reference(data, path)
    res = alternative_null_test(path, ref, seed=11)
    assert res.direction == "test_vs_linear_logistic"
    assert res.statistic == pytest.approx(float(np.abs(res.t).max()))
    assert 0.0 <= res.p_value <= 1.0
    # heavy smoothing drives the spline fit to the linear one
    if res.kept and res.kept[-1] == len(path.fits) - 1:
        se_top = math.sqrt(res.sigma_delta[-1, -1])
        assert abs(res.deltas[-1]) <= 2.0 * se_top
    assert not res.reject


def test_alternative_null_recomputes_missing_contractions(linear_logit_path):
    # the reference depends on the data only; a path passed along is ignored
    path, data = linear_logit_path
    bare = linear_logistic_reference(data)
    res_bare = alternative_null_test(path, bare, seed=11)
    res_full = alternative_null_test(
        path, linear_logistic_reference(data, path), seed=11
    )
    assert res_bare.statistic == res_full.statistic
    assert res_bare.p_value == res_full.p_value


def test_alternative_null_rejects_reference_of_another_size(linear_logit_path):
    path, data = linear_logit_path
    m = data.n // 2
    other = Dataset(y=data.y[:m], X=data.X[:m], A=data.A[:m])
    with pytest.raises(ValueError, match="another size"):
        alternative_null_test(path, linear_logistic_reference(other), seed=11)


def test_alternative_null_family_guard():
    spec, data, f = fitted_instance("poisson", q=0, seed=1, n=60)
    path = LambdaPath(
        spec=spec,
        data=data,
        grid=(1.0,),
        fits=[f],
        gcv=(1.0,),
        selected=0,
        sigma2=None,
        weight_ref=np.ones(data.n),
    )
    with pytest.raises(ValueError, match="logit"):
        alternative_null_test(path, ref=None)


def test_jensen_test_logit_natural_direction(linear_logit_path):
    path, _ = linear_logit_path
    res = jensen_test(path, seed=2)
    assert res.direction == "test_positive"
    assert res.statistic == pytest.approx(float(res.t.max()))


# --- one pass per fit ----------------------------------------------------------


def assembled_from_eval_sets(path, direction, seed, ref=None):
    """The test result built from one list holding every fit's evaluation
    set, through the public pieces (the difference process has no public
    covariance, so the logit comparison takes the rows directly)."""
    evals = [make_eval_set(path.spec, path.data, f) for f in path.fits]
    deltas = np.array([delta_hat(f, ev) for f, ev in zip(path.fits, evals)])
    if ref is None:
        sigma = delta_cov(path, evals)
    else:
        rows = np.array([_terms(f, ev)[1] for f, ev in zip(path.fits, evals)])
        sigma = _row_cov(path, rows - ref.influence_row, "the difference process")
        deltas = deltas - ref.delta_inf
    return _assemble_result(deltas, sigma, direction, 0.05, 5000, seed)


def assert_same_result(got, want):
    for name in ("deltas", "sigma_delta", "t", "sigma_t"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) == 0.0, name
    for name in ("kept", "statistic", "critical_value", "p_value", "reject", "direction", "warnings"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.fixture(scope="module")
def pois_path():
    X, y = gen_dataset(ScenarioConfig("pois-logistic", n=300, param=8.0, seed=0), 0)
    data = Dataset(y=y, X=X)
    return fit_path(ModelSpec(family="poisson", p=X.shape[1]), data), data


@pytest.mark.parametrize("fixture", ["sqrt_path", "pois_path"])
def test_jensen_test_equals_the_result_from_all_eval_sets(fixture, request):
    path, _ = request.getfixturevalue(fixture)
    direction = "test_negative"
    assert_same_result(
        jensen_test(path, direction=direction, seed=5),
        assembled_from_eval_sets(path, direction, 5),
    )


def test_alternative_null_test_equals_the_result_from_all_eval_sets(linear_logit_path):
    path, data = linear_logit_path
    ref = linear_logistic_reference(data)
    assert_same_result(
        alternative_null_test(path, ref, seed=5),
        assembled_from_eval_sets(path, "test_vs_linear_logistic", 5, ref),
    )


def test_jensen_test_memory_does_not_grow_with_the_grid():
    # One fit's evaluation set is alive at a time, so only the m x n influence
    # rows grow with the grid m. Few null draws keep the n_sims x m draw
    # matrix, which grows with the grid by design, out of the peak. The bound
    # is on the growth per added grid point, in units of one float64 n-vector
    # (one influence row is 1.0), so a leaner per-fit loop cannot fail it.
    rng = np.random.default_rng(101)
    n, p = 500, 5
    X = rng.uniform(0.0, 0.5, size=(n, p))
    y = np.sqrt(X @ (np.ones(p) / np.sqrt(p)) + 0.05) * np.exp(0.01 * rng.standard_normal(n))
    data = Dataset(y=y, X=X)
    peaks = []
    for count in (20, 60):
        spec = ModelSpec(family="gaussian_log", p=p, lambda_grid=default_lambda_grid(count=count))
        path = fit_path(spec, data)
        jensen_test(path, n_sims=100)  # fill the basis and penalty caches first
        tracemalloc.start()
        try:
            jensen_test(path, n_sims=100)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_point = (peaks[1] - peaks[0]) / (60 - 20)
    assert per_point <= 1.45 * 8 * n


def test_every_direction_name_is_a_test_direction():
    # the CLI flags, the family defaults and the catalog all name directions
    # that the direction table defines
    named = set(DIRECTION_FLAGS.values())
    named |= {fam.direction for fam in FAMILY_TABLE.values()}
    named |= {entry.direction for entry in CATALOG.values()}
    assert named <= set(DIRECTIONS)
