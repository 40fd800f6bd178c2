"""Model-layer tests.

Objectives are checked against naive per-observation summation loops and
closed forms; gradients against central finite differences of the public
objective; the fitter against a noiseless known-truth design.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from jenseneffect.basis import basis_matrix, make_spline_basis
from jenseneffect.errors import DegenerateIndexError, NumericalOverflowError
from jenseneffect.jensen import jensen_test
import jenseneffect.model as model_module
from jenseneffect.model import (
    ETA_CLIP,
    FAMILIES,
    FAMILY_TABLE,
    Coefficients,
    Dataset,
    ModelSpec,
    _Evaluator,
    _initial_coefficients,
    default_lambda_grid,
    fit,
    fit_path,
    gradient,
    normalize_index,
    objective,
)
from jenseneffect.simlab import ScenarioConfig, gen_dataset


def small_instance(family, rng, n=20, p=3, q=0, placement="inside_index", dim=8):
    X = rng.uniform(0.0, 0.5, size=(n, p))
    A = rng.uniform(-1.0, 1.0, size=(n, q)) if q else None
    basis = make_spline_basis(-1.5, 2.5, dim=dim, degree=5)
    spec = ModelSpec(family=family, p=p, q=q, extra_placement=placement, basis=basis)
    beta = normalize_index(rng.normal(size=p))
    gamma = rng.normal(size=q) * 0.3
    d = rng.normal(size=dim) * 0.5
    coeffs = Coefficients(beta=beta, gamma=gamma, d=d)
    E = X @ beta + (A @ gamma if (q and placement == "inside_index") else 0.0)
    g = basis_matrix(basis, E) @ d
    eta = g + (A @ gamma if (q and placement == "outside_index") else 0.0)
    if family == "gaussian_log":
        y = np.exp(eta + 0.1 * rng.normal(size=n))
    elif family == "poisson":
        y = rng.poisson(np.exp(np.clip(eta, -20, 3))).astype(float)
    else:
        y = rng.binomial(1, expit(eta)).astype(float)
    return spec, Dataset(y=y, X=X, A=A), coeffs


# --- normalization ----------------------------------------------------------


def test_normalize_scaling():
    np.testing.assert_allclose(normalize_index([2.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=0)


def test_normalize_sign_flip():
    np.testing.assert_allclose(normalize_index([-3.0, 4.0]), [0.6, -0.8], atol=1e-15)


def test_normalize_first_nonzero_rule():
    np.testing.assert_allclose(normalize_index([0.0, -2.0]), [0.0, 1.0], atol=0)


def test_normalize_zero_vector_errors():
    with pytest.raises(DegenerateIndexError):
        normalize_index(np.zeros(4))
    with pytest.raises(DegenerateIndexError):
        normalize_index([np.nan, 1.0])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8).filter(
        lambda v: any(x != 0 for x in v)
    )
)
def test_normalize_properties(vec):
    b = normalize_index(vec)
    assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-10)
    assert b[np.nonzero(b)[0][0]] > 0
    np.testing.assert_allclose(normalize_index(b), b, atol=1e-12)


# --- family table -----------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_family_table_derivatives_agree(family):
    fam = FAMILY_TABLE[family]
    rng = np.random.default_rng(3)
    eta = rng.uniform(-3.0, 3.0, size=9)
    y = {
        "gaussian_log": rng.normal(size=9),
        "poisson": rng.poisson(2.0, size=9).astype(float),
        "bernoulli_logit": rng.binomial(1, 0.5, size=9).astype(float),
    }[family]
    h = 1e-5
    # the loss is a sum over observations, so each observation's score is
    # the derivative of its own one-element loss
    def loss_i(i, step):
        return fam.loss(eta[i : i + 1] + step, y[i : i + 1])[0]

    fd_score = [(loss_i(i, h) - loss_i(i, -h)) / (2 * h) for i in range(eta.size)]
    np.testing.assert_allclose(fam.loss(eta, y)[1], fd_score, rtol=1e-7, atol=1e-7)
    fd_curv = (fam.loss(eta + h, y)[1] - fam.loss(eta - h, y)[1]) / (2 * h)
    np.testing.assert_allclose(fam.curvature(eta), fd_curv, rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(fam.h_prime(eta), (fam.h(eta + h) - fam.h(eta - h)) / (2 * h), rtol=1e-7)
    # The losses are unhalved: squared error has curvature 2 = 2 * weight,
    # the negative log-likelihoods curvature = weight. The Hessian of
    # loss + lambda d'Pd in d is Phi' diag(curvature) Phi + 2 lambda P, i.e.
    # s (Phi' W Phi + (2 / s) lambda P). inference._fit_system's bracket
    # Phi' W Phi + lambda P is therefore right for gaussian_log (s = 2) and
    # short of 2 lambda P for poisson and logit (s = 1): ROADMAP item 3.
    s = 2.0 if family == "gaussian_log" else 1.0
    np.testing.assert_array_equal(fam.curvature(eta), s * fam.weight(fam.mean(eta)))


def test_family_table_clips():
    pois, gauss = FAMILY_TABLE["poisson"], FAMILY_TABLE["gaussian_log"]
    far = np.array([-705.0, 705.0])
    # the fitter's mean caps eta from above only; the Jensen transform clips
    # both sides
    np.testing.assert_array_equal(pois.mean(far), np.exp([-705.0, ETA_CLIP]))
    np.testing.assert_array_equal(gauss.h_prime(far), np.exp([-ETA_CLIP, ETA_CLIP]))
    # beyond the cap the poisson score is flat but the curvature is not
    _, score = pois.loss(far, np.array([1.0, 1.0]))
    assert score[1] == -1.0 and pois.curvature(far)[1] == np.exp(ETA_CLIP)
    with pytest.warns(RuntimeWarning, match="clipped"):
        gauss.h(far)


# --- objective --------------------------------------------------------------


def test_poisson_zero_link_closed_form(rng):
    spec, data, coeffs = small_instance("poisson", rng)
    zero = Coefficients(beta=coeffs.beta, gamma=coeffs.gamma, d=np.zeros(8))
    for lam in (0.0, 1.0, 250.0):
        assert objective(spec, data, zero, lam) == float(data.n)


def interpolating_instance():
    """n = dim gaussian instance whose coefficients reproduce Y* exactly."""
    dim = 8
    basis = make_spline_basis(0.0, 1.0, dim=dim, degree=5)
    spec = ModelSpec(family="gaussian_log", p=1, basis=basis)
    s = np.linspace(0.02, 0.98, dim)
    X = s[:, None]
    rng = np.random.default_rng(3)
    ystar = rng.normal(size=dim)
    d = np.linalg.solve(basis_matrix(basis, s), ystar)
    coeffs = Coefficients(beta=np.array([1.0]), gamma=np.zeros(0), d=d)
    return spec, Dataset(y=np.exp(ystar), X=X), coeffs


def test_gaussian_interpolation_objective_zero():
    spec, data, coeffs = interpolating_instance()
    assert objective(spec, data, coeffs, 0.0) <= 1e-18


@pytest.mark.parametrize("family", ["gaussian_log", "poisson", "bernoulli_logit"])
@pytest.mark.parametrize("placement,q", [("inside_index", 0), ("inside_index", 2), ("outside_index", 2)])
def test_objective_matches_per_observation_loop(family, placement, q, rng):
    spec, data, coeffs = small_instance(family, rng, q=q, placement=placement)
    lam = 0.7
    total = 0.0
    for i in range(data.n):
        e_i = float(data.X[i] @ coeffs.beta)
        if q and placement == "inside_index":
            e_i += float(data.A[i] @ coeffs.gamma)
        eta_i = float(basis_matrix(spec.basis, [e_i])[0] @ coeffs.d)
        if q and placement == "outside_index":
            eta_i += float(data.A[i] @ coeffs.gamma)
        if family == "gaussian_log":
            total += (np.log(data.y[i]) - eta_i) ** 2
        elif family == "poisson":
            total += np.exp(eta_i) - data.y[i] * eta_i
        else:
            total += np.logaddexp(0.0, eta_i) - data.y[i] * eta_i
    from jenseneffect.basis import penalty_matrix

    total += lam * float(coeffs.d @ penalty_matrix(spec.basis) @ coeffs.d)
    ours = objective(spec, data, coeffs, lam)
    assert ours == pytest.approx(total, rel=1e-12)


def test_objective_overflow_names_observation(rng):
    spec, data, coeffs = small_instance("poisson", rng)
    huge = Coefficients(beta=coeffs.beta, gamma=coeffs.gamma, d=np.full(8, 900.0))
    with pytest.raises(NumericalOverflowError, match="observation"):
        objective(spec, data, huge, 0.0)


def test_objective_raises_where_the_poisson_cap_is_active():
    # eta = 705 lies past ETA_CLIP, where the table's loss (and so the
    # gradient, which stays finite here) caps the exponential; the objective
    # must not return the uncapped 1.5e307 there
    basis = make_spline_basis(0.0, 1.0, dim=8, degree=5)
    spec = ModelSpec(family="poisson", p=1, basis=basis)
    data = Dataset(y=np.ones(10), X=np.linspace(0.05, 0.95, 10)[:, None])
    coeffs = Coefficients(beta=np.array([1.0]), gamma=np.zeros(0), d=np.full(8, 705.0))
    assert np.all(np.isfinite(gradient(spec, data, coeffs, 0.0)))
    with pytest.raises(NumericalOverflowError, match="observation 0 "):
        objective(spec, data, coeffs, 0.0)


def test_objective_rejects_negative_lambda(rng):
    spec, data, coeffs = small_instance("gaussian_log", rng)
    with pytest.raises(ValueError):
        objective(spec, data, coeffs, -1.0)


@pytest.mark.parametrize("scale", [0.0, 1e-13, np.inf])
def test_objective_and_gradient_reject_a_collapsed_direction(scale, rng):
    spec, data, coeffs = small_instance("poisson", rng)
    collapsed = Coefficients(beta=coeffs.beta * scale, gamma=coeffs.gamma, d=coeffs.d)
    with pytest.raises(DegenerateIndexError):
        objective(spec, data, collapsed, 0.7)
    with pytest.raises(DegenerateIndexError):
        gradient(spec, data, collapsed, 0.7)


# --- gradient ---------------------------------------------------------------


def fd_gradient(spec, data, coeffs, lam, h=1e-6):
    theta0 = np.concatenate([coeffs.d, coeffs.beta, coeffs.gamma])
    K = spec.basis.dim

    def unpack(theta):
        return Coefficients(beta=theta[K : K + spec.p], gamma=theta[K + spec.p :], d=theta[:K])

    out = np.empty_like(theta0)
    for k in range(theta0.size):
        up, dn = theta0.copy(), theta0.copy()
        up[k] += h
        dn[k] -= h
        out[k] = (objective(spec, data, unpack(up), lam) - objective(spec, data, unpack(dn), lam)) / (2 * h)
    return out


@pytest.mark.parametrize("family", ["gaussian_log", "poisson", "bernoulli_logit"])
@pytest.mark.parametrize("placement,q", [("inside_index", 0), ("inside_index", 2), ("outside_index", 2)])
def test_gradient_matches_finite_differences(family, placement, q, rng):
    spec, data, coeffs = small_instance(family, rng, q=q, placement=placement)
    lam = 0.35
    g = gradient(spec, data, coeffs, lam)
    g_fd = fd_gradient(spec, data, coeffs, lam)
    assert np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g)) < 1e-5


def test_gradient_fd_at_ten_random_points_per_family():
    rng = np.random.default_rng(77)
    for family in ("gaussian_log", "poisson", "bernoulli_logit"):
        spec, data, _ = small_instance(family, rng, n=25)
        for _ in range(10):
            coeffs = Coefficients(
                beta=normalize_index(rng.normal(size=3)),
                gamma=np.zeros(0),
                d=rng.normal(size=8) * 0.4,
            )
            lam = float(rng.uniform(0.0, 2.0))
            g = gradient(spec, data, coeffs, lam)
            g_fd = fd_gradient(spec, data, coeffs, lam)
            assert np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g)) < 1e-5


def test_gradient_dblock_zero_at_interpolation():
    spec, data, coeffs = interpolating_instance()
    g = gradient(spec, data, coeffs, 0.0)
    assert np.max(np.abs(g[:8])) <= 1e-8


def test_gradient_dblock_is_penalty_at_zero_residuals():
    spec, data, coeffs = interpolating_instance()
    from jenseneffect.basis import penalty_matrix

    lam = 3.0
    g = gradient(spec, data, coeffs, lam)
    expected = 2.0 * lam * penalty_matrix(spec.basis) @ coeffs.d
    assert np.max(np.abs(g[:8] - expected)) <= 1e-8 * max(1.0, np.max(np.abs(expected)))


# --- evaluator --------------------------------------------------------------


@pytest.fixture
def basis_calls(monkeypatch):
    """The index vectors `model` evaluates the basis at, in call order."""
    calls = []
    original = model_module.basis_matrices

    def counting(basis, s, derivs):
        calls.append(np.asarray(s).tobytes())
        return original(basis, s, derivs)

    monkeypatch.setattr(model_module, "basis_matrices", counting)
    return calls


def test_evaluator_returns_a_fresh_gradient_for_a_repeated_point(rng, basis_calls):
    spec, data, coeffs = small_instance("poisson", rng, q=2)
    ev = _Evaluator(spec, data, spec.basis, 0.7)
    zeta = ev.to_eig(np.concatenate([coeffs.d, coeffs.beta, coeffs.gamma]))
    value, grad = ev.value_and_grad_eig(zeta)
    expected = grad.copy()
    grad += 1.0  # a caller may update a returned gradient in place
    again, grad_again = ev.value_and_grad_eig(zeta.copy())
    assert again == value
    np.testing.assert_array_equal(grad_again, expected)
    assert len(basis_calls) == 1


def test_evaluator_reads_a_collapsed_direction_as_a_high_flat_point(rng, basis_calls):
    spec, data, coeffs = small_instance("poisson", rng, q=2)
    ev = _Evaluator(spec, data, spec.basis, 0.7)
    zeta = ev.to_eig(np.concatenate([coeffs.d, np.zeros(spec.p), coeffs.gamma]))
    for _ in range(2):
        value, grad = ev.value_and_grad_eig(zeta)
        assert value == 1e12
        np.testing.assert_array_equal(grad, np.zeros_like(zeta))
        grad += 1.0  # the next call must not see this
    assert basis_calls == []


def test_fit_starts_no_bfgs_run_at_a_stationary_point(monkeypatch):
    runs = []
    real = model_module.minimize
    monkeypatch.setattr(model_module, "minimize", lambda *a, **k: runs.append(1) or real(*a, **k))
    X, y = gen_dataset(ScenarioConfig("pois-logistic", n=100, param=8.0, seed=0), 0)
    spec = ModelSpec(family="poisson", p=X.shape[1], lambda_grid=(1.0, 1e3))
    data = Dataset(y=y, X=X)
    fit_spec = replace(spec, basis=_initial_coefficients(spec, data)[1])  # the raw frame
    for f in fit_path(spec, data).fits:
        runs.clear()
        again = fit(fit_spec, data, f.lam, init=f.raw_coeffs)
        # the second attempt is counted as a restart though it starts no run
        assert (len(runs), again.converged, again.n_restarts_used) == (0, True, 1)
        assert again.objective == pytest.approx(f.objective, rel=1e-12, abs=0)


def test_fit_evaluates_the_basis_once_per_index(basis_calls, monkeypatch):
    # The start, the Hessian seeds, the restart, the gradient check and the
    # fitted values all read points the optimizer has already evaluated.
    # Only the last index is kept, so a line search that comes back to an
    # older index pays again: gaussian fits near convergence alternate
    # between the iterate and trial points whose index part rounds to it.
    # This poisson path has no such returns.
    per_fit = []

    def counted_fit(*args, **kwargs):
        basis_calls.clear()
        res = fit(*args, **kwargs)
        per_fit.append((len(basis_calls), len(set(basis_calls))))
        return res

    monkeypatch.setattr(model_module, "fit", counted_fit)
    X, y = gen_dataset(ScenarioConfig("pois-logistic", n=300, param=8.0, seed=0), 0)
    fit_path(ModelSpec(family="poisson", p=X.shape[1]), Dataset(y=y, X=X))
    assert len(per_fit) == 20
    for calls, distinct in per_fit:
        assert calls == distinct


def test_gauss_newton_seed_falls_back_to_identity_when_the_hessian_overflows():
    X, y = gen_dataset(ScenarioConfig("pois-logistic", n=300, seed=0), 0)
    spec = ModelSpec(family="poisson", p=X.shape[1])
    data = Dataset(y=y, X=X)
    init, basis = _initial_coefficients(spec, data)
    spec = replace(spec, basis=basis)
    far = Coefficients(beta=init.beta, gamma=init.gamma, d=init.d + np.linspace(0.0, 1e6, basis.dim))
    ev = _Evaluator(spec, data, basis, 1.0)
    zeta = ev.to_eig(np.concatenate([far.d, far.beta, far.gamma]))
    with np.errstate(over="ignore", invalid="ignore"):
        seed = ev.gauss_newton_hess_inv(zeta)
        res = fit(spec, data, 1.0, init=far)
    np.testing.assert_array_equal(seed, np.eye(zeta.size))
    assert np.isfinite(res.objective)


# --- fit --------------------------------------------------------------------


def recovery_data(n=500, seed=42):
    rng = np.random.default_rng(seed)
    p = 5
    X = rng.uniform(0.0, 0.5, size=(n, p))
    true_beta = np.ones(p) / np.sqrt(p)
    y = np.exp(X @ true_beta)
    return Dataset(y=y, X=X), true_beta


def test_fit_recovers_known_truth():
    data, true_beta = recovery_data()
    spec = ModelSpec(family="gaussian_log", p=5)
    res = fit(spec, data, lam=1.0)
    assert res.converged
    assert np.linalg.norm(res.coeffs.beta - true_beta) < 1e-2
    s = np.linspace(res.index_values.min(), res.index_values.max(), 50)
    ghat = basis_matrix(res.basis, s) @ res.coeffs.d
    assert np.max(np.abs(ghat - s)) < 1e-2


def test_fit_two_stage_monotone_improvement(rng):
    spec, data, _ = small_instance("gaussian_log", rng, n=60)
    res = fit(spec, data, lam=0.5)
    start, basis = _initial_coefficients(spec, data)
    assert objective(replace(spec, basis=basis), data, start, 0.5) >= res.objective
    framed = replace(spec, basis=res.basis)
    assert objective(framed, data, res.coeffs, 0.5) == pytest.approx(res.objective, rel=1e-10)


@pytest.mark.parametrize(
    "scenario, family, n, param",
    [("gauss-sqrt", "gaussian_log", 2000, 0.05), ("logit-convex", "bernoulli_logit", 1000, 8.0)],
)
def test_fit_objective_is_the_objective_at_its_coefficients(scenario, family, n, param):
    # the fitter minimizes in penalty-eigenbasis coordinates, where the
    # penalty's rounding differs from d'Pd by up to 1e-5 relative at the
    # stiff end; what a fit reports is `objective` at what it returns
    X, y = gen_dataset(ScenarioConfig(scenario, n=n, param=param, seed=0), 0)
    data = Dataset(y=y, X=X)
    spec = ModelSpec(family=family, p=5)
    for f in fit_path(spec, data).fits:
        assert objective(replace(spec, basis=f.basis), data, f.coeffs, f.lam) == f.objective


def test_fit_flags_ill_posed_regime():
    rng = np.random.default_rng(9)
    X = rng.uniform(0.0, 0.5, size=(10, 2))
    y = np.exp(rng.normal(size=10))
    spec = ModelSpec(family="gaussian_log", p=2)
    res = fit(spec, Dataset(y=y, X=X), lam=1e-8)
    assert (not res.converged) or any("rank-deficient" in w for w in res.warnings)


def test_fit_result_invariants(rng):
    for family in ("poisson", "bernoulli_logit"):
        spec, data, _ = small_instance(family, rng, n=80, dim=8)
        spec = ModelSpec(family=family, p=spec.p, basis=None)  # let fit pick the domain
        res = fit(spec, data, lam=0.5)
        beta = res.coeffs.beta
        assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(normalize_index(beta), beta, atol=1e-12)
        if family == "poisson":
            np.testing.assert_allclose(res.mu_or_pi, np.exp(res.eta), rtol=1e-12)
            assert np.all(res.mu_or_pi > 0)
        else:
            np.testing.assert_allclose(res.mu_or_pi, expit(res.eta), rtol=1e-12)
            assert np.all((res.mu_or_pi > 0) & (res.mu_or_pi < 1))


def test_fit_from_an_initial_point_needs_its_basis():
    # d means something only in the knot set it was fitted in: a basis
    # rebuilt around the initial index would read it in another frame
    data = path_data(n=120)
    spec = ModelSpec(family="gaussian_log", p=5)
    first = fit(spec, data, lam=1.0)
    with pytest.raises(ValueError, match="spec.basis"):
        fit(spec, data, 1.0, init=first.coeffs)
    framed = replace(spec, basis=first.basis)
    assert objective(framed, data, first.coeffs, 1.0) == pytest.approx(first.objective, rel=1e-10)
    again = fit(framed, data, 1.0, init=first.coeffs)
    assert again.objective <= first.objective * (1 + 1e-10)


def test_fit_rejects_bad_lambda():
    data, _ = recovery_data(n=50)
    spec = ModelSpec(family="gaussian_log", p=5)
    with pytest.raises(ValueError):
        fit(spec, data, lam=0.0)
    with pytest.raises(ValueError):
        fit(spec, data, lam=-2.0)


def test_spec_and_data_validation(rng):
    with pytest.raises(ValueError):
        ModelSpec(family="gamma", p=1)
    with pytest.raises(ValueError):
        ModelSpec(family="poisson", p=0)
    with pytest.raises(ValueError):
        ModelSpec(family="poisson", p=1, lambda_grid=(2.0, 1.0))
    spec = ModelSpec(family="gaussian_log", p=2)
    X = rng.uniform(size=(5, 2))
    with pytest.raises(ValueError, match="positive"):
        fit(spec, Dataset(y=np.array([1.0, 2.0, 0.0, 3.0, 4.0]), X=X), lam=1.0)
    logit = ModelSpec(family="bernoulli_logit", p=2)
    with pytest.raises(ValueError):
        fit(logit, Dataset(y=np.array([0.0, 1.0, 2.0, 0.0, 1.0]), X=X), lam=1.0)


@pytest.mark.parametrize(
    "scenario,family,q,direction",
    [
        ("logit-convex", "bernoulli_logit", 1, "test_positive"),
        ("pois-logistic", "poisson", 0, "test_negative"),
    ],
)
def test_fit_and_test_do_not_depend_on_the_covariate_layout(scenario, family, q, direction):
    # pandas' .to_numpy(), transposes and column slices hand over Fortran-ordered
    # blocks; BLAS sums X @ beta in a layout-dependent order
    X, y = gen_dataset(ScenarioConfig(scenario, n=300, param=8.0, seed=0), 0)
    A = np.random.default_rng(7).normal(0.0, 0.5, size=(y.size, q)) if q else None
    spec = ModelSpec(family=family, p=X.shape[1], q=q, lambda_grid=default_lambda_grid(count=4))
    runs = []
    for order in ("C", "F"):
        data = Dataset(
            y=y, X=np.asarray(X, order=order), A=None if A is None else np.asarray(A, order=order)
        )
        path = fit_path(spec, data)
        runs.append((path, jensen_test(path, direction=direction, seed=0, n_sims=500)))
    (path_c, res_c), (path_f, res_f) = runs
    for fc, ff in zip(path_c.fits, path_f.fits):
        assert ff.objective == fc.objective
        for name in ("beta", "gamma", "d"):
            np.testing.assert_array_equal(getattr(ff.coeffs, name), getattr(fc.coeffs, name))
    np.testing.assert_array_equal(res_f.deltas, res_c.deltas)
    np.testing.assert_array_equal(res_f.sigma_delta, res_c.sigma_delta)
    assert (res_f.statistic, res_f.critical_value) == (res_c.statistic, res_c.critical_value)


# --- fit_path ---------------------------------------------------------------


def path_data(n=300, sigma=0.05, seed=11, link=np.sqrt):
    rng = np.random.default_rng(seed)
    p = 5
    X = rng.uniform(0.0, 0.5, size=(n, p))
    s = X @ (np.ones(p) / np.sqrt(p))
    ystar = np.log(link(s)) + sigma * rng.normal(size=n)
    return Dataset(y=np.exp(ystar), X=X)


def test_fit_path_singleton_equals_fit():
    data = path_data(n=120)
    spec = ModelSpec(family="gaussian_log", p=5, lambda_grid=(1.0,))
    path = fit_path(spec, data)
    direct = fit(spec, data, lam=1.0)
    assert path.fits[0].objective == direct.objective
    np.testing.assert_array_equal(path.fits[0].coeffs.d, direct.coeffs.d)
    np.testing.assert_array_equal(path.fits[0].coeffs.beta, direct.coeffs.beta)


def test_fit_path_curvature_nonincreasing_in_lambda():
    from jenseneffect.basis import penalty_matrix

    data = path_data(n=300, sigma=0.05)
    spec = ModelSpec(family="gaussian_log", p=5)
    path = fit_path(spec, data)
    pens = []
    for f in path.fits:
        P = penalty_matrix(f.basis)
        pens.append(float(f.coeffs.d @ P @ f.coeffs.d))
    pens = np.array(pens)
    assert np.all(np.isfinite([f.objective for f in path.fits]))
    assert np.all(np.diff(pens) <= 1e-8 * (1.0 + pens[:-1]))


def test_fit_path_top_lambda_is_nearly_linear():
    # linear truth: at the top of the grid curvature must be negligible
    data = path_data(n=300, sigma=0.05, link=lambda s: np.exp(s))
    spec = ModelSpec(family="gaussian_log", p=5)
    res = fit(spec, data, lam=1e6)
    s = np.linspace(res.index_values.min(), res.index_values.max(), 200)
    g1 = basis_matrix(res.basis, s, 1) @ res.coeffs.d
    g2 = basis_matrix(res.basis, s, 2) @ res.coeffs.d
    assert np.max(np.abs(g2)) <= 1e-3 * np.max(np.abs(g1))


def test_warm_started_path_matches_cold_fits_and_is_not_slower():
    import time

    data = path_data(n=300, sigma=0.05)
    spec = ModelSpec(family="gaussian_log", p=5)
    t0 = time.perf_counter()
    warm = fit_path(spec, data)
    t_warm = time.perf_counter() - t0
    t0 = time.perf_counter()
    # each cold fit starts from the linear start, in the basis built around it
    cold = [fit(spec, data, lam) for lam in spec.lambda_grid]
    t_cold = time.perf_counter() - t0
    for fw, fc in zip(warm.fits, cold):
        assert fw.objective == pytest.approx(fc.objective, abs=1e-6 * (1 + abs(fc.objective)))
    assert t_warm < 2.0 * t_cold


@pytest.mark.xfail(
    strict=True,
    reason="BFGS stops short on logit-convex yet flags convergence: the warm-started "
    "fit at lambda~483 sits 0.021 above a cold fit (index 7.3 degrees apart), and the "
    "path objective falls from lambda 483 to 1129 and from 2637 to 6158",
)
def test_logit_path_fits_are_minima():
    config = ScenarioConfig("logit-convex", n=1000, param=8.0, seed=0)
    X, y = gen_dataset(config, 0)
    spec = ModelSpec(family="bernoulli_logit", p=5)
    data = Dataset(y=y, X=X)
    path = fit_path(spec, data)
    k = 10  # lambda ~ 483 on the default grid
    cold = fit(spec, data, lam=path.grid[k])
    assert path.fits[k].converged and cold.converged
    warm = path.fits[k].objective
    assert warm <= cold.objective + 1e-8 * (1.0 + abs(cold.objective))
    # the minimum of loss + lambda * penalty cannot fall as lambda grows
    objs = np.array([f.objective for f in path.fits])
    assert np.all(np.diff(objs) >= -1e-8 * (1.0 + np.abs(objs[1:])))
