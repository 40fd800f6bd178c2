"""The package's BFGS against scipy's, bit for bit.

`jenseneffect.bfgs.minimize` ports scipy's `minimize(method="BFGS")`, which
stays a test-only oracle here. Each check runs both on one problem and
asserts the same point and value, compared with ==, and the same sequence
of calls to the objective."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import jenseneffect.bfgs as bfgs_module
import jenseneffect.model as model_module
from jenseneffect.model import Dataset, ModelSpec, fit_path
from jenseneffect.simlab import ScenarioConfig, gen_dataset

SRC = Path(__file__).resolve().parents[1] / "src"


def _recorded(fun):
    """fun, and the points it is called at, as bytes, in call order."""
    calls = []

    def recording(x):
        calls.append(np.asarray(x).tobytes())
        return fun(x)

    return recording, calls


def _assert_same_run(fun, x0, gtol, maxiter, hess_inv0):
    """Run both minimizers from x0; return the port's (x, value)."""
    ours, our_calls = _recorded(fun)
    theirs, their_calls = _recorded(fun)
    x, value = bfgs_module.minimize(ours, x0, gtol=gtol, maxiter=maxiter, hess_inv0=hess_inv0)
    res = scipy_minimize(
        theirs, x0, jac=True, method="BFGS",
        options={"gtol": gtol, "maxiter": maxiter, "hess_inv0": hess_inv0},
    )
    assert x.tobytes() == res.x.tobytes()
    assert value == res.fun
    assert our_calls == their_calls
    return x, value


@pytest.fixture
def fallbacks(monkeypatch):
    """The outcome of every Wolfe-2 fallback search the port runs: True
    where it found a step."""
    outcomes = []
    real = bfgs_module._line_search_wolfe2

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        outcomes.append(out[0] is not None)
        return out

    monkeypatch.setattr(bfgs_module, "_line_search_wolfe2", counting)
    return outcomes


@pytest.mark.parametrize(
    ("scenario", "n", "param", "replicate", "family"),
    [
        # 15 fallback searches, 2 of them finding a step
        ("pois-logistic", 100, 2.0, 1, "poisson"),
        # 12 fallback searches, 2 of them finding a step
        ("gauss-sqrt", 300, 0.05, 0, "gaussian_log"),
    ],
)
def test_every_bfgs_run_of_a_path_matches_scipy(monkeypatch, fallbacks, scenario, n, param, replicate, family):
    runs = []

    def both(fun, x0, gtol, maxiter, hess_inv0):
        runs.append(1)
        return _assert_same_run(fun, x0, gtol, maxiter, hess_inv0)

    monkeypatch.setattr(model_module, "minimize", both)
    X, y = gen_dataset(ScenarioConfig(scenario, n=n, param=param, seed=0), replicate)
    fit_path(ModelSpec(family=family, p=X.shape[1]), Dataset(y=y, X=X))
    assert len(runs) >= 20
    # the fallback search ran, and both found and missed steps
    assert set(fallbacks) == {True, False}


def _rosenbrock(x):
    r = x[1:] - x[:-1] ** 2
    s = 1.0 - x[:-1]
    value = float(np.sum(100.0 * r**2 + s**2))
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * r - 2.0 * s
    grad[1:] += 200.0 * r
    return value, grad


@pytest.mark.parametrize("start", range(4))
def test_rosenbrock_matches_scipy(start):
    x0 = np.random.default_rng(start).uniform(-2.0, 2.0, size=5)
    _assert_same_run(_rosenbrock, x0, gtol=1e-9, maxiter=1000, hess_inv0=np.eye(5))


def test_ill_conditioned_quadratic_matches_scipy():
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    A = (Q * np.geomspace(1e-4, 1e4, 8)) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(8)

    def quadratic(x):
        Ax = A @ x
        return 0.5 * float(x @ Ax) - float(b @ x), Ax - b

    _assert_same_run(quadratic, np.zeros(8), gtol=1e-10, maxiter=500, hess_inv0=np.eye(8))


@pytest.mark.parametrize(
    ("coef", "x0", "scale"),
    [
        # found by search, so that moving a constant of the Moré–Thuente
        # search moves a run: this start hinges on the 0.66 bisection rule,
        ((0.1, 0.5, -1.4, -0.5, 0.3), (0.1, -0.2), 0.02),
        # this one on the 1.1 lower bound of an extrapolated step
        ((0.7, -0.2, 0.8, 0.9, 0.2), (-1.0, -1.4), 1.0),
    ],
)
def test_a_rippled_quartic_matches_scipy(coef, x0, scale):
    c = np.array(coef)

    def rippled(x):
        value = c[0] * x + c[1] * x**2 + c[2] * x**3 + c[3] * np.sin(3 * x) + c[4] * x**4
        grad = c[0] + 2 * c[1] * x + 3 * c[2] * x**2 + 3 * c[3] * np.cos(3 * x) + 4 * c[4] * x**3
        return float(np.sum(value)), grad

    _assert_same_run(rippled, np.array(x0), gtol=1e-9, maxiter=200, hess_inv0=scale * np.eye(2))


def test_a_value_of_minus_infinity_stops_both():
    def cliff(x):
        if x[0] > 0.5:
            return -np.inf, np.full_like(x, 1e-3)
        return float((x - 2.0) @ (x - 2.0)), 2.0 * (x - 2.0)

    x, value = _assert_same_run(cliff, np.zeros(2), gtol=1e-6, maxiter=50, hess_inv0=np.eye(2))
    assert value == -np.inf


def test_an_objective_unbounded_below_matches_scipy():
    # the Moré–Thuente search reaches its step bound and the fallback runs
    # out of iterations, so BFGS takes the gradient at the new point itself
    def linear(x):
        return -float(np.sum(x)), -np.ones_like(x)

    _assert_same_run(linear, np.zeros(3), gtol=1e-5, maxiter=4, hess_inv0=np.eye(3))


@pytest.mark.parametrize(
    "seed",
    [np.diag([1.0, -1.0, 1.0]), np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])],
    ids=["indefinite", "asymmetric"],
)
def test_a_seed_that_is_not_positive_definite_raises_as_scipy_does(seed):
    with pytest.raises(ValueError) as theirs:
        scipy_minimize(_rosenbrock, np.zeros(3), jac=True, method="BFGS", options={"hess_inv0": seed})
    with pytest.raises(ValueError) as ours:
        bfgs_module.minimize(_rosenbrock, np.zeros(3), gtol=1e-5, maxiter=10, hess_inv0=seed)
    assert str(ours.value) == str(theirs.value)


def test_the_package_does_not_load_scipy_optimize():
    # a fresh interpreter, since this test session has loaded scipy.optimize
    script = """
import importlib, pkgutil, sys
import jenseneffect
for m in pkgutil.iter_modules(jenseneffect.__path__):
    importlib.import_module("jenseneffect." + m.name)
from jenseneffect.model import Dataset, ModelSpec, fit_path
from jenseneffect.simlab import ScenarioConfig, gen_dataset
X, y = gen_dataset(ScenarioConfig("pois-logistic", n=100, param=8.0, seed=0), 0)
fit_path(ModelSpec(family="poisson", p=X.shape[1], lambda_grid=(1.0, 1e3)), Dataset(y=y, X=X))
assert "jenseneffect.cli" in sys.modules
print("scipy.optimize" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
