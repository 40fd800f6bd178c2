"""Acceptance criteria for the estimator, test pipeline, simulation lab, and CLI.

One test per numbered criterion. Each prints a single line

    CRITERION <k> [PASS|FAIL] <label>: <measured>; tolerance: <stated>

before asserting, so a verbose pytest run yields one verdict per criterion and
the measured numbers are preserved in the captured output when one fails.

Every simulation criterion uses fixed seeds, so the whole suite is
deterministic on rerun. The rejection-count bands are sized for the default
desk-scale replicate counts (30 or 50); they are statistical tolerances, not
exact targets. This file is slow by design: criteria 1-5 refit a few hundred
full smoothing paths at n = 500 to 1000.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import expit

from jenseneffect.basis import basis_matrix, make_spline_basis
from jenseneffect.cli import main as cli_main
from jenseneffect.jensen import (
    delta_cov,
    delta_hat,
    jensen_test,
    make_eval_set,
    null_critical_value,
)
from jenseneffect.model import (
    Coefficients,
    Dataset,
    FitResult,
    ModelSpec,
    fit,
    fit_path,
    gradient,
    normalize_index,
    objective,
)
from jenseneffect.simlab import (
    BETA,
    ScenarioConfig,
    _curve_values,
    gen_dataset,
    power_study,
)


def report(num, label, ok, measured, tolerance):
    line = (
        f"CRITERION {num} [{'PASS' if ok else 'FAIL'}] {label}: "
        f"{measured}; tolerance: {tolerance}"
    )
    print(line, flush=True)
    return line


def rejection_counts(table):
    # keyed by (scenario, param) so swept studies stay unambiguous
    out = {}
    for r in table.rows:
        out[(r.scenario, r.param)] = round(r.rejection_rate * r.replicates)
    return out


def all_replicates_succeeded(table, expected):
    return all(r.replicates == expected and not r.failures for r in table.rows)


# --- criteria 1-5: operating characteristics at desk scale -------------------


def test_criterion_01_gaussian_suite():
    reps = 50
    names = ("gauss-exp", "gauss-sqrt", "gauss-sin", "gauss-linear")
    configs = [ScenarioConfig(s, n=1000, n_replicates=reps, seed=11) for s in names]
    table = power_study(configs, alpha=0.05, threads=2)
    c = rejection_counts(table)
    counts = {s: c[(s, 0.01)] for s in names}
    clean = all_replicates_succeeded(table, reps)
    ok = (
        clean
        and counts["gauss-exp"] == 0
        and counts["gauss-sqrt"] >= 48
        and counts["gauss-sin"] >= 45
        and counts["gauss-linear"] <= 3
    )
    line = report(
        1,
        "gaussian suite, n=1000, sigma=0.01, 50 replicates",
        ok,
        f"rejections {counts}, all replicates clean: {clean}",
        "exp == 0/50, sqrt >= 48/50, sin >= 45/50, linear <= 3/50",
    )
    assert ok, line


def test_criterion_02_poisson_suite():
    reps = 50
    configs = [
        ScenarioConfig(s, n=1000, n_replicates=reps, seed=12)
        for s in ("pois-exp", "pois-logistic", "pois-linear")
    ]
    table = power_study(configs, alpha=0.05, threads=2)
    c = rejection_counts(table)
    counts = {
        "pois-exp": c[("pois-exp", 8.0)],
        "pois-logistic": c[("pois-logistic", 8.0)],
        "pois-linear": c[("pois-linear", 1.0)],
    }
    clean = all_replicates_succeeded(table, reps)
    ok = (
        clean
        and counts["pois-exp"] == 0
        and 30 <= counts["pois-logistic"] <= 48
        and counts["pois-linear"] <= 4
    )
    line = report(
        2,
        "poisson suite, n=1000, 50 replicates",
        ok,
        f"rejections {counts}, all replicates clean: {clean}",
        "exp == 0/50, logistic in [30, 48]/50, linear <= 4/50",
    )
    assert ok, line


def test_criterion_03_power_peaks_at_intermediate_steepness():
    reps = 30
    params = (2.0, 8.0, 16.0)
    configs = [
        ScenarioConfig("pois-logistic", n=1000, param=a, n_replicates=reps, seed=13)
        for a in params
    ]
    table = power_study(configs, alpha=0.05, threads=2)
    rates = {r.param: r.rejection_rate for r in table.rows}
    clean = all_replicates_succeeded(table, reps)
    ok = clean and rates[8.0] > rates[2.0] and rates[8.0] > rates[16.0]
    line = report(
        3,
        "steepness sweep a in {2, 8, 16}, n=1000, 30 replicates",
        ok,
        f"rates {rates}, all replicates clean: {clean}",
        "rate(8) > rate(2) and rate(8) > rate(16), strict",
    )
    assert ok, line


def test_criterion_04_power_decreases_with_noise():
    reps = 30
    sigmas = (0.03, 0.07, 0.1)
    configs = [
        ScenarioConfig("gauss-sqrt", n=500, param=s, n_replicates=reps, seed=14)
        for s in sigmas
    ]
    table = power_study(configs, alpha=0.05, threads=2)
    rates = [next(r.rejection_rate for r in table.rows if r.param == s) for s in sigmas]
    clean = all_replicates_succeeded(table, reps)
    inversions = []
    for i in range(len(rates) - 1):
        if rates[i + 1] > rates[i]:
            se = math.sqrt(
                (rates[i] * (1 - rates[i]) + rates[i + 1] * (1 - rates[i + 1])) / reps
            )
            inversions.append((i, rates[i + 1] - rates[i], 2 * se))
    ok = clean and (
        not inversions
        or (len(inversions) == 1 and inversions[0][1] <= inversions[0][2])
    )
    line = report(
        4,
        "noise sweep sigma in {0.03, 0.07, 0.1}, sqrt curve, n=500, 30 replicates",
        ok,
        f"rates {dict(zip(sigmas, rates))}, inversions {inversions}, clean: {clean}",
        "nonincreasing; at most one inversion, and within 2 binomial SEs of zero",
    )
    assert ok, line


def test_criterion_05_logistic_size_under_both_nulls():
    reps = 50
    alpha = 0.05
    bound = alpha + 2 * math.sqrt(alpha * (1 - alpha) / reps)
    configs = [
        # truly linear-logistic data against the linear reference
        ScenarioConfig("logit-linear", n=500, n_replicates=reps, seed=15),
        # flat success probability: the steepness -> infinity limit, sign test
        ScenarioConfig(
            "logit-convex",
            n=500,
            param=np.inf,
            n_replicates=reps,
            seed=15,
        ),
    ]
    table = power_study(configs, alpha=alpha, threads=2)
    rate_ref = next(r.rejection_rate for r in table.rows if r.scenario == "logit-linear")
    rate_sign = next(r.rejection_rate for r in table.rows if r.scenario == "logit-convex")
    clean = all_replicates_succeeded(table, reps)
    ok = clean and rate_ref <= bound and rate_sign <= bound
    line = report(
        5,
        "logistic size, n=500, 50 replicates",
        ok,
        f"reference-null rate {rate_ref:.3f}, sign-null rate {rate_sign:.3f}, "
        f"clean: {clean}",
        f"both <= alpha + 2*SE = {bound:.4f}",
    )
    assert ok, line


# --- criterion 6: analytic gradients ------------------------------------------


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


def test_criterion_06_gradients_match_finite_differences():
    rng = np.random.default_rng(61)
    n, p, q, dim = 30, 3, 2, 8
    worst = 0.0
    placements = {
        "gaussian_log": "inside_index",
        "poisson": "outside_index",
        "bernoulli_logit": "inside_index",
    }
    for family, placement in placements.items():
        X = rng.uniform(0.0, 0.5, size=(n, p))
        A = rng.uniform(-1.0, 1.0, size=(n, q))
        basis = make_spline_basis(-1.5, 2.5, dim=dim, degree=5)
        spec = ModelSpec(family=family, p=p, q=q, extra_placement=placement, basis=basis)
        if family == "bernoulli_logit":
            y = rng.binomial(1, 0.4, size=n).astype(float)
        elif family == "poisson":
            y = rng.poisson(1.3, size=n).astype(float)
        else:
            y = np.exp(rng.normal(size=n) * 0.3)
        data = Dataset(y=y, X=X, A=A)
        for _ in range(10):
            coeffs = Coefficients(
                beta=normalize_index(rng.normal(size=p)),
                gamma=rng.normal(size=q) * 0.3,
                d=rng.normal(size=dim) * 0.4,
            )
            lam = float(rng.uniform(0.0, 2.0))
            g = gradient(spec, data, coeffs, lam)
            g_fd = fd_gradient(spec, data, coeffs, lam)
            rel = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))
            worst = max(worst, rel)
    ok = worst < 1e-5
    line = report(
        6,
        "analytic gradient vs central differences, 10 random points per family",
        ok,
        f"worst relative error {worst:.3e}",
        "relative error < 1e-5 at every point",
    )
    assert ok, line


# --- criterion 7: variance formula calibration --------------------------------


def test_criterion_07_variance_formula_matches_monte_carlo():
    cfg = ScenarioConfig("gauss-sqrt", n=500, param=0.05, seed=16)
    X, y0 = gen_dataset(cfg, 0)
    spec = ModelSpec(family="gaussian_log", p=X.shape[1])
    pilot = fit_path(spec, Dataset(y=y0, X=X))
    k = pilot.selected
    lam_sel = pilot.grid[k]
    evals = [make_eval_set(pilot.spec, pilot.data, f) for f in pilot.fits]
    var_formula = float(delta_cov(pilot, evals)[k, k])

    # refits: same design and smoothing level, fresh multiplicative noise
    means = _curve_values(cfg, X @ BETA)
    spec_fixed = ModelSpec(family="gaussian_log", p=X.shape[1], basis=pilot.fits[k].basis)
    rng = np.random.default_rng(716)
    deltas = np.empty(200)
    for r in range(200):
        y_r = means * np.exp(cfg.param_ * rng.standard_normal(cfg.n))
        data_r = Dataset(y=y_r, X=X)
        f_r = fit(spec_fixed, data_r, lam_sel, init=pilot.fits[k].coeffs)
        deltas[r] = delta_hat(f_r, make_eval_set(spec_fixed, data_r, f_r))
    var_emp = float(np.var(deltas, ddof=1))
    ratio = var_formula / var_emp
    ok = 0.5 <= ratio <= 2.0
    line = report(
        7,
        "delta variance at the selected smoothing level, sqrt curve, "
        "sigma=0.05, n=500, 200 refits",
        ok,
        f"formula {var_formula:.3e}, empirical {var_emp:.3e}, ratio {ratio:.3f}",
        "formula within a factor 2 of the empirical variance",
    )
    assert ok, line


# --- criteria 8-9: closed-form oracles on the test and the estimator ----------


@pytest.fixture(scope="module")
def gauss_pipeline():
    cfg = ScenarioConfig("gauss-sqrt", n=300, seed=17)
    X, y = gen_dataset(cfg, 0)
    path = fit_path(ModelSpec(family="gaussian_log", p=X.shape[1]), Dataset(y=y, X=X))
    return path, jensen_test(path, seed=29)


@pytest.fixture(scope="module")
def pois_pipeline():
    cfg = ScenarioConfig("pois-logistic", n=300, seed=18)
    X, y = gen_dataset(cfg, 0)
    path = fit_path(ModelSpec(family="poisson", p=X.shape[1]), Dataset(y=y, X=X))
    return path, jensen_test(path, seed=31)


def test_criterion_08_critical_values_and_t_covariance(gauss_pipeline, pois_pipeline):
    crit1, _ = null_critical_value(np.ones((1, 1)), 0.05, "test_negative", seed=21)
    crit2, _ = null_critical_value(np.eye(2), 0.05, "test_negative", seed=22)
    err1 = abs(crit1 - (-1.6449))
    err2 = abs(crit2 - (-1.9545))

    diag_ok = True
    psd_ok = True
    for _, res in (gauss_pipeline, pois_pipeline):
        dg = np.diag(res.sigma_t)
        diag_ok &= bool(np.all(np.abs(dg - 1.0) <= 1e-8))
        w = np.linalg.eigvalsh(res.sigma_t)
        psd_ok &= bool(w.min() >= -1e-10 * max(1.0, w.max()))

    ok = err1 <= 0.06 and err2 <= 0.06 and diag_ok and psd_ok
    line = report(
        8,
        "null critical values and t covariance",
        ok,
        f"m=1 crit {crit1:.4f} (err {err1:.4f}), m=2 indep crit {crit2:.4f} "
        f"(err {err2:.4f}), unit diagonal: {diag_ok}, PSD: {psd_ok}",
        "crits within 0.06 of -1.6449 and -1.9545 at 5000 draws; "
        "diagonal within 1e-8 of one and min eigenvalue >= -1e-10 in every run",
    )
    assert ok, line


def ghat_scalar(f, point):
    return float((basis_matrix(f.basis, np.array([float(point)])) @ f.coeffs.d)[0])


def brute_delta(spec, data, f):
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


def synthetic_fit(family, d, index_values, basis):
    eta = basis_matrix(basis, index_values) @ d
    if family == "gaussian_log":
        mu, resp = eta.copy(), eta.copy()
    elif family == "poisson":
        mu = np.exp(np.clip(eta, -700, 700))
        resp = mu.copy()
    else:
        mu = expit(eta)
        resp = (mu > 0.5).astype(float)
    return FitResult(
        lam=1.0,
        family=family,
        coeffs=Coefficients(beta=np.array([1.0]), gamma=np.zeros(0), d=np.asarray(d, float)),
        index_values=np.asarray(index_values, float),
        eta=eta,
        mu_or_pi=mu,
        response=resp,
        objective=0.0,
        converged=True,
        n_restarts_used=1,
        basis=basis,
    )


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
    return spec, data, fit(spec, data, lam)


def test_criterion_09_estimator_oracles(gauss_pipeline, pois_pipeline):
    # vectorized estimator against a per-observation loop
    worst = 0.0
    for family, placement, q in (
        ("gaussian_log", "inside_index", 0),
        ("bernoulli_logit", "outside_index", 1),
    ):
        spec, data, f = fitted_instance(family, placement, q, seed=91)
        ev = make_eval_set(spec, data, f)
        worst = max(worst, abs(delta_hat(f, ev) - brute_delta(spec, data, f)))
    loop_ok = worst <= 1e-12

    # exact zeros for a constant curve and for a degenerate index
    basis = make_spline_basis(0.0, 1.0, dim=8, degree=3)
    rng = np.random.default_rng(92)
    pts = rng.uniform(0.1, 0.9, size=40)
    const_f = synthetic_fit("poisson", np.full(8, 0.7), pts, basis)
    const_data = Dataset(y=np.ones(40), X=pts[:, None])
    const_spec = ModelSpec(family="poisson", p=1, basis=basis)
    dc = delta_hat(const_f, make_eval_set(const_spec, const_data, const_f))

    degen = np.full(40, 0.4)
    degen_f = synthetic_fit("bernoulli_logit", rng.normal(size=8), degen, basis)
    degen_data = Dataset(y=np.zeros(40), X=degen[:, None])
    degen_spec = ModelSpec(family="bernoulli_logit", p=1, basis=basis)
    dz = delta_hat(degen_f, make_eval_set(degen_spec, degen_data, degen_f))
    zeros_ok = dc == 0.0 and dz == 0.0

    # at the stiffest smoothing level the curve is near-affine, so the
    # exponential-family estimate must not be significantly negative
    margins = {}
    for name, (path, res) in (("gaussian", gauss_pipeline), ("poisson", pois_pipeline)):
        se_top = math.sqrt(max(res.sigma_delta[-1, -1], 0.0))
        margins[name] = (res.deltas[-1], se_top)
    top_ok = all(d >= -2.0 * se for d, se in margins.values())

    ok = loop_ok and zeros_ok and top_ok
    line = report(
        9,
        "estimator oracles",
        ok,
        f"worst loop gap {worst:.2e}, constant-curve delta {dc!r}, "
        f"degenerate-index delta {dz!r}, top-lambda (delta, se) {margins}",
        "loop gap <= 1e-12; both zeros exact; top-lambda delta >= -2 SE",
    )
    assert ok, line


# --- criterion 10: byte-identical reruns ---------------------------------------


def _write_gaussian_csv(path, n=250, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 0.5, size=(n, 3))
    s = X @ (np.ones(3) / math.sqrt(3.0))
    y = np.sqrt(s + 0.05) * np.exp(0.01 * rng.standard_normal(n))
    rows = ["response,x_1,x_2,x_3"]
    for i in range(n):
        rows.append(",".join("%.17g" % v for v in (y[i], X[i, 0], X[i, 1], X[i, 2])))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    data_csv = tmp_path / "data.csv"
    _write_gaussian_csv(data_csv)
    outs = []
    for sub, threads in (("run1", "1"), ("run2", "4")):
        out = tmp_path / sub
        out.mkdir()
        rc = cli_main(
            [
                "jensen",
                "--family",
                "gaussian-log",
                "--data",
                str(data_csv),
                "--seed",
                "7",
                "--threads",
                threads,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    jensen_same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("result.json", "delta_vs_lambda.csv", "ghat.csv")
    )
    # the JSON must parse and carry a decision either way
    decision = json.loads((outs[0] / "result.json").read_text())["decision"]

    power_files = []
    for sub, threads in (("p1.csv", "1"), ("p2.csv", "3")):
        target = tmp_path / sub
        rc = cli_main(
            [
                "power",
                "--scenario",
                "gauss-sqrt",
                "--n",
                "150",
                "--replicates",
                "2",
                "--seed",
                "3",
                "--threads",
                threads,
                "--out",
                str(target),
            ]
        )
        assert rc == 0
        power_files.append(target.read_bytes())
    power_same = power_files[0] == power_files[1]

    ok = jensen_same and power_same and decision in ("REJECT", "FAIL_TO_REJECT")
    line = report(
        10,
        "identical flags and seed reproduce outputs byte for byte",
        ok,
        f"jensen files identical: {jensen_same}, power tables identical: "
        f"{power_same}, decision: {decision}",
        "byte equality across reruns with different --threads",
    )
    assert ok, line
