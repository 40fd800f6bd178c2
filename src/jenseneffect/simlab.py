"""Simulation scenarios and the replication harness.

Each catalog entry fixes a family, a composite mean curve m(s) for the
index s = X BETA, the covariate range and the test direction. Generators
draw the P columns of X uniformly on the entry's range and produce responses
from the family's noise model; the harness runs full fit-path + test
pipelines over seeded replicates and tabulates rejection rates next to the
true Jensen effect of the curve.
"""

from __future__ import annotations

import io
import math
import os
import warnings as _warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InfeasibleScenarioError, NumericalError
from .jensen import alternative_null_test, jensen_test, linear_logistic_reference
from .model import Dataset, ModelSpec, fit_path

__all__ = [
    "ScenarioConfig",
    "PowerRow",
    "PowerTable",
    "CATALOG",
    "catalog_names",
    "gen_dataset",
    "true_delta",
    "power_study",
    "POWER_CSV_HEADER",
]

POWER_CSV_HEADER = "scenario,n,param,rejection_rate,true_delta,replicates"

# every cell draws P covariates and indexes them along the equal-weight unit vector
P = 5
BETA = np.full(P, 1.0 / math.sqrt(P))
BETA.setflags(write=False)

# covariate rows in true_delta's Monte Carlo draw, and how many it draws at a
# time (8192 x 5 doubles = 320 kB)
TRUE_DELTA_DRAWS = 200_000
TRUE_DELTA_BLOCK = 8192

# a standard normal draw exceeds 8.3 in size with probability below 1e-16
NOISE_Z_MAX = 8.3


def _logistic_plateau(s, a):
    return 30.0 / (1.0 + np.exp(-s / a)) - 15.0


def _shifted_exp_decay(s, a):
    # probability curve decreasing from 1 at s=0 to 1/2; constant 1/2 at a=inf
    s = np.asarray(s, dtype=float)
    if math.isinf(a):
        return np.full(s.shape, 0.5)
    return (np.exp(-a * s) - np.exp(-a)) / (2.0 * (1.0 - np.exp(-a))) + 0.5


@dataclass(frozen=True)
class _CatalogEntry:
    family: str
    curve: callable
    x_range: tuple[float, float]
    param_name: str
    default_param: float
    direction: str


CATALOG = {
    "gauss-exp": _CatalogEntry(
        "gaussian_log", lambda s, p: np.exp(s), (0.0, 0.5), "sigma", 0.01, "test_negative"
    ),
    "gauss-sqrt": _CatalogEntry(
        "gaussian_log", lambda s, p: np.sqrt(s), (0.0, 0.5), "sigma", 0.01, "test_negative"
    ),
    "gauss-sin": _CatalogEntry(
        "gaussian_log", lambda s, p: np.sin(s), (0.0, 0.5), "sigma", 0.01, "test_negative"
    ),
    "gauss-linear": _CatalogEntry(
        "gaussian_log", lambda s, p: np.asarray(s, dtype=float), (0.0, 0.5), "sigma", 0.01,
        "test_negative",
    ),
    "pois-exp": _CatalogEntry(
        "poisson", lambda s, a: np.exp(s / a), (0.0, 20.0), "a", 8.0, "test_negative"
    ),
    "pois-logistic": _CatalogEntry(
        "poisson", _logistic_plateau, (0.0, 20.0), "a", 8.0, "test_negative"
    ),
    "pois-linear": _CatalogEntry(
        "poisson", lambda s, a: a * np.asarray(s, dtype=float), (0.0, 20.0), "a", 1.0,
        "test_negative",
    ),
    "logit-convex": _CatalogEntry(
        "bernoulli_logit", _shifted_exp_decay, (0.0, 0.5), "a", 8.0, "test_positive"
    ),
    "logit-linear": _CatalogEntry(
        "bernoulli_logit", lambda s, a: expit(-1.0 + a * np.asarray(s, dtype=float)),
        (0.0, 0.5), "a", 2.0, "test_vs_linear_logistic",
    ),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(CATALOG))


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: a catalog member at a sample size, curve
    parameter (None for the catalog's default), replicate count and seed."""

    scenario: str
    n: int
    param: float | None = None
    n_replicates: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in CATALOG:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; catalog: {', '.join(catalog_names())}"
            )
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.n_replicates <= 0:
            raise ValueError("n_replicates must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        entry = CATALOG[self.scenario]
        if self.param is not None:
            if not self.param > 0:
                raise ValueError(f"{entry.param_name} must be positive")
            if math.isinf(self.param) and self.scenario != "logit-convex":
                raise ValueError(f"{entry.param_name} must be finite")

    @property
    def param_(self) -> float:
        entry = CATALOG[self.scenario]
        return entry.default_param if self.param is None else float(self.param)


@dataclass(frozen=True)
class PowerRow:
    scenario: str
    n: int
    param: float
    rejection_rate: float
    true_delta: float
    replicates: int
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class PowerTable:
    rows: tuple[PowerRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(POWER_CSV_HEADER + "\n")
        for r in self.rows:
            # repr() is the shortest exact round-trip form, so 0.03 stays "0.03"
            buf.write(
                f"{r.scenario},{r.n},{r.param!r},{r.rejection_rate!r},"
                f"{r.true_delta!r},{r.replicates}\n"
            )
        return buf.getvalue()


def _curve_values(config: ScenarioConfig, s: np.ndarray) -> np.ndarray:
    entry = CATALOG[config.scenario]
    means = np.asarray(entry.curve(s, config.param_), dtype=float)
    upper = np.inf if entry.family in ("gaussian_log", "poisson") else 1.0
    bad = ~((means > 0.0) & (means < upper))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InfeasibleScenarioError(
            f"scenario {config.scenario!r}: mean {means[k]:.6g} at index s={s[k]:.6g} "
            "is outside the family's mean space"
        )
    if entry.family == "gaussian_log" and (
        math.log(means.max()) + config.param_ * NOISE_Z_MAX >= math.log(np.finfo(float).max)
    ):
        raise InfeasibleScenarioError(
            f"scenario {config.scenario!r}: sigma={config.param_:.6g} overflows the responses"
        )
    return means


def gen_dataset(config: ScenarioConfig, replicate: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw one replicate. Deterministic in (config.seed, replicate)."""
    rng = np.random.default_rng([config.seed, int(replicate)])
    entry = CATALOG[config.scenario]
    lo, hi = entry.x_range
    X = rng.uniform(lo, hi, size=(config.n, P))
    means = _curve_values(config, X @ BETA)
    if entry.family == "gaussian_log":
        y = means * np.exp(config.param_ * rng.standard_normal(config.n))
    elif entry.family == "poisson":
        y = rng.poisson(means).astype(float)
    else:
        y = rng.binomial(1, means).astype(float)
    return X, y


def true_delta(config: ScenarioConfig) -> float:
    """Jensen effect of the composite curve under a fresh covariate draw.

    The TRUE_DELTA_DRAWS x P covariates are drawn TRUE_DELTA_BLOCK rows at a
    time into one index vector, which is then mapped to the curve's means in
    place, so the working set is 8 * TRUE_DELTA_DRAWS bytes plus one block.
    Every row, and each full-vector mean, is what one TRUE_DELTA_DRAWS x P
    draw would give.
    """
    rng = np.random.default_rng([config.seed, 340282366])
    lo, hi = CATALOG[config.scenario].x_range
    s = np.empty(TRUE_DELTA_DRAWS)
    for start in range(0, s.size, TRUE_DELTA_BLOCK):
        block = s[start:start + TRUE_DELTA_BLOCK]
        block[:] = rng.uniform(lo, hi, size=(block.size, P)) @ BETA
    s_mean = np.mean(s)
    # feasibility is checked in sample order, before the center, so an
    # infeasible scenario names the same sample as a one-shot draw would
    for start in range(0, s.size, TRUE_DELTA_BLOCK):
        block = s[start:start + TRUE_DELTA_BLOCK]
        block[:] = _curve_values(config, block)
    center = _curve_values(config, np.array([s_mean]))[0]
    return float(np.mean(s) - center)


def _test_seed(config: ScenarioConfig, replicate: int) -> int:
    ss = np.random.SeedSequence([config.seed, int(replicate), 1])
    return int(ss.generate_state(1)[0])


def _run_replicate(config: ScenarioConfig, replicate: int, alpha: float) -> bool:
    X, y = gen_dataset(config, replicate)
    data = Dataset(y=y, X=X)
    entry = CATALOG[config.scenario]
    path = fit_path(ModelSpec(family=entry.family, p=P), data)
    seed = _test_seed(config, replicate)
    if entry.direction == "test_vs_linear_logistic":
        res = alternative_null_test(path, linear_logistic_reference(data), alpha=alpha, seed=seed)
    else:
        res = jensen_test(path, direction=entry.direction, alpha=alpha, seed=seed)
    return bool(res.reject)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_job(config: ScenarioConfig, replicate: int, alpha: float):
    """Run one replicate. Returns its outcome, either (True, reject) or
    (False, failure text), and the warnings it raised as (category, text,
    filename, lineno), recorded under the current filters."""
    with _warnings.catch_warnings(record=True) as caught:
        try:
            outcome = (True, _run_replicate(config, replicate, alpha))
        except (NumericalError, ValueError) as exc:
            outcome = (False, str(exc))
    return outcome, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def power_study(
    configs: list[ScenarioConfig],
    alpha: float = 0.05,
    threads: int = 1,
) -> PowerTable:
    """Run every configured cell and tabulate rejection frequencies.

    Each cell's true_delta is computed first, so an infeasible cell raises
    InfeasibleScenarioError before any replicate runs. The cells'
    replicates, listed in order as jobs, go to W = min(threads, jobs, usable
    CPUs) workers: the calling process runs jobs 0, W, 2W, ... and a pool of
    W - 1 forked children takes the rest as each comes free. Replicates are
    seeded individually and rows are built in replicate order, so the table,
    the failures and the re-issued warnings do not depend on W. Where fork
    is unavailable W is 1 and no pool starts. Failed replicates are recorded
    on the row (and warned about), never silently dropped. Other exceptions
    propagate: a child's after the caller's share, the caller's once the
    children's pending jobs are cancelled and their running ones end. A
    child that dies raises BrokenProcessPool, a RuntimeError.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")
    if threads < 1:
        raise ValueError("threads must be positive")
    deltas = [true_delta(config) for config in configs]
    # imported here, so that fitting alone does not load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    jobs = [(config, r, alpha) for config in configs for r in range(config.n_replicates)]
    if not jobs:
        return PowerTable(rows=())
    workers = min(threads, len(jobs), _usable_cpus())
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1  # the caller runs every job
    fork = multiprocessing.get_context("fork") if workers > 1 else None
    pool = ProcessPoolExecutor(workers - 1, mp_context=fork) if fork else None
    results = [None] * len(jobs)
    try:
        # submitted before the caller's share, so the pool forks from a
        # process with one thread; with W = 1 nothing is submitted
        futures = {i: pool.submit(_run_job, *job) for i, job in enumerate(jobs) if i % workers}
        for i in range(0, len(jobs), workers):
            results[i] = _run_job(*jobs[i])
        for i, future in futures.items():
            results[i] = future.result()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    registry: dict = {}  # a "default" filter shows each (text, category, line) once per call
    rows = []
    start = 0
    for config, delta in zip(configs, deltas):
        outcomes: list[bool] = []
        failures: list[str] = []
        for (ok, value), raised in results[start:start + config.n_replicates]:
            for category, text, filename, lineno in raised:
                _warnings.warn_explicit(text, category, filename, lineno, registry=registry)
            if ok:
                outcomes.append(value)
            else:
                failures.append(value)
        start += config.n_replicates
        if failures:
            _warnings.warn(
                f"scenario {config.scenario!r}: {len(failures)} of "
                f"{config.n_replicates} replicates failed",
                RuntimeWarning,
                stacklevel=2,
            )
        if not outcomes:
            raise NumericalError(
                f"scenario {config.scenario!r}: every replicate failed"
            )
        rows.append(
            PowerRow(
                scenario=config.scenario,
                n=config.n,
                param=config.param_,
                rejection_rate=float(np.mean(outcomes)),
                true_delta=delta,
                replicates=len(outcomes),
                failures=tuple(failures),
            )
        )
    return PowerTable(rows=tuple(rows))
