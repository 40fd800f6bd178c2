"""Simulation scenarios and the replication harness.

Each catalog entry fixes a family and a composite mean curve m(s) for the
index s = X beta. Generators draw X uniformly on the configured range and
produce responses from the family's noise model; the harness runs full
fit-path + test pipelines over seeded replicates and tabulates rejection
rates next to the true Jensen effect of the curve.
"""

from __future__ import annotations

import csv
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

# rows of covariates true_delta draws at a time (8192 x 5 doubles = 320 kB)
TRUE_DELTA_BLOCK = 8192


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
    default_range: tuple[float, float]
    param_name: str
    default_param: float
    default_direction: str


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
    """One simulation cell: a catalog member plus its free knobs."""

    scenario: str
    n: int
    param: float | None = None
    n_replicates: int = 50
    seed: int = 0
    p: int = 5
    covariate_range: tuple[float, float] | None = None
    beta_true: np.ndarray | None = None
    direction: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in CATALOG:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; catalog: {', '.join(catalog_names())}"
            )
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.n_replicates <= 0:
            raise ValueError("n_replicates must be positive")
        if self.p <= 0:
            raise ValueError("p must be positive")
        entry = CATALOG[self.scenario]
        if self.param is not None:
            if not self.param > 0:
                raise ValueError(f"{entry.param_name} must be positive")
            if math.isinf(self.param) and self.scenario != "logit-convex":
                raise ValueError(f"{entry.param_name} must be finite")
        lo, hi = self.range_
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("covariate_range must be a finite increasing interval")
        if entry.family == "gaussian_log" and lo < 0:
            raise ValueError("gaussian_log covariates must be nonnegative")
        beta = self.beta_
        if beta.shape != (self.p,):
            raise ValueError("beta_true must have length p")
        if abs(np.linalg.norm(beta) - 1.0) > 1e-8:
            raise ValueError("beta_true must have unit norm")

    @property
    def family(self) -> str:
        return CATALOG[self.scenario].family

    @property
    def param_(self) -> float:
        entry = CATALOG[self.scenario]
        return entry.default_param if self.param is None else float(self.param)

    @property
    def range_(self) -> tuple[float, float]:
        if self.covariate_range is not None:
            return (float(self.covariate_range[0]), float(self.covariate_range[1]))
        return CATALOG[self.scenario].default_range

    @property
    def beta_(self) -> np.ndarray:
        if self.beta_true is not None:
            return np.asarray(self.beta_true, dtype=float)
        return np.full(self.p, 1.0 / math.sqrt(self.p))

    @property
    def direction_(self) -> str:
        return self.direction or CATALOG[self.scenario].default_direction


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

    @classmethod
    def from_csv(cls, text: str) -> "PowerTable":
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames != POWER_CSV_HEADER.split(","):
            raise ValueError("unexpected power-table header")
        rows = tuple(
            PowerRow(
                scenario=rec["scenario"],
                n=int(rec["n"]),
                param=float(rec["param"]),
                rejection_rate=float(rec["rejection_rate"]),
                true_delta=float(rec["true_delta"]),
                replicates=int(rec["replicates"]),
            )
            for rec in reader
        )
        return cls(rows=rows)


def _curve_values(config: ScenarioConfig, s: np.ndarray) -> np.ndarray:
    entry = CATALOG[config.scenario]
    means = np.asarray(entry.curve(s, config.param_), dtype=float)
    if entry.family in ("gaussian_log", "poisson"):
        bad = ~(means > 0.0)
    else:
        bad = ~((means > 0.0) & (means < 1.0))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InfeasibleScenarioError(
            f"scenario {config.scenario!r}: mean {means[k]:.6g} at index s={s[k]:.6g} "
            "is outside the family's mean space"
        )
    return means


def gen_dataset(config: ScenarioConfig, replicate: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw one replicate. Deterministic in (config.seed, replicate)."""
    rng = np.random.default_rng([config.seed, int(replicate)])
    lo, hi = config.range_
    X = rng.uniform(lo, hi, size=(config.n, config.p))
    s = X @ config.beta_
    means = _curve_values(config, s)
    family = config.family
    if family == "gaussian_log":
        y = means * np.exp(config.param_ * rng.standard_normal(config.n))
    elif family == "poisson":
        y = rng.poisson(means).astype(float)
    else:
        y = rng.binomial(1, means).astype(float)
    return X, y


def true_delta(config: ScenarioConfig, n_draw: int = 200_000) -> float:
    """Jensen effect of the composite curve under a fresh covariate draw.

    The n_draw x p covariates are drawn TRUE_DELTA_BLOCK rows at a time into
    one index vector, which is then mapped to the curve's means in place, so
    the working set is 8 * n_draw bytes plus one block. Every row, and each
    full-vector mean, is what one n_draw x p draw would give.
    """
    if n_draw < 1:
        raise ValueError(f"n_draw must be at least 1, got {n_draw}")
    rng = np.random.default_rng([config.seed, 340282366])
    lo, hi = config.range_
    beta = config.beta_
    s = np.empty(n_draw)
    for start in range(0, n_draw, TRUE_DELTA_BLOCK):
        block = s[start:start + TRUE_DELTA_BLOCK]
        block[:] = rng.uniform(lo, hi, size=(block.size, config.p)) @ beta
    s_mean = np.mean(s)
    # feasibility is checked in sample order, before the center, so an
    # infeasible scenario names the same sample as a one-shot draw would
    for start in range(0, n_draw, TRUE_DELTA_BLOCK):
        block = s[start:start + TRUE_DELTA_BLOCK]
        block[:] = _curve_values(config, block)
    center = _curve_values(config, np.array([s_mean]))[0]
    return float(np.mean(s) - center)


def _test_seed(config: ScenarioConfig, replicate: int) -> int:
    ss = np.random.SeedSequence([config.seed, int(replicate), 1])
    return int(ss.generate_state(1)[0])


def _run_replicate(config: ScenarioConfig, replicate: int, alpha: float, n_sims: int) -> bool:
    X, y = gen_dataset(config, replicate)
    spec = ModelSpec(family=config.family, p=config.p)
    data = Dataset(y=y, X=X)
    path = fit_path(spec, data)
    seed = _test_seed(config, replicate)
    direction = config.direction_
    if direction == "test_vs_linear_logistic":
        ref = linear_logistic_reference(data)
        res = alternative_null_test(path, ref, alpha=alpha, seed=seed, n_sims=n_sims)
    else:
        res = jensen_test(path, direction=direction, alpha=alpha, seed=seed, n_sims=n_sims)
    return bool(res.reject)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_jobs(jobs, alpha: float, n_sims: int) -> list:
    """Run (config, replicate) jobs in order. Per job: the outcome, either
    (True, reject) or (False, failure text), and the warnings it raised as
    (category, text, filename, lineno), recorded under the current filters."""
    results = []
    for config, r in jobs:
        with _warnings.catch_warnings(record=True) as caught:
            try:
                outcome = (True, _run_replicate(config, r, alpha, n_sims))
            except (NumericalError, ValueError) as exc:
                outcome = (False, str(exc))
        raised = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        results.append((outcome, raised))
    return results


def _child(conn, jobs, alpha: float, n_sims: int) -> None:
    """Body of a forked worker: send (True, results) or (False, exception).
    If even the exception does not pickle, the worker exits without sending
    and the caller reports its exit code."""
    try:
        conn.send((True, _run_jobs(jobs, alpha, n_sims)))
    except Exception as exc:
        conn.send((False, exc))
    finally:
        conn.close()


def power_study(
    configs: list[ScenarioConfig],
    alpha: float = 0.05,
    n_sims: int = 5000,
    threads: int = 1,
) -> PowerTable:
    """Run every configured cell and tabulate rejection frequencies.

    The cells' replicates, listed in order as jobs, are dealt round-robin to
    W = min(threads, jobs, usable CPUs) workers: the calling process runs
    jobs 0, W, 2W, ... and W - 1 forked children run the rest, each sending
    its outcomes and warnings back over a pipe. Replicates are seeded
    individually and rows are built in replicate order, so the table, the
    failures and the re-issued warnings do not depend on W. Where fork is
    unavailable W is 1. Failed replicates are recorded on the row (and
    warned about), never silently dropped.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")
    if threads < 1:
        raise ValueError("threads must be positive")
    # imported here, so that fitting alone does not load multiprocessing
    import multiprocessing

    jobs = [(config, r) for config in configs for r in range(config.n_replicates)]
    if not jobs:
        return PowerTable(rows=())
    workers = min(threads, len(jobs), _usable_cpus())
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1  # the caller runs every job
    fork = multiprocessing.get_context("fork") if workers > 1 else None
    results = [None] * len(jobs)
    children = []
    try:
        for w in range(1, workers):
            recv_end, send_end = fork.Pipe(duplex=False)
            proc = fork.Process(target=_child, args=(send_end, jobs[w::workers], alpha, n_sims))
            proc.start()
            send_end.close()
            children.append((proc, recv_end))
        results[0::workers] = _run_jobs(jobs[0::workers], alpha, n_sims)
        for w, (proc, conn) in enumerate(children, start=1):
            try:
                ok, payload = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"power worker {w} exited with code {proc.exitcode} before "
                    "sending its results"
                ) from None
            if not ok:
                raise payload
            results[w::workers] = payload
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, conn in children:
            conn.close()
            proc.join()

    registry: dict = {}  # a "default" filter shows each (text, category, line) once per call
    rows = []
    start = 0
    for config in configs:
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
                true_delta=true_delta(config),
                replicates=len(outcomes),
                failures=tuple(failures),
            )
        )
    return PowerTable(rows=tuple(rows))
