"""The benchmark's workloads: inputs, one unit of work, and its output check.

Every workload is a closed loop with one client: unit i+1 starts when unit i
ends. Unit i of a run with seed s always uses the same inputs, drawn with
`simlab.gen_dataset`. A unit of the power workload is one cell: a seeded cell
configuration handed to `simlab.power_study`, which draws its replicates the
same way. Units cycle through the cells in POWER_PARAMS order, and a run of
the power workload ends on a whole cycle (`round_size`), so that every cell
kind weighs the same in its throughput whatever the time limit cuts.

The package is reached through its module objects at call time, so that a
traced run sees the wrappers `tracing.Tracer` installs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Reference values are compared within these tolerances. A decision must
# match unless the statistic sits within tolerance of the critical value.
# Forcing another OpenBLAS kernel (OPENBLAS_CORETYPE=Haswell) moved logit
# statistics and critical values by up to 7e-4 relative, so a tighter
# tolerance would fail on another CPU.
REL_TOL = 5e-3
ABS_TOL = 1e-6

# The warm-up unit uses this seed whatever the run's seed, so that set-up
# time does not depend on how slow the seed's first dataset happens to be.
WARMUP_SEED = 987_654_321

# Eight replicates per cell, as ROADMAP item 5 measured, so that each of the
# two executor workers runs four of them and per-cell costs (executor
# start-up, true_delta's 200k draws) are spread as in a real study. The CLI's
# default of 50 would make one unit take about 40 s.
POWER_PARAMS = (2.0, 8.0, 16.0)
POWER_REPLICATES = 8
POWER_THREADS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    n: int
    param: float
    grid_count: int = 20
    tests: tuple[str, ...] = ("test_negative",)


# Why each gated workload was chosen is in BENCHMARK.json; README.md says
# why logit-n1000 and finegrid-n500 are not gated. The power workload's
# cells take their parameter from POWER_PARAMS.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gauss-n2000", "gauss-sqrt", 2000, 0.05),
        Workload("logit-n1000", "logit-convex", 1000, 8.0,
                 tests=("test_positive", "test_vs_linear_logistic")),
        Workload("finegrid-n500", "gauss-sqrt", 500, 0.05, grid_count=60),
        Workload("power-pois-n300", "pois-logistic", 300, 0.0),
    )
}


def _is_power(w: Workload) -> bool:
    return w.scenario == "pois-logistic"


def round_size(w: Workload) -> int:
    """A closed loop stops only after a multiple of this many units."""
    return len(POWER_PARAMS) if _is_power(w) else 1


def make_inputs(pkg, w: Workload, seed: int, count: int) -> list:
    """Inputs for units 0..count-1 of a run with this seed."""
    simlab = pkg["simlab"]
    if _is_power(w):
        return [
            simlab.ScenarioConfig(
                w.scenario, n=w.n, param=POWER_PARAMS[i % len(POWER_PARAMS)],
                n_replicates=POWER_REPLICATES, seed=seed * 100_000 + i,
            )
            for i in range(count)
        ]
    config = simlab.ScenarioConfig(w.scenario, n=w.n, param=w.param, seed=seed)
    return [simlab.gen_dataset(config, i) for i in range(count)]


def run_unit(pkg, w: Workload, inputs, i: int):
    """Run unit i and return (datasets completed, outcome). The outcome is
    what `check` and the reference compare."""
    model, jensen, simlab = pkg["model"], pkg["jensen"], pkg["simlab"]
    if _is_power(w):
        config = inputs[i]
        table = simlab.power_study([config], threads=POWER_THREADS)
        return sum(row.replicates for row in table.rows), (config, table)
    X, y = inputs[i]
    family = simlab.CATALOG[w.scenario].family
    spec = model.ModelSpec(
        family=family, p=X.shape[1], lambda_grid=model.default_lambda_grid(count=w.grid_count)
    )
    data = model.Dataset(y=y, X=X)
    path = model.fit_path(spec, data)
    results = []
    for direction in w.tests:
        if direction == "test_vs_linear_logistic":
            ref = jensen.linear_logistic_reference(data, path)
            results.append(jensen.alternative_null_test(path, ref, seed=i))
        else:
            results.append(jensen.jensen_test(path, direction=direction, seed=i))
    return 1, (path, results)


def summarize(w: Workload, outcome) -> list:
    """The values recorded as reference: per test (statistic, critical value,
    decision); per power row (rejection rate, true delta)."""
    if _is_power(w):
        _, table = outcome
        return [[row.rejection_rate, row.true_delta] for row in table.rows]
    _, results = outcome
    return [[r.statistic, r.critical_value, bool(r.reject)] for r in results]


def check(w: Workload, outcome, reference=None) -> list[str]:
    """Problems found in one unit's output; empty when it is correct."""
    problems = []
    if _is_power(w):
        config, table = outcome
        rows = table.rows
        if [row.param for row in rows] != [config.param]:
            problems.append(f"power rows {[row.param for row in rows]} != [{config.param}]")
        for row in rows:
            if row.replicates != POWER_REPLICATES or row.failures:
                problems.append(
                    f"a={row.param}: {row.replicates} of {POWER_REPLICATES} replicates, "
                    f"failures {list(row.failures)}"
                )
            if not 0.0 <= row.rejection_rate <= 1.0 or not math.isfinite(row.true_delta):
                problems.append(f"a={row.param}: bad rate or true delta")
    else:
        path, results = outcome
        grid = tuple(path.spec.lambda_grid)
        if len(grid) != w.grid_count or tuple(f.lam for f in path.fits) != grid:
            problems.append(f"{len(path.fits)} fits for a {w.grid_count}-point grid")
        for r in results:
            problems += _check_test(r)
    if reference is not None:
        problems += _compare(summarize(w, outcome), reference)
    return problems


def _check_test(r) -> list[str]:
    problems = []
    if not (math.isfinite(r.statistic) and math.isfinite(r.critical_value)):
        problems.append(f"{r.direction}: non-finite statistic or critical value")
        return problems
    if not 0.0 <= r.p_value <= 1.0:
        problems.append(f"{r.direction}: p-value {r.p_value} outside [0, 1]")
    if r.direction == "test_negative":
        expected = r.statistic < r.critical_value
    else:
        expected = r.statistic > r.critical_value
    if bool(r.reject) != expected:
        problems.append(
            f"{r.direction}: decision {r.reject} disagrees with statistic "
            f"{r.statistic} vs critical value {r.critical_value}"
        )
    return problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def _compare(got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} results, reference has {len(want)}"]
    problems = []
    for g, r in zip(got, want):
        floats_ok = all(_close(a, b) for a, b in zip(g[:2], r[:2]))
        if not floats_ok:
            problems.append(f"result {g[:2]} differs from reference {r[:2]}")
        if len(r) == 3 and g[2] != r[2] and not _close(g[0], g[1]):
            problems.append(f"decision {g[2]} differs from reference {r[2]}")
    return problems
