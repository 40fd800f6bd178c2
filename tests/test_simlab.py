"""Scenario-generator and replication-harness checks.

Curve ranges are verified by dense sweeps, generator determinism bit for
bit, and the harness against hand-counted outcomes with an injected
failure.
"""

import csv
import dataclasses
import io
import itertools
import multiprocessing
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

import jenseneffect.simlab as simlab
from jenseneffect.errors import InfeasibleScenarioError
from jenseneffect.simlab import (
    BETA,
    CATALOG,
    POWER_CSV_HEADER,
    PowerTable,
    ScenarioConfig,
    catalog_names,
    gen_dataset,
    power_study,
    true_delta,
)


# --- configuration validation ---------------------------------------------------


def test_unknown_scenario_lists_catalog():
    with pytest.raises(ValueError, match="gauss-exp"):
        ScenarioConfig(scenario="gauss-cubic", n=100)


def test_config_guards():
    with pytest.raises(ValueError, match="n must"):
        ScenarioConfig(scenario="gauss-exp", n=0)
    with pytest.raises(ValueError, match="n_replicates"):
        ScenarioConfig(scenario="gauss-exp", n=100, n_replicates=0)
    with pytest.raises(ValueError, match="positive"):
        ScenarioConfig(scenario="pois-logistic", n=100, param=-1.0)
    with pytest.raises(ValueError, match="finite"):
        ScenarioConfig(scenario="pois-logistic", n=100, param=np.inf)
    # the constant-probability limit is a legitimate null for this member
    ScenarioConfig(scenario="logit-convex", n=100, param=np.inf)


def test_negative_seed_is_an_input_error():
    # numpy's generators take no negative seed, so a cell with one could
    # only fail in every replicate
    with pytest.raises(ValueError, match="seed must be non-negative"):
        ScenarioConfig(scenario="gauss-sqrt", n=100, seed=-1)
    ScenarioConfig(scenario="gauss-sqrt", n=100, seed=0)


def test_catalog_names_sorted():
    names = catalog_names()
    assert names == tuple(sorted(names))
    assert "pois-logistic" in names and "logit-convex" in names


# --- generators ------------------------------------------------------------------


@pytest.mark.parametrize("scenario", ["gauss-sqrt", "pois-logistic", "logit-convex"])
def test_gen_dataset_deterministic(scenario):
    cfg = ScenarioConfig(scenario=scenario, n=200, seed=5)
    X1, y1 = gen_dataset(cfg, 3)
    X2, y2 = gen_dataset(cfg, 3)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(y1, y2)
    X3, y3 = gen_dataset(cfg, 4)
    assert not np.array_equal(y1, y3)


def test_gen_dataset_index_range_and_means():
    cfg = ScenarioConfig(scenario="gauss-exp", n=4000, seed=1)
    X, y = gen_dataset(cfg, 0)
    s = X @ BETA
    assert s.min() >= 0.0
    assert s.max() <= 5 * 0.5 / np.sqrt(5) + 1e-12
    # column means near the midpoint of the range
    se = (0.5 / np.sqrt(12.0)) / np.sqrt(cfg.n)
    assert np.all(np.abs(X.mean(axis=0) - 0.25) <= 3 * se)
    assert np.all(y > 0)


def test_gen_dataset_family_supports():
    Xp, yp = gen_dataset(ScenarioConfig(scenario="pois-exp", n=500, seed=2), 0)
    assert np.all(yp >= 0) and np.all(yp == np.floor(yp))
    Xl, yl = gen_dataset(ScenarioConfig(scenario="logit-linear", n=500, seed=2), 0)
    assert set(np.unique(yl)) <= {0.0, 1.0}


def test_plateau_curve_range_dense_sweep():
    # the scaled-logistic poisson mean stays inside (0, 15.01) on (0, 44.8]
    s = np.linspace(1e-9, 44.8, 100_001)
    mu = CATALOG["pois-logistic"].curve(s, 8.0)
    assert np.all(mu > 0.0)
    assert np.all(mu < 15.01)


def test_convex_logit_curve_range():
    # valid probabilities on the whole design range, >= 1/2 up to s=1,
    # and convex in s throughout (positive second differences)
    s = np.linspace(1e-9, 1.12, 50_001)
    for a in (1.0, 3.0, 8.0, 15.0):
        pi = CATALOG["logit-convex"].curve(s, a)
        assert np.all((pi > 0.0) & (pi < 1.0))
        assert np.all(pi[s <= 1.0] >= 0.5 - 1e-12)
        assert np.all(np.diff(pi, 2) > -1e-15)
    assert np.all(CATALOG["logit-convex"].curve(s, np.inf) == 0.5)


def test_infeasible_scenario_names_offending_index():
    # the plateau curve 30 / (1 + exp(-s / a)) - 15 is exactly 0 at a = 1e300
    cfg = ScenarioConfig(scenario="pois-logistic", n=300, seed=0, param=1e300)
    with pytest.raises(InfeasibleScenarioError, match="s="):
        gen_dataset(cfg, 0)


# --- true Jensen effect ------------------------------------------------------------


def test_true_delta_signs():
    assert true_delta(ScenarioConfig(scenario="gauss-exp", n=100)) > 0
    assert true_delta(ScenarioConfig(scenario="gauss-sqrt", n=100)) < 0
    assert true_delta(ScenarioConfig(scenario="gauss-sin", n=100)) < 0
    assert true_delta(ScenarioConfig(scenario="pois-logistic", n=100, param=8.0)) < 0
    assert true_delta(ScenarioConfig(scenario="logit-convex", n=100, param=3.0)) > 0


def test_true_delta_identity_is_zero():
    assert abs(true_delta(ScenarioConfig(scenario="gauss-linear", n=100))) < 1e-12
    assert abs(true_delta(ScenarioConfig(scenario="pois-linear", n=100))) < 1e-12


def test_true_delta_deterministic():
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=100, seed=9)
    assert true_delta(cfg) == true_delta(cfg)


def test_true_delta_concavity_ordering():
    # the plateau family is most concave near a=8 over the design range
    d2 = true_delta(ScenarioConfig(scenario="pois-logistic", n=100, param=2.0))
    d8 = true_delta(ScenarioConfig(scenario="pois-logistic", n=100, param=8.0))
    assert d8 < d2 < 0


def one_shot_true_delta(config):
    """Reference: the whole TRUE_DELTA_DRAWS x P covariate draw in one array."""
    rng = np.random.default_rng([config.seed, 340282366])
    lo, hi = CATALOG[config.scenario].x_range
    X = rng.uniform(lo, hi, size=(simlab.TRUE_DELTA_DRAWS, simlab.P))
    s = X @ simlab.BETA
    means = simlab._curve_values(config, s)
    center = simlab._curve_values(config, np.array([np.mean(s)]))[0]
    return float(np.mean(means) - center)


def _draw_shape(monkeypatch, p, draws):
    """Make the module draw `draws` rows of p covariates, indexed along the
    equal-weight unit vector."""
    monkeypatch.setattr(simlab, "P", p)
    monkeypatch.setattr(simlab, "BETA", np.full(p, 1.0 / np.sqrt(p)))
    monkeypatch.setattr(simlab, "TRUE_DELTA_DRAWS", draws)


@pytest.mark.parametrize("scenario", sorted(CATALOG))
def test_true_delta_matches_one_shot_draw(scenario, monkeypatch):
    # 12 345 draws end on a partial block; 200 000 is the module's count
    scales = (1.0, 2.0, 0.5)
    cells = itertools.product((1, 5, 7), (1, 12_345, 200_000))
    for k, (p, draws) in enumerate(cells):
        _draw_shape(monkeypatch, p, draws)
        param = scales[k % 3] * CATALOG[scenario].default_param
        cfg = ScenarioConfig(scenario=scenario, n=100, seed=k, param=param)
        assert true_delta(cfg) == one_shot_true_delta(cfg), (p, draws, k)


def test_true_delta_infeasible_names_the_same_sample(monkeypatch):
    # the first negative index is sample 23 987, in the third block
    _draw_shape(monkeypatch, 1, 50_000)
    entry = dataclasses.replace(CATALOG["pois-linear"], x_range=(-0.0002, 20.0))
    monkeypatch.setitem(CATALOG, "pois-linear", entry)
    cfg = ScenarioConfig(scenario="pois-linear", n=100, seed=12)
    with pytest.raises(InfeasibleScenarioError) as expected:
        one_shot_true_delta(cfg)
    with pytest.raises(InfeasibleScenarioError) as got:
        true_delta(cfg)
    assert str(got.value) == str(expected.value)


def test_true_delta_memory_is_one_vector_plus_one_block():
    # 8 * 200 000 bytes for the index vector plus one 8192 x 5 block; the
    # one-shot draw peaks at ~12.8 MB
    cfg = ScenarioConfig(scenario="pois-logistic", n=300, param=8.0)
    tracemalloc.start()
    try:
        true_delta(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


# --- harness -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_table():
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=3, seed=77)
    return power_study([cfg], alpha=0.05), cfg


def test_power_study_row_fields(tiny_table):
    table, cfg = tiny_table
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.scenario == "gauss-sqrt"
    assert row.n == 150
    assert row.param == cfg.param_
    assert 0.0 <= row.rejection_rate <= 1.0
    assert row.true_delta < 0
    assert row.replicates == 3
    assert row.failures == ()


def test_power_study_reproducible(tiny_table):
    table, cfg = tiny_table
    again = power_study([cfg], alpha=0.05)
    assert again.to_csv() == table.to_csv()


def test_power_study_thread_count_invariant(tiny_table):
    table, cfg = tiny_table
    threaded = power_study([cfg], alpha=0.05, threads=2)
    assert threaded.to_csv() == table.to_csv()


def _record_pids(monkeypatch, tmp_path, fail=None):
    """Patch `_run_replicate` (forked workers inherit the patch) to log
    (replicate, pid) lines to a file, raising `fail(replicate)` where it is
    not None. Returns a reader of the logged pairs."""
    real = simlab._run_replicate
    log = tmp_path / "pids.txt"

    def recording(config, replicate, alpha):
        with open(log, "a") as fh:
            fh.write(f"{replicate} {os.getpid()}\n")
        exc = fail(replicate) if fail else None
        if exc is not None:
            raise exc
        return real(config, replicate, alpha)

    monkeypatch.setattr(simlab, "_run_replicate", recording)

    def read():
        pairs = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        log.unlink()
        return pairs

    return read


def test_power_study_deals_replicates_to_forked_workers(monkeypatch, tmp_path):
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    read = _record_pids(monkeypatch, tmp_path)
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=3, seed=5)
    serial = power_study([cfg], alpha=0.05, threads=1)
    assert sorted(read()) == [(r, os.getpid()) for r in range(3)]

    forked = power_study([cfg], alpha=0.05, threads=2)
    pairs = read()
    assert sorted(r for r, _ in pairs) == [0, 1, 2]
    pid = dict(pairs)
    assert pid[0] == pid[2] == os.getpid() != pid[1]
    assert forked.to_csv() == serial.to_csv()
    assert multiprocessing.active_children() == []


def test_power_study_caps_workers_at_usable_cpus(monkeypatch, tmp_path):
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    read = _record_pids(monkeypatch, tmp_path)
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=3, seed=5)
    power_study([cfg], alpha=0.05, threads=64)
    pairs = read()
    assert sorted(r for r, _ in pairs) == [0, 1, 2]
    assert len({pid for _, pid in pairs}) == 2


def test_power_study_failures_match_across_worker_counts(monkeypatch, tmp_path):
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    read = _record_pids(
        monkeypatch, tmp_path,
        fail=lambda r: simlab.NumericalError(f"injected at {r}") if r in (1, 2) else None,
    )
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=4, seed=77)
    rows = []
    for threads in (1, 2):
        with pytest.warns(RuntimeWarning, match="2 of 4 replicates failed") as record:
            rows.append(power_study([cfg], alpha=0.05, threads=threads).rows[0])
        assert [str(w.message) for w in record] == [
            "scenario 'gauss-sqrt': 2 of 4 replicates failed"
        ]
        assert len({pid for _, pid in read()}) == threads
        assert multiprocessing.active_children() == []
    assert rows[0].failures == rows[1].failures == ("injected at 1", "injected at 2")
    assert rows[0] == rows[1]


def test_power_study_raises_when_every_replicate_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    read = _record_pids(monkeypatch, tmp_path, fail=lambda r: simlab.NumericalError(f"injected at {r}"))
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=3, seed=5)
    for threads in (1, 2):
        with pytest.warns(RuntimeWarning, match="3 of 3 replicates failed"):
            with pytest.raises(simlab.NumericalError, match="every replicate failed"):
                power_study([cfg], alpha=0.05, threads=threads)
        assert sorted(r for r, _ in read()) == [0, 1, 2]
        assert multiprocessing.active_children() == []


def test_power_study_reraises_a_worker_error(monkeypatch, tmp_path):
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    read = _record_pids(
        monkeypatch, tmp_path, fail=lambda r: RuntimeError("boom in 1") if r == 1 else None
    )
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=3, seed=5)
    with pytest.raises(RuntimeError, match="boom in 1"):
        power_study([cfg], alpha=0.05, threads=2)
    assert any(r == 1 and pid != os.getpid() for r, pid in read())
    assert multiprocessing.active_children() == []


def test_power_study_raises_when_a_worker_dies(monkeypatch, tmp_path):
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    read = _record_pids(monkeypatch, tmp_path, fail=lambda r: os._exit(3) if r == 1 else None)
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=3, seed=5)
    with pytest.raises(RuntimeError):
        power_study([cfg], alpha=0.05, threads=2)
    assert any(r == 1 and pid != os.getpid() for r, pid in read())
    assert multiprocessing.active_children() == []


def test_power_study_reraises_a_caller_error_and_stops_the_workers(monkeypatch, tmp_path):
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    read = _record_pids(
        monkeypatch, tmp_path, fail=lambda r: RuntimeError("boom in 0") if r == 0 else None
    )
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=10, seed=5)
    with pytest.raises(RuntimeError, match="boom in 0"):
        power_study([cfg], alpha=0.05, threads=2)
    assert multiprocessing.active_children() == []
    ran = dict(read())
    assert ran[0] == os.getpid()
    assert 9 not in ran


def test_power_study_reissues_a_worker_warning(monkeypatch, tmp_path):
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    real = simlab._run_replicate

    def warning(config, replicate, alpha):
        if replicate == 1:
            warnings.warn(f"note from pid {os.getpid()}", UserWarning)
        return real(config, replicate, alpha)

    monkeypatch.setattr(simlab, "_run_replicate", warning)
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=3, seed=5)
    with pytest.warns(UserWarning, match="note from pid") as record:
        power_study([cfg], alpha=0.05, threads=2)
    assert len(record) == 1
    assert int(str(record[0].message).split()[-1]) != os.getpid()
    assert record[0].filename == __file__
    assert multiprocessing.active_children() == []


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "scenario, param",
    # the plateau curve is exactly 0 at a = 1e300; the convex probability
    # curve divides 0 by 0 at a = 1e-300; exp(s / 0.01) overflows to inf;
    # the gaussian noise factor exp(400 z) overflows once |z| reaches about 1.8
    [("pois-logistic", 1e300), ("logit-convex", 1e-300), ("pois-exp", 0.01), ("gauss-exp", 400.0)],
)
def test_power_study_rejects_an_infeasible_cell_before_any_replicate(
    scenario, param, monkeypatch, tmp_path
):
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    _record_pids(monkeypatch, tmp_path)
    cells = [
        ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=2, seed=5),
        ScenarioConfig(scenario=scenario, n=150, param=param, n_replicates=2),
    ]
    with pytest.raises(InfeasibleScenarioError, match=scenario):
        power_study(cells, threads=2)
    assert not (tmp_path / "pids.txt").exists()  # no replicate ran
    assert multiprocessing.active_children() == []


def test_power_study_alpha_guard():
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=1)
    with pytest.raises(ValueError, match="alpha"):
        power_study([cfg], alpha=0.9)


def test_power_study_of_no_cells_is_an_empty_table():
    table = power_study([], threads=2)
    assert table.rows == ()
    assert table.to_csv() == POWER_CSV_HEADER + "\n"
    assert multiprocessing.active_children() == []


def test_power_study_records_failures(monkeypatch):
    real = simlab.jensen_test
    calls = {"k": 0}

    def flaky(path, **kw):
        calls["k"] += 1
        if calls["k"] == 2:
            raise simlab.NumericalError("injected failure")
        return real(path, **kw)

    monkeypatch.setattr(simlab, "jensen_test", flaky)
    cfg = ScenarioConfig(scenario="gauss-sqrt", n=150, n_replicates=3, seed=77)
    with pytest.warns(RuntimeWarning, match="1 of 3 replicates failed"):
        table = power_study([cfg], alpha=0.05)
    row = table.rows[0]
    assert row.replicates == 2
    assert len(row.failures) == 1
    assert "injected failure" in row.failures[0]


# --- serialization --------------------------------------------------------------------


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_csv_header_and_roundtrip(tiny_table):
    table, _ = tiny_table
    text = table.to_csv()
    lines = text.splitlines()
    assert lines[0] == POWER_CSV_HEADER
    assert len(lines) == 2
    (rec,) = read_csv(text)
    orig = table.rows[0]
    assert rec["scenario"] == orig.scenario
    assert int(rec["n"]) == orig.n
    assert float(rec["param"]) == orig.param
    assert float(rec["rejection_rate"]) == orig.rejection_rate
    assert float(rec["true_delta"]) == orig.true_delta
    assert int(rec["replicates"]) == orig.replicates


def test_csv_full_precision():
    row = simlab.PowerRow(
        scenario="gauss-sqrt",
        n=100,
        param=0.1,
        rejection_rate=1 / 3,
        true_delta=-0.012345678901234567,
        replicates=3,
    )
    text = PowerTable(rows=(row,)).to_csv()
    (back,) = read_csv(text)
    assert float(back["rejection_rate"]) == row.rejection_rate
    assert float(back["true_delta"]) == row.true_delta
