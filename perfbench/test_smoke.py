"""Smoke test of the benchmark harness: one measured unit per workload.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced with --seconds 0, which
measures a single unit. Every metric the harness defines must be printed
with a unit, the result line must carry exactly the metrics BENCHMARK.json
lists for the mode, and in the traced run every span must nest inside its
parent, so that self times plus unattributed time account for its wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())

END_TO_END = (
    "setup_s", "datasets_per_s", "latency_s_p50", "latency_s_tail",
    "cpu_s_per_dataset", "peak_rss_mb", "failed_frac",
)
PER_LAYER = (
    "basis.eval_calls", "basis.eval_s", "basis.points", "basis.out_mb", "basis.penalty_s",
    "model.fits", "model.fit_self_s", "model.minimize_calls", "model.basis_calls_per_fit",
    "model.restarts_per_fit", "model.unconverged",
    "inference.build_path_s", "inference.gcv_calls", "inference.coef_cov_calls",
    "inference.coef_cov_s",
    "jensen.delta_cov_s", "jensen.eval_set_s", "jensen.null_sim_s", "jensen.reference_s",
    "jensen.test_s",
    "simlab.power_s", "simlab.cpu_per_wall", "simlab.true_delta_s", "simlab.replicate_failures",
    "self.basis_s", "self.model_s", "self.inference_s", "self.jensen_s", "self.simlab_s",
    "self.unattributed_s", "trace.overhead_s", "trace.unnested_spans",
)
# Every workload the harness defines, including the two BENCHMARK.json does
# not gate (see README.md).
WORKLOADS = sorted(workloads.WORKLOADS)


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def printed_metrics(stdout: str) -> dict:
    """name -> (value, unit) from the '# name value unit' lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("# ") and len(parts) == 4:
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_unit_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    printed = printed_metrics(proc.stdout)
    for name in END_TO_END if trace == 0 else PER_LAYER:
        assert name in printed and printed[name][1], f"{name} not printed with a unit"
    gated = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in gated]
    for m in gated:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

    if trace:
        assert printed["trace.unnested_spans"][0] == 0
        assert printed["trace.accounted_frac"][0] == pytest.approx(1.0, abs=1e-6)
        assert printed["model.fits"][0] > 0 and printed["basis.eval_calls"][0] > 0


def test_benchmark_and_predictions_agree_with_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(END_TO_END)
    assert {m["name"] for m in SPEC["per_layer"]} >= set(PER_LAYER)
    for p in PREDICTIONS["predictions"]:
        assert set(p["layer_metrics"]) <= set(PER_LAYER), p["id"]
        assert set(p["moves"]) <= set(END_TO_END), p["id"]
        named = [p["most_on"], p["least_on"], *p["unchanged_on"]]
        assert {w for w in named if w} <= set(WORKLOADS), p["id"]


def test_refuses_to_run_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.*"):
            shutil.copy(f, bare / "perfbench")
        proc = run_bench(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
