"""End-to-end and per-layer benchmark of the jenseneffect pipeline.

    python3 perfbench/run.py --workload gauss-n2000 --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ./src. Each run
sets up (imports the package, runs one untimed warm-up unit, draws its
inputs from --seed), then runs units of the workload in a closed loop for
--seconds and checks every unit's output.

--trace 0 reports the end-to-end metrics. --trace 1 runs the loop untraced
for half of --seconds, then runs the same units again with spans around the
package's layer boundaries (see tracing.py), and reports per-layer counts,
times, self times, unattributed time and the tracing overhead (traced minus
untraced wall). Spans are written to perfbench/out/.

Every metric is printed as "name value unit" on a line starting with "#",
then the environment and workload parameters as one JSON line, and last the
result: {"correct", "attempted", "failed", "metrics"}, where "metrics" holds
the metrics BENCHMARK.json lists for the mode.
"""

import os

# One BLAS thread, set before numpy loads: extra BLAS threads doubled CPU
# time on these small matrices without shortening wall time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (tracing and workloads import no numpy, so
import workloads as wl  # noqa: E402  the timed package import below covers it)

DEFAULT_SEED = 0
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 3  # set-up steps repeated for a median
# Input generation is timed on draws of this many units, so that its share
# of setup_s does not grow when the pipeline gets faster and a run needs
# more inputs.
GEN_TIMED_UNITS = 8
# The loop's inputs cover this many times the units the warm-up latency
# predicts, plus a margin: per-dataset cost varies about 2.5x between
# datasets. Drawing no more than that keeps the inputs a small part of
# peak_rss_mb.
INPUT_HEADROOM = 2
INPUT_MARGIN = 8

IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import jenseneffect; print(time.perf_counter() - t)"
)


def import_package():
    """Import the package from ./src; return its modules and the import time."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import jenseneffect
    from jenseneffect import basis, errors, inference, jensen, model, simlab

    elapsed = time.perf_counter() - t0
    if not Path(jenseneffect.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"jenseneffect was imported from {jenseneffect.__file__}, not {SRC}")
    pkg = {"basis": basis, "errors": errors, "model": model, "inference": inference,
           "jensen": jensen, "simlab": simlab}
    return pkg, elapsed


def fresh_import_s() -> float:
    """Import time in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(SRC)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def clear_caches(pkg) -> None:
    """Empty the package's memo caches so that two passes over the same
    units do the same work."""
    for mod in pkg.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run_loop(pkg, w, inputs, seconds, references, units=None, tracer=None):
    """Closed loop over units 0, 1, ... until `seconds` have passed (at least
    one round of units, and a whole number of them), the inputs run out, or
    `units` units have run."""
    numerical_error = pkg["errors"].NumericalError
    per_round = wl.round_size(w)
    latencies, problems = [], []
    datasets = failed = 0
    cpu0, start = tracing.process_cpu(), time.perf_counter()
    i = 0
    while i < len(inputs):
        if units is not None and i >= units:
            break
        if (units is None and i > 0 and i % per_round == 0
                and time.perf_counter() - start >= seconds):
            break
        t0 = time.perf_counter()
        sid = tracer.open("unit", "bench") if tracer else None
        try:
            n, outcome = wl.run_unit(pkg, w, inputs, i)
            errors = None
        except (numerical_error, ValueError) as exc:
            n, outcome, errors = 0, None, [f"{type(exc).__name__}: {exc}"]
        finally:
            if tracer:
                tracer.close(sid)
        latencies.append(time.perf_counter() - t0)
        if errors is None:
            ref = references[i] if i < len(references) else None
            errors = wl.check(w, outcome, ref)
        datasets += n
        if errors:
            failed += 1
            problems += [f"unit {i}: {e}" for e in errors]
        i += 1
    wall = time.perf_counter() - start
    return {
        "units": i, "wall": wall, "cpu": tracing.process_cpu() - cpu0, "latencies": latencies,
        "datasets": datasets, "failed": failed, "problems": problems,
    }


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it. With fewer than 21 samples the ten are cut
    to half of the rest, so the value is close to the median."""
    xs = sorted(latencies)
    beyond = min(10, (len(xs) - 1) // 2)
    k = len(xs) - 1 - beyond
    return xs[k], 100.0 * (k + 1) / len(xs), beyond


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "power_study_threads": wl.POWER_THREADS,
    }


def load_references(w, seed) -> list:
    if seed != DEFAULT_SEED or not REFERENCE_FILE.is_file():
        return []
    data = json.loads(REFERENCE_FILE.read_text())
    return data["workloads"].get(w.name, [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "jenseneffect" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'jenseneffect'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    w = wl.WORKLOADS[args.workload]
    warnings.simplefilter("ignore")

    # --- set-up -----------------------------------------------------------
    pkg, import_s = import_package()
    import_samples = [import_s] + [fresh_import_s() for _ in range(SETUP_SAMPLES - 1)]
    references = load_references(w, args.seed)
    warm_inputs = wl.make_inputs(pkg, w, wl.WARMUP_SEED, 1)
    t0 = time.perf_counter()
    warm = run_loop(pkg, w, warm_inputs, 0.0, [], units=1)
    warmup_s = time.perf_counter() - t0
    del warm_inputs
    gen_samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        wl.make_inputs(pkg, w, args.seed, GEN_TIMED_UNITS)
        gen_samples.append(time.perf_counter() - t0)
    count = INPUT_MARGIN + int(INPUT_HEADROOM * args.seconds / warm["latencies"][0])
    t0 = time.perf_counter()
    inputs = wl.make_inputs(pkg, w, args.seed, count)
    inputs_s = time.perf_counter() - t0
    setup_s = statistics.median(import_samples) + statistics.median(gen_samples) + warmup_s

    # --- measurement ------------------------------------------------------
    if args.trace:
        clear_caches(pkg)
        plain = run_loop(pkg, w, inputs, args.seconds / 2, references)
        clear_caches(pkg)
        tracer = tracing.Tracer()
        tracer.install(pkg)
        try:
            traced = run_loop(pkg, w, inputs, 0.0, references, units=plain["units"], tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(str(OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"))
        metrics = tracing.layer_metrics(tracer, traced["wall"], plain["wall"], traced["units"])
        runs = [warm, plain, traced]
    else:
        loop = run_loop(pkg, w, inputs, args.seconds, references)
        runs = [warm, loop]
        tail_value, tail_pct, tail_beyond = tail(loop["latencies"])
        metrics = {
            "setup_s": (setup_s, "s"),
            "datasets_per_s": (loop["datasets"] / loop["wall"], "1/s"),
            "latency_s_p50": (statistics.median(loop["latencies"]), "s"),
            "latency_s_tail": (tail_value, "s"),
            "cpu_s_per_dataset": (loop["cpu"] / max(loop["datasets"], 1), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "failed_frac": (loop["failed"] / loop["units"], "ratio"),
        }

    ran_out = runs[1]["units"] == len(inputs) and runs[1]["wall"] < (
        args.seconds / 2 if args.trace else args.seconds)
    if ran_out:
        print(f"the loop used all {len(inputs)} inputs before --seconds", file=sys.stderr)
    attempted = sum(r["units"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value!r} {unit}")
    details = {
        "workload": w.name, "why": why.get(w.name, "not gated; see perfbench/README.md"),
        "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "closed_loop_clients": 1,
        "params": {"scenario": w.scenario, "n": w.n, "param": w.param, "grid_count": w.grid_count,
                   "tests": list(w.tests)},
        "setup": {"import_s": import_samples, "inputs_s": gen_samples, "warmup_s": warmup_s,
                  "loop_inputs": count, "loop_inputs_s": inputs_s},
        "inputs_ran_out": ran_out,
        "reference_units": len(references), "reference_rel_tol": wl.REL_TOL,
        "environment": environment(),
        "problems": [p for r in runs for p in r["problems"]][:20],
    }
    if not args.trace:
        details["latency_tail"] = {"percentile": tail_pct, "samples_beyond": tail_beyond,
                                   "samples": len(loop["latencies"])}
        details["datasets"] = loop["datasets"]
        details["latencies_s"] = [round(x, 4) for x in loop["latencies"]]
    print("# " + json.dumps(details))
    missing = [name for name in gated if name not in metrics]
    if missing:
        print(f"metrics named in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in gated},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
