"""Record the reference outputs that runs on the default seed are compared with.

    python3 perfbench/record_reference.py [--units 64] [--power-units 12]

Runs units 0.. of every workload on the default seed, checks each, and writes
perfbench/reference.json: per test (statistic, critical value, decision),
per power row (rejection rate, true delta). Re-record only when a change is
meant to move these values, and say by how much.
"""

import argparse
import json
import sys
import warnings

import run  # pins BLAS threads and puts ./src on the path
import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--units", type=int, default=64)
    parser.add_argument("--power-units", type=int, default=12)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    pkg, _ = run.import_package()
    recorded = {}
    for w in wl.WORKLOADS.values():
        count = args.power_units if w.scenario == "pois-logistic" else args.units
        inputs = wl.make_inputs(pkg, w, run.DEFAULT_SEED, count)
        rows = []
        for i in range(count):
            _, outcome = wl.run_unit(pkg, w, inputs, i)
            problems = wl.check(w, outcome)
            if problems:
                print(f"{w.name} unit {i}: {problems}", file=sys.stderr)
                return 1
            rows.append(wl.summarize(w, outcome))
        recorded[w.name] = rows
        print(f"{w.name}: {count} units", file=sys.stderr)
    run.REFERENCE_FILE.write_text(
        json.dumps({"seed": run.DEFAULT_SEED, "workloads": recorded}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
