"""Print one SHA-256 digest per group of jenseneffect outputs.

    python tools/output_digest.py SRC_DIR

SRC_DIR is the `src` directory of the tree to digest; the package is
imported from it, not from any installed copy. Run the script on a parent
tree and on a change, with the same environment, and compare the lines: a
change that should move no number prints the same five digests. Each digest
hashes every value of its group bit for bit, so a change in the last bit of
one value moves it.

Groups:
  fits   coefficients, objective, converged flag and restart count of every fit
  paths  GCV values, the selected index and sigma^2 of every path
  tests  deltas, their covariance, t, statistic, critical value, p-value
         and decision of every test, and the linear reference's delta_inf
         and influence row
  power  the power CSV at threads 1 and at threads 2
  cli    result.json, delta_vs_lambda.csv and ghat.csv of six `jensen` runs

Inputs (all seeded; one run takes about 30-45 s on two cores):
  gauss-sqrt, sigma 0.05, n 2000, seed 0, replicates 0-5, sign test
  logit-convex, a 8, n 1000, seed 0, replicates 0-2, sign and vs-linear tests
  pois-logistic, n 300, a = 2, 8, 16, seed 0-2, 8 replicates each: sign tests
      of every replicate, and the three cells as one power study
  the CLI's gaussian-log, poisson, logit and vs-linear runs on CSVs drawn
      from the catalog (the logit data with one extra `a_` covariate), and
      the logit and vs-linear runs again with `--extra-placement outside`,
      whose paired evaluation sets carry nonzero offsets
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

import numpy as np

POWER_PARAMS = (2.0, 8.0, 16.0)
POWER_REPLICATES = 8


def _load(src_dir):
    src_dir = os.path.abspath(src_dir)
    sys.path.insert(0, src_dir)
    import jenseneffect

    if not os.path.abspath(jenseneffect.__file__).startswith(src_dir + os.sep):
        raise SystemExit(f"imported {jenseneffect.__file__}, not the package under {src_dir}")
    return jenseneffect


class _Digests:
    def __init__(self):
        self.groups = {name: hashlib.sha256() for name in ("fits", "paths", "tests", "power", "cli")}

    def values(self, group, *values):
        h = self.groups[group]
        for v in values:
            a = np.ascontiguousarray(np.asarray(np.nan if v is None else v, dtype=float))
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())

    def data(self, group, blob):
        h = self.groups[group]
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)

    def path(self, path):
        for f in path.fits:
            self.values("fits", f.coeffs.d, f.coeffs.beta, f.coeffs.gamma, f.objective,
                        f.converged, f.n_restarts_used)
        self.values("paths", path.gcv, path.selected, path.sigma2)

    def test(self, res):
        self.values("tests", res.deltas, res.sigma_delta, res.t, res.statistic,
                    res.critical_value, res.p_value, res.reject)


def _library_runs(dig):
    from jenseneffect.jensen import alternative_null_test, jensen_test, linear_logistic_reference
    from jenseneffect.model import Dataset, ModelSpec, default_lambda_grid, fit_path
    from jenseneffect.simlab import ScenarioConfig, gen_dataset, power_study

    def path_of(family, X, y):
        spec = ModelSpec(family=family, p=X.shape[1], lambda_grid=default_lambda_grid(count=20))
        data = Dataset(y=y, X=X)
        path = fit_path(spec, data)
        dig.path(path)
        return data, path

    gauss = ScenarioConfig("gauss-sqrt", n=2000, param=0.05, seed=0)
    for i in range(6):
        _, path = path_of("gaussian_log", *gen_dataset(gauss, i))
        dig.test(jensen_test(path, direction="test_negative", seed=i))

    logit = ScenarioConfig("logit-convex", n=1000, param=8.0, seed=0)
    for i in range(3):
        data, path = path_of("bernoulli_logit", *gen_dataset(logit, i))
        dig.test(jensen_test(path, direction="test_positive", seed=i))
        ref = linear_logistic_reference(data)
        dig.values("tests", ref.delta_inf, ref.influence_row)
        dig.test(alternative_null_test(path, ref, seed=i))

    cells = [
        ScenarioConfig("pois-logistic", n=300, param=a, n_replicates=POWER_REPLICATES, seed=i)
        for i, a in enumerate(POWER_PARAMS)
    ]
    for cell in cells:
        for r in range(cell.n_replicates):
            _, path = path_of("poisson", *gen_dataset(cell, r))
            dig.test(jensen_test(path, direction="test_negative", seed=r))
    for threads in (1, 2):
        dig.data("power", power_study(cells, threads=threads).to_csv().encode())


def _write_csv(fname, y, X, A=None):
    cols = ["response"] + [f"x_{j + 1}" for j in range(X.shape[1])]
    rows = [y[:, None], X]
    if A is not None:
        cols += [f"a_{j + 1}" for j in range(A.shape[1])]
        rows.append(A)
    table = np.hstack(rows)
    with open(fname, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in table:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _cli_runs(dig, tmp):
    from jenseneffect.cli import main
    from jenseneffect.simlab import ScenarioConfig, gen_dataset

    X, y = gen_dataset(ScenarioConfig("gauss-sqrt", n=300, param=0.05, seed=0), 0)
    _write_csv(os.path.join(tmp, "gauss.csv"), y, X)
    X, y = gen_dataset(ScenarioConfig("pois-logistic", n=300, seed=0), 0)
    _write_csv(os.path.join(tmp, "pois.csv"), y, X)
    X, y = gen_dataset(ScenarioConfig("logit-convex", n=500, seed=0), 0)
    A = np.random.default_rng(7).normal(0.0, 0.5, size=(y.size, 1))
    _write_csv(os.path.join(tmp, "logit.csv"), y, X, A)
    runs = [
        ("gaussian-log", "gauss.csv", []),
        ("poisson", "pois.csv", []),
        ("logit", "logit.csv", []),
        ("logit", "logit.csv", ["--direction", "vs-linear"]),
        ("logit", "logit.csv", ["--extra-placement", "outside"]),
        ("logit", "logit.csv", ["--direction", "vs-linear", "--extra-placement", "outside"]),
    ]
    for k, (family, fname, extra) in enumerate(runs):
        out = os.path.join(tmp, f"run{k}")
        argv = ["jensen", "--family", family, "--data", os.path.join(tmp, fname),
                "--seed", "3", "--out", out, *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"`{' '.join(argv)}` exited {code}")
        for name in ("result.json", "delta_vs_lambda.csv", "ghat.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                dig.data("cli", fh.read())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    pkg = _load(argv[0])
    print(f"package: {os.path.dirname(pkg.__file__)}", file=sys.stderr)
    dig = _Digests()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _library_runs(dig)
        with tempfile.TemporaryDirectory() as tmp:
            _cli_runs(dig, tmp)
    for name, h in dig.groups.items():
        print(f"{name:6s} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
