"""Print one SHA-256 digest per group of jenseneffect outputs, and compare
the values behind two sets of digests.

    python tools/output_digest.py SRC_DIR [--save OUT.npz]
    python tools/output_digest.py --compare OLD.npz NEW.npz

SRC_DIR is the `src` directory of the tree to digest; the package is
imported from it, not from any installed copy. Run the script on a parent
tree and on a change, with the same environment, and compare the lines: a
change that should move no number prints the same five digests. Each digest
hashes every value of its group bit for bit, so a change in the last bit of
one value moves it.

`--save` also writes every hashed value to OUT.npz. `--compare` reads two
such files and prints, per group and quantity, how many values changed and
the largest relative change, |new - old| / max |old| over each array of the
quantity (each test's deltas, say, or one CSV column); a quantity that only
one side has is named as such. Text values (the decision in result.json,
its warnings) count as changed or not. Each group's last line counts the
changed decisions: the tests' `reject` values and the CLI's `decision`
fields. The CLI's files are compared by their JSON fields and CSV columns.

Groups:
  fits   coefficients, objective, converged flag and restart count of every fit
  paths  GCV values, the selected index and sigma^2 of every path
  tests  deltas, their covariance, t, statistic, critical value, p-value
         and decision of every test, and the linear reference's delta_inf
         and influence row
  power  the power CSV at threads 1 and at threads 2
  cli    result.json, delta_vs_lambda.csv and ghat.csv of seven `jensen` runs

Inputs (all seeded; one run takes about 30-45 s on two cores):
  gauss-sqrt, sigma 0.05, n 2000, seed 0, replicates 0-5, sign test
  logit-convex, a 8, n 1000, seed 0, replicates 0-2, sign and vs-linear tests
  pois-logistic, n 300, a = 2, 8, 16, seed 0-2, 8 replicates each: sign tests
      of every replicate, and the three cells as one power study
  the CLI's gaussian-log, poisson, logit and vs-linear runs on CSVs drawn
      from the catalog (the logit data with one extra `a_` covariate), and
      the logit and vs-linear runs again with `--extra-placement outside`,
      whose paired evaluation sets carry nonzero offsets
  a gaussian-log `--functional` run: a data file with one `x_` column and a
      seeded `series_id,t,value` history file (n 120, 40 time points), so the
      digest covers the history reader and its Fourier design
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
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


GROUPS = ("fits", "paths", "tests", "power", "cli")
# quantities whose changed values are decisions
DECISIONS = ("reject", "decision")


class _Digests:
    def __init__(self):
        self.groups = {name: hashlib.sha256() for name in GROUPS}
        self.saved = []  # (group, name, array) for every hashed value, in order

    def values(self, group, **named):
        h = self.groups[group]
        for name, v in named.items():
            a = np.ascontiguousarray(np.asarray(np.nan if v is None else v, dtype=float))
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
            self.saved.append((group, name, a))

    def data(self, group, name, blob):
        h = self.groups[group]
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
        self.saved.append((group, name, np.frombuffer(blob, dtype=np.uint8)))

    def path(self, path):
        for f in path.fits:
            self.values("fits", d=f.coeffs.d, beta=f.coeffs.beta, gamma=f.coeffs.gamma,
                        objective=f.objective, converged=f.converged,
                        n_restarts_used=f.n_restarts_used)
        self.values("paths", gcv=path.gcv, selected=path.selected, sigma2=path.sigma2)

    def test(self, res):
        self.values("tests", deltas=res.deltas, sigma_delta=res.sigma_delta, t=res.t,
                    statistic=res.statistic, critical_value=res.critical_value,
                    p_value=res.p_value, reject=res.reject)

    def save(self, fname):
        np.savez(fname, **{f"{k:06d}|{g}|{name}": a for k, (g, name, a) in enumerate(self.saved)})


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
        dig.values("tests", delta_inf=ref.delta_inf, influence_row=ref.influence_row)
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
        dig.data("power", "power.csv", power_study(cells, threads=threads).to_csv().encode())


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


def _write_functional_pair(tmp, n=120, T=40):
    """A data file with `response` and `x_1`, and a long history file whose
    series mix a constant, a sine and a cosine; the response is log-linear
    in x_1 and the mixing weights."""
    rng = np.random.default_rng(9)
    t = np.linspace(0.0, 1.0, T)
    coef = rng.normal(size=(n, 3))
    H = coef[:, :1] + coef[:, 1:2] * np.sin(2 * np.pi * t) + coef[:, 2:3] * np.cos(2 * np.pi * t)
    x = rng.uniform(0.0, 0.5, size=(n, 1))
    y = np.exp(x[:, 0] + 0.3 * coef @ np.array([0.6, 0.6, -0.5]) + 0.02 * rng.normal(size=n))
    _write_csv(os.path.join(tmp, "fdata.csv"), y, x)
    with open(os.path.join(tmp, "hist.csv"), "w", encoding="utf-8") as fh:
        fh.write("series_id,t,value\n")
        for i in range(n):
            for k in range(T):
                fh.write(f"{i},{float(t[k])!r},{float(H[i, k])!r}\n")


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
    _write_functional_pair(tmp)
    runs = [
        ("gaussian-log", "gauss.csv", []),
        ("poisson", "pois.csv", []),
        ("logit", "logit.csv", []),
        ("logit", "logit.csv", ["--direction", "vs-linear"]),
        ("logit", "logit.csv", ["--extra-placement", "outside"]),
        ("logit", "logit.csv", ["--direction", "vs-linear", "--extra-placement", "outside"]),
        ("gaussian-log", "fdata.csv", ["--functional", os.path.join(tmp, "hist.csv")]),
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
                dig.data("cli", name, fh.read())


def _flatten(obj, prefix, out):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(obj, list):
        if not obj:
            out.setdefault(prefix + "[]", [])  # an empty list is a field too
        for v in obj:
            _flatten(v, prefix + "[]", out)
    else:
        out.setdefault(prefix, []).append(obj)


def _fields(name, blob):
    """{field: values} of one saved CSV or JSON file."""
    text = blob.tobytes().decode("utf-8")
    if name.endswith(".json"):
        out = {}
        _flatten(json.loads(text), "", out)
        return {f"{name}:{k}": v for k, v in out.items()}
    rows = list(csv.reader(io.StringIO(text)))
    return {f"{name}:{col}": [r[j] for r in rows[1:]] for j, col in enumerate(rows[0])}


def _as_numbers(values):
    """The values as a float array, or None when any is text."""
    try:
        return np.array([np.nan if v is None else float(v) for v in values], dtype=float)
    except (TypeError, ValueError):
        return None


def _load_saved(fname):
    """{(group, quantity): [array or list of text, one per occurrence]}."""
    out = {}
    with np.load(fname) as z:
        for key in sorted(z.files):
            _, group, name = key.split("|", 2)
            a = z[key]
            if a.dtype == np.uint8:
                for field, values in _fields(name, a).items():
                    nums = _as_numbers(values)
                    out.setdefault((group, field), []).append(values if nums is None else nums)
            else:
                out.setdefault((group, name), []).append(a)
    return out


def _changes(old, new):
    """(values, changed values, largest relative change) over paired arrays;
    the change is None for text."""
    count = changed = 0
    worst = 0.0
    text = False
    for a, b in zip(old, new):
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape:
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            count += a.size
            changed += int(np.count_nonzero(~same))
            if not same.all():
                scale = np.nanmax(np.abs(a)) if np.any(np.isfinite(a)) else 0.0
                diff = np.where(same, 0.0, np.abs(b - a))
                rel = np.inf if scale == 0.0 or np.isnan(diff).any() else float(diff.max() / scale)
                worst = max(worst, rel)
        else:
            a, b = list(np.atleast_1d(a)), list(np.atleast_1d(b))
            count += max(len(a), len(b))
            changed += sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
            text = True
    return count, changed, None if text else worst


def compare(old_file, new_file) -> None:
    old, new = _load_saved(old_file), _load_saved(new_file)
    for group in GROUPS:
        decisions = 0
        print(f"[{group}]")
        for key in sorted(k for k in old.keys() | new.keys() if k[0] == group):
            quantity = key[1]
            if key not in new or key not in old:
                print(f"  {quantity:40s} only in {'OLD' if key in old else 'NEW'}")
                continue
            if len(old[key]) != len(new[key]):
                print(f"  {quantity:40s} {len(old[key])} arrays in OLD, {len(new[key])} in NEW")
                continue
            count, changed, worst = _changes(old[key], new[key])
            if quantity.rsplit(":", 1)[-1] in DECISIONS:
                decisions += changed
            change = "text" if worst is None else f"largest relative change {worst:.2g}"
            print(f"  {quantity:40s} {changed:6d} of {count:6d} changed, {change}")
        print(f"  changed decisions: {decisions}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", nargs="?", help="the src directory of the tree to digest")
    parser.add_argument("--save", metavar="OUT.npz", help="also write every hashed value here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD.npz", "NEW.npz"))
    args = parser.parse_args(argv)
    if args.compare:
        if args.src_dir or args.save:
            parser.error("--compare takes no SRC_DIR and no --save")
        compare(*args.compare)
        return 0
    if not args.src_dir:
        parser.error("give SRC_DIR, or --compare OLD.npz NEW.npz")
    pkg = _load(args.src_dir)
    print(f"package: {os.path.dirname(pkg.__file__)}", file=sys.stderr)
    dig = _Digests()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _library_runs(dig)
        with tempfile.TemporaryDirectory() as tmp:
            _cli_runs(dig, tmp)
    for name, h in dig.groups.items():
        print(f"{name:6s} {h.hexdigest()}")
    if args.save:
        dig.save(args.save)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the reader closed the pipe (`... | head`): stop without a traceback,
        # and point stdout at devnull so the interpreter's final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
