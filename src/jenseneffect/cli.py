"""Command-line interface.

Two subcommands: `jensen` fits a smoothing path to one dataset and runs the
sign (or linear-reference) test, writing a JSON result plus CSV plot data;
`power` runs seeded simulation cells from the scenario catalog and writes a
rejection-rate table. Input problems exit 2, numerical failures exit 3.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .basis import FourierBasis, basis_matrix, fourier_design
from .errors import NumericalError
from .jensen import (
    _check_test_options,
    alternative_null_test,
    jensen_test,
    linear_logistic_reference,
)
from .model import FAMILY_TABLE, Dataset, ModelSpec, default_lambda_grid, fit_path
from .simlab import ScenarioConfig, power_study

FAMILY_FLAGS = {
    "gaussian-log": "gaussian_log",
    "poisson": "poisson",
    "logit": "bernoulli_logit",
}
DIRECTION_FLAGS = {
    "neg": "test_negative",
    "pos": "test_positive",
    "vs-linear": "test_vs_linear_logistic",
}
PLACEMENT_FLAGS = {"inside": "inside_index", "outside": "outside_index"}
MISSING_TOKENS = {"", "na", "nan", "null"}
# points on the fitted link curve in ghat.csv
GHAT_POINTS = 200


# --- ingestion ------------------------------------------------------------------


def _parse_cell(cell: str, line_no: int, col: str, integer: bool = False) -> float:
    text = cell.strip()
    if text.lower() in MISSING_TOKENS:
        raise ValueError(f"line {line_no}: missing value in column {col!r}")
    try:
        value = float(text)
        if integer:
            int(text)  # raises on "1.5" or "1e3"
    except ValueError:
        kind = "non-integer" if integer else "unparseable"
        raise ValueError(f"line {line_no}: {kind} value {text!r} in column {col!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line_no}: non-finite value {text!r} in column {col!r}")
    return value


def _read_columns(
    path: str, what: str, required: list[str], prefixes: tuple[str, ...] = (),
    integer: tuple[str, ...] = (),
) -> tuple[list[str], np.ndarray]:
    """Parse a CSV's `required` columns, then for each of `prefixes` the
    columns whose names start with it (in header order), into a float table;
    ignore the rest. Returns the parsed columns' names and the table.

    Blank lines are skipped. Ragged rows and bad cells (missing, unparseable,
    non-finite, or not an integer in an `integer` column) are collected by
    line number and raised as one ValueError. A UTF-8 byte-order mark, as
    spreadsheet exports write, is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if not header:
            wanted = ", ".join(f"`{name}`" for name in required)
            raise ValueError(f"{what} {path!r} is empty: expected a header with {wanted}")
        for name in required:
            if name not in header:
                raise ValueError(f"{what} {path!r} has no `{name}` column")
        cols = [(header.index(name), name) for name in required]
        for prefix in prefixes:
            cols += [(i, name) for i, name in enumerate(header) if name.startswith(prefix)]
        rows: list[list[float]] = []
        problems: list[str] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                problems.append(f"line {line_no}: expected {len(header)} cells, found {len(row)}")
                continue
            try:
                rows.append([_parse_cell(row[i], line_no, nm, nm in integer) for i, nm in cols])
            except ValueError as bad:
                problems.append(str(bad))
    if problems:
        shown = "; ".join(problems[:20])
        more = f" (and {len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValueError(f"rows rejected: {shown}{more}")
    if not rows:
        raise ValueError(f"{what} {path!r} contains a header but no data rows")
    return [name for _, name in cols], np.array(rows)


def read_dataset(
    path: str, functional: str | None = None, fourier_dim: int = 15
) -> tuple[Dataset, dict]:
    """Read a CSV with a `response` column, `x_` covariates, `a_` extras.

    Rows with missing, unparseable or non-finite cells in used columns are
    rejected: the reader raises with their line numbers, and checks the
    functional-history file the same way. Unknown columns are ignored.
    """
    names, table = _read_columns(path, "data file", ["response"], ("x_", "a_"))
    x_cols = [nm for nm in names if nm.startswith("x_")]
    a_cols = names[1 + len(x_cols) :]
    if not x_cols and functional is None:
        raise ValueError(
            "no environmental covariates: need `x_` columns or a functional-history file"
        )
    y, X = table[:, 0], table[:, 1 : 1 + len(x_cols)]
    A = table[:, 1 + len(x_cols) :] if a_cols else None
    F = np.empty((y.size, 0))
    if functional is not None:
        F = _functional_design(functional, y.size, fourier_dim)
    meta = {
        "n": int(y.size),
        "x_columns": x_cols,
        "a_columns": a_cols,
        "functional_columns": F.shape[1],
    }
    return Dataset(y=y, X=np.hstack([X, F]), A=A), meta


def _functional_design(path: str, n: int, dim: int) -> np.ndarray:
    """Long-format `series_id,t,value` histories -> Fourier design columns.

    series_id i (0-based) attaches to data row i; every series must be
    sampled on the same time grid.
    """
    _, table = _read_columns(
        path, "functional file", ["series_id", "t", "value"], integer=("series_id",)
    )
    ids = table[:, 0].astype(int)
    if not np.array_equal(np.unique(ids), np.arange(n)):
        raise ValueError(
            f"functional series ids must be exactly 0..{n - 1} matching the data rows"
        )
    # each series' rows together, in file order
    order = np.argsort(ids, kind="stable")
    ends = np.cumsum(np.bincount(ids))[:-1]
    grids = np.split(table[order, 1], ends)
    base = grids[0]
    for i, g in enumerate(grids[1:], start=1):
        if not np.array_equal(g, base):
            raise ValueError(f"functional series {i} is not on the shared time grid")
    basis = FourierBasis(dim=dim, period=float(base[-1] - base[0]))
    return fourier_design(np.vstack(np.split(table[order, 2], ends)), base, basis)


# --- the jensen command ------------------------------------------------------------


def _parse_lambda_grid(text: str | None) -> tuple[float, ...]:
    if text is None:
        return default_lambda_grid()
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("lambda grid must look like LO:HI:COUNT, e.g. 1e-1:1e6:20")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("lambda grid must look like LO:HI:COUNT with numeric parts") from None
    if not (lo > 0 and hi >= lo and count >= 1):
        raise ValueError("lambda grid needs 0 < LO <= HI and COUNT >= 1")
    if count == 1 and hi != lo:
        raise ValueError(f"lambda grid {text!r} has one point, so it needs LO == HI")
    return default_lambda_grid(lo, hi, count)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_num(v: float) -> float | None:
    return float(v) if math.isfinite(v) else None


def _se_and_t(path, res) -> tuple[np.ndarray, np.ndarray]:
    """Per-lambda delta standard errors and t values, NaN where dropped."""
    se = np.sqrt(np.maximum(np.diag(res.sigma_delta), 0.0))
    t_full = np.full(len(path.grid), np.nan)
    t_full[list(res.kept)] = res.t
    return se, t_full


def _result_bundle(spec, path, res, meta) -> dict:
    se, t_full = _se_and_t(path, res)
    basis = path.selected_fit.basis
    per_lambda = [
        {
            "lambda": path.grid[k],
            "delta": float(res.deltas[k]),
            "se": float(se[k]),
            "t": _json_num(t_full[k]),
            "gcv": _json_num(path.gcv[k]),
            "converged": bool(path.fits[k].converged),
        }
        for k in range(len(path.grid))
    ]
    return {
        "model": {
            "family": spec.family,
            "p": spec.p,
            "q": spec.q,
            "extra_placement": spec.extra_placement,
            "basis": {
                "dim": basis.dim,
                "degree": basis.degree,
                "lo": basis.lo,
                "hi": basis.hi,
            },
            "lambda_grid": list(path.grid),
            "data": meta,
        },
        "direction": res.direction,
        "alpha": res.alpha,
        "seed": res.seed,
        "n_null_sims": res.n_null_sims,
        "per_lambda": per_lambda,
        "selected_lambda": path.grid[path.selected],
        "statistic": res.statistic,
        "critical_value": res.critical_value,
        "p_value": res.p_value,
        "p_value_mc_se": math.sqrt(res.p_value * (1.0 - res.p_value) / res.n_null_sims),
        "decision": "REJECT" if res.reject else "FAIL_TO_REJECT",
        "warnings": list(res.warnings) + list(path.warnings),
    }


def _sidecar_delta(path, res) -> str:
    se, t_full = _se_and_t(path, res)
    lines = ["log10_lambda,delta,se,t"]
    for k in range(len(path.grid)):
        lines.append(
            f"{_fmt(math.log10(path.grid[k]))},{_fmt(res.deltas[k])},"
            f"{_fmt(se[k])},{_fmt(t_full[k])}"
        )
    return "\n".join(lines) + "\n"


def _sidecar_ghat(path) -> str:
    sel = path.selected_fit
    E = sel.index_values
    s = np.linspace(float(E.min()), float(E.max()), GHAT_POINTS)
    ghat = basis_matrix(sel.basis, s) @ sel.coeffs.d
    hg = FAMILY_TABLE[sel.family].h(ghat)
    lines = ["s,ghat,hg"]
    for k in range(GHAT_POINTS):
        lines.append(f"{_fmt(s[k])},{_fmt(ghat[k])},{_fmt(hg[k])}")
    return "\n".join(lines) + "\n"


def cmd_jensen(args) -> int:
    family = FAMILY_FLAGS[args.family]
    direction = DIRECTION_FLAGS[args.direction] if args.direction else FAMILY_TABLE[family].direction
    if direction == "test_vs_linear_logistic" and family != "bernoulli_logit":
        raise ValueError(
            "the vs-linear comparison is defined only for the logit family "
            "(it contrasts the smoothed fit with a linear logistic model)"
        )
    _check_test_options(args.alpha, args.null_sims, args.seed)
    data, meta = read_dataset(args.data, args.functional, args.fourier_dim)
    q = 0 if data.A is None else data.A.shape[1]
    spec = ModelSpec(
        family=family,
        p=data.X.shape[1],
        q=q,
        extra_placement=PLACEMENT_FLAGS[args.extra_placement],
        lambda_grid=_parse_lambda_grid(args.lambda_grid),
        basis_dim=args.basis_dim,
        basis_degree=args.degree,
    )
    path = fit_path(spec, data)
    if not any(f.converged for f in path.fits):
        raise NumericalError("no fit on the lambda grid converged")
    if direction == "test_vs_linear_logistic":
        ref = linear_logistic_reference(data)
        res = alternative_null_test(
            path, ref, alpha=args.alpha, seed=args.seed, n_sims=args.null_sims
        )
    else:
        res = jensen_test(
            path, direction=direction, alpha=args.alpha, seed=args.seed, n_sims=args.null_sims
        )
    os.makedirs(args.out, exist_ok=True)
    bundle = _result_bundle(spec, path, res, meta)
    _write_text(
        os.path.join(args.out, "result.json"), json.dumps(bundle, indent=2) + "\n"
    )
    _write_text(os.path.join(args.out, "delta_vs_lambda.csv"), _sidecar_delta(path, res))
    _write_text(os.path.join(args.out, "ghat.csv"), _sidecar_ghat(path))
    print(
        f"family={spec.family} direction={res.direction} "
        f"statistic={res.statistic:.6g} critical_value={res.critical_value:.6g} "
        f"p_value={res.p_value:.6g} decision={bundle['decision']}"
    )
    return 0


# --- the power command ---------------------------------------------------------------


def _parse_list(text: str, kind, flag: str):
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of numbers") from None


def cmd_power(args) -> int:
    ns = _parse_list(args.n, int, "--n")
    params = _parse_list(args.param, float, "--param") if args.param else [None]
    if not ns:
        raise ValueError("--n must name at least one sample size")
    if not params:
        raise ValueError("--param must name at least one value")
    configs = [
        ScenarioConfig(
            scenario=args.scenario,
            n=n,
            param=param,
            n_replicates=args.replicates,
            seed=args.seed,
        )
        for n in ns
        for param in params
    ]
    table = power_study(configs, alpha=args.alpha, threads=args.threads)
    _write_text(args.out, table.to_csv())
    count = len(table.rows)
    print(f"wrote {count} row{'s' if count != 1 else ''} to {args.out}")
    return 0


# --- entry point -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jenseneffect",
        description="Penalized single-index fits and smoothing-path tests "
        "for the Jensen effect of covariate variability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pj = sub.add_parser("jensen", help="fit one dataset and test the Jensen effect")
    pj.add_argument("--family", required=True, choices=sorted(FAMILY_FLAGS))
    pj.add_argument("--data", required=True, help="CSV with response, x_*, a_* columns")
    pj.add_argument(
        "--direction",
        choices=sorted(DIRECTION_FLAGS),
        default=None,
        help="default: the family's natural direction",
    )
    pj.add_argument("--alpha", type=float, default=0.05)
    pj.add_argument("--lambda-grid", metavar="LO:HI:COUNT", help="default: default_lambda_grid()")
    pj.add_argument("--basis-dim", type=int, default=25)
    pj.add_argument("--degree", type=int, default=5)
    pj.add_argument("--null-sims", type=int, default=5000)
    pj.add_argument("--seed", type=int, default=0)
    pj.add_argument(
        "--extra-placement", choices=sorted(PLACEMENT_FLAGS), default="inside"
    )
    pj.add_argument("--functional", default=None, help="long CSV series_id,t,value")
    pj.add_argument("--fourier-dim", type=int, default=15)
    pj.add_argument("--threads", type=int, default=1, help="accepted for symmetry; single-dataset runs are serial")
    pj.add_argument("--out", default=".", help="directory for result.json and sidecars")
    pj.set_defaults(func=cmd_jensen)

    pp = sub.add_parser("power", help="run simulation cells and tabulate rejection rates")
    pp.add_argument("--scenario", required=True)
    pp.add_argument("--n", default="1000", help="comma-separated sample sizes")
    pp.add_argument("--param", default=None, help="comma-separated sigma or a values")
    pp.add_argument("--replicates", type=int, default=50)
    pp.add_argument("--alpha", type=float, default=0.05)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes for the replicates, the calling one included, capped at the "
        "usable CPUs; the table is identical for any value",
    )
    pp.add_argument("--out", default="power.csv")
    pp.set_defaults(func=cmd_power)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be positive", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
