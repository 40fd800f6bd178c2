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


def _parse_cell(cell: str, line_no: int, col: str) -> float:
    text = cell.strip()
    if text.lower() in MISSING_TOKENS:
        raise _RowProblem(line_no, f"missing value in column {col!r}")
    try:
        return float(text)
    except ValueError:
        raise _RowProblem(line_no, f"unparseable value {text!r} in column {col!r}") from None


class _RowProblem(Exception):
    def __init__(self, line_no: int, what: str):
        super().__init__(f"line {line_no}: {what}")
        self.line_no = line_no


def read_dataset(
    path: str, functional: str | None = None, fourier_dim: int = 15
) -> tuple[Dataset, dict]:
    """Read a CSV with a `response` column, `x_` covariates, `a_` extras.

    Rows with missing or unparseable cells in used columns are rejected: the
    reader raises with their line numbers. Unknown columns are ignored.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(
                f"data file {path!r} is empty: expected a header with a `response` column"
            ) from None
        if "response" not in header:
            raise ValueError(f"data file {path!r} has no `response` column")
        resp_idx = header.index("response")
        x_cols = [(i, name) for i, name in enumerate(header) if name.startswith("x_")]
        a_cols = [(i, name) for i, name in enumerate(header) if name.startswith("a_")]
        if not x_cols and functional is None:
            raise ValueError(
                "no environmental covariates: need `x_` columns or a functional-history file"
            )
        y_vals: list[float] = []
        x_rows: list[list[float]] = []
        a_rows: list[list[float]] = []
        problems: list[str] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                problems.append(f"line {line_no}: expected {len(header)} cells, found {len(row)}")
                continue
            try:
                yv = _parse_cell(row[resp_idx], line_no, "response")
                xv = [_parse_cell(row[i], line_no, nm) for i, nm in x_cols]
                av = [_parse_cell(row[i], line_no, nm) for i, nm in a_cols]
            except _RowProblem as bad:
                problems.append(str(bad))
                continue
            y_vals.append(yv)
            x_rows.append(xv)
            a_rows.append(av)
    if problems:
        shown = "; ".join(problems[:20])
        more = f" (and {len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValueError(f"rows rejected: {shown}{more}")
    if not y_vals:
        raise ValueError(f"data file {path!r} contains a header but no data rows")
    y = np.array(y_vals)
    X = np.array(x_rows) if x_cols else np.empty((y.size, 0))
    A = np.array(a_rows) if a_cols else None
    n_functional = 0
    if functional is not None:
        F = _functional_design(functional, y.size, fourier_dim)
        n_functional = F.shape[1]
        X = np.hstack([X, F])
    meta = {
        "n": int(y.size),
        "x_columns": [nm for _, nm in x_cols],
        "a_columns": [nm for _, nm in a_cols],
        "functional_columns": n_functional,
    }
    return Dataset(y=y, X=X, A=A), meta


def _functional_design(path: str, n: int, dim: int) -> np.ndarray:
    """Long-format `series_id,t,value` histories -> Fourier design columns.

    series_id i (0-based) attaches to data row i; every series must be
    sampled on the same time grid.
    """
    series: dict[int, tuple[list[float], list[float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        needed = {"series_id", "t", "value"}
        if reader.fieldnames is None or not needed <= set(reader.fieldnames):
            raise ValueError(
                f"functional file {path!r} must have columns series_id,t,value"
            )
        for line_no, rec in enumerate(reader, start=2):
            try:
                sid = int(rec["series_id"])
            except (TypeError, ValueError):
                raise ValueError(
                    f"functional file line {line_no}: series_id must be an integer"
                ) from None
            t = _parse_cell(rec["t"] or "", line_no, "t")
            v = _parse_cell(rec["value"] or "", line_no, "value")
            ts, vs = series.setdefault(sid, ([], []))
            ts.append(t)
            vs.append(v)
    if sorted(series) != list(range(n)):
        raise ValueError(
            f"functional series ids must be exactly 0..{n - 1} matching the data rows"
        )
    grids = [np.array(series[i][0]) for i in range(n)]
    histories = [np.array(series[i][1]) for i in range(n)]
    base = grids[0]
    for i, g in enumerate(grids[1:], start=1):
        if not np.array_equal(g, base):
            raise ValueError(f"functional series {i} is not on the shared time grid")
    basis = FourierBasis(dim=dim, period=float(base[-1] - base[0]))
    return fourier_design(np.vstack(histories), base, basis)


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
