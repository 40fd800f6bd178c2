"""Command-line layer checks: ingestion, exit codes, emitted files,
run-to-run byte determinism, and smoke tests of the console script: its
declared entry point run from the source tree, and the installed wrapper
wherever it is on PATH."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import jenseneffect
from jenseneffect.cli import main, read_dataset
from jenseneffect.errors import NumericalError
from jenseneffect.model import default_lambda_grid


def _fmt_row(vals):
    return ",".join(f"{v:.17g}" for v in vals)


def write_gaussian_csv(path, n=300, seed=11):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 0.5, size=(n, 5))
    s = X @ (np.ones(5) / np.sqrt(5))
    y = np.sqrt(s) * np.exp(0.01 * rng.standard_normal(n))
    lines = ["response,x_1,x_2,x_3,x_4,x_5"]
    for i in range(n):
        lines.append(_fmt_row([y[i], *X[i]]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_logit_csv(path, n=250, seed=21):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 3))
    a = rng.normal(0.0, 0.5, size=n)
    eta = -0.5 + X @ np.array([1.2, 0.6, 0.3]) + 0.5 * a
    y = rng.binomial(1, expit(eta)).astype(float)
    lines = ["response,x_1,x_2,x_3,a_size"]
    for i in range(n):
        lines.append(_fmt_row([y[i], *X[i], a[i]]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def gaussian_csv(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "sqrt.csv"
    write_gaussian_csv(p)
    return p


# --- jensen command -----------------------------------------------------------


@pytest.fixture(scope="module")
def jensen_run(tmp_path_factory, gaussian_csv):
    out = tmp_path_factory.mktemp("out")
    argv = [
        "jensen",
        "--family",
        "gaussian-log",
        "--data",
        str(gaussian_csv),
        "--direction",
        "neg",
        "--seed",
        "3",
        "--out",
        str(out),
    ]
    return argv, out


def test_jensen_end_to_end(jensen_run, capsys):
    argv, out = jensen_run
    assert main(argv) == 0
    line = capsys.readouterr().out.strip()
    for label in (
        "family=",
        "direction=",
        "statistic=",
        "critical_value=",
        "p_value=",
        "decision=",
    ):
        assert label in line
    assert "\n" not in line
    assert "decision=REJECT" in line  # strongly concave truth at tiny noise
    bundle = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert bundle["model"]["family"] == "gaussian_log"
    assert bundle["model"]["p"] == 5
    assert bundle["direction"] == "test_negative"
    assert len(bundle["per_lambda"]) == 20
    assert bundle["selected_lambda"] in bundle["model"]["lambda_grid"]
    assert 0.0 <= bundle["p_value"] <= 1.0
    assert bundle["decision"] == "REJECT"
    delta_lines = (out / "delta_vs_lambda.csv").read_text(encoding="utf-8").splitlines()
    assert delta_lines[0] == "log10_lambda,delta,se,t"
    assert len(delta_lines) == 21
    ghat_lines = (out / "ghat.csv").read_text(encoding="utf-8").splitlines()
    assert ghat_lines[0] == "s,ghat,hg"
    assert len(ghat_lines) == 201
    # full-precision round trip of a sidecar row
    row = delta_lines[3].split(",")
    assert all(np.isfinite(float(c)) or np.isnan(float(c)) for c in row)


def test_jensen_rerun_byte_identical(jensen_run, tmp_path, capsys):
    argv, out = jensen_run
    argv2 = list(argv)
    argv2[argv2.index(str(out))] = str(tmp_path / "again")
    argv2 += ["--threads", "3"]
    assert main(argv2) == 0
    capsys.readouterr()
    for name in ("result.json", "delta_vs_lambda.csv", "ghat.csv"):
        a = (out / name).read_bytes()
        b = (tmp_path / "again" / name).read_bytes()
        assert a == b, name


def test_jensen_default_grid_is_library_default(jensen_run, tmp_path, capsys):
    argv, out = jensen_run
    assert "--lambda-grid" not in argv
    argv2 = list(argv)
    argv2[argv2.index(str(out))] = str(tmp_path)
    assert main(argv2) == 0
    capsys.readouterr()
    bundle = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert bundle["model"]["lambda_grid"] == list(default_lambda_grid())


def test_jensen_reports_a_fit_warning_once(tmp_path, capsys):
    # every fit of a 20-row path has fewer observations than basis functions
    data = tmp_path / "small.csv"
    write_gaussian_csv(data, n=20)
    out = tmp_path / "out"
    assert main(["jensen", "--family", "gaussian-log", "--data", str(data), "--out", str(out)]) == 0
    bundle = json.loads((out / "result.json").read_text(encoding="utf-8"))
    note = "rank-deficient link system: n=20 observations for 25 basis functions"
    assert bundle["warnings"].count(note) == 1


def test_jensen_reports_a_gcv_choice_at_the_grid_edge(jensen_run, tmp_path, capsys):
    # on this low-noise gaussian path GCV selects the roughest fit, lambda = 0.1
    argv, out = jensen_run
    argv2 = list(argv)
    argv2[argv2.index(str(out))] = str(tmp_path)
    assert main(argv2) == 0
    bundle = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert bundle["selected_lambda"] == bundle["model"]["lambda_grid"][0]
    note = "lambda=0.1: GCV selects the first grid point; its optimum may lie beyond the grid"
    assert bundle["warnings"].count(note) == 1


def test_jensen_reports_the_p_value_mc_se(tmp_path, capsys):
    data = tmp_path / "logit.csv"
    write_logit_csv(data)
    out = tmp_path / "out"
    argv = ["jensen", "--family", "logit", "--data", str(data), "--null-sims", "2000",
            "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    bundle = json.loads((out / "result.json").read_text(encoding="utf-8"))
    p = bundle["p_value"]
    assert 0.0 < p < 1.0 and bundle["n_null_sims"] == 2000
    assert bundle["p_value_mc_se"] == math.sqrt(p * (1.0 - p) / 2000)


def test_jensen_empty_file_exit2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    rc = main(["jensen", "--family", "poisson", "--data", str(empty)])
    assert rc == 2
    assert "response" in capsys.readouterr().err


def test_jensen_missing_cell_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "response,x_1\n1.0,0.2\n,0.3\n2.0,NA\n1.5,0.4\n", encoding="utf-8"
    )
    rc = main(["jensen", "--family", "gaussian-log", "--data", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "line 4" in err


def test_jensen_ragged_row_exit2(tmp_path, capsys):
    bad = tmp_path / "ragged.csv"
    bad.write_text("response,x_1,x_2\n1.0,0.2,0.3\n1.0,0.2\n", encoding="utf-8")
    rc = main(["jensen", "--family", "gaussian-log", "--data", str(bad)])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


def test_jensen_non_finite_cell_exit2(tmp_path, capsys):
    bad = tmp_path / "inf.csv"
    bad.write_text("response,x_1\n1.0,0.2\n2.0,inf\n1.5,0.4\n", encoding="utf-8")
    rc = main(["jensen", "--family", "gaussian-log", "--data", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "rows rejected: line 3: non-finite value 'inf' in column 'x_1'" in err


def test_jensen_vs_linear_non_logit_exit2(gaussian_csv, capsys):
    rc = main(
        [
            "jensen",
            "--family",
            "gaussian-log",
            "--data",
            str(gaussian_csv),
            "--direction",
            "vs-linear",
        ]
    )
    assert rc == 2
    assert "logit" in capsys.readouterr().err


def test_jensen_bad_lambda_grid_exit2(gaussian_csv, capsys):
    for grid in ("1e-4:1e6", "0:1:5", "1:2:zero", "1:100:1"):
        rc = main(
            [
                "jensen",
                "--family",
                "gaussian-log",
                "--data",
                str(gaussian_csv),
                "--lambda-grid",
                grid,
            ]
        )
        assert rc == 2, grid
    assert "'1:100:1' has one point" in capsys.readouterr().err


def test_jensen_unknown_family_usage_error(gaussian_csv):
    with pytest.raises(SystemExit) as exc:
        main(["jensen", "--family", "tweedie", "--data", str(gaussian_csv)])
    assert exc.value.code == 2


def test_jensen_numerical_failure_exit3(gaussian_csv, tmp_path, monkeypatch, capsys):
    import jenseneffect.cli as cli

    def boom(*a, **kw):
        raise NumericalError("no fit on the lambda grid converged")

    monkeypatch.setattr(cli, "fit_path", boom)
    rc = main(
        [
            "jensen",
            "--family",
            "gaussian-log",
            "--data",
            str(gaussian_csv),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--alpha", "0.7"], "alpha"),
        (["--null-sims", "0"], "n_sims"),
        (["--seed", "-1"], "seed must be non-negative"),
    ],
)
def test_jensen_bad_test_option_exit2_before_fitting(
    gaussian_csv, tmp_path, monkeypatch, capsys, flags, message
):
    import jenseneffect.cli as cli

    def unreachable(*a, **kw):
        pytest.fail("fit_path ran before the test options were checked")

    monkeypatch.setattr(cli, "fit_path", unreachable)
    argv = ["jensen", "--family", "gaussian-log", "--data", str(gaussian_csv)]
    assert main(argv + flags + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_jensen_vs_linear_logit_end_to_end(tmp_path, capsys):
    data = tmp_path / "logit.csv"
    write_logit_csv(data)
    out = tmp_path / "res"
    rc = main(
        [
            "jensen",
            "--family",
            "logit",
            "--data",
            str(data),
            "--direction",
            "vs-linear",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert "direction=test_vs_linear_logistic" in line
    bundle = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert bundle["model"]["q"] == 1
    assert bundle["decision"] in ("REJECT", "FAIL_TO_REJECT")


# --- functional histories -------------------------------------------------------


def _write_functional_pair(tmp_path, n=260, T=40, seed=9, build_response=True):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, T)
    coef = rng.normal(size=(n, 3))
    H = (
        coef[:, :1]
        + coef[:, 1:2] * np.sin(2 * np.pi * t)[None, :]
        + coef[:, 2:3] * np.cos(2 * np.pi * t)[None, :]
    )
    flines = ["series_id,t,value"]
    for i in range(n):
        for k in range(T):
            flines.append(f"{i},{t[k]:.17g},{H[i, k]:.17g}")
    fpath = tmp_path / "hist.csv"
    fpath.write_text("\n".join(flines) + "\n", encoding="utf-8")
    stub = tmp_path / "main.csv"
    stub.write_text(
        "response\n" + "\n".join("1.0" for _ in range(n)) + "\n", encoding="utf-8"
    )
    if build_response:
        # response from a linear functional of the histories, on the log scale
        ds, _ = read_dataset(str(stub), functional=str(fpath))
        w = rng.normal(size=ds.X.shape[1])
        s = ds.X @ (w / np.linalg.norm(w))
        y = np.exp(0.3 * s + 0.02 * rng.standard_normal(n))
        stub.write_text(
            "response\n" + "\n".join(f"{v:.17g}" for v in y) + "\n", encoding="utf-8"
        )
    return stub, fpath


def test_functional_ingestion_shapes(tmp_path):
    stub, fpath = _write_functional_pair(tmp_path, n=8, T=40)
    ds, meta = read_dataset(str(stub), functional=str(fpath))
    assert ds.X.shape == (8, 15)
    assert meta["functional_columns"] == 15
    assert meta["x_columns"] == []


def test_functional_ingestion_wrong_ids(tmp_path):
    stub, fpath = _write_functional_pair(tmp_path, n=4, T=40)
    text = fpath.read_text(encoding="utf-8").replace("\n3,", "\n9,")
    f2 = tmp_path / "badids.csv"
    f2.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="0..3"):
        read_dataset(str(stub), functional=str(f2))


def test_functional_ingestion_under_resolved(tmp_path):
    stub, fpath = _write_functional_pair(tmp_path, n=4, T=12, build_response=False)
    with pytest.raises(ValueError, match="under-resolved"):
        read_dataset(str(stub), functional=str(fpath))


def test_functional_ingestion_mismatched_grid(tmp_path):
    stub, fpath = _write_functional_pair(tmp_path, n=4, T=40)
    lines = fpath.read_text(encoding="utf-8").splitlines()
    rows = [lines[0]] + [
        (r.replace("2,0,", "2,-0.5,", 1) if r.startswith("2,0,") else r)
        for r in lines[1:]
    ]
    f4 = tmp_path / "skewed.csv"
    f4.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="shared time grid"):
        read_dataset(str(stub), functional=str(f4))


@pytest.mark.parametrize(
    "lines,edit",
    [
        ((5,), lambda c: [c[0], c[1], ""]),
        ((7,), lambda c: [c[0], "noon", c[2]]),
        ((9,), lambda c: c[:2]),
        ((11,), lambda c: c + ["0.5"]),
        ((13,), lambda c: [c[0], c[1], "inf"]),
        ((20, 30), lambda c: ["1.5", c[1], c[2]]),
    ],
    ids=["empty-value", "unparseable-t", "short-row", "extra-cell", "inf-value", "non-integer-ids"],
)
def test_functional_malformed_history_exit2(tmp_path, capsys, lines, edit):
    stub, fpath = _write_functional_pair(tmp_path, n=4, T=40, build_response=False)
    rows = fpath.read_text(encoding="utf-8").splitlines()
    for k in lines:
        rows[k - 1] = ",".join(edit(rows[k - 1].split(",")))
    fpath.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = ["jensen", "--family", "gaussian-log", "--data", str(stub), "--functional", str(fpath)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "rows rejected" in err
    assert err.count("line ") == len(lines) and all(f"line {k}:" in err for k in lines)


def test_functional_end_to_end(tmp_path, capsys):
    stub, fpath = _write_functional_pair(tmp_path)
    out = tmp_path / "fres"
    rc = main(
        [
            "jensen",
            "--family",
            "gaussian-log",
            "--data",
            str(stub),
            "--functional",
            str(fpath),
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    bundle = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert bundle["model"]["p"] == 15
    assert bundle["model"]["data"]["functional_columns"] == 15


def test_jensen_reads_csvs_with_a_byte_order_mark(tmp_path, capsys):
    # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark
    stub, fpath = _write_functional_pair(tmp_path, n=120)
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        data, hist = tmp_path / f"data{len(bom)}.csv", tmp_path / f"hist{len(bom)}.csv"
        data.write_bytes(bom + stub.read_bytes())
        hist.write_bytes(bom + fpath.read_bytes())
        out = tmp_path / f"out{len(bom)}"
        argv = [
            "jensen",
            "--family",
            "gaussian-log",
            "--data",
            str(data),
            "--functional",
            str(hist),
            "--lambda-grid",
            "1:1000:4",
            "--out",
            str(out),
        ]
        assert main(argv) == 0, capsys.readouterr().err
        results.append((out / "result.json").read_bytes())
    assert results[0] == results[1]


# --- power command ----------------------------------------------------------------


def test_power_end_to_end(tmp_path, capsys):
    out = tmp_path / "power.csv"
    argv = [
        "power",
        "--scenario",
        "gauss-sqrt",
        "--n",
        "150",
        "--replicates",
        "2",
        "--seed",
        "4",
        "--out",
        str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    text = out.read_bytes()
    lines = text.decode("utf-8").splitlines()
    assert lines[0] == "scenario,n,param,rejection_rate,true_delta,replicates"
    assert len(lines) == 2
    assert lines[1].startswith("gauss-sqrt,150,")
    # byte-identical rerun, and independent of thread count
    out2 = tmp_path / "power2.csv"
    argv2 = list(argv)
    argv2[argv2.index(str(out))] = str(out2)
    argv2 += ["--threads", "2"]
    assert main(argv2) == 0
    capsys.readouterr()
    assert out2.read_bytes() == text


def test_power_replicates_zero_exit2(tmp_path, capsys):
    rc = main(
        ["power", "--scenario", "gauss-sqrt", "--replicates", "0", "--out", str(tmp_path / "p.csv")]
    )
    assert rc == 2


def test_power_unknown_scenario_exit2(tmp_path, capsys):
    rc = main(
        ["power", "--scenario", "gauss-cubic", "--replicates", "1", "--out", str(tmp_path / "p.csv")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "gauss-exp" in err and "pois-logistic" in err


def test_power_exit3_when_every_replicate_fails(tmp_path, capsys, monkeypatch):
    def failing(config, replicate, alpha):
        raise NumericalError(f"injected at {replicate}")

    monkeypatch.setattr("jenseneffect.simlab._run_replicate", failing)
    out = tmp_path / "p.csv"
    argv = ["power", "--scenario", "gauss-sqrt", "--n", "150", "--replicates", "2", "--out", str(out)]
    with pytest.warns(RuntimeWarning, match="2 of 2 replicates failed"):
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "every replicate failed" in err
    assert not out.exists()


def test_power_bad_list_exit2(tmp_path, capsys):
    rc = main(
        [
            "power",
            "--scenario",
            "gauss-sqrt",
            "--n",
            "abc",
            "--replicates",
            "1",
            "--out",
            str(tmp_path / "p.csv"),
        ]
    )
    assert rc == 2


def test_power_empty_param_list_exit2(tmp_path, capsys):
    out = tmp_path / "p.csv"
    argv = ["power", "--scenario", "gauss-sqrt", "--n", "100", "--param", ",", "--out", str(out)]
    assert main(argv) == 2
    assert "--param must name at least one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--scenario", "gauss-sqrt", "--seed", "-1"], "seed must be non-negative"),
        # the plateau curve is exactly 0 at a = 1e300, the convex
        # probability curve 0 / 0 at a = 1e-300
        (["--scenario", "pois-logistic", "--param", "1e300"], "mean space"),
        (["--scenario", "logit-convex", "--param", "1e-300"], "mean space"),
        # exp(s / 0.01) overflows to an infinite mean
        (["--scenario", "pois-exp", "--param", "0.01"], "mean space"),
        # means * exp(400 z) overflows once |z| reaches about 1.8
        (["--scenario", "gauss-exp", "--param", "400"], "overflows the responses"),
    ],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_power_input_error_exit2_before_any_replicate(tmp_path, monkeypatch, capsys, flags, message):
    import jenseneffect.simlab as simlab

    def unreachable(*a, **kw):
        pytest.fail("a replicate ran before the cell was checked")

    monkeypatch.setattr(simlab, "_run_replicate", unreachable)
    out = tmp_path / "p.csv"
    argv = ["power", *flags, "--n", "100", "--replicates", "2", "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# --- console script ---------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[1]
SMOKE_ARGV = ["power", "--scenario", "gauss-sqrt", "--n", "120", "--replicates", "1"]


def _declared_entry_point(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"[project.scripts] declares no `{name}`"
    return scripts[name]


def test_console_script_smoke(tmp_path):
    """Run the declared entry point from the source tree the way the wrapper
    pip writes at install time runs it: sys.exit(<attr>()) with the CLI argv."""
    module, attr = _declared_entry_point("jenseneffect").split(":")
    pkg_parent = str(Path(jenseneffect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_parent] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    out = tmp_path / "smoke.csv"
    proc = subprocess.run(
        [sys.executable, "-c", code, *SMOKE_ARGV, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.skipif(
    shutil.which("jenseneffect") is None,
    reason="console script `jenseneffect` is not on PATH (package not installed)",
)
def test_installed_console_script_smoke(tmp_path):
    out = tmp_path / "smoke.csv"
    proc = subprocess.run(
        [shutil.which("jenseneffect"), *SMOKE_ARGV, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
