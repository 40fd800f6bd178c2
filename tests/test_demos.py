"""Smoke test: every script in demos/ runs to completion.

Each demo runs in a fresh interpreter whose PYTHONPATH starts with the
directory holding the `jenseneffect` package this suite imported, so the
demos exercise the same source tree as the tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jenseneffect

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    pkg_parent = str(Path(jenseneffect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_parent] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
