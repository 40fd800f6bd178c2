"""The benchmark's tracer (`perfbench/tracing.py`) wraps package attributes
by name and reads a few of their signatures and fields. These checks load
the tracer as it is and catch a renamed or deleted target in seconds, where
the benchmark's own smoke test takes minutes."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

from jenseneffect.jensen import linear_logistic_reference
from jenseneffect.model import FitResult

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    targets = _tracing().TARGETS
    assert targets
    missing = [
        f"jenseneffect.{mod}.{attr}"
        for mod, attr, _, _ in targets
        if not hasattr(importlib.import_module(f"jenseneffect.{mod}"), attr)
    ]
    assert missing == []


def test_fit_result_carries_the_traced_restart_count():
    assert "n_restarts_used" in {f.name for f in dataclasses.fields(FitResult)}


def test_linear_logistic_reference_takes_a_second_positional_argument():
    # the benchmark's workloads call linear_logistic_reference(data, path)
    params = list(inspect.signature(linear_logistic_reference).parameters.values())
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    assert len(params) >= 2 and params[1].kind in positional
