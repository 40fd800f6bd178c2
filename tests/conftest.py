import multiprocessing
import os

# one BLAS thread, as the benchmark runs: the acceptance power studies fork
# workers that would otherwise compete for the cores with their BLAS threads;
# set before numpy is first imported, which is when OpenBLAS reads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Fail a test that leaves a multiprocessing child alive (and stop it)."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    if left:
        pytest.fail(f"test left {len(left)} child process(es) running: {left}")
