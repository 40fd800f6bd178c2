import multiprocessing

import numpy as np
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
