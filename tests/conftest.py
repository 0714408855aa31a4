"""Session set-up shared by every test module."""

import pytest

from exval import bench


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Pin numpy's BLAS to one thread before the first test, as runs and
    evaluations do, so no in-process EmuQ result depends on which test
    happened to call ``run_experiment`` first."""
    bench.pin_blas_threads()
