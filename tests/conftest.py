"""Fixtures shared by the test modules."""

import pytest

from csa_mimo import signals


@pytest.fixture
def blas_threads():
    """A reader of the thread count of every OpenBLAS ``one_blas_thread`` controls.

    Each count is set to 2 for the test, so that a pin to one thread shows, and put
    back afterwards.  Skips the test where no OpenBLAS is found.
    """
    controls = signals._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    saved = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    yield lambda: [get() for get, _ in controls]
    for (_, set_threads), count in zip(controls, saved):
        set_threads(count)
