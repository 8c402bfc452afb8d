"""Fixtures shared across the test modules."""

import pytest

from grouprisk.model import _blas_thread_controls


@pytest.fixture
def blas_controls():
    """The loaded OpenBLAS thread controls, each set to 2 for the test."""
    controls = _blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found")
    saved = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(2)
    yield controls
    for (_, setter), count in zip(controls, saved):
        setter(count)
