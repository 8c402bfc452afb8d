"""Fixtures and dense oracles shared across the test modules."""

import numpy as np
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


def dense_means(config):
    """(mu_bar_c, mu_bar_s): the config's means embedded in R^d as
    [mu_core; 0] and [0; mu_spur], for dense oracles; group b's class-(+1)
    mean is mu_bar_c + b * mu_bar_s."""
    mu_bar_c = np.concatenate([config.mu_core, np.zeros(config.d_spur)])
    mu_bar_s = np.concatenate([np.zeros(config.d_core), config.mu_spur])
    return mu_bar_c, mu_bar_s
