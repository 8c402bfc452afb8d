"""Fixtures and dense oracles shared across the test modules."""

import json
from pathlib import Path

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


def write_x_then_q_file(ds, path):
    """Write ds as files were written while they held X: X then Q, and a
    sidecar with n, d, seed, layout and b beside the labels and a config
    that holds each mean as its d-long list."""
    with open(path, "wb") as fh:
        fh.write(ds.X.astype("<f8").tobytes() + ds.Q.astype("<f8").tobytes())
    cfg = ds.config
    sidecar = {"n": cfg.n, "d": cfg.d, "seed": cfg.seed,
               "layout": "X then Q, row-major, little-endian float64",
               "y": [int(v) for v in ds.y], "a": [int(v) for v in ds.a],
               "b": [int(v) for v in ds.b],
               "config": {**cfg.to_dict(), "mu_core": cfg.mu_core.tolist(),
                          "mu_spur": cfg.mu_spur.tolist()}}
    Path(path + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")
