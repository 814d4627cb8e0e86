"""Fixtures shared by the test modules."""

import pytest

from emhd1d.diagnostics import rough_datum
from emhd1d.solver import ModelParams, StepperConfig, evolve


@pytest.fixture
def smoothing_run():
    """Factory for the smoothing-rate runs: a fixed-dt (2e-5) full-model run
    to t = 1.1e-2 from the seed-0 rough datum, snapshotting densely enough to
    resolve the [1e-3, 1e-2] fit window."""

    def make(grid, mu, alpha, s_base, nonlinearity=True):
        B0 = rough_datum(grid, s_base)
        params = ModelParams(kind="full", mu=mu, alpha=alpha, nonlinearity=nonlinearity)
        cfg = StepperConfig(dt_init=2e-5, t_end=1.1e-2, adaptive=False, snapshot_cadence=5)
        return evolve(B0, params, cfg)

    return make
