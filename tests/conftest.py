"""Fixtures shared by the test modules."""

import tracemalloc

import numpy as np
import pytest

from emhd1d.diagnostics import rough_datum
from emhd1d.solver import ModelParams, StepperConfig, evolve
from emhd1d.spectral import GridSpec


@pytest.fixture
def smoothing_run():
    """Factory for the smoothing-rate runs: a fixed-dt (2e-5) full-model run
    to t = 1.1e-2 from the seed-0 rough datum, snapshotting densely enough to
    resolve the [1e-3, 1e-2] fit window.  ``norm`` is the datum's H^s_base
    norm: at 1e-10 the quadratic term is 1e-10 of the linear one, and the
    run is the linear semigroup's to the fit's digits."""

    def make(grid, mu, alpha, s_base, norm=0.05):
        B0 = rough_datum(grid, s_base, norm=norm)
        params = ModelParams(kind="full", mu=mu, alpha=alpha)
        cfg = StepperConfig(dt_init=2e-5, t_end=1.1e-2, adaptive=False, snapshot_cadence=5)
        return evolve(B0, params, cfg)

    return make


@pytest.fixture
def dense_rough_run():
    """Factory for the fixed-dt run whose snapshot table the memory tests
    weigh: full model, mu = 1, alpha = 1.5 on L = pi, N = 512, from the
    seed-1 rough H^1 datum, dt = 2e-5 to t = 8e-3 with a snapshot every
    step, so 401 rows of 257 modes, a 1.65 MB table."""

    def make():
        B0 = rough_datum(GridSpec(np.pi, 512), 1.0, seed=1)
        cfg = StepperConfig(dt_init=2e-5, t_end=8e-3, adaptive=False, snapshot_cadence=1)
        return evolve(B0, ModelParams(kind="full", mu=1.0, alpha=1.5), cfg)

    return make


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn`` twice and returns the second call's
    result and the peak bytes allocated during it, numpy's arrays included
    (numpy reports them to ``tracemalloc``).  The first call is a warm-up:
    the lazy imports and cached operator tables of a first call are not the
    call's own memory."""

    def measure(fn):
        fn()
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
