"""Randomized property tests: the scaling symmetry and the shell flux identity
on grids, fractional orders, model kinds and schemes drawn from one fixed
numpy generator (the cases are the same on every run)."""

import math

import numpy as np
import pytest
from conftest import kept_mask

from emhd1d.diagnostics import flux_decomposition
from emhd1d.lp import cutoffs_for, random_band_limited
from emhd1d.solver import ModelParams, StepperConfig, evolve, rhs, scaling_symmetry_mismatch
from emhd1d.spectral import GridSpec, SpectralField, derivative, frac_laplacian

RNG = np.random.default_rng(8_2026)
KINDS_SCHEMES = [(k, s) for k in ("full", "transport") for s in ("ifrk4", "etdrk4")]


def draw_case(kind: str, scheme: str) -> dict:
    return {
        "kind": kind,
        "scheme": scheme,
        "N": int(2 * RNG.integers(32, 513)),  # even N in [64, 1024]
        "L": float(RNG.uniform(1.0, 8.0)),
        "alpha": float(2.0 - RNG.uniform(0.0, 2.0)),  # (0, 2]
        "mu": float(RNG.uniform(0.0, 1.5)),
        "amp": float(RNG.uniform(0.05, 1.0)),  # sup|B| of the datum
        "seed": int(RNG.integers(2**32)),
    }


SYMMETRY_CASES = [
    dict(draw_case(k, s), lam=float(RNG.uniform(0.5, 3.0))) for k, s in KINDS_SCHEMES * 3
]
# the identity is the full model's: its quadratic term is (B Lambda B)_x - 2 Lambda B B_x
FLUX_CASES = [
    dict(draw_case("full", s), s=float(RNG.uniform(-0.5, 2.0))) for s in ("ifrk4", "etdrk4") * 6
]


def case_id(case: dict) -> str:
    return f"{case['kind']}-{case['scheme']}-N{case['N']}-a{case['alpha']:.2f}"


def datum(grid: GridSpec, case: dict) -> SpectralField:
    """Random field on the whole dealiased band, scaled to sup|B| = amp."""
    rng = np.random.default_rng(case["seed"])
    k_max = int(np.count_nonzero(kept_mask(grid))) - 1
    f = random_band_limited(grid, rng, k_max=k_max, decay=float(rng.uniform(0.02, 0.3)))
    return SpectralField.from_coef(grid, f.coef * (case["amp"] / f.linf_norm()))


def stable_dt(B: SpectralField, params: ModelParams) -> float:
    """Half the smallest of evolve's adaptive bounds at B: dx / sup|Lambda B|,
    1 / sup|Lambda B_x| and, on the full model, the dispersive bound
    2 / (sup|B| xi_max^2), which a fixed dt = 1e-3 exceeds on fine grids."""
    g = B.grid
    bound = min(
        g.dx / frac_laplacian(B, 1.0).linf_norm(),
        1.0 / frac_laplacian(derivative(B), 1.0).linf_norm(),
    )
    if params.kind == "full":
        bound = min(bound, 2.0 / (B.linf_norm() * g.xi_max_dealiased**2))
    return 0.5 * bound


@pytest.mark.parametrize("case", SYMMETRY_CASES, ids=case_id)
def test_scaling_symmetry(case):
    params = ModelParams(kind=case["kind"], mu=case["mu"], alpha=case["alpha"])
    grid = GridSpec(case["L"], case["N"])
    B = datum(grid, case)
    lam = case["lam"]
    # dt is bounded on run B's contracted grid; run A's lam^alpha dt stands
    # in the same ratio to its own bounds
    grid_b = GridSpec(case["L"] / lam, case["N"])
    B_b = SpectralField.from_phys(grid_b, lam ** (case["alpha"] - 2.0) * B.phys)
    dt = stable_dt(B_b, params)
    t_end = min(0.02, 40 * dt)
    n_steps = math.ceil(t_end / dt)
    rel = scaling_symmetry_mismatch(B, params, lam, t_end, n_steps, case["scheme"])
    assert math.isfinite(rel)
    assert rel <= 1e-6


@pytest.mark.parametrize("case", FLUX_CASES, ids=case_id)
def test_flux_identity(case):
    """production + mu D + I + 2K = 0 at a state the full model's stepper
    made, relative to |I| + |K| + mu D."""
    params = ModelParams(kind="full", mu=case["mu"], alpha=case["alpha"])
    grid = GridSpec(case["L"], case["N"])
    B0 = datum(grid, case)
    dt = stable_dt(B0, params)
    cfg = StepperConfig(scheme=case["scheme"], dt_init=dt, t_end=5 * dt, adaptive=False)
    B = evolve(B0, params, cfg).final
    s = case["s"]
    cut = cutoffs_for(grid)
    fd = flux_decomposition(B, s, params)
    r = rhs(B, params).coef
    production = sum(
        (2.0**q) ** (2.0 * s) * grid.inner(cut.weight(q) ** 2 * r, B.coef) for q in cut.shells()
    )
    scale = abs(fd.I) + abs(fd.K) + fd.dissipation
    defect = abs(production + fd.dissipation + fd.I + 2.0 * fd.K) / scale
    assert math.isfinite(defect)
    assert defect <= 1e-12
