"""Acceptance gate: the eight headline checks, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import time

import numpy as np
import pytest

from emhd1d.blowup import (
    advect_trajectory,
    make_reference_datum,
    measure_blowup_time,
    pv_blowup_coefficient,
    riccati_invariant_report,
    run_blowup,
)
from emhd1d.cli import EXIT_OK, cmd_selftest
from emhd1d.diagnostics import (
    flux_defect_ratio,
    make_smoothing_run,
    rough_datum,
    smoothing_rate_fit,
    smoothing_rate_fit_semigroup,
)
from emhd1d.lp import bernstein_check, commutator_check
from emhd1d.solver import ModelParams, StepperConfig, evolve, picard_solve, scaling_symmetry_mismatch
from emhd1d.spectral import GridSpec, SpectralField, remove_mean

# roundoff floor for the refinement comparison: a defect already at machine
# precision on the coarse grid cannot shrink further under refinement
DEFECT_FLOOR = 1e-9


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def blowup_fine():
    grid = GridSpec(6.0, 4096)
    run, d = run_blowup(grid)
    return run, d, advect_trajectory(run, d.x0)


@pytest.fixture(scope="module")
def blowup_coarse():
    grid = GridSpec(6.0, 2048)
    run, d = run_blowup(grid)
    return run, d, advect_trajectory(run, d.x0)


def small_datum(grid, amp=0.05):
    return SpectralField.from_function(grid, lambda x: amp * (np.sin(x) + 0.4 * np.sin(3 * x)))


def test_criterion_1_blowup_time(blowup_fine):
    run, d, states = blowup_fine
    t0 = time.perf_counter()
    t_est, slope, resid = measure_blowup_time(states, d.w0)
    t_pred = 1.0 / d.w0
    rel_t = abs(t_est - t_pred) / t_pred
    w0_pv = pv_blowup_coefficient()
    rel_w0 = abs(d.w0 - w0_pv) / w0_pv
    elapsed = time.perf_counter() - t0
    ok = abs(slope + 1.0) <= 0.01 and resid <= 1e-3 and rel_t <= 0.02 and rel_w0 <= 1e-4
    _line(
        "criterion-1 blowup-time",
        ok,
        f"slope={slope:.5f} resid={resid:.2e} relT={rel_t:.2e} w0-oracle={rel_w0:.2e} ({elapsed:.1f}s)",
    )
    assert abs(slope + 1.0) <= 0.01
    assert resid <= 1e-3
    assert rel_t <= 0.02
    assert rel_w0 <= 1e-4


def test_criterion_2_trajectory_invariants(blowup_fine, blowup_coarse):
    run_f, d_f, st_f = blowup_fine
    run_c, d_c, st_c = blowup_coarse
    rep_f = riccati_invariant_report(run_f, st_f, t_max=0.8 / d_f.w0)
    rep_c = riccati_invariant_report(run_c, st_c, t_max=0.8 / d_c.w0)
    ok_abs = rep_f.max_bx_defect <= 1e-4 and rep_f.max_bxx_rel <= 1e-4

    def shrinks(coarse: float, fine: float) -> bool:
        # a defect already at the roundoff floor on the coarse grid has no
        # discretization content left to shrink
        return coarse <= DEFECT_FLOOR or fine <= coarse / 4.0

    ok_ref = shrinks(rep_c.max_bx_defect, rep_f.max_bx_defect) and shrinks(
        rep_c.max_bxx_rel, rep_f.max_bxx_rel
    )
    _line(
        "criterion-2 trajectory-invariants",
        ok_abs and ok_ref,
        f"|bx-1|={rep_f.max_bx_defect:.2e} bxx_rel={rep_f.max_bxx_rel:.2e} "
        f"refine bx {rep_c.max_bx_defect:.1e}->{rep_f.max_bx_defect:.1e}",
    )
    assert ok_abs
    assert ok_ref


def test_criterion_3_operator_identities(capsys):
    t0 = time.perf_counter()
    code = cmd_selftest()
    elapsed = time.perf_counter() - t0
    capsys.readouterr()  # swallow the selftest's own lines
    ok = code == EXIT_OK and elapsed < 10.0
    _line("criterion-3 operator-identities", ok, f"exit={code} ({elapsed:.1f}s)")
    assert code == EXIT_OK
    assert elapsed < 10.0


@pytest.mark.parametrize(
    "alpha, lam",
    [
        pytest.param(alpha, lam, id=f"{alpha}" if lam == 2.0 else f"{alpha}-lam{lam:g}")
        for lam in (2.0, 3.0, 1.5)
        for alpha in (1.0, 2.0)
    ],
)
def test_criterion_4_scaling_symmetry(alpha, lam):
    # run A on the pi-grid to lam^alpha * 0.05, run B on the pi/lam-grid to
    # 0.05, both in 50 fixed IF-RK4 steps; at lam = 2 every rescaling factor
    # is a power of two and the runs agree bitwise, while lam = 3 and 1.5
    # carry the symmetry through roundoff
    p = ModelParams(kind="full", mu=1.0, alpha=alpha)
    rel = scaling_symmetry_mismatch(small_datum(GridSpec(np.pi, 256)), p, lam, 0.05, 50, "ifrk4")
    ok = rel <= 1e-6
    name = f"alpha={alpha:g}" if lam == 2.0 else f"alpha={alpha:g} lam={lam:g}"
    _line(f"criterion-4 scaling-symmetry {name}", ok, f"rel_l2={rel:.2e}")
    assert ok


def test_criterion_5_flux_identity():
    grid = GridSpec(np.pi, 256)
    p = ModelParams(kind="full", mu=1.0, alpha=1.5)
    B = remove_mean(small_datum(grid))
    d1, d2, ratio = flux_defect_ratio(B, p, s=1.0, dt=1e-3)
    ok = 3.5 <= ratio <= 4.5
    _line("criterion-5 flux-identity", ok, f"defect(dt)={d1:.2e} defect(dt/2)={d2:.2e} ratio={ratio:.2f}")
    assert ok


@pytest.mark.parametrize("alpha,s_base,s_target", [(2.0, 0.5, 1.5), (1.5, 1.0, 1.75)])
def test_criterion_6_smoothing_rates(alpha, s_base, s_target):
    grid = GridSpec(np.pi, 2048)
    run = make_smoothing_run(grid, mu=1.0, alpha=alpha, s_base=s_base)
    fit = smoothing_rate_fit(run, s_base, s_target)
    err = abs(fit.exponent_est - fit.expected)

    lin = make_smoothing_run(grid, mu=1.0, alpha=alpha, s_base=s_base, nonlinearity=False)
    fit_lin = smoothing_rate_fit(lin, s_base, s_target)
    oracle = smoothing_rate_fit_semigroup(rough_datum(grid, s_base), 1.0, alpha, s_base, s_target)
    lin_err = abs(fit_lin.exponent_est - oracle.exponent_est)

    ok = err <= 0.2 and lin_err <= 1e-3
    _line(
        f"criterion-6 smoothing a={alpha:g} {s_base:g}->{s_target:g}",
        ok,
        f"est={fit.exponent_est:.3f} expected={fit.expected:.3f} linear-vs-oracle={lin_err:.1e}",
    )
    assert err <= 0.2
    assert lin_err <= 1e-3


def test_criterion_7_picard():
    grid = GridSpec(np.pi, 256)
    B0 = small_datum(grid)
    p = ModelParams(kind="full", mu=1.0, alpha=2.0)
    cfg = StepperConfig(dt_init=1e-3, t_end=0.1, adaptive=False)
    res = picard_solve(B0, p, cfg)
    gaps = np.array(res.gap_history)
    geometric = bool(np.all(gaps[1:] < 0.5 * gaps[:-1]))
    fine = StepperConfig(dt_init=2.5e-4, t_end=0.1, adaptive=False, snapshot_cadence=10**9)
    ref = evolve(B0, p, fine).final
    diff = float(np.sqrt(grid.norm2(res.series.final.coef - ref.coef)))
    ok = res.converged and geometric and diff <= 1e-6
    _line(
        "criterion-7 picard",
        ok,
        f"gaps={['%.1e' % g for g in gaps]} final-vs-fine={diff:.1e}",
    )
    assert res.converged
    assert geometric
    assert diff <= 1e-6


def test_criterion_8_bounded_ratio_reports():
    """The analytic well-posedness statement itself (constants, existence
    time, endpoint space) is not reproducible numerically; criteria 5-7 are
    its property substitutes.  This check covers the remaining piece: the
    dyadic-inequality harnesses must return finite bounded ratios, as
    reports, with no constant claimed."""
    grid = GridSpec(np.pi, 512)
    b1, b2 = bernstein_check(grid, trials=50, seed=0)
    c1, c2 = commutator_check(grid, trials=20, seed=0)
    ratios = [b1.max_ratio, b2.max_ratio, c1.max_ratio, c2.max_ratio]
    ok = all(np.isfinite(r) and r > 0 for r in ratios) and b1.max_ratio <= 4.0 and b2.max_ratio <= 4.0
    _line(
        "criterion-8 bounded-ratio-reports",
        ok,
        "max ratios " + " ".join(f"{r:.3f}" for r in ratios),
    )
    assert ok
