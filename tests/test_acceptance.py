"""Acceptance gate: the eight headline checks, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import time

import numpy as np
import pytest

from emhd1d.blowup import advect_trajectory, riccati_verdict, run_blowup
from emhd1d.cli import EXIT_OK, cmd_selftest
from emhd1d.diagnostics import (
    flux_defect_ratio,
    rough_datum,
    smoothing_rate_fit,
    smoothing_rate_fit_semigroup,
)
from emhd1d.lp import lp_verdict
from emhd1d.solver import ModelParams, StepperConfig, evolve, picard_solve, scaling_symmetry_verdict
from emhd1d.spectral import GridSpec, SpectralField, remove_mean

# roundoff floor for the refinement comparison: a defect already at machine
# precision on the coarse grid cannot shrink further under refinement
DEFECT_FLOOR = 1e-9


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def library_values(gates, literals: dict[str, float]) -> dict[str, float]:
    """The value of each named library gate, once its bound is shown to be
    no looser than the literal upper bound the criterion holds it to: the
    library may tighten a gate, never loosen it."""
    rows = {g.name: g for g in gates}
    for name, bound in literals.items():
        assert rows[name].bound <= bound, f"{name}: library bound {rows[name].bound} is looser than {bound}"
    return {name: rows[name].value for name in literals}


def blowup_verdict(n: int):
    """The Riccati harness at L = 6 on n nodes: report, gates and the
    seconds the verdict took once the trajectory was in hand."""
    run, d = run_blowup(GridSpec(6.0, n))
    traj = advect_trajectory(run, d.x0)
    t0 = time.perf_counter()
    report, gates = riccati_verdict(run, d, traj)
    return report, gates, time.perf_counter() - t0


@pytest.fixture(scope="module")
def blowup_fine():
    return blowup_verdict(4096)


@pytest.fixture(scope="module")
def blowup_coarse():
    return blowup_verdict(2048)


def small_datum(grid, amp=0.05):
    return SpectralField.from_function(grid, lambda x: amp * (np.sin(x) + 0.4 * np.sin(3 * x)))


def test_criterion_1_blowup_time(blowup_fine):
    report, gates, elapsed = blowup_fine
    literals = {"slope_err": 0.01, "fit_residual": 1e-3, "T_rel_err": 0.02, "w0_rel_diff": 1e-4}
    v = library_values(gates, literals)
    ok = all(v[name] <= bound for name, bound in literals.items())
    _line(
        "criterion-1 blowup-time",
        ok,
        f"slope={report['slope']:.5f} resid={v['fit_residual']:.2e} relT={v['T_rel_err']:.2e} "
        f"w0-oracle={v['w0_rel_diff']:.2e} ({elapsed:.1f}s)",
    )
    for name, bound in literals.items():
        assert v[name] <= bound, name


def test_criterion_2_trajectory_invariants(blowup_fine, blowup_coarse):
    literals = {"max_bx_defect": 1e-4, "max_bxx_rel": 1e-4}
    fine = library_values(blowup_fine[1], literals)
    coarse = library_values(blowup_coarse[1], literals)
    ok_abs = all(fine[name] <= bound for name, bound in literals.items())

    def shrinks(name: str) -> bool:
        # a defect already at the roundoff floor on the coarse grid has no
        # discretization content left to shrink
        return coarse[name] <= DEFECT_FLOOR or fine[name] <= coarse[name] / 4.0

    ok_ref = shrinks("max_bx_defect") and shrinks("max_bxx_rel")
    _line(
        "criterion-2 trajectory-invariants",
        ok_abs and ok_ref,
        f"|bx-1|={fine['max_bx_defect']:.2e} bxx_rel={fine['max_bxx_rel']:.2e} "
        f"refine bx {coarse['max_bx_defect']:.1e}->{fine['max_bx_defect']:.1e}",
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
    _, gates = scaling_symmetry_verdict(small_datum(GridSpec(np.pi, 256)), p, lam, 0.05, 50, "ifrk4")
    rel = library_values(gates, {"rel_l2_mismatch": 1e-6})["rel_l2_mismatch"]
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
def test_criterion_6_smoothing_rates(alpha, s_base, s_target, smoothing_run):
    grid = GridSpec(np.pi, 2048)
    run = smoothing_run(grid, mu=1.0, alpha=alpha, s_base=s_base)
    fit = smoothing_rate_fit(run, s_base, s_target)
    err = abs(fit.exponent_est - fit.expected)

    # at small amplitude the model is linear: the same datum scaled to 1e-10
    lin = smoothing_run(grid, mu=1.0, alpha=alpha, s_base=s_base, norm=1e-10)
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
    dyadic-inequality harnesses of ``emhd1d lp`` must return finite bounded
    ratios, as reports, with no constant claimed; the Bernstein ratios and
    the H^1 norm-equivalence range are gated as the CLI gates them."""
    report, gates = lp_verdict(GridSpec(np.pi, 512), seed=0)
    literals = {"bernstein_derivative": 4.0, "bernstein_linf": 4.0, "norm_equivalence_max": 2.0}
    v = library_values(gates, literals)
    # the one lower bound: the H^1 norm-equivalence ratio stays at least 0.5
    low = next(g for g in gates if g.name == "norm_equivalence_min")
    assert low.bound >= 0.5, f"norm_equivalence_min: library bound {low.bound} is looser than 0.5"
    ratios = [r["max_ratio"] for r in report["bernstein"] + report["commutator"]]
    ok = (
        all(np.isfinite(r) and r > 0 for r in ratios)
        and all(v[name] <= bound for name, bound in literals.items())
        and low.value >= 0.5
    )
    _line(
        "criterion-8 bounded-ratio-reports",
        ok,
        "max ratios " + " ".join(f"{r:.3f}" for r in ratios)
        + f" norm-equivalence [{low.value:.3f}, {v['norm_equivalence_max']:.3f}]",
    )
    assert ok
