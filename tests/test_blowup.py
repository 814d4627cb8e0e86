"""Riccati blowup harness tests.

Frozen oracle values for the reference datum exp(-x^4) sin(x) on the
L = 6 torus, independently derived:

* spectral evaluation of Lambda(dB/dx) at 0 on a fine grid -> 1.7495090293
* principal-value quadrature of (1/pi) PV int (1 - B0'(y))/y^2 dy on the
  real line -> 1.7493995133

The two differ only by the periodic truncation of the integral tails.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import padded

from emhd1d import blowup
from emhd1d.blowup import (
    BlowupDatum,
    DatumError,
    FitWindowError,
    Trajectory,
    advect_trajectory,
    make_reference_datum,
    measure_blowup_time,
    reference_datum_dx,
    reference_datum_fn,
    predict_blowup_time,
    pv_blowup_coefficient,
    riccati_invariant_report,
    riccati_verdict,
    run_blowup,
)
from emhd1d.solver import LADDER_TAIL, evolve, hermite
from emhd1d.spectral import GridSpec, SpectralField, derivative, evaluate_at, frac_laplacian

W0_SPECTRAL = 1.7495090293
W0_PV = 1.7493995133


@pytest.fixture(scope="module")
def grid():
    return GridSpec(6.0, 2048)


@pytest.fixture(scope="module")
def datum(grid):
    return make_reference_datum(grid)


@pytest.fixture(scope="module")
def run_and_states(grid, datum):
    run, d = run_blowup(grid, datum=datum)
    return run, d, advect_trajectory(run, d.x0)


class TestDatum:
    def test_w0_matches_frozen_value(self, datum):
        assert datum.w0 == pytest.approx(W0_SPECTRAL, rel=1e-8)

    def test_pv_oracle_matches_frozen_value(self):
        assert pv_blowup_coefficient() == pytest.approx(W0_PV, rel=1e-8)

    def test_spectral_vs_pv_agreement(self, datum):
        assert abs(datum.w0 - W0_PV) / W0_PV <= 1e-4

    def test_pv_oracle_matches_adaptive_quad(self):
        # reference: adaptive QUADPACK on three pieces plus the same exact
        # tail; the middle piece has a node at y = 0, so |y| is floored at
        # 1e-7 there (B0' is even, so B0'(|y|) = B0'(y))
        quad = pytest.importorskip("scipy.integrate").quad

        def integrand(y):
            yy = max(abs(y), 1e-7)
            return (1.0 - reference_datum_dx(yy)) / yy**2

        pieces = ((-50.0, -1.0), (-1.0, 1.0), (1.0, 50.0))
        ref = (sum(quad(integrand, a, b, limit=400)[0] for a, b in pieces) + 2.0 / 50.0) / math.pi
        assert abs(pv_blowup_coefficient() - ref) <= 1e-12 * ref

    def test_pv_oracle_converged_in_panels(self, monkeypatch):
        value = pv_blowup_coefficient()
        monkeypatch.setattr(blowup, "_PV_PANELS", 2 * blowup._PV_PANELS)
        assert abs(pv_blowup_coefficient() - value) < 1e-13

    def test_oracle_and_commands_run_without_scipy(self, tmp_path):
        # every command, the oracle included, needs numpy and the standard
        # library only; a None entry in sys.modules makes `import scipy` fail
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from emhd1d.blowup import pv_blowup_coefficient\n"
            "from emhd1d.cli import main\n"
            "print(repr(pv_blowup_coefficient()))\n"
            "sys.exit(main(['selftest', '--out', sys.argv[1]]))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "selftest")],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout.splitlines()[0]) == pytest.approx(W0_PV, rel=1e-8)

    def test_validate_passes_reference(self, datum):
        datum.validate()

    def test_validate_rejects_wrong_slope(self, grid):
        bad = SpectralField.from_function(grid, lambda x: 2.0 * reference_datum_fn(x))
        with pytest.raises(DatumError):
            BlowupDatum(B0=bad, x0=0.0, w0=1.0).validate()

    def test_validate_rejects_nonpositive_w0(self, datum):
        with pytest.raises(DatumError):
            BlowupDatum(B0=datum.B0, x0=0.0, w0=-1.0).validate()

    @pytest.mark.parametrize("n", [32768, 65536])
    def test_fine_grids_hold_reference_datum(self, n):
        # |B_xx(0)| is roundoff that grows with N, 3.8e-10 and 2.2e-9 here,
        # past the 1e-10 that still bounds it on coarser grids
        d = make_reference_datum(GridSpec(6.0, n))
        assert d.w0 == pytest.approx(W0_SPECTRAL, rel=1e-8)

    def test_fine_grid_rejects_nonzero_bxx(self):
        # B_xx(0) = 1e-7 with B_x(0) = 1 kept: the roundoff allowance at
        # N = 32768 is 2.8e-9
        bump = SpectralField.from_function(
            GridSpec(6.0, 32768), lambda x: reference_datum_fn(x) + 5e-8 * x**2 * np.exp(-(x**4))
        )
        with pytest.raises(DatumError, match="B_xx"):
            BlowupDatum(B0=bump, x0=0.0, w0=1.0).validate()

    def test_boundary_decay_check(self):
        tight = GridSpec(1.5, 256)  # datum is O(1) at the boundary
        with pytest.raises(DatumError):
            make_reference_datum(tight)

    def test_predicted_time_is_reciprocal(self, datum):
        assert predict_blowup_time(datum) == 1.0 / datum.w0


class TestTrajectory:
    def test_stays_at_symmetric_point(self, run_and_states):
        # the datum is odd, so Lambda B vanishes at 0 for all time and the
        # characteristic through 0 never moves
        _, _, traj = run_and_states
        assert np.max(np.abs(traj.X)) < 1e-10

    def test_w_increases_monotonically_early(self, run_and_states):
        _, d, traj = run_and_states
        ws = traj.w
        early = ws[: len(ws) // 2]
        assert np.all(np.diff(early) > 0)

    def test_columns_are_read_only_copies(self, run_and_states):
        # one entry per step boundary; no column may be written, and t is
        # not a view of the run's step times
        run, _, traj = run_and_states
        assert np.array_equal(traj.t, run.step_times)
        assert not np.shares_memory(traj.t, run.step_times)
        for col in (traj.t, traj.X, traj.bx, traj.bxx, traj.w):
            assert col.shape == run.step_times.shape
            with pytest.raises(ValueError):
                col[0] = 0.0

    @pytest.mark.parametrize("start", ["x0", "off_symmetry"])
    def test_matches_full_band_reference(self, run_and_states, start):
        # rows from the coarse rungs are summed over their band only; the
        # reference pads every row and sums it over all N/2 + 1 modes
        run, d, traj = run_and_states
        rung = run.diagnostics["n_modes"]
        assert len(set(rung)) > 1  # the run used a ladder
        # a coarse rung's rows are its whole half, n/2 + 1 entries, and what
        # the first state, a coarse rung's, holds from its Nyquist entry up
        # is exactly zero
        for n in np.flatnonzero(rung < run.grid.n_modes):
            assert run.lam_b[n].size == run.lam_b_dot[n].size == rung[n] // 2 + 1
        assert rung[0] < run.grid.n_modes and not np.any(run.coefs[0, rung[0] // 2 :])
        if start == "off_symmetry":
            traj = advect_trajectory(run, 1.3)
        X, (_, bx, bxx, w) = full_band_trajectory(run, traj.X[0])
        assert np.max(np.abs(traj.w - w) / np.abs(w)) <= 1e-12
        assert np.max(np.abs(traj.X - X)) <= 1e-12
        assert np.max(np.abs(traj.bx - bx)) <= 1e-12
        assert np.max(np.abs(traj.bxx - bxx)) <= 1e-12

    def test_requires_stored_fields(self, grid, datum):
        from emhd1d.solver import ModelParams, StepperConfig, evolve

        run = evolve(
            datum.B0,
            ModelParams(kind="transport", mu=1.0, alpha=1.0),
            StepperConfig(dt_init=1e-3, t_end=0.01, adaptive=False),
        )
        with pytest.raises(ValueError):
            advect_trajectory(run, 0.0)


def full_band_trig(grid, rows, x):
    """Real trig sums at one point with one complex exponential per stored
    mode, weights (1, 2, ..., 2, 1), and the Nyquist entry at its FFT-order
    wavenumber; kept as a reference."""
    L = grid.half_length
    xa = np.mod(x + L, 2.0 * L) - L
    weight = np.full(grid.n_modes // 2 + 1, 2.0)
    weight[0] = weight[-1] = 1.0
    return np.real(rows @ (weight * np.exp(1j * grid.wavenumbers * xa)))


def full_band_trajectory(run, x0):
    """advect_trajectory's RK4 and Hermite midpoints with every row padded to
    and every sum over all N/2 + 1 modes; returns X and the rows Lambda B,
    B_x, B_xx, w at X."""
    grid = run.grid
    xi = grid.wavenumbers
    lam_b, lam_b_dot = padded(run.lam_b, xi.size), padded(run.lam_b_dot, xi.size)
    m_bx = 1j * np.sign(xi)
    mults = np.stack([np.ones_like(xi), m_bx, 1j * xi * m_bx, 1j * xi])
    times = run.step_times
    X, Xs, vals = x0, [], []
    for n in range(len(times)):
        Xs.append(X)
        vals.append(full_band_trig(grid, mults * lam_b[n], X))
        if n == len(times) - 1:
            break
        dt = float(times[n + 1] - times[n])
        mid = hermite(lam_b, lam_b_dot, n, dt)
        f1 = -vals[-1][0]
        f2 = -full_band_trig(grid, mid, X + 0.5 * dt * f1)
        f3 = -full_band_trig(grid, mid, X + 0.5 * dt * f2)
        f4 = -full_band_trig(grid, lam_b[n + 1], X + dt * f3)
        X = X + dt / 6.0 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return np.array(Xs), np.array(vals).T


class TestFit:
    def test_riccati_fit(self, run_and_states):
        _, d, traj = run_and_states
        t_est, slope, resid = measure_blowup_time(traj, d.w0)
        assert slope == pytest.approx(-1.0, abs=0.01)
        assert resid <= 1e-3
        assert abs(t_est - 1.0 / d.w0) / (1.0 / d.w0) <= 0.02

    def test_empty_window_raises(self):
        zeros, ones = np.zeros(5), np.ones(5)
        traj = Trajectory(t=zeros, X=zeros.copy(), bx=ones, bxx=zeros.copy(), w=ones.copy())
        with pytest.raises(FitWindowError):
            measure_blowup_time(traj, w0=100.0)

    def test_exact_riccati_sequence_recovered(self):
        # synthetic w(t) = w0/(1 - w0 t) must be fitted essentially exactly
        w0 = 2.0
        ts = np.linspace(0.0, 0.45, 200)
        zeros = np.zeros_like(ts)
        traj = Trajectory(t=ts, X=zeros, bx=np.ones_like(ts), bxx=zeros.copy(), w=w0 / (1.0 - w0 * ts))
        t_est, slope, resid = measure_blowup_time(traj, w0)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert t_est == pytest.approx(0.5, rel=1e-12)
        assert resid < 1e-14

    def test_only_the_first_crossing_is_fitted(self):
        # w follows w0/(1 - w0 t) through the window, saturates above it and
        # decays back into it; the decay would bend the line if fitted
        w0 = 1.0
        ts = np.array([0.0, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.95, 1.0, 1.1, 1.2])
        w = np.concatenate((w0 / (1.0 - w0 * ts[:8]), [8.0, 4.0, 2.0]))
        zeros = np.zeros_like(ts)
        traj = Trajectory(t=ts, X=zeros, bx=np.ones_like(ts), bxx=zeros.copy(), w=w)
        t_est, slope, resid = measure_blowup_time(traj, w0)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert t_est == pytest.approx(1.0 / w0, rel=1e-12)
        assert resid < 1e-14

    def test_short_first_crossing_raises(self):
        # two samples cross the window before w leaves it; the four of the
        # later crossing do not count
        ts = np.linspace(0.0, 0.7, 8)
        w = np.array([1.0, 1.5, 2.0, 20.0, 5.0, 4.0, 3.0, 2.0])
        zeros = np.zeros_like(ts)
        traj = Trajectory(t=ts, X=zeros, bx=np.ones_like(ts), bxx=zeros.copy(), w=w)
        with pytest.raises(FitWindowError, match="fewer than 3"):
            measure_blowup_time(traj, w0=1.0)


@pytest.fixture(scope="module")
def etdrk4_verdict(grid, datum):
    run, d = run_blowup(grid, datum=datum, scheme="etdrk4")
    assert run.config.scheme == "etdrk4"
    return riccati_verdict(run, d, advect_trajectory(run, d.x0))


class TestETDRK4Blowup:
    # T_fit and slope of the adaptive ETDRK4 run at N = 2048, each rung
    # stepped at its own CFL; a faster build of the same coefficients must
    # not move them beyond roundoff
    FROZEN_T, FROZEN_SLOPE = 0.5714623113327457, -1.0003702416829048

    def test_passes_blowup_gates(self, etdrk4_verdict):
        # every gate of emhd1d blowup, on the ETDRK4 path
        _, gates = etdrk4_verdict
        assert len(gates) == 6
        assert [g.name for g in gates if not g.passed] == []

    def test_matches_frozen_fit(self, etdrk4_verdict):
        report, _ = etdrk4_verdict
        assert report["T_fitted"] == pytest.approx(self.FROZEN_T, rel=1e-10, abs=0.0)
        assert report["slope"] == pytest.approx(self.FROZEN_SLOPE, rel=1e-10, abs=0.0)


class TestTelemetry:
    def test_max_lam_bx_is_signed(self, run_and_states):
        # at t = 0 sup|Lambda B_x| is taken on the negative lobe, while the
        # signed max reads the positive one; the blowup peak is the sup by
        # the last recorded step
        run, d, _ = run_and_states
        diag = run.diagnostics
        assert diag["max_lam_bx"][0] / d.w0 == pytest.approx(1.34, abs=5e-3)
        assert diag["sup_lam_bx"][0] / d.w0 == pytest.approx(2.58, abs=5e-3)
        assert diag["max_lam_bx"][-1] == diag["sup_lam_bx"][-1]


class TestConvergence:
    def test_rel_t_is_fourth_order_in_cfl(self):
        # at N = 16384 the time error dominates relT: 1.465e-6, 9.13e-8 and
        # 5.79e-9 at cfl 0.5, 0.25 and 0.125, 16.0x and 15.8x per halving
        conv = blowup.blowup_convergence([16384], [0.5, 0.25, 0.125])
        rel = conv.rel_err[0]
        assert np.all(rel[:-1] >= 12.0 * rel[1:])
        assert np.isnan(conv.order[0, 0]) and np.all(conv.order[0, 1:] >= math.log2(12.0))
        assert np.all(np.diff(conv.steps[0]) > 0)
        # the Richardson step in cfl reads the error of T against 1/w0 to
        # 0.3 % and 1.5 %
        assert np.isnan(conv.error_bar[0, 0])
        assert conv.error_bar[0, 1:] == pytest.approx(rel[1:] * conv.T[0, 1:], rel=0.1)


class TestInvariants:
    def test_pointwise_invariants(self, run_and_states):
        run, d, traj = run_and_states
        rep = riccati_invariant_report(run, traj, t_max=0.8 / d.w0)
        assert rep.max_bx_defect <= 1e-4
        assert rep.max_bxx_rel <= 1e-4

    def test_bxx_ratio_matches_row_by_row_sup(self, run_and_states):
        # the report's ratio is the one that each selected row's sup|B_xx|,
        # from a transform of that row alone, gives
        run, d, traj = run_and_states
        t_max = 0.8 / d.w0
        rep = riccati_invariant_report(run, traj, t_max=t_max)
        absxi = np.abs(run.grid.wavenumbers)

        def sup_bxx(row):  # to_phys reads the rung-sized row as zero-padded
            return float(np.max(np.abs(run.grid.to_phys(-absxi[: row.size] * row))))

        ratios = [abs(traj.bxx[n]) / max(sup_bxx(run.lam_b[n]), 1e-300) for n in np.flatnonzero(traj.t <= t_max)]
        assert len(ratios) > 32
        assert rep.max_bxx_rel == max(ratios)


def rel_t_err(grid, datum, scheme="ifrk4"):
    run, d = run_blowup(grid, datum=datum, scheme=scheme)
    t_est, slope, _ = measure_blowup_time(advect_trajectory(run, d.x0), d.w0)
    return abs(t_est * d.w0 - 1.0), t_est, slope


class TestGridLadder:
    # T_fit and slope of the adaptive IF-RK4 run at N = 4096, 177 steps on
    # the ladder 512, 1024, 2048, 4096, each rung stepped at its own CFL
    FROZEN_T, FROZEN_SLOPE = 0.5715608914666783, -1.0000871188309772

    def test_ifrk4_matches_frozen_ladder_fit(self):
        _, t_est, slope = rel_t_err(GridSpec(6.0, 4096), make_reference_datum(GridSpec(6.0, 4096)))
        assert t_est == pytest.approx(self.FROZEN_T, rel=1e-10, abs=0.0)
        assert slope == pytest.approx(self.FROZEN_SLOPE, rel=1e-10, abs=0.0)

    def test_node_translations_keep_rel_t(self, grid, datum):
        # a translation by whole fine nodes is an exact symmetry of the fine
        # nodes the CFL sups are read on, though not of the coarse rungs
        ref, t_ref, _ = rel_t_err(grid, datum)
        L = grid.half_length
        for k in (1, 2, 3, 1234):
            B0 = SpectralField.from_phys(grid, np.roll(datum.B0.phys, k))
            x0 = (k * grid.dx + L) % (2.0 * L) - L
            w0 = float(evaluate_at(frac_laplacian(derivative(B0), 1.0), x0))
            got, t_est, _ = rel_t_err(grid, BlowupDatum(B0=B0, x0=x0, w0=w0))
            assert abs(got - ref) <= 1e-9
            assert t_est == pytest.approx(t_ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("n", [2048, 4096])
    def test_tail_share_at_each_switch_stays_near_the_bound(self, n, scheme):
        # the ladder tests the tail share only between steps, so the state
        # that triggers a switch overshoots LADDER_TAIL; on the reference
        # runs the largest overshoot is 6.04x (ETDRK4, first switch)
        grid = GridSpec(6.0, n)
        d = make_reference_datum(grid)
        run, _ = run_blowup(grid, datum=d, scheme=scheme)
        every = evolve(d.B0, run.params, replace(run.config, snapshot_cadence=1))
        assert np.array_equal(every.step_times, run.step_times)
        rung = every.diagnostics["n_modes"]
        switches = np.flatnonzero(np.diff(rung)) + 1
        assert len(switches) == (3 if n == 4096 else 2)
        for k in switches:
            # state k, the last made on the rung of step k - 1, triggers the switch
            coarse = GridSpec(6.0, int(rung[k - 1]))
            tail = 2 * int(np.flatnonzero(coarse.dealias_mask)[-1]) // 3
            share = [np.vdot(c[tail:], c[tail:]).real / np.vdot(c, c).real for c in every.coefs[k - 1 : k + 1]]
            assert share[0] <= LADDER_TAIL < share[1] <= 10.0 * LADDER_TAIL
