"""Time-stepper and evolution-loop tests."""

import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import Recorder, padded, small_datum

from emhd1d import solver
from emhd1d.diagnostics import rough_datum
from emhd1d.solver import (
    ModelParams,
    _etdrk4_coeffs,
    _ops,
    PicardResult,
    StepperConfig,
    evolve,
    picard_solve,
    rhs,
    scaling_symmetry_mismatch,
    snapshots,
    step,
)
from emhd1d.spectral import GridSpec, SpectralField, remove_mean, sobolev_weight


@pytest.fixture
def grid():
    return GridSpec(np.pi, 256)


def single_mode(grid, k):
    """cos(k x) on a grid of L = pi, built from its one coefficient 0.5."""
    c = np.zeros(grid.n_modes // 2 + 1, dtype=complex)
    c[k] = 0.5
    return SpectralField.from_coef(grid, c)


def record_to_phys(monkeypatch):
    """Patch ``GridSpec.to_phys`` to log each call as (grid N, rows transformed)."""
    calls = []
    to_phys = GridSpec.to_phys

    def logged(self, coef):
        calls.append((self.n_modes, math.prod(coef.shape[:-1])))
        return to_phys(self, coef)

    monkeypatch.setattr(GridSpec, "to_phys", logged)
    return calls


def record_steps(monkeypatch, scheme="ifrk4"):
    """Patch the ``scheme`` stepper to log the rung (its N) of each step it
    takes: one entry per tick of a Picard solve, in order."""
    rungs = []
    build, stepper = solver._SCHEMES[scheme]

    def logged(nl, c, dt, k1, factors):
        rungs.append(2 * (c.shape[-1] - 1))
        return stepper(nl, c, dt, k1, factors)

    monkeypatch.setitem(solver._SCHEMES, scheme, (build, logged))
    return rungs


def solve_logged(B0, p, cfg, k_max=12):
    """``picard_solve`` and the rung of each of its ticks' steps."""
    with pytest.MonkeyPatch.context() as mp:
        ticks = record_steps(mp, cfg.scheme)
        res = picard_solve(B0, p, cfg, k_max=k_max)
    return res, ticks


def per_row(g, a, c):
    """Reference A (Lambda C)_x - Lambda A C_x, dealiased and mean-free, from
    one inverse transform per physical field; at a = c it is the full term."""
    absxi, ddx = np.abs(g.wavenumbers), 1j * g.wavenumbers
    phys = g.to_phys(a) * g.to_phys(absxi * ddx * c) - g.to_phys(absxi * a) * g.to_phys(ddx * c)
    out = g.to_coef(phys) * g.dealias_mask
    out[0] = 0.0
    return out


def contour_coeffs(lin, dt, n_contour=32):
    """Reference: the Cox-Matthews coefficients by a 32-point contour mean
    around each z = -dt * lin (Kassam & Trefethen 2005)."""
    z = -dt * lin
    roots = np.exp(1j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
    lr = z[:, None] + roots[None, :]
    q = dt * np.real(((np.exp(lr / 2.0) - 1.0) / lr).mean(1))
    f1 = dt * np.real(((-4.0 - lr + np.exp(lr) * (4.0 - 3.0 * lr + lr**2)) / lr**3).mean(1))
    f2 = dt * np.real(((2.0 + lr + np.exp(lr) * (lr - 2.0)) / lr**3).mean(1))
    f3 = dt * np.real(((-4.0 - 3.0 * lr - lr**2 + np.exp(lr) * (4.0 - lr)) / lr**3).mean(1))
    return q, f1, f2, f3


def closed_form_taylor_coeffs(lin, dt, terms=20):
    """Reference: the Cox-Matthews closed forms evaluated on every entry, then
    overwritten where |z| < 1 by separate Horner series of phi1..phi3."""

    def phi(z, k):
        out = np.full_like(z, 1.0 / math.factorial(terms - 1 + k))
        for n in range(terms - 2, -1, -1):
            out = out * z + 1.0 / math.factorial(n + k)
        return out

    z = -dt * lin
    e_full = np.exp(z)
    small = np.abs(z) < 1.0
    zc = np.where(small, -1.0, z)
    q = dt * (np.exp(z / 2.0) - 1.0) / zc
    f1 = dt * (-4.0 - zc + e_full * (4.0 - 3.0 * zc + zc**2)) / zc**3
    f2 = dt * (2.0 + zc + e_full * (zc - 2.0)) / zc**3
    f3 = dt * (-4.0 - 3.0 * zc - zc**2 + e_full * (4.0 - zc)) / zc**3
    zs = z[small]
    p2, p3 = phi(zs, 2), phi(zs, 3)
    q[small] = 0.5 * dt * phi(zs / 2.0, 1)
    f1[small] = dt * (phi(zs, 1) - 3.0 * p2 + 4.0 * p3)
    f2[small] = dt * (p2 - 2.0 * p3)
    f3[small] = dt * (-p2 + 4.0 * p3)
    return q, f1, f2, f3


class TestModelParams:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ModelParams(kind="nope", mu=1.0, alpha=1.0)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            ModelParams(kind="full", mu=-1.0, alpha=1.0)

    @pytest.mark.parametrize("kw", [{"mu": np.nan}, {"alpha": np.nan}, {"mu": np.inf}])
    def test_rejects_non_finite_coefficients(self, kw):
        with pytest.raises(ValueError):
            ModelParams(**{"kind": "full", "mu": 1.0, "alpha": 1.0, **kw})


class TestOpsCache:
    def test_one_read_only_table_per_grid_and_params(self):
        p = ModelParams(kind="full", mu=1.0, alpha=1.5)
        ops = _ops(GridSpec(np.pi, 64), p)
        assert _ops(GridSpec(np.pi, 64), ModelParams(kind="full", mu=1.0, alpha=1.5)) is ops
        assert _ops(GridSpec(np.pi, 128), p) is not ops
        with pytest.raises(ValueError):
            ops.lin[1] = 0.0


class TestRHS:
    def test_zero_field(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        f = rhs(SpectralField.from_coef(grid, np.zeros(grid.n_modes // 2 + 1)), p)
        assert f.l2_norm() == 0.0

    def test_linear_part_single_mode(self, grid):
        # a single mode is a null of the full model's quadratic term
        # (test_single_mode_is_a_null_of_the_full_term), so on
        # B = cos 2x, built from its coefficient, dB/dt = -mu |xi|^alpha B
        p = ModelParams(kind="full", mu=0.7, alpha=1.5)
        f = single_mode(grid, 2)
        r = rhs(f, p)
        assert np.allclose(r.phys, -0.7 * 2.0**1.5 * f.phys, atol=1e-12)

    def test_transport_quadratic_term(self, grid):
        # B = sin x: Lambda B = sin x, B_x = cos x, so the quadratic term is
        # sin x cos x = sin(2x)/2; with mu = 0 that is the whole rhs
        p = ModelParams(kind="transport", mu=0.0, alpha=1.0)
        f = SpectralField.from_function(grid, np.sin)
        r = rhs(f, p)
        assert np.allclose(r.phys, 0.5 * np.sin(2.0 * grid.nodes), atol=1e-12)

    @pytest.mark.parametrize("n", [64, 256, 2048])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_single_mode_is_a_null_of_the_full_term(self, n, k):
        # B = cos kx: Lambda B = k cos kx and B_x = -k sin kx, so the full
        # term B (Lambda B)_x - Lambda B B_x = -k^2 cos kx sin kx + k^2 cos kx sin kx
        # vanishes; the transport term Lambda B B_x = -(k^2 / 2) sin 2kx does not
        g = GridSpec(np.pi, n)
        f = single_mode(g, k)
        full = rhs(f, ModelParams(kind="full", mu=0.0, alpha=1.0))
        assert np.max(np.abs(full.phys)) <= 1e-13
        transport = rhs(f, ModelParams(kind="transport", mu=0.0, alpha=1.0))
        assert np.max(np.abs(transport.phys)) == pytest.approx(k**2 / 2, abs=1e-12)

    def test_full_model_single_mode(self, grid):
        # B = sin x: Lambda B_x = cos x, so B*(Lambda B)_x - Lambda B * B_x
        # = sin x cos x - sin x cos x = 0: a single mode is steady for mu = 0
        p = ModelParams(kind="full", mu=0.0, alpha=1.0)
        f = SpectralField.from_function(grid, np.sin)
        assert rhs(f, p).l2_norm() < 1e-11

    def test_transport_transforms_match_per_row(self, monkeypatch):
        # the transport term takes B_x and Lambda B as one stack of two rows
        # in one inverse transform; each row, and so the term, is what a
        # transform of that row alone gives
        g = GridSpec(6.0, 4096)
        rng = np.random.default_rng(11)
        c = g.to_coef(rng.standard_normal(g.n_modes))
        ops = _ops(g, ModelParams(kind="transport", mu=1.0, alpha=1.0))
        xi = g.wavenumbers
        ref = g.to_coef(g.to_phys(np.abs(xi) * c) * g.to_phys(1j * xi * c)) * g.dealias_mask
        ref[0] = 0.0
        calls = record_to_phys(monkeypatch)
        assert np.array_equal(ops.nonlinear(c), ref)
        assert calls == [(4096, 2)]

    @pytest.mark.parametrize("n", [64, 4096])
    def test_full_transforms_match_per_row(self, monkeypatch, n):
        # the full term takes B_x, Lambda B, Lambda B_x and B as one stack of
        # four rows in one inverse transform, bitwise equal to a transform
        # per row
        g = GridSpec(6.0, n)
        c = g.to_coef(np.random.default_rng(12).standard_normal(n))
        ops = _ops(g, ModelParams(kind="full", mu=1.0, alpha=1.5))
        ref = per_row(g, c, c)
        calls = record_to_phys(monkeypatch)
        assert np.array_equal(ops.nonlinear(c), ref)
        assert calls == [(n, 4)]

    def test_rhs_mean_free(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=1.0)
        f = small_datum(grid)
        assert abs(rhs(f, p).mean) < 1e-15


class TestSteppers:
    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_exact_on_pure_dissipation(self, grid, scheme):
        # a single mode is a null of the full term, so a step is the
        # dissipation semigroup's, which both schemes propagate exactly
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(scheme=scheme, dt_init=0.05, t_end=1.0)
        f = SpectralField.from_function(grid, lambda x: np.cos(3.0 * x))
        g, _ = step(f, 0.0, 0.05, p, cfg)
        assert np.allclose(g.phys, np.exp(-9.0 * 0.05) * f.phys, atol=1e-13)

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_fourth_order_convergence(self, grid, scheme):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        B0 = small_datum(grid, amp=0.5)
        t_end = 0.1

        def solve(dt):
            cfg = StepperConfig(scheme=scheme, dt_init=dt, t_end=t_end,
                                adaptive=False, snapshot_cadence=10**9)
            return evolve(B0, p, cfg).final.coef

        ref = solve(t_end / 512)
        e1 = np.sqrt(grid.norm2(solve(t_end / 16) - ref))
        e2 = np.sqrt(grid.norm2(solve(t_end / 32) - ref))
        order = np.log2(e1 / e2)
        assert order > 3.5

    def test_step_rejects_nonpositive_dt(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig()
        with pytest.raises(ValueError):
            step(small_datum(grid), 0.0, -0.1, p, cfg)


class TestETDRK4Coeffs:
    # |z| on both sides of the closed-form/Taylor switch at |z| = 1; the
    # contour reference itself loses ~1e-12 near |z| = 0.97, so stay off it
    ABS_Z = [0.0, 1e-8, 1e-4, 0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 5.0, 30.0, 300.0, 4000.0]

    @pytest.mark.parametrize("dt", [1.0, 1e-3])
    def test_matches_contour_reference(self, dt):
        lin = np.array(self.ABS_Z) / dt
        e_half, e_full, *coeffs = _etdrk4_coeffs(lin, dt)
        assert np.array_equal(e_half, np.exp(-0.5 * dt * lin))
        assert np.array_equal(e_full, np.exp(-dt * lin))
        for got, ref in zip(coeffs, contour_coeffs(lin, dt)):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("dt", [1.0, 1e-3])
    def test_matches_closed_form_taylor_reference(self, dt):
        # z = 0 and 4001 log-spaced |z| in [1e-8, 4000], with points hugging
        # the series/closed-form switch at |z| = 1 from both sides
        abs_z = np.concatenate([[0.0], np.geomspace(1e-8, 4000.0, 4001),
                                1.0 + np.array([-1e-6, -1e-12, 0.0, 1e-12, 1e-6])])
        abs_z.sort()
        lin = abs_z / dt
        e_half, e_full, *coeffs = _etdrk4_coeffs(lin, dt)
        assert np.array_equal(e_half, np.exp(-dt * lin / 2.0))
        assert np.array_equal(e_full, np.exp(-dt * lin))
        for got, ref in zip(coeffs, closed_form_taylor_coeffs(lin, dt)):
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_limits_at_zero(self):
        # z = 0 at the mean mode, or at every mode when mu = 0
        dt = 0.25
        for lin in (np.zeros(1), np.zeros(5), np.array([0.0, 1.0, 8.0])):
            _, _, q, f1, f2, f3 = _etdrk4_coeffs(lin, dt)
            zero = lin == 0.0
            assert np.all(q[zero] == dt / 2.0)
            for f in (f1, f2, f3):
                assert np.all(f[zero] == dt / 6.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_lin_is_non_decreasing(self, alpha):
        # the build splits z by index, so it needs lin in ascending order
        for grid in (GridSpec(np.pi, 8), GridSpec(6.0, 4096)):
            lin = _ops(grid, ModelParams(kind="full", mu=0.7, alpha=alpha)).lin
            assert np.all(np.diff(lin) >= 0.0)


def assert_threads_get_their_own_dt(scheme):
    """Threads sharing one table must never be handed the factors that
    ``_Ops.factors`` built for another thread's dt, nor, at the same dt,
    the other scheme's."""
    ops = _ops(GridSpec(np.pi, 8), ModelParams(kind="full", mu=1.0, alpha=2.0))
    other = next(k for k in solver._SCHEMES if k != scheme)
    keys = [(scheme, dt) for dt in (1e-3, 2e-3, 5e-4, 3e-3)] + [(other, 1e-3)]
    refs = {(k, dt): solver._SCHEMES[k][0](ops.lin, dt) for k, dt in keys}
    wrong = []

    def worker(first):
        for i in range(2000):
            key = keys[(first + i // 3) % len(keys)]
            got = ops.factors(*key)
            if len(got) != len(refs[key]) or not all(np.array_equal(a, b) for a, b in zip(got, refs[key])):
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(keys))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def textbook_ifrk4_factors(lin, dt):
    """IF-RK4's integrating factors as the real tables exp(-dt lin / 2) and
    exp(-dt lin)."""
    return np.exp(-0.5 * dt * lin), np.exp(-dt * lin)


def textbook_step_ifrk4(nl, c, dt, k1, factors):
    """One IF-RK4 step written out from the real tables (Kassam & Trefethen
    2005), each product cast as numpy casts it."""
    e_half, e_full = factors
    ec = e_full * c
    k2 = nl(e_half * (c + 0.5 * dt * k1), 0.5)
    k3 = nl(e_half * c + 0.5 * dt * k2, 0.5)
    k4 = nl(ec + dt * e_half * k3, 1.0)
    return ec + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


# each scheme as a ``_SCHEMES`` row whose factors a run makes afresh on
# every step, the reference for the library's: IF-RK4 the textbook build and
# step above, independent of the library's complex tables, ETDRK4 its own
FRESH_SCHEMES = {
    "ifrk4": (textbook_ifrk4_factors, textbook_step_ifrk4),
    "etdrk4": (_etdrk4_coeffs, solver._step_etdrk4),
}


@pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
class TestFactorReuse:
    """Each scheme builds its factors once per distinct (dt, table), so once
    per (rung, dt) of a run, and a run reads bit for bit what it reads with
    the ``FRESH_SCHEMES`` row in place, its factors made on every step."""

    @staticmethod
    def count_builds(monkeypatch, scheme):
        """Log each build as (N of its table's grid, dt)."""
        _ops.cache_clear()  # no table may hold factors from an earlier test
        build, stepper = solver._SCHEMES[scheme]
        seen = []

        def counting(lin, dt):
            seen.append((2 * (lin.size - 1), dt))
            return build(lin, dt)

        monkeypatch.setitem(solver._SCHEMES, scheme, (counting, stepper))
        return seen

    @staticmethod
    def rebuilt_every_step(monkeypatch, scheme):
        build, stepper = FRESH_SCHEMES[scheme]
        monkeypatch.setitem(solver._SCHEMES, scheme, (build, stepper))
        monkeypatch.setattr(solver._Ops, "factors", lambda self, s, dt: build(self.lin, dt))

    def test_evolve_builds_once_per_dt_and_fields_are_unchanged(self, grid, monkeypatch, scheme):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(scheme=scheme, dt_init=1e-3, t_end=0.05, adaptive=False)
        with monkeypatch.context() as m:
            self.rebuilt_every_step(m, scheme)
            ref = evolve(small_datum(grid), p, cfg)
        builds = self.count_builds(monkeypatch, scheme)
        run = evolve(small_datum(grid), p, cfg)
        assert len(run.step_times) == 51
        # the smooth datum steps on the rungs 32 and 64: one build per rung
        # for dt_init, and perhaps one for a last step cut to t_end
        key = set(zip(run.diagnostics["n_modes"].tolist(), run.diagnostics["dt"].tolist()))
        assert sorted(builds) == sorted(key)
        assert len({n for n, _ in builds}) == 2 and len(builds) <= 3
        assert np.array_equal(run.coefs, ref.coefs)

    def test_picard_step_and_symmetry_build_once_per_grid(self, grid, monkeypatch, scheme):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(scheme=scheme, dt_init=1e-3, t_end=0.02, adaptive=False)
        with monkeypatch.context() as m:
            self.rebuilt_every_step(m, scheme)
            ref = picard_solve(small_datum(grid), p, cfg)
            ref_sym = scaling_symmetry_mismatch(small_datum(grid), p, 1.5, 0.02, 20, scheme)
        builds = self.count_builds(monkeypatch, scheme)
        ticks = record_steps(monkeypatch, scheme)
        res = picard_solve(small_datum(grid), p, cfg)
        # one build per rung the solve steps on, in the order it climbs them
        assert sorted(set(ticks)) == [32, 64]
        assert builds == [(32, 1e-3), (64, 1e-3)]
        assert res.gap_history == ref.gap_history
        assert np.array_equal(res.series.final.coef, ref.series.final.coef)
        del builds[:]
        B = small_datum(grid)
        for _ in range(5):
            B, _ = step(B, 0.0, 1e-3, p, cfg)
        assert builds == [(256, 1e-3)]
        # two grids, one dt each: one build per rung a run steps on, and
        # perhaps one for a last step cut to t_end, never two alike
        del builds[:]
        assert scaling_symmetry_mismatch(small_datum(grid), p, 1.5, 0.02, 20, scheme) == ref_sym
        assert 2 <= len(builds) and len(set(builds)) == len(builds)
        assert len({dt for _, dt in builds}) in (2, 3, 4)

    def test_threads_sharing_a_table_get_their_own_dt(self, scheme):
        assert_threads_get_their_own_dt(scheme)

    def test_adaptive_run_rebuilds_when_dt_changes(self, grid, monkeypatch, scheme):
        builds = self.count_builds(monkeypatch, scheme)
        # alpha = 2 keeps the run well posed (max B_x = 2.2 > mu); it takes
        # 10 steps over the rungs 32 to 256
        p = ModelParams(kind="transport", mu=1.0, alpha=2.0)
        cfg = StepperConfig(scheme=scheme, dt_init=1e-2, t_end=0.2)
        run = evolve(small_datum(grid, amp=1.0), p, cfg)
        assert run.termination == "t_end"
        # a build on each step whose dt or ladder rung (so table) is new
        key = list(zip(run.diagnostics["n_modes"].tolist(), run.diagnostics["dt"].tolist()))
        assert builds == [k for n, k in enumerate(key) if n == 0 or k != key[n - 1]]
        assert len(builds) > 5
        for a in _ops(grid, p).factors(scheme, builds[-1][1]):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestStepperConfig:
    # the ids keep the names these cases had beside the former max_steps cases
    @pytest.mark.parametrize("kw", [pytest.param({"snapshot_cadence": 0}, id="kw0"),
                                    pytest.param({"snapshot_cadence": -1}, id="kw2")])
    def test_rejects_nonpositive_counts(self, kw):
        with pytest.raises(ValueError):
            StepperConfig(**kw)

    @pytest.mark.parametrize("kw", [{"dt_init": np.nan}, {"dt_init": np.inf}, {"t_end": np.nan},
                                    {"t_end": np.inf}, {"blowup_threshold": np.nan}])
    def test_rejects_non_finite_times(self, kw):
        with pytest.raises(ValueError):
            StepperConfig(**kw)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, -np.inf])
    def test_rejects_nonpositive_blowup_threshold(self, threshold):
        with pytest.raises(ValueError, match="blowup_threshold must be positive"):
            StepperConfig(blowup_threshold=threshold)

    @pytest.mark.parametrize("kw", [{"dt_init": 0.0}, {"dt_init": -1e-3}, {"t_end": 0.0}, {"t_end": -1.0}])
    def test_rejects_nonpositive_times(self, kw):
        with pytest.raises(ValueError, match="dt_init and t_end must be positive"):
            StepperConfig(**kw)

    @pytest.mark.parametrize("cfl", [0.0, -0.5, 1.0 + 1e-12, 2.0, np.nan])
    def test_rejects_cfl_safety_outside_unit_interval(self, cfl):
        with pytest.raises(ValueError, match=r"cfl_safety must lie in \(0, 1\]"):
            StepperConfig(cfl_safety=cfl)

    def test_cfl_safety_of_one_is_allowed(self):
        assert StepperConfig(cfl_safety=1.0).cfl_safety == 1.0


class TestEvolve:
    def test_reaches_t_end(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.05, adaptive=False)
        run = evolve(small_datum(grid), p, cfg)
        assert run.termination == "t_end"
        assert abs(run.times[-1] - 0.05) < 1e-12

    def test_mean_gauge_preserved(self, grid):
        # the datum's mean is set to zero once: the term is projected
        # mean-free and lin[0] = 0, so no step moves c[0] off exactly 0, not
        # even on a run that overflows; the wild datum fills the band, so
        # its run overflows on N
        B0 = SpectralField.from_phys(grid, small_datum(grid).phys + 0.3)
        wild = SpectralField.from_phys(grid, rough_datum(grid, 1.0, norm=3.0).phys + 0.3)
        fixed = StepperConfig(dt_init=1e-3, t_end=0.02, adaptive=False)
        for scheme in ("ifrk4", "etdrk4"):
            p = ModelParams(kind="full", mu=1.0, alpha=1.0)
            run = evolve(B0, p, replace(fixed, scheme=scheme))
            assert np.all(run.coefs[:, 0] == 0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                run = evolve(wild, p, replace(fixed, scheme=scheme))
            assert run.termination == "non_finite" and np.all(run.coefs[:, 0] == 0.0)
            assert np.all(run.diagnostics["n_modes"] == grid.n_modes)
            # 35 steps on the rungs 32 to 128; every state the observer is
            # handed, its Lambda B and d/dt Lambda B hold c[0] = 0
            rec = Recorder()
            ladder = evolve(B0, p, StepperConfig(scheme=scheme, t_end=1.0), rec)
            rungs = ladder.diagnostics["n_modes"]
            assert rungs[0] < grid.n_modes and len(rungs) > 10
            assert len(rec.c) == len(ladder.step_times)
            assert all(row[0] == 0.0 for row in rec.c + rec.nl + rec.lam_b + rec.lam_b_dot)
            pic = picard_solve(B0, ModelParams(kind="full", mu=1.0, alpha=2.0), replace(fixed, scheme=scheme))
            assert np.all(pic.series.coefs[:, 0] == 0.0)

    def test_observer_s_times_the_observer_calls(self, grid):
        # an observer that sleeps 1 ms per state: observer_s sums at least
        # those sleeps and stays below the run's own wall time
        def sleepy(t, ops, c, nl, last):
            time.sleep(1e-3)

        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.02, adaptive=False)
        start = time.perf_counter()
        run = evolve(small_datum(grid), p, cfg, sleepy)
        wall = time.perf_counter() - start
        states = len(run.step_times)
        assert states == 21
        assert states * 1e-3 <= run.observer_s < wall
        # the run's own snapshot table is its observer too
        assert 0.0 < evolve(small_datum(grid), p, cfg).observer_s
        # a Picard series has no observer
        assert picard_solve(small_datum(grid), p, cfg, k_max=1).series.observer_s == 0.0

    def test_dissipation_contracts_l2(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.1, adaptive=False)
        run = evolve(small_datum(grid), p, cfg)
        assert run.final.l2_norm() < np.sqrt(grid.norm2(run.coefs[0]))

    def test_blowup_threshold_stops_run(self):
        grid = GridSpec(6.0, 512)
        B0 = SpectralField.from_function(grid, lambda x: np.exp(-(x**4)) * np.sin(x))
        p = ModelParams(kind="transport", mu=1.0, alpha=1.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=10.0, blowup_threshold=5.0)
        run = evolve(remove_mean(B0), p, cfg)
        assert run.termination == "blowup_threshold"
        xi = grid.wavenumbers
        sup_final = np.max(np.abs(grid.to_phys(np.abs(xi) * 1j * xi * run.final.coef)))
        assert sup_final > 5.0
        assert run.times[-1] < 10.0

    def test_nan_datum_ends_non_finite(self):
        grid = GridSpec(np.pi, 64)
        phys = 0.05 * np.sin(grid.nodes)
        phys[7] = np.nan
        cfg = StepperConfig(dt_init=1e-3, t_end=0.05)
        run = evolve(SpectralField.from_phys(grid, phys), ModelParams("full", 1.0, 2.0), cfg)
        assert run.termination == "non_finite"
        assert len(run.step_times) == 1

    def test_overflowing_tail_is_not_cut_away(self):
        # a finite datum whose energy overflows, all of it above the band
        # of every halving of N: its tail share reads inf / inf, which no
        # descent may take as small, or the cut would leave a small state
        # and the run would end at t_end
        grid = GridSpec(np.pi, 64)
        c = np.zeros(grid.n_modes // 2 + 1, dtype=complex)
        c[1], c[20] = 0.05, 1e200
        cfg = StepperConfig(dt_init=1e-3, t_end=0.05, adaptive=False)
        with np.errstate(over="ignore", invalid="ignore"):
            run = evolve(SpectralField.from_coef(grid, c), ModelParams("full", 1.0, 2.0), cfg)
        assert run.termination == "non_finite"
        assert np.all(run.diagnostics["n_modes"] == grid.n_modes)

    def test_overflow_on_last_step_ends_non_finite(self, monkeypatch):
        # finite datum whose first step overflows; a step cap of 1 stops the
        # loop before the next step could check the new field
        grid = GridSpec(np.pi, 64)
        B0 = SpectralField.from_function(grid, lambda x: 1e200 * np.sin(3.0 * x))
        cfg = StepperConfig(dt_init=1e-3, t_end=1.0, adaptive=False)
        monkeypatch.setattr(solver, "MAX_STEPS", 1)
        with np.errstate(over="ignore", invalid="ignore"):
            run = evolve(B0, ModelParams("transport", 0.0, 1.0), cfg)
        assert run.termination == "non_finite"
        assert not np.all(np.isfinite(run.final.coef))

    def test_snapshot_cadence(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.02, adaptive=False, snapshot_cadence=5)
        run = evolve(small_datum(grid), p, cfg)
        assert run.coefs.shape == (1 + 20 // 5, grid.n_modes // 2 + 1)
        assert run.times[0] == 0.0 and run.times[-1] == pytest.approx(0.02)

    def test_snapshot_rows_are_the_states(self, grid):
        # the rows equal the states of a step-by-step walk, a cadence keeps
        # every k-th row and the last, and both arrays are read-only; the
        # datum fills the band, so the run stays on N with the walk
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.01, adaptive=False)
        B0 = rough_datum(grid, 1.0)
        every = evolve(B0, p, cfg)
        assert len(every.step_times) == 11
        assert np.all(every.diagnostics["n_modes"] == grid.n_modes)
        B, states = remove_mean(B0), []
        for t, dt in zip(every.step_times, every.diagnostics["dt"]):
            states.append(B.coef)
            B, _ = step(B, t, dt, p, cfg)
        states.append(B.coef)
        assert np.array_equal(every.coefs, states)
        assert np.array_equal(every.times, every.step_times)
        assert np.array_equal(every.final.coef, states[-1])

        sparse = evolve(B0, p, replace(cfg, snapshot_cadence=3))
        idx = np.searchsorted(every.times, sparse.times)
        assert idx.tolist() == [0, 3, 6, 9, 10]
        assert np.array_equal(sparse.coefs, every.coefs[idx])
        for arr in (sparse.times, sparse.coefs):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_fixed_dt_run_writes_each_snapshot_once(self, dense_rough_run, traced_peak):
        # each snapshot row goes straight into the table that ``coefs``
        # views, so no second copy of the rows is ever held: a list of rows
        # and the table built from it peaked at 2.1 tables
        run, peak = traced_peak(dense_rough_run)
        assert run.coefs.shape == (401, 257)
        assert peak <= 1.25 * run.coefs.nbytes

    def test_snapshot_reservation_is_bounded(self):
        # a million fixed steps with a snapshot each would reserve a 244 GiB
        # table up front; the reservation stops at the byte budget, so a run
        # that ends at once still runs
        g = GridSpec(np.pi, 32768)
        c = np.zeros(g.n_modes // 2 + 1, dtype=complex)
        c[1], c[2] = 0.5, np.nan
        cfg = StepperConfig(dt_init=1e-9, t_end=1e-3, adaptive=False, snapshot_cadence=1, blowup_threshold=10.0)
        run = evolve(SpectralField.from_coef(g, c), ModelParams("full", 1.0, 1.5), cfg)
        assert run.termination == "non_finite"
        assert len(run.step_times) == 1
        assert run.coefs.base.nbytes <= solver.TABLE_BUDGET

    def test_table_past_the_budget_doubles(self, grid, monkeypatch):
        # a fixed-dt run whose table outgrows the budget keeps every row
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.02, adaptive=False)
        whole = evolve(small_datum(grid), p, cfg)
        monkeypatch.setattr(solver, "TABLE_BUDGET", 3 * whole.coefs[0].nbytes)
        grown = evolve(small_datum(grid), p, cfg)
        assert len(grown.coefs.base) == 24 and len(whole.coefs.base) == 22
        assert np.array_equal(grown.coefs, whole.coefs) and np.array_equal(grown.times, whole.times)

    def test_observed_rows_shapes(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.01, adaptive=False)
        rec = Recorder()
        run = evolve(small_datum(grid), p, cfg, rec)
        n = len(run.step_times)
        # a fixed-dt run steps on the ladder as well: this one on the rungs
        # 32 and then 64, where it ends, so each state the observer is
        # handed holds its rung's whole half, n/2 + 1 entries on a rung of
        # n modes, and so do its Lambda B and d/dt Lambda B
        rung = run.diagnostics["n_modes"]
        assert rung[0] < rung[-1] < grid.n_modes
        band = (rung // 2 + 1).tolist() + [rung[-1] // 2 + 1]
        for rows in (rec.c, rec.nl, rec.lam_b, rec.lam_b_dot):
            assert len(rows) == n
            assert [row.shape for row in rows] == [(k,) for k in band]

    @pytest.mark.parametrize("cause", ["t_end", "max_steps", "blowup_threshold", "cfl_collapse"])
    def test_stored_fields_cover_every_state(self, monkeypatch, cause):
        """The observer is handed every accepted state, the last included
        and flagged last, whatever stopped the run; the Lambda B and
        Lambda dB/dt it forms from state n are those of state n."""
        if cause == "blowup_threshold":
            g = GridSpec(6.0, 512)
            B0 = remove_mean(SpectralField.from_function(g, lambda x: np.exp(-(x**4)) * np.sin(x)))
            p = ModelParams(kind="transport", mu=1.0, alpha=1.0)
            cfg = StepperConfig(dt_init=1e-3, t_end=10.0, blowup_threshold=5.0)
        elif cause == "cfl_collapse":
            # at 1e12 sin x the CFL bound asks a first step below 1e-12
            g = GridSpec(np.pi, 64)
            B0 = SpectralField.from_function(g, lambda x: 1e12 * np.sin(x))
            p = ModelParams(kind="transport", mu=1.0, alpha=1.0)
            cfg = StepperConfig()
        else:
            g = GridSpec(np.pi, 64)
            B0 = small_datum(g)
            p = ModelParams(kind="full", mu=1.0, alpha=2.0)
            cfg = StepperConfig(dt_init=1e-3, t_end=0.01, adaptive=False)
            if cause == "max_steps":
                monkeypatch.setattr(solver, "MAX_STEPS", 4)
        cfg = replace(cfg, snapshot_cadence=1)
        rec = Recorder()
        run, observed = evolve(B0, p, cfg), evolve(B0, p, cfg, rec)
        assert run.termination == observed.termination == cause
        assert len(rec.lam_b) == len(rec.lam_b_dot) == len(run.step_times)
        assert np.array_equal(run.times, run.step_times) and np.array_equal(rec.t, run.step_times)
        assert rec.last == [False] * (len(rec.t) - 1) + [True]
        absxi = np.abs(g.wavenumbers)
        half = g.n_modes // 2 + 1
        assert padded(rec.c, half).tobytes() == run.coefs.tobytes()
        lam_b, lam_b_dot = padded(rec.lam_b, half), padded(rec.lam_b_dot, half)
        for n, c in enumerate(run.coefs):
            assert rec.lam_b_dot[n].size == rec.lam_b[n].size
            assert np.array_equal(lam_b[n], absxi * c)
            dot = absxi * rhs(SpectralField.from_coef(g, c), p).coef
            assert np.allclose(lam_b_dot[n], dot, rtol=0.0, atol=1e-13 * np.max(np.abs(dot)))

    def test_adaptive_dt_obeys_cfl(self, grid):
        p = ModelParams(kind="transport", mu=1.0, alpha=1.0)
        cfg = StepperConfig(dt_init=1.0, t_end=0.2, cfl_safety=0.4)
        run = evolve(small_datum(grid, amp=0.5), p, cfg)
        dts = run.diagnostics["dt"][:-1]  # last step is clipped to t_end
        rungs = run.diagnostics["n_modes"][:-1]
        assert rungs[0] < grid.n_modes
        # the advective bound takes the dx of the rung the step was taken on
        bound = 0.4 * (2.0 * grid.half_length / rungs) / run.diagnostics["sup_lam_b"][:-1]
        assert np.all(dts <= bound + 1e-15)

    @pytest.mark.parametrize("kind", ["full", "transport"])
    def test_sups_reuse_the_nonlinear_transforms(self, monkeypatch, kind):
        # every state, on any rung, takes one stack onto the finest nodes,
        # rows[:4] (full) or rows[:3] (transport), for its sups and its
        # nonlinear term k1; nonlinear is called by the three later stages of
        # each step only, each transforming rows[:4] or rows[:2] on the rung
        g = GridSpec(np.pi, 64)
        p = ModelParams(kind=kind, mu=1.0, alpha=1.5)
        ops = _ops(g, p)
        nl_rows, state_rows = (4, 4) if kind == "full" else (2, 3)
        B0 = small_datum(g, amp=1.0)
        nonlinear_calls, stepped = [], []
        nonlinear = solver._Ops.nonlinear
        build, stepper = solver._SCHEMES["ifrk4"]

        def counted(self, c, tau=0.0):
            nonlinear_calls.append(self.grid.n_modes)
            return nonlinear(self, c, tau)

        def recorded(nl, c, dt, k1, factors):
            stepped.append((nl.__self__, c, k1))  # nl is the rung table's bound nonlinear
            return stepper(nl, c, dt, k1, factors)

        with monkeypatch.context() as m:
            calls = record_to_phys(m)
            m.setattr(solver._Ops, "nonlinear", counted)
            m.setitem(solver._SCHEMES, "ifrk4", (build, recorded))
            run = evolve(B0, p, StepperConfig(t_end=1.0, snapshot_cadence=1))
        states = len(run.step_times)
        assert states > 10
        # this run only climbs, so the last state is on N when the last step was
        rungs = run.diagnostics["n_modes"]
        assert np.all(np.diff(rungs) >= 0) and rungs[-1] == g.n_modes
        assert np.any(rungs < g.n_modes)

        expected, expected_nl = [], []
        for n in range(states):
            expected.append((g.n_modes, state_rows))
            if n < len(rungs):  # the step's three later stages
                expected += 3 * [(rungs[n], nl_rows)]
                expected_nl += 3 * [rungs[n]]
        assert calls == expected
        assert nonlinear_calls == expected_nl

        # k1, read at the rung's nodes of the finest grid's stack, is the
        # rung's own nonlinear term: bitwise on N, to roundoff below it
        assert [o.grid.n_modes for o, _, _ in stepped] == list(rungs)
        for o, c, k1 in stepped:
            ref = nonlinear(o, c)
            if o.grid.n_modes == g.n_modes:
                assert np.array_equal(k1, ref)
            else:
                assert np.max(np.abs(k1 - ref)) <= 1e-14 * np.max(np.abs(ref))

        diag = run.diagnostics
        for n, c in enumerate(run.coefs[: states - 1]):
            sup_lb = np.max(np.abs(g.to_phys(ops.rows[1] * c)))
            sup_lbx = np.max(np.abs(g.to_phys(ops.rows[2] * c)))
            assert diag["sup_lam_b"][n] == sup_lb and diag["sup_lam_bx"][n] == sup_lbx
            if kind == "full" and n < states - 2:  # the last step is cut to t_end
                # dx and xi_max are the rung's, the sups the finest nodes'
                sup_b = np.max(np.abs(g.to_phys(c)))
                r = GridSpec(np.pi, int(rungs[n]))
                rate = max(sup_lb / r.dx, sup_lbx, sup_b / (2.0 / r.xi_max_dealiased**2))
                assert diag["dt"][n] == 0.5 / rate


class TestDispersiveBound:
    """The full model's adaptive dt honours the dispersive cap of its
    B (Lambda B)_x term: without it the step runs off RK4's stability region
    and the run ends at t_end on garbage."""

    # final sup|Lambda B_x| of fixed-dt runs (IF-RK4, dt = 1e-5, 5000 steps)
    # from the paper_blowup datum on GridSpec(6, 512) with mu = 1 to t = 0.05
    FIXED_DT_SUP_LAMBDA_BX = {
        1.0: 3.2979895712973892, 1.5: 2.5042552748815314, 2.0: 1.9103944796705927,
    }

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_adaptive_matches_fixed_fine_dt(self, alpha, scheme):
        from emhd1d.blowup import make_reference_datum

        g = GridSpec(6.0, 512)
        p = ModelParams(kind="full", mu=1.0, alpha=alpha)
        cfg = StepperConfig(scheme=scheme, t_end=0.05, snapshot_cadence=10**9)
        run = evolve(make_reference_datum(g).B0, p, cfg)
        assert run.termination == "t_end"
        sup = np.max(np.abs(g.to_phys(_ops(g, p).rows[2] * run.final.coef)))
        ref = self.FIXED_DT_SUP_LAMBDA_BX[alpha]
        assert abs(sup - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("kind", ["transport", "full"])
    def test_bound_names_the_largest_rate(self, kind):
        # ``bound`` is the argmax of sup / scale: 0 advective, sup|Lambda B| / dx;
        # 1 Riccati, sup|Lambda B_x|; 2 dispersive (full model only),
        # sup|B| / (2 / xi_max^2), with sup|B| read here from the snapshot
        # rows on the finest nodes.  On L = 6 the Riccati rate wins only on
        # a grid as coarse as N = 64.
        g = GridSpec(6.0, 64 if kind == "transport" else 512)
        B0 = remove_mean(SpectralField.from_function(g, lambda x: np.exp(-(x**4)) * np.sin(x)))
        cfg = StepperConfig(t_end=10.0 if kind == "transport" else 0.005, blowup_threshold=5.0, snapshot_cadence=1)
        run = evolve(B0, ModelParams(kind=kind, mu=1.0, alpha=1.0), cfg)
        d = run.diagnostics
        rates = [d["sup_lam_b"] / g.dx, d["sup_lam_bx"]]
        if kind == "full":
            rates.append(np.max(np.abs(g.to_phys(run.coefs[:-1])), axis=-1) / (2.0 / g.xi_max_dealiased**2))
        assert np.array_equal(d["bound"], np.argmax(rates, axis=0))
        assert set(d["bound"]) == ({0, 1} if kind == "transport" else {2})

    def test_transport_does_not_take_the_cap(self):
        # the dispersive cap needs one extra transform per step; the
        # transport model must not pay for it
        g = GridSpec(6.0, 256)
        B0 = remove_mean(SpectralField.from_function(g, lambda x: np.exp(-(x**4)) * np.sin(x)))
        p = ModelParams(kind="transport", mu=1.0, alpha=1.0)
        run = evolve(B0, p, StepperConfig(t_end=0.05, snapshot_cadence=10**9))
        d = run.diagnostics
        bound = 0.5 / np.maximum(d["sup_lam_b"] / g.dx, d["sup_lam_bx"])
        assert np.array_equal(d["dt"][:-1], np.minimum(bound, 1e3)[:-1])


class TestGridLadder:
    """Adaptive runs step on the coarsest grid their spectrum fits; the sups
    that set dt or stop the run are read on the finest grid's nodes, and dt
    takes its scale from the rung the step is taken on."""

    @staticmethod
    def blowup_run(observe=None, **kw):
        # the reference blowup datum at N = 2048 starts on the N = 512 rung
        from emhd1d.blowup import make_reference_datum

        g = GridSpec(6.0, 2048)
        p = ModelParams(kind="transport", mu=1.0, alpha=1.0)
        cfg = StepperConfig(t_end=10.0, blowup_threshold=5.0, **kw)
        return g, p, evolve(make_reference_datum(g).B0, p, cfg, observe)

    def test_sups_are_read_on_the_finest_nodes_and_dt_on_the_rung(self):
        rec = Recorder()
        g, p, run = self.blowup_run(rec)
        assert run.termination == "blowup_threshold"
        rungs = run.diagnostics["n_modes"]
        assert rungs[0] < g.n_modes and rungs[-1] == g.n_modes
        assert np.all(np.diff(rungs) >= 0)
        ops = _ops(g, p)
        steps = len(rungs)
        coefs = padded(rec.c, g.n_modes // 2 + 1)
        for n in range(steps):
            assert run.diagnostics["sup_lam_b"][n] == np.max(np.abs(g.to_phys(rec.lam_b[n])))
            assert run.diagnostics["sup_lam_bx"][n] == np.max(np.abs(g.to_phys(ops.rows[2] * coefs[n])))
        d = run.diagnostics
        rung_dx = np.array([GridSpec(6.0, int(m)).dx for m in rungs])
        bound = 0.5 / np.maximum(d["sup_lam_b"] / rung_dx, d["sup_lam_bx"])
        assert np.array_equal(d["dt"], np.minimum(bound, 1e3))  # the cap is 1e6 dt_init
        assert np.array_equal(d["bound"], np.argmax(np.stack((d["sup_lam_b"] / rung_dx, d["sup_lam_bx"])), axis=0))

    def test_max_lam_bx_is_the_signed_max_on_the_finest_nodes(self):
        # read off the stack that gives the state's sups, on every rung
        g, p, run = self.blowup_run(snapshot_cadence=1)
        d = run.diagnostics
        assert np.any(d["n_modes"] < g.n_modes)
        rows = _ops(g, p).rows[2] * run.coefs[:-1]
        assert d["max_lam_bx"].tolist() == [np.max(g.to_phys(row)) for row in rows]
        assert np.all(d["max_lam_bx"] <= d["sup_lam_bx"])

    @pytest.mark.parametrize("kind", ["full", "transport"])
    def test_sups_of_a_zero_field_are_the_zero_of_abs(self, kind):
        # the sups come from a max and a min pass, max(max x, -min x); on a
        # zero field that is -0.0 unless made the +0.0 that max|x| reads
        g = GridSpec(np.pi, 64)
        run = evolve(SpectralField.from_coef(g, np.zeros(33)), ModelParams(kind, 1.0, 1.0), StepperConfig(t_end=0.01))
        d = run.diagnostics
        assert run.termination == "t_end"
        for key in ("sup_lam_b", "sup_lam_bx"):
            assert np.all(d[key] == 0.0) and not np.any(np.signbit(d[key]))

    @staticmethod
    def bands(g, run):
        """Row length of each step boundary's rung, its whole half: n/2 + 1
        on a rung of n modes; the run ends on N."""
        rung = run.diagnostics["n_modes"]
        assert rung[-1] == g.n_modes
        return (rung // 2 + 1).tolist() + [g.n_modes // 2 + 1]

    def test_rows_are_padded_to_the_finest_grid(self):
        # a snapshot row made on a coarse rung is padded to N/2 + 1 and holds
        # no mode above that rung's band; the observed rows keep that band only
        g, p, run = self.blowup_run(snapshot_cadence=1)
        rec = Recorder()
        self.blowup_run(rec)
        half = g.n_modes // 2 + 1
        assert run.coefs.shape == (len(run.step_times), half)
        assert len(rec.lam_b) == len(rec.lam_b_dot) == len(run.step_times)
        band = self.bands(g, run)
        assert [row.size for row in rec.lam_b] == [row.size for row in rec.lam_b_dot] == band
        first = int(run.diagnostics["n_modes"][0])
        assert first < g.n_modes
        assert np.all(run.coefs[0, first // 2 :] == 0.0) and np.any(run.coefs[0, : first // 2] != 0.0)
        for n, k in enumerate(band):
            assert not np.any(run.coefs[n, k:])
            if k < half:  # a coarse rung's Nyquist entry stays exactly 0
                assert run.coefs[n, k - 1] == rec.lam_b[n][-1] == rec.lam_b_dot[n][-1] == 0.0

    def test_adaptive_table_doubles_and_pads_each_row(self, traced_peak):
        # an adaptive run starts with a two-row table and doubles it when it
        # is full; each row is its rung-sized state zero-padded, whatever
        # the cadence, and the traced peak stays under
        # 2.25 tables (the old table and its double make 1.5 at a growth)
        from emhd1d.blowup import make_reference_datum

        g = GridSpec(6.0, 1024)
        p = ModelParams(kind="transport", mu=1.0, alpha=1.0)
        B0 = make_reference_datum(g).B0
        every, peak = traced_peak(lambda: evolve(B0, p, StepperConfig(t_end=0.3, snapshot_cadence=1)))
        table = every.coefs.base
        assert len(table) >= 8  # two doublings at least
        assert peak <= 2.25 * table.nbytes
        # row 0 is on the start rung, row n on the rung of step n
        rung = every.diagnostics["n_modes"]
        rung = np.concatenate((rung[:1], rung))
        assert len(set(rung)) > 1
        rows = [c[: m // 2 + 1] for c, m in zip(every.coefs, rung)]
        assert padded(rows, g.n_modes // 2 + 1).tobytes() == every.coefs.tobytes()
        sparse = evolve(B0, p, StepperConfig(t_end=0.3, snapshot_cadence=3))
        assert len(sparse.coefs.base) != len(table)
        idx = np.searchsorted(every.times, sparse.times)
        assert sparse.coefs.tobytes() == every.coefs[idx].tobytes()

    @pytest.mark.parametrize("case", ["fixed_dt_steps_down", "adaptive_climbs"])
    def test_keep_takes_the_table_rows(self, case):
        # a run given the observer ``snapshots(keep, cadence)`` hands
        # ``keep`` each snapshot row at its rung's length, in order, which
        # zero-padded is bitwise the table row of the run made without it;
        # it holds no rows itself, and the rest of its result is the table
        # run's
        kept = []

        def keep(t, c):
            kept.append((t, c.copy()))

        if case == "adaptive_climbs":
            g, _, run = self.blowup_run(snapshot_cadence=3)
            _, _, streamed = self.blowup_run(snapshots(keep, 3), snapshot_cadence=3)
            assert np.all(np.diff(run.diagnostics["n_modes"]) >= 0)
        else:
            g = GridSpec(np.pi, 256)
            p = ModelParams(kind="full", mu=1.0, alpha=1.5)
            B0 = rough_datum(g, 1.0, seed=3)
            # 315 steps at a cadence of 4: the last state is kept off the cadence
            cfg = StepperConfig(dt_init=2.0**-10, t_end=315 * 2.0**-10, adaptive=False, snapshot_cadence=4)
            run, streamed = evolve(B0, p, cfg), evolve(B0, p, cfg, snapshots(keep, 4))
            assert np.all(np.diff(run.diagnostics["n_modes"]) <= 0)
        times, rows = zip(*kept)
        assert np.array_equal(times, run.times)
        # each row on the rung its state steps from (the last state takes no step)
        rung = run.diagnostics["n_modes"]
        state = np.searchsorted(run.step_times, times)[:-1]
        assert [row.size for row in rows[:-1]] == (rung[state] // 2 + 1).tolist()
        assert len({row.size for row in rows}) > 1
        assert padded(rows, g.n_modes // 2 + 1).tobytes() == run.coefs.tobytes()
        assert streamed.times.shape == (0,) and streamed.coefs.shape == (0, g.n_modes // 2 + 1)
        assert streamed.termination == run.termination
        assert np.array_equal(streamed.step_times, run.step_times)
        assert streamed.diagnostics.keys() == run.diagnostics.keys()
        for key, col in run.diagnostics.items():
            assert np.array_equal(streamed.diagnostics[key], col)
        assert streamed.observer is not None and run.observer is None

    def test_step_rows_are_read_only_rung_bands_of_the_states(self):
        # the observer is handed each state's c and nl read-only, at its
        # rung's band, and the run itself stores no step rows
        g, p, run = self.blowup_run(snapshot_cadence=1)
        rec = Recorder()
        _, _, observed = self.blowup_run(rec)
        band = self.bands(g, run)
        assert 1 < len(set(band)) and band[0] < band[-1]
        absxi = np.abs(g.wavenumbers)
        for n, k in enumerate(band):
            assert np.array_equal(rec.lam_b[n], (absxi * run.coefs[n])[:k])
            for row in (rec.c[n], rec.nl[n]):
                assert row.size == k
                with pytest.raises(ValueError):
                    row[0] = 1.0
        for r in (run, observed):
            assert r.lam_b.size == r.lam_b_dot.size == 0 and r.lam_b.nbytes == r.lam_b_dot.nbytes == 0
            assert not r.lam_b.flags.writeable and not r.lam_b_dot.flags.writeable

    def test_rough_datum_never_leaves_n_and_fixed_dt_starts_coarse(self):
        # one rule picks the rung of every run: a datum that fills the band
        # stays on N, adaptive or not, and a smooth one starts on the same
        # coarse rung whether dt is fixed or adaptive
        g = GridSpec(np.pi, 256)
        p = ModelParams(kind="full", mu=1.0, alpha=1.5)
        rough = rough_datum(g, s_base=1.0, seed=2)
        for cfg in (StepperConfig(dt_init=1e-9, t_end=0.01), StepperConfig(dt_init=1e-3, t_end=0.01, adaptive=False)):
            run = evolve(rough, p, cfg)
            assert len(run.step_times) > 5
            assert np.all(run.diagnostics["n_modes"] == g.n_modes)
        smooth = small_datum(g)
        fixed = evolve(smooth, p, StepperConfig(dt_init=1e-3, t_end=0.01, adaptive=False))
        adaptive = evolve(smooth, p, StepperConfig(t_end=0.01))
        assert fixed.diagnostics["n_modes"][0] == adaptive.diagnostics["n_modes"][0] < g.n_modes

    def test_dissipative_fixed_dt_run_steps_down(self):
        # the CLI run benchmark's config, seed 5: dissipation empties the top
        # of the band, so the fixed-dt run steps down to N/2 (at step 327)
        # and N/4 (step 969) and never back up; its snapshots stay a
        # single-grid walk's on N, 3.5e-18 apart in x against a sup of 1.6e-2
        # (the same on seeds 0, 41, 77 and 1234)
        g = GridSpec(np.pi, 2048)
        p = ModelParams(kind="full", mu=1.0, alpha=1.5)
        cfg = StepperConfig(dt_init=2e-5, t_end=0.02, adaptive=False, snapshot_cadence=2)
        B0 = rough_datum(g, 1.0, seed=5)
        run = evolve(B0, p, cfg)
        rung = run.diagnostics["n_modes"]
        assert run.termination == "t_end" and len(rung) == 1000
        assert rung[0] == g.n_modes and g.n_modes // 2 in rung
        assert np.all(np.diff(rung) <= 0)
        B = remove_mean(B0)
        walk = [B.coef]
        for n, dt in enumerate(run.diagnostics["dt"], 1):
            B, _ = step(B, 0.0, dt, p, cfg)
            if n % 2 == 0:
                walk.append(B.coef)
        assert np.array_equal(run.times, run.step_times[::2])
        ref = g.to_phys(np.array(walk))
        assert np.max(np.abs(g.to_phys(run.coefs) - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestIllPosedGuard:
    """A transport run stops as ``ill_posed`` once its linear symbol
    a xi - mu xi^alpha has amplified roundoff by e^18, before its blowup stop
    at 50 w0; well-posed runs stay far below that.  Adaptive IF-RK4 from the
    reference datum on L = 6."""

    @staticmethod
    def run(n, alpha, mu, amp=1.0, t_end=None, threshold=50.0):
        from emhd1d.blowup import make_reference_datum

        g = GridSpec(6.0, n)
        d = make_reference_datum(g)
        B0 = SpectralField.from_coef(g, amp * d.B0.coef)
        cfg = StepperConfig(dt_init=1e-4, t_end=t_end or 10.0 / d.w0, blowup_threshold=threshold * d.w0,
                            snapshot_cadence=1)
        return g, d, evolve(B0, ModelParams("transport", mu, alpha), cfg)

    @pytest.mark.parametrize(
        "n, alpha, mu, amp, t_over_T",
        [
            (1024, 0.5, 1.0, 1.0, 0.200), (2048, 0.5, 1.0, 1.0, 0.168),  # alpha < 1
            (1024, 1.0, 0.0, 1.0, 0.175), (2048, 1.0, 0.0, 1.0, 0.147),  # no dissipation
            (2048, 1.0, 1.0, 1.2, 0.393),  # alpha = 1 with sup B_x = 1.2 > mu
        ],
    )
    def test_fires_on_ill_posed_configurations(self, n, alpha, mu, amp, t_over_T):
        g, d, run = self.run(n, alpha, mu, amp)
        assert run.termination == "ill_posed"
        assert run.step_times[-1] * d.w0 == pytest.approx(t_over_T, abs=5e-4)
        diag = run.diagnostics
        G = diag["G"]
        assert G[-2] <= solver.ILL_POSED_GAIN < G[-1]
        # a is max B_x on the finest nodes, and G sums max(0, gamma) dt
        # with xi the top of the step's rung's dealiased band
        a = [np.max(g.to_phys(_ops(g, run.params).rows[0] * c)) for c in run.coefs[:-1]]
        assert np.array_equal(diag["a"], a)
        xi = np.array([GridSpec(6.0, int(m)).xi_max_dealiased for m in diag["n_modes"]])
        assert np.array_equal(diag["gamma"], diag["a"] * xi - mu * xi**alpha)
        assert G.tobytes() == np.cumsum(np.maximum(0.0, diag["gamma"]) * diag["dt"]).tobytes()

    @pytest.mark.parametrize(
        "n, amp, t_end, gain",
        [
            (1024, 1.0, 1.5, 1.448e-2), (2048, 1.0, 1.5, 7.93e-3),  # past T
            (2048, 0.8, 0.35, 0.0),  # sup B_x = 0.8 < mu: a well-posed global run
        ],
    )
    def test_well_posed_runs_reach_t_end(self, n, amp, t_end, gain):
        _, _, run = self.run(n, 1.0, 1.0, amp, t_end=t_end, threshold=np.inf)
        assert run.termination == "t_end"
        assert run.diagnostics["G"][-1] == (pytest.approx(gain, rel=1e-2) if gain else 0.0)

    def test_reference_blowup_is_far_from_the_gain(self):
        from emhd1d.blowup import run_blowup

        run, _ = run_blowup(GridSpec(6.0, 2048))
        assert run.termination == "blowup_threshold"
        assert run.diagnostics["G"][-1] == pytest.approx(8.29e-3, rel=1e-2)

    def test_full_model_records_the_gain_but_runs_on(self):
        from emhd1d.blowup import make_reference_datum

        g = GridSpec(6.0, 512)
        run = evolve(make_reference_datum(g).B0, ModelParams("full", 0.0, 1.0), StepperConfig(dt_init=1e-4, t_end=0.3))
        assert run.termination == "t_end"
        assert run.diagnostics["G"][-1] > solver.ILL_POSED_GAIN


class TestScalingSymmetry:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_rescaled_run_matches(self, alpha):
        """lam^(alpha-2) B(lam x, lam^alpha t) solves the same model; the
        discrete schemes commute with the rescaling when dt is matched."""
        lam = 2.0
        grid_a = GridSpec(np.pi, 256)
        grid_b = GridSpec(np.pi / lam, 256)
        B_a = small_datum(grid_a)
        B_b = SpectralField.from_phys(grid_b, lam ** (alpha - 2.0) * B_a.phys)
        p = ModelParams(kind="full", mu=1.0, alpha=alpha)
        t_b, n = 0.05, 50
        cfg_b = StepperConfig(dt_init=t_b / n, t_end=t_b, adaptive=False, snapshot_cadence=10**9)
        cfg_a = StepperConfig(dt_init=lam**alpha * t_b / n, t_end=lam**alpha * t_b,
                              adaptive=False, snapshot_cadence=10**9)
        fin_a = evolve(B_a, p, cfg_a).final
        fin_b = evolve(B_b, p, cfg_b).final
        ref = lam ** (alpha - 2.0) * fin_a.phys
        rel = np.linalg.norm(fin_b.phys - ref) / np.linalg.norm(ref)
        assert rel <= 1e-6


class TestPicard:
    def test_requires_full_model_with_dissipation(self, grid):
        cfg = StepperConfig(dt_init=1e-3, t_end=0.1)
        with pytest.raises(ValueError):
            picard_solve(small_datum(grid), ModelParams(kind="transport", mu=1.0, alpha=1.0), cfg)

    def test_geometric_convergence(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.1, adaptive=False)
        res = picard_solve(small_datum(grid), p, cfg)
        assert isinstance(res, PicardResult)
        assert res.converged
        gaps = np.array(res.gap_history)
        assert np.all(gaps[1:] < 0.5 * gaps[:-1])

    def test_iterates_hold_each_final_row(self, grid):
        # iterate k is the final row of a solve stopped after k + 1 iterates,
        # kept apart from the buffer the next iterate is stepped in
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.05, adaptive=False)
        res = picard_solve(small_datum(grid), p, cfg, k_max=2)
        assert len(res.iterates) == 3
        for k, row in enumerate(res.iterates):
            assert np.array_equal(row, picard_solve(small_datum(grid), p, cfg, k_max=k).series.coefs[-1])

    def test_series_rows_are_the_last_iterate(self, grid):
        # iterate 0 is the dissipation semigroup, so its row n is
        # exp(-t_n mu |xi|^alpha) B0; the rows are read-only
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.01, adaptive=False)
        B0 = remove_mean(small_datum(grid))
        res = picard_solve(B0, p, cfg, k_max=0)
        series = res.series
        assert np.array_equal(series.times, series.step_times)
        semigroup = np.exp(-series.times[:, None] * _ops(grid, p).lin) * B0.coef
        assert np.allclose(series.coefs, semigroup, rtol=0.0, atol=1e-14 * np.max(np.abs(B0.coef)))
        assert np.array_equal(series.final.coef, res.iterates[-1])
        for arr in (series.times, series.coefs):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_gap_is_inhomogeneous_sobolev_norm(self, grid):
        # the first gap is sup over stored steps of ||v1 - v0||_{H^(3 - alpha)}
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.05, adaptive=False)
        v0 = picard_solve(small_datum(grid), p, cfg, k_max=0).series.coefs
        res = picard_solve(small_datum(grid), p, cfg, k_max=1)
        v1 = res.series.coefs
        gap = max(
            np.sqrt(grid.norm2(a - b, sobolev_weight(grid.wavenumbers, 3.0 - p.alpha, homogeneous=False)))
            for a, b in zip(v1, v0, strict=True)
        )
        assert res.gap_history[0] == pytest.approx(gap, rel=1e-14)

    def test_limit_matches_nonlinear_solver(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.1, adaptive=False)
        res = picard_solve(small_datum(grid), p, cfg)
        fine = StepperConfig(dt_init=2.5e-4, t_end=0.1, adaptive=False, snapshot_cadence=10**9)
        ref = evolve(small_datum(grid), p, fine).final
        diff = np.sqrt(grid.norm2(res.series.final.coef - ref.coef))
        assert diff <= 1e-6

    @staticmethod
    def reference_iterates(B0, p, cfg, k_max, rungs=None):
        """Picard's loop with each stage's frozen term made from scratch:
        the previous iterate interpolated to the stage time, and one inverse
        transform per physical field (``per_row``).  Returns each iterate's
        rows, zero-padded to N/2 + 1, and the gap of each iterate k >= 1.

        Every state is on N unless ``rungs`` is given: the datum's rung, then
        the rung of each tick's step in a pipelined solve.  Iterate 0 starts
        on tick 0, iterate 1 on tick 1 and iterate k + 1 on the tick after
        iterate k's running gap stops being below 1e-10; iterate k's step n
        runs on the rung of tick s_k + n, and its state n's term and gap on
        that of tick s_k + n - 1, with the datum cut to its rung."""
        g = B0.grid
        half = g.n_modes // 2 + 1
        build, stepper = solver._SCHEMES[cfg.scheme]
        m = round(cfg.t_end / cfg.dt_init)
        dt = cfg.t_end / m

        def on(tick):
            """The table of the rung of tick ``tick``'s step."""
            return _ops(g if rungs is None else GridSpec(g.half_length, rungs[tick + 1]), p)

        def widen(a, size):
            return np.concatenate((a, np.zeros(size - a.size, dtype=complex)))

        c0 = B0.coef.copy()
        c0[0] = 0.0
        if rungs is not None:
            c0[rungs[0] // 2 :] = 0.0
        prev, out, gaps, start = None, [], [], 0
        for _ in range(k_max + 1):
            vals = np.zeros((m + 1, half), dtype=complex)
            dots = np.zeros_like(vals)

            def nl(ops, c, tau):
                if prev is None:
                    return np.zeros_like(c)
                # a stored row at tau = 0 and 1, the Hermite midpoint at 1/2
                pv, pd = (table[:, : c.size] for table in prev)
                a = solver.hermite(pv, pd, n, dt) if tau == 0.5 else pv[n + int(tau)]
                return per_row(ops.grid, a, c)

            c = c0[: on(start - 1).xi.size]
            # a gap that never passes 1e-10 would start no successor: the
            # next iterate then starts after this one retires
            run, nxt = (0.0 if prev else np.inf), start + m + 1
            for n in range(m + 1):
                ops = on(start + n - 1)
                c = widen(c, ops.xi.size)
                k1 = nl(ops, c, 0.0)
                vals[n, : c.size] = c
                dots[n, : c.size] = k1 - ops.lin * c
                if prev:
                    w = sobolev_weight(ops.xi, 3.0 - p.alpha, homogeneous=False)
                    run = np.maximum(run, np.sqrt(ops.grid.norm2(c - prev[0][n, : c.size], w)))
                if not run < 1e-10:
                    nxt = min(nxt, start + n + 1)
                if n < m:
                    ops = on(start + n)
                    c, k1 = widen(c, ops.xi.size), widen(k1, ops.xi.size)
                    c = stepper(lambda c, tau: nl(ops, c, tau), c, dt, k1, build(ops.lin, dt))
            if prev:
                gaps.append(float(run))
            prev, start = (vals, dots), nxt
            out.append(vals)
        return out, gaps

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_frozen_table_matches_per_stage_reference(self, scheme):
        # the frozen fields each stage reads, at t_n and at t_(n+1/2), are
        # bitwise the ones it would make for itself, for iterate 0 alone
        # (against the reference's zero-nonlinearity loop), for iterates 0
        # and 1, and with iterates 0-3 stepped together as rows of one stack
        g = GridSpec(np.pi, 98)
        p = ModelParams(kind="full", mu=1.0, alpha=1.5)
        cfg = StepperConfig(scheme=scheme, dt_init=1e-3, t_end=0.02, adaptive=False)
        B0 = small_datum(g, amp=0.5)
        for k_max in (0, 1, 3):
            res = picard_solve(B0, p, cfg, k_max=k_max)
            refs, gaps = self.reference_iterates(B0, p, cfg, k_max=k_max)
            assert k_max == 0 or not np.array_equal(refs[0], refs[1])
            assert not res.converged
            assert np.array_equal(res.series.coefs, refs[-1])
            assert np.array_equal(res.iterates, [v[-1] for v in refs])
            assert res.gap_history == gaps

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_nan_gap_never_converges(self, scheme):
        # a NaN gap is never below the tolerance, so each iterate starts its
        # successor and the solve runs to k_max with the reference's gaps:
        # from a datum whose iterates 1-3 grow and overflow, and from a NaN
        # datum, whose gaps are NaN from state 0 on, so that each iterate
        # starts one tick after its predecessor; each fails the ladder's test
        # on the halving 16, so the solve steps on N = 32 throughout
        g = GridSpec(np.pi, 32)
        p = ModelParams(kind="full", mu=0.1, alpha=1.0)
        cfg = StepperConfig(scheme=scheme, dt_init=1e-2, t_end=0.2, adaptive=False)
        nan_datum = SpectralField.from_coef(g, np.full(17, np.nan))
        for B0, finite in ((small_datum(g, amp=5.0), 3), (nan_datum, 0)):
            with np.errstate(all="ignore"):
                res, ticks = solve_logged(B0, p, cfg, k_max=5)
                _, gaps = self.reference_iterates(B0, p, cfg, k_max=5)
            assert set(ticks) == {32} and set(res.series.diagnostics["n_modes"]) == {32}
            assert np.isfinite(gaps[:finite]).all() and np.isnan(gaps[finite:]).all()
            assert not res.converged
            assert len(res.iterates) == 6
            np.testing.assert_array_equal(res.gap_history, gaps)

    def test_one_transform_per_iterate_and_two_rows_per_stage(self, grid, monkeypatch):
        # iterates 0-2 step together: iterate 0 starts on tick 0, iterate 1
        # on tick 1, and iterate 2 on tick 3, the tick after iterate 1's gap
        # passes 1e-10 at its state 1.  A tick transforms C_x and Lambda C_x
        # of every iterate in flight in one call, then Lambda A and A at
        # t_(n+1/2) and t_(n+1) of every one that steps, then each later
        # stage; a starting iterate first transforms Lambda A and A at t_0.
        # Each iterate, iterate 0 with its zero predecessor included,
        # transforms (2m + 1) * 2 frozen rows and (4m + 1) * 2 stage rows.
        # A tick's calls up to its step are on the rung its previous step
        # took, or the datum's rung 32 on tick 0 (modes 1 and 3 lie below
        # rung 32's tail, mode 6, but not below rung 16's, mode 3), and its
        # step's calls on the rung of that step
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        m, k_max, starts = 20, 2, (0, 1, 3)
        cfg = StepperConfig(dt_init=1e-3, t_end=m * 1e-3, adaptive=False)
        B0 = small_datum(grid)
        calls = record_to_phys(monkeypatch)
        res, ticks = solve_logged(B0, p, cfg, k_max=k_max)
        assert not res.converged
        assert len(ticks) == starts[-1] + m
        assert res.series.diagnostics["n_modes"].tolist() == ticks[-m:]
        expected = []
        for tick, before in enumerate([32] + ticks):
            expected += [(before, 2)] if tick in starts else []
            states = [tick - s for s in starts if 0 <= tick - s <= m]
            stepping = sum(n < m for n in states)
            expected += [(before, 2 * len(states))]
            expected += [(ticks[tick], rows) for rows in [4 * stepping] + 3 * [2 * stepping]] if stepping else []
        assert calls == expected
        assert sum(rows for _, rows in expected) == (k_max + 1) * ((2 * m + 1) * 2 + (4 * m + 1) * 2)
        # the solve climbs from rung 32 to 64 and stays below N
        assert ticks[0] == 32 and ticks[-1] == 64 and np.all(np.diff(ticks) >= 0)
        # fewer calls than one iterate at a time makes, even one whose
        # iterate 0 transforms nothing
        assert len(calls) < k_max * (4 * m + 2)

    def test_criterion_7_steps_below_n(self, grid):
        # criterion 7's datum and config at N = 256: the solve starts on
        # rung 32, climbs, never steps down and never steps above 128; it is
        # bitwise the reference stepped one iterate after the other on the
        # recorded rungs, and within roundoff of the reference on N
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.1, adaptive=False)
        B0 = small_datum(grid)
        res, ticks = solve_logged(B0, p, cfg)
        assert res.converged and len(res.iterates) == 5
        rungs = res.series.diagnostics["n_modes"]
        assert rungs.tolist() == ticks[-100:]
        assert ticks[0] == 32 and max(ticks) <= 128 and np.all(np.diff(ticks) >= 0)
        k_max = len(res.iterates) - 1
        refs, gaps = self.reference_iterates(B0, p, cfg, k_max, rungs=[32] + ticks)
        assert np.array_equal(res.series.coefs, refs[-1])
        assert np.array_equal(res.iterates, [v[-1] for v in refs])
        assert res.gap_history == gaps
        # on N the series differs by at most 7.0e-17 max|B0_k| and the gaps
        # by at most 2.2e-21 (5.1e-11 of the last gap, 4.3e-11): roundoff
        on_n, gaps_n = self.reference_iterates(B0, p, cfg, k_max)
        assert np.max(np.abs(res.series.coefs - on_n[-1])) <= 1e-15 * np.max(np.abs(B0.coef))
        np.testing.assert_allclose(res.gap_history, gaps_n, rtol=0.0, atol=1e-19)

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_band_filling_datum_stays_on_n(self, scheme):
        # a datum whose top third holds a share far above LADDER_TAIL on
        # every halving steps on N throughout, bitwise the reference on N
        g = GridSpec(np.pi, 64)
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(scheme=scheme, dt_init=1e-3, t_end=0.02, adaptive=False)
        coef = np.zeros(33, dtype=complex)
        coef[1:32] = 0.02 * 0.8 ** np.arange(1, 32) * np.exp(1j * np.arange(1, 32))
        B0 = SpectralField.from_coef(g, coef)
        res, ticks = solve_logged(B0, p, cfg, k_max=3)
        assert set(ticks) == {64} and set(res.series.diagnostics["n_modes"]) == {64}
        refs, gaps = self.reference_iterates(B0, p, cfg, k_max=3)
        assert np.array_equal(res.series.coefs, refs[-1])
        assert np.array_equal(res.iterates, [v[-1] for v in refs])
        assert res.gap_history == gaps

    @pytest.mark.parametrize("amp", [0.0, 1e-14])
    def test_vanishing_datum_still_runs_iterate_1(self, amp):
        # iterate 1 starts whenever k_max >= 1, however small iterate 0 is:
        # its distance to B^(-1) = 0 is no gap, so the solve stops on
        # iterate 1's gap
        g = GridSpec(np.pi, 64)
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.01, adaptive=False)
        res = picard_solve(small_datum(g, amp=amp), p, cfg, k_max=3)
        assert len(res.iterates) == 2
        assert len(res.gap_history) == 1 and res.gap_history[0] < 1e-10
        assert res.converged

    def test_etdrk4_limit_matches_nonlinear_solver(self, grid):
        # criterion 7 with the ETDRK4 stepper: the scheme is honoured (the
        # limit differs from the IF-RK4 one in the last bits) and converges
        # to the same solution
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(scheme="etdrk4", dt_init=1e-3, t_end=0.1, adaptive=False)
        res = picard_solve(small_datum(grid), p, cfg)
        assert res.converged
        ifrk4 = picard_solve(small_datum(grid), p, replace(cfg, scheme="ifrk4")).series.final
        assert not np.array_equal(res.series.final.coef, ifrk4.coef)
        fine = StepperConfig(dt_init=2.5e-4, t_end=0.1, adaptive=False, snapshot_cadence=10**9)
        ref = evolve(small_datum(grid), p, fine).final
        diff = np.sqrt(grid.norm2(res.series.final.coef - ref.coef))
        assert diff <= 1e-6
