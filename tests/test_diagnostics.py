"""Norm-series, smoothing-rate, and flux-decomposition tests."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import small_datum

from emhd1d.diagnostics import (
    _cumtrapz,
    _rate_fit,
    flux_balance_defect,
    flux_decomposition,
    flux_defect_ratio,
    norm_series,
    rough_datum,
    semigroup_norm_series,
    smoothing_rate_fit,
    smoothing_rate_fit_semigroup,
)
from emhd1d.lp import LPCutoffs, cutoffs_for, shell_spectrum, sobolev_norm
from emhd1d.solver import ModelParams, StepperConfig, evolve, rhs
from emhd1d.spectral import DEALIAS_FRACTION, GridSpec, SpectralField, derivative, product, remove_mean, sobolev_weight


@pytest.fixture
def grid():
    return GridSpec(np.pi, 256)


def l2_budget_defect(run):
    """Residual of the L2 energy balance at each snapshot:
    ||B(t)||^2 + 2 mu int_0^t ||Lambda^(a/2) B||^2 - (nonlinear work) - ||B0||^2,
    the work being the trapezoid of 2 int nl(B) B dx with nl the public rhs
    at mu = 0.  It decays like dt^2 under refinement."""
    g, p = run.grid, run.params
    inviscid = replace(p, mu=0.0)
    nl = np.array([rhs(SpectralField.from_coef(g, c), inviscid).coef for c in run.coefs])
    e = g.norm2(run.coefs)
    diss = g.norm2(run.coefs, sobolev_weight(g.wavenumbers, p.alpha / 2.0))
    work = 2.0 * g.inner(nl, run.coefs)
    return e + 2.0 * p.mu * _cumtrapz(run.times, diss) - _cumtrapz(run.times, work) - e[0]


class TestNormSeries:
    def test_zero_run(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.01, adaptive=False)
        run = evolve(SpectralField.from_coef(grid, np.zeros(grid.n_modes // 2 + 1)), p, cfg)
        ns = norm_series(run, [0.0, 1.0])
        assert np.all(ns.hs == 0.0) and np.all(ns.budget == 0.0)

    def test_pure_dissipation_single_mode_decay(self, grid):
        # a single mode is a null of the full term, so the run is the
        # semigroup's: every norm of exp(-mu t Lambda^alpha) cos(2x) decays
        # as exp(-mu 2^a t)
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.05, adaptive=False, snapshot_cadence=10)
        f = SpectralField.from_function(grid, lambda x: np.cos(2.0 * x))
        run = evolve(f, p, cfg)
        ns = norm_series(run, [1.0])
        expected = ns.hs[0, 0] * np.exp(-4.0 * ns.times)
        assert np.allclose(ns.hs[0], expected, rtol=1e-10)

    def test_budget_monotone(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.05, adaptive=False)
        run = evolve(small_datum(grid), p, cfg)
        ns = norm_series(run, [0.5])
        assert np.all(np.diff(ns.budget[0]) >= 0.0)

    def test_l2_budget_second_order_in_dt(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        B0 = small_datum(grid)
        defs = []
        for dt in (2e-3, 5e-4):
            cfg = StepperConfig(dt_init=dt, t_end=0.2, adaptive=False, snapshot_cadence=1)
            defs.append(np.max(np.abs(l2_budget_defect(evolve(B0, p, cfg)))))
        assert defs[0] / defs[1] > 4.0  # dt shrank 4x => defect should drop >= 16x ideally

    def test_blocks_read_the_table_bitwise(self, dense_rough_run, traced_peak):
        # norm_series and smoothing_rate_fit read the snapshot table a block
        # of rows to a norm call: each value is bitwise the whole-table
        # call's, and the temporaries are a block's size (whole-table calls
        # peaked at 1.05 tables)
        run = dense_rough_run()
        g, s_list = run.grid, [0.0, 1.0]
        ns, peak = traced_peak(lambda: norm_series(run, s_list))
        assert peak <= 0.5 * run.coefs.nbytes
        for i, s in enumerate(s_list):
            assert ns.hs[i].tobytes() == np.sqrt(g.sobolev_norm2(run.coefs, s, homogeneous=False)).tobytes()
            hd = np.sqrt(g.sobolev_norm2(run.coefs, s + 0.5 * run.params.alpha))
            assert ns.hs_diss[i].tobytes() == hd.tobytes()
        fit, peak = traced_peak(lambda: smoothing_rate_fit(run, 1.0, 2.0, t_min=5e-4))
        assert peak <= 0.5 * run.coefs.nbytes
        assert fit == _rate_fit(run.times, np.sqrt(g.sobolev_norm2(run.coefs, 2.0)), 1.0, 2.0, 1.5, 5e-4)


class TestRoughDatum:
    def test_scaled_to_requested_norm(self, grid):
        f = rough_datum(grid, s_base=0.5, norm=0.05, seed=3)
        assert np.sqrt(grid.sobolev_norm2(f.coef, 0.5, homogeneous=False)) == pytest.approx(0.05, rel=1e-12)

    def test_deterministic_in_seed(self, grid):
        a = rough_datum(grid, 0.5, seed=9)
        b = rough_datum(grid, 0.5, seed=9)
        c = rough_datum(grid, 0.5, seed=10)
        assert np.array_equal(a.coef, b.coef)
        assert not np.array_equal(a.coef, c.coef)

    @pytest.mark.parametrize("n, s_base, seed", [(64, 0.5, 0), (256, 1.0, 3), (2048, 0.5, 7)])
    def test_matches_full_spectrum_construction(self, n, s_base, seed):
        # the full-spectrum construction the stored half replaced, kept as a
        # reference: same draws, negative half filled by Hermitian symmetry
        g = GridSpec(np.pi, n)
        rng = np.random.default_rng(seed)
        xi = np.pi * np.fft.fftfreq(n, d=1.0 / n) / g.half_length
        kk = np.arange(1, int(DEALIAS_FRACTION * n / 2))
        ref = np.zeros(n, dtype=complex)
        amp = np.abs(xi[kk]) ** (-(s_base + 0.5)) * (1.0 + np.abs(xi[kk])) ** (-0.01)
        ref[kk] = amp * np.exp(2j * np.pi * rng.random(kk.size))
        ref[-kk] = np.conj(ref[kk])
        cur = np.sqrt(2.0 * g.half_length * np.sum((1.0 + xi**2) ** s_base * np.abs(ref) ** 2))
        ref *= 0.05 / cur
        f = rough_datum(g, s_base, norm=0.05, seed=seed)
        assert np.max(np.abs(f.coef - ref[: n // 2 + 1])) <= 1e-14 * np.max(np.abs(ref))

    def test_spectral_tail_profile(self, grid):
        f = rough_datum(grid, s_base=0.5, seed=0)
        xi = grid.wavenumbers
        k = np.array([4, 16, 64])
        mags = np.abs(f.coef[k])
        # |coef| ~ |xi|^(-1) on the pi-torus: ratio of magnitudes ~ ratio of k
        assert mags[0] / mags[1] == pytest.approx(4.0, rel=0.05)
        assert mags[1] / mags[2] == pytest.approx(4.0, rel=0.05)


class TestSmoothing:
    def test_semigroup_oracle_matches_analytic_single_mode(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.cos(3.0 * x))
        times = np.array([0.0, 0.1, 0.2])
        out = semigroup_norm_series(f, mu=1.0, alpha=2.0, times=times, s=1.0)
        assert np.allclose(out, 3.0 * np.sqrt(np.pi) * np.exp(-9.0 * times), rtol=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_semigroup_oracle_at_zero_is_sobolev_norm(self, grid, s):
        # both norms are homogeneous, so a nonzero mean must not count
        f = SpectralField.from_function(grid, lambda x: 0.3 + np.sin(x) + 0.2 * np.cos(4 * x))
        out = semigroup_norm_series(f, mu=1.0, alpha=2.0, times=np.array([0.0]), s=s)
        assert out[0] == pytest.approx(sobolev_norm(f, s), rel=1e-14)

    def test_equal_indices_give_zero_exponent(self):
        g = GridSpec(np.pi, 1024)
        B0 = rough_datum(g, s_base=0.5, seed=0)
        fit = smoothing_rate_fit_semigroup(B0, 1.0, 2.0, 0.5, 0.5)
        # s_target = s_base: the norm is finite at t = 0, so no blowup rate;
        # low-frequency dissipation still bleeds a small residual slope
        assert abs(fit.exponent_est) < 0.1
        assert fit.expected == 0.0

    def test_linear_run_matches_semigroup_oracle(self, smoothing_run):
        g = GridSpec(np.pi, 1024)
        # at H^0.5 norm 1e-10 the run is linear to the fit's digits
        run = smoothing_run(g, mu=1.0, alpha=2.0, s_base=0.5, norm=1e-10)
        fit = smoothing_rate_fit(run, 0.5, 1.5)
        oracle = smoothing_rate_fit_semigroup(rough_datum(g, 0.5), 1.0, 2.0, 0.5, 1.5)
        assert abs(fit.exponent_est - oracle.exponent_est) <= 1e-3

    def test_expected_exponent_uses_the_runs_alpha(self, grid, smoothing_run):
        # the predicted exponent is (s_target - s_base) / alpha with the
        # alpha the run was made at, here 1
        run = smoothing_run(grid, mu=1.0, alpha=1.0, s_base=0.5)
        fit = smoothing_rate_fit(run, 0.5, 1.5)
        assert fit.expected == (1.5 - 0.5) / 1.0

    def test_fit_window_needs_samples(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=5e-3, adaptive=False)
        run = evolve(small_datum(grid), p, cfg)
        with pytest.raises(ValueError):
            smoothing_rate_fit(run, 0.5, 1.5, t_min=1.0)


class TestFlux:
    def test_zero_field(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=1.0)
        fd = flux_decomposition(SpectralField.from_coef(grid, np.zeros(grid.n_modes // 2 + 1)), 1.0, p)
        assert fd.I == 0.0 and fd.K == 0.0

    def test_cubic_scaling(self, grid):
        # each integrand is a triple product, so B -> cB scales I, K by c^3
        p = ModelParams(kind="full", mu=1.0, alpha=1.0)
        B = remove_mean(small_datum(grid, amp=0.3))
        fd1 = flux_decomposition(B, 1.0, p)
        B2 = SpectralField.from_coef(grid, 2.0 * B.coef)
        fd2 = flux_decomposition(B2, 1.0, p)
        assert fd2.I == pytest.approx(8.0 * fd1.I, rel=1e-12)
        assert fd2.K == pytest.approx(8.0 * fd1.K, rel=1e-12)

    def test_spatial_balance_exact(self, grid):
        """The shell-weighted energy production of the full model's rhs must
        equal -(I + 2K) - mu D identically in space (no time stepping)."""
        from emhd1d.solver import rhs

        p = ModelParams(kind="full", mu=0.8, alpha=1.5)
        B = remove_mean(small_datum(grid, amp=0.2))
        s = 1.0
        cut = LPCutoffs(grid)
        fd = flux_decomposition(B, s, p)
        r = rhs(B, p)
        production = sum(
            (2.0**q) ** (2.0 * s) * float(grid.inner(cut.weight(q) ** 2 * r.coef, B.coef))
            for q in cut.shells()
        )
        assert abs(production + fd.dissipation + fd.I + 2.0 * fd.K) < 1e-12

    @pytest.mark.parametrize("s", [0.0, 1.0, 1.5])
    def test_shell_tables_match_a_per_shell_loop(self, grid, s):
        p = ModelParams(kind="full", mu=0.8, alpha=1.5)
        B = rough_datum(grid, 0.5, norm=0.2)
        cut = LPCutoffs(grid)
        xi = grid.wavenumbers
        lam_b = SpectralField.from_coef(grid, np.abs(xi) * B.coef)
        b_lamb = product(B, lam_b).coef
        lamb_bx = product(lam_b, SpectralField.from_coef(grid, 1j * xi * B.coef)).coef
        w_diss = sobolev_weight(xi, p.alpha / 2.0)
        I_q, K_q, masses, diss = [], [], [], 0.0
        for q in cut.shells():
            w, lam2s = cut.weight(q), (2.0**q) ** (2.0 * s)
            bq = w * B.coef
            I_q.append(lam2s * grid.inner(w * b_lamb, 1j * xi * bq))
            K_q.append(lam2s * grid.inner(w * lamb_bx, bq))
            masses.append(lam2s * grid.norm2(bq))
            diss += lam2s * grid.norm2(bq, w_diss)
        fd = flux_decomposition(B, s, p)
        np.testing.assert_allclose(fd.I_q, I_q, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(fd.K_q, K_q, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(fd.dissipation, p.mu * diss, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(shell_spectrum(B, s), masses, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [64, 4096])
    def test_products_match_spectral_field_reference(self, monkeypatch, n):
        # B_x and Lambda B come from one stack of two rows, and both products
        # from one forward transform; the tables are bitwise those of
        # SpectralField products.  A datum from samples has B.phys apart from
        # to_phys(B.coef), and the products read B.phys.
        g = GridSpec(6.0, n)
        p = ModelParams(kind="full", mu=0.8, alpha=1.5)
        B = SpectralField.from_phys(g, np.random.default_rng(5).standard_normal(n))
        s = 1.0
        cut = cutoffs_for(g)
        xi = g.wavenumbers
        lam_b = SpectralField.from_coef(g, np.abs(xi) * B.coef)
        b_lamb = product(B, lam_b).coef
        lamb_bx = product(lam_b, derivative(B)).coef
        lam2s = cut.lam ** (2.0 * s)
        bq = cut.weights * B.coef
        I_q = lam2s * g.inner(cut.weights * b_lamb, 1j * xi * bq)
        K_q = lam2s * g.inner(cut.weights * lamb_bx, bq)

        calls = []
        for name in ("to_phys", "to_coef"):
            def logged(self, arr, _name=name, _fn=getattr(GridSpec, name)):
                calls.append((_name, arr.shape[0] if arr.ndim == 2 else 1))
                return _fn(self, arr)

            monkeypatch.setattr(GridSpec, name, logged)
        fd = flux_decomposition(B, s, p)
        assert calls == [("to_phys", 2), ("to_coef", 2)]
        assert np.array_equal(fd.I_q, I_q) and np.array_equal(fd.K_q, K_q)

    def test_defect_second_order_in_dt(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=1.5)
        B = remove_mean(small_datum(grid))
        d1, d2, ratio = flux_defect_ratio(B, p, s=1.0, dt=1e-3)
        assert 3.5 <= ratio <= 4.5
        assert d2 < d1

    def test_defect_positive_for_nontrivial_field(self, grid):
        p = ModelParams(kind="full", mu=1.0, alpha=1.5)
        B = remove_mean(small_datum(grid))
        assert flux_balance_defect(B, p, 1.0, 1e-3) > 0.0
