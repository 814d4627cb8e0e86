"""Dyadic shell decomposition and inequality-harness tests."""

import numpy as np
import pytest

from emhd1d.lp import (
    LPCutoffs,
    bernstein_check,
    chi_profile,
    commutator_check,
    lp_norm,
    norm_equivalence_ratio,
    phi_profile,
    project_shell,
    random_band_limited,
    random_shell_field,
    shell_spectrum,
    smooth_step,
    sobolev_norm,
)
from emhd1d.spectral import GridSpec, SpectralField, sobolev_weight


@pytest.fixture
def grid():
    return GridSpec(np.pi, 512)


@pytest.fixture
def cutoffs(grid):
    return LPCutoffs(grid)


class TestProfiles:
    def test_smooth_step_endpoints(self):
        t = np.array([-1.0, 0.0, 1.0, 2.0])
        assert np.allclose(smooth_step(t), [0.0, 0.0, 1.0, 1.0])
        mid = smooth_step(np.linspace(0.01, 0.99, 50))
        assert np.all(np.diff(mid) > 0)

    def test_chi_plateau_and_support(self):
        xi = np.array([0.0, 0.5, 0.75, 1.0, 2.0, -0.6, -1.5])
        chi = chi_profile(xi)
        assert np.allclose(chi[[0, 1, 2, 5]], 1.0)
        assert np.allclose(chi[[3, 4, 6]], 0.0)

    def test_phi_support(self):
        xi = np.array([0.5, 0.74, 1.0, 1.5, 2.0, 3.0])
        phi = phi_profile(xi)
        assert phi[0] == 0.0 and abs(phi[2] - 1.0) < 1e-15
        assert phi[4] == 0.0 and phi[5] == 0.0

    def test_partition_of_unity_telescopes(self, cutoffs, grid):
        total = sum(cutoffs.weight(q) for q in cutoffs.shells())
        inside = np.abs(grid.wavenumbers) <= grid.xi_max_dealiased
        assert np.allclose(total[inside], 1.0, atol=1e-14)


class TestCutoffs:
    def test_q_max_covers_dealiased_band(self, cutoffs, grid):
        assert 2.0**cutoffs.q_max >= grid.xi_max_dealiased

    def test_weight_index_bounds(self, cutoffs):
        with pytest.raises(ValueError):
            cutoffs.weight(-2)
        with pytest.raises(ValueError):
            cutoffs.weight(cutoffs.q_max + 1)

    def test_projection_reconstruction(self, grid, cutoffs):
        rng = np.random.default_rng(3)
        f = random_band_limited(grid, rng)
        total = sum(project_shell(f, q).coef for q in cutoffs.shells())
        assert np.allclose(total, f.coef, atol=1e-13)


class TestNorms:
    def test_sobolev_single_mode(self, grid):
        # ||cos(4x)||: coefficient 1/2 at +-4, homogeneous H^s mass 4^(2s) * pi
        f = SpectralField.from_function(grid, lambda x: np.cos(4.0 * x))
        assert abs(sobolev_norm(f, 1.0) - 4.0 * np.sqrt(np.pi)) < 1e-11
        assert abs(np.sqrt(grid.sobolev_norm2(f.coef, 0.0, homogeneous=False)) - f.l2_norm()) < 1e-12

    def test_sobolev_weight_zero_mode(self, grid):
        # homogeneous weights mask the mean, also for s <= 0 where 0**(2s)
        # would be 1 or inf; the inhomogeneous weight counts it
        xi = grid.wavenumbers
        for s in (-0.5, 0.0, 1.0):
            w = sobolev_weight(xi, s)
            assert w[0] == 0.0 and np.all(np.isfinite(w))
            assert w[3] == pytest.approx(3.0 ** (2.0 * s), rel=1e-15)
        assert sobolev_weight(xi, -0.5, homogeneous=False)[0] == 1.0

    def test_shell_spectrum_total_matches_l2(self, grid, cutoffs):
        rng = np.random.default_rng(4)
        f = random_band_limited(grid, rng)
        masses = shell_spectrum(f, 0.0)
        # s = 0 shells overlap, so total is within a bounded factor of ||f||^2
        ratio = np.sum(masses) / f.l2_norm() ** 2
        assert 0.5 <= ratio <= 1.5

    def test_norm_equivalence(self, grid, cutoffs):
        lo, hi = norm_equivalence_ratio(grid, s=1.0, trials=50, seed=5)
        assert 0.5 <= lo <= hi <= 1.5

    def test_lp_norm_analytic(self, grid):
        # ||sin||_4^4 = int sin^4 = 3 pi / 4 on (-pi, pi)
        f = SpectralField.from_function(grid, np.sin)
        assert abs(lp_norm(f, 4.0) - (0.75 * np.pi) ** 0.25) < 1e-12
        assert abs(lp_norm(f, 2.0) - f.l2_norm()) < 1e-12


def full_wavenumbers(grid):
    return np.pi * np.fft.fftfreq(grid.n_modes, d=1.0 / grid.n_modes) / grid.half_length


def full_shell_weight(grid, q):
    xi = full_wavenumbers(grid)
    return chi_profile(xi) if q == -1 else phi_profile(xi / 2.0**q)


def full_random_shell_field(grid, q, rng):
    """The full-spectrum construction the stored half replaced, kept as a
    reference: N white coefficients in FFT order, Hermitian-symmetrized."""
    N = grid.n_modes
    re = rng.standard_normal(N)
    im = rng.standard_normal(N)
    coef = (re + 1j * im) * full_shell_weight(grid, q)
    coef = 0.5 * (coef + np.conj(np.roll(coef[::-1], 1)))
    coef[0] = 0.0
    coef[N // 2] = np.real(coef[N // 2])
    return coef


def full_random_band_limited(grid, rng, k_max, decay=0.2):
    kk = np.arange(1, k_max + 1)
    amp = (rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)) * np.exp(-decay * kk)
    coef = np.zeros(grid.n_modes, dtype=complex)
    coef[kk] = amp
    coef[-kk] = np.conj(amp)
    return coef


class TestRandomFields:
    @pytest.mark.parametrize("n, q", [(64, -1), (64, 3), (512, 0), (512, 6), (4096, 9)])
    def test_shell_field_matches_full_spectrum_construction(self, n, q):
        grid = GridSpec(np.pi, n)
        ref = full_random_shell_field(grid, q, np.random.default_rng(n + q))
        f = random_shell_field(grid, q, np.random.default_rng(n + q))
        assert np.array_equal(f.coef, ref[: n // 2 + 1])
        # the reference is Hermitian, so the stored half carries all of it
        assert np.array_equal(ref[n // 2 + 1 :], np.conj(ref[n // 2 - 1 : 0 : -1]))

    @pytest.mark.parametrize("n, k_max", [(64, 10), (512, 85)])
    def test_band_limited_matches_full_spectrum_construction(self, n, k_max):
        grid = GridSpec(np.pi, n)
        ref = full_random_band_limited(grid, np.random.default_rng(n), k_max)
        f = random_band_limited(grid, np.random.default_rng(n), k_max=k_max)
        assert np.array_equal(f.coef, ref[: n // 2 + 1])

    def test_band_limited_real_and_mean_free(self, grid):
        f = random_band_limited(grid, np.random.default_rng(6))
        assert abs(f.mean) < 1e-15
        assert np.allclose(grid.to_phys(f.coef), f.phys)

    def test_shell_field_localized(self, grid, cutoffs):
        f = random_shell_field(grid, 3, np.random.default_rng(7))
        outside = cutoffs.weight(3) == 0.0
        assert np.max(np.abs(f.coef[outside])) < 1e-14
        assert np.max(np.abs(f.phys.imag if np.iscomplexobj(f.phys) else 0.0)) == 0.0


class TestInequalityHarnesses:
    def test_bernstein_ratios_bounded(self, grid, cutoffs):
        rep_d, rep_inf = bernstein_check(grid, trials=100, seed=1)
        # shell q supports |xi| <= 2^(q+1), so the derivative ratio caps at 2
        assert rep_d.max_ratio <= 4.0
        assert rep_inf.max_ratio <= 4.0
        assert rep_d.ratios.size > 0 and np.all(np.isfinite(rep_d.ratios))

    def test_commutator_ratios_bounded(self, grid, cutoffs):
        rep_lp, rep_cm = commutator_check(grid, trials=30, seed=1)
        assert rep_lp.max_ratio <= 2.0
        assert rep_cm.max_ratio <= 2.0

    def test_report_dict_shape(self, grid):
        rep_d, _ = bernstein_check(grid, trials=10, seed=2)
        d = rep_d.as_dict()
        assert set(d) == {"name", "trials", "max_ratio"}
