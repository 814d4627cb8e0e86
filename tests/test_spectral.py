"""Grid, field, and Fourier-multiplier operator tests."""

import numpy as np
import pytest

from emhd1d.spectral import (
    GridSpec,
    SpectralField,
    dealias,
    derivative,
    eval_trig,
    evaluate_at,
    frac_laplacian,
    hilbert,
    product,
    remove_mean,
    riesz_potential,
)


@pytest.fixture
def grid():
    return GridSpec(np.pi, 128)


class TestGridSpec:
    def test_nodes_span_half_open_interval(self, grid):
        assert grid.nodes[0] == -np.pi
        assert grid.nodes[-1] < np.pi
        assert np.allclose(np.diff(grid.nodes), grid.dx)

    def test_wavenumbers_integer_on_pi_torus(self, grid):
        assert np.allclose(np.sort(grid.wavenumbers), np.arange(-64, 64))

    @pytest.mark.parametrize("bad", [dict(half_length=-1.0, n_modes=64),
                                     dict(half_length=1.0, n_modes=7),
                                     dict(half_length=1.0, n_modes=6),
                                     dict(half_length=1.0, n_modes=64, dealias_fraction=0.0)])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            GridSpec(**bad)

    @pytest.mark.parametrize("half_length", [np.nan, np.inf])
    def test_rejects_non_finite_half_length(self, half_length):
        with pytest.raises(ValueError):
            GridSpec(half_length, 64)

    def test_coef_round_trip(self, grid):
        rng = np.random.default_rng(0)
        phys = rng.standard_normal(grid.n_modes)
        assert np.allclose(grid.to_phys(grid.to_coef(phys)), phys, atol=1e-13)

    def test_single_cosine_coefficients(self, grid):
        # cos(3x) should put 1/2 at modes +-3 regardless of the x0 = -L origin
        c = grid.to_coef(np.cos(3.0 * grid.nodes))
        assert abs(c[3] - 0.5) < 1e-13
        assert abs(c[-3] - 0.5) < 1e-13
        c[3] = c[-3] = 0.0
        assert np.max(np.abs(c)) < 1e-13


class TestSpectralField:
    def test_from_function_matches_nodes(self, grid):
        f = SpectralField.from_function(grid, np.sin)
        assert np.allclose(f.phys, np.sin(grid.nodes))

    def test_arrays_read_only(self, grid):
        f = SpectralField.from_function(grid, np.sin)
        with pytest.raises(ValueError):
            f.phys[0] = 1.0

    def test_l2_norm_plancherel(self, grid):
        # ||sin||_{L^2(-pi,pi)} = sqrt(pi)
        f = SpectralField.from_function(grid, np.sin)
        assert abs(f.l2_norm() - np.sqrt(np.pi)) < 1e-12

    def test_mean(self, grid):
        f = SpectralField.from_function(grid, lambda x: 2.0 + np.sin(x))
        assert abs(f.mean - 2.0) < 1e-13
        assert abs(remove_mean(f).mean) < 1e-15


class TestOperators:
    def test_hilbert_rotates_cos_to_sin(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.cos(2.0 * x))
        assert np.allclose(hilbert(f).phys, np.sin(2.0 * grid.nodes), atol=1e-12)

    def test_hilbert_squared_is_minus_identity_off_mean(self, grid):
        f = SpectralField.from_function(grid, lambda x: 1.5 + np.sin(x) + 0.3 * np.cos(5 * x))
        g = hilbert(hilbert(f))
        assert np.allclose(g.phys, -(f.phys - f.mean), atol=1e-12)

    def test_derivative(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.sin(3.0 * x))
        assert np.allclose(derivative(f).phys, 3.0 * np.cos(3.0 * grid.nodes), atol=1e-11)
        assert np.allclose(derivative(f, 2).phys, -9.0 * np.sin(3.0 * grid.nodes), atol=1e-10)

    def test_frac_laplacian_equals_hilbert_of_derivative(self, grid):
        rng = np.random.default_rng(1)
        f = SpectralField.from_phys(grid, rng.standard_normal(grid.n_modes))
        assert np.allclose(frac_laplacian(f, 1.0).coef, hilbert(derivative(f)).coef, atol=1e-12)

    def test_frac_laplacian_single_mode(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.cos(4.0 * x))
        assert np.allclose(frac_laplacian(f, 1.5).phys, 8.0 * np.cos(4.0 * grid.nodes), atol=1e-11)

    def test_riesz_inverts_frac_laplacian(self, grid):
        f = remove_mean(SpectralField.from_function(grid, lambda x: np.sin(x) + np.cos(7 * x)))
        g = riesz_potential(frac_laplacian(f, 0.5), 0.5)
        assert np.allclose(g.coef, f.coef, atol=1e-13)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.5, 2.0])
    def test_riesz_rejects_out_of_range(self, grid, r):
        f = SpectralField.from_function(grid, np.sin)
        with pytest.raises(ValueError):
            riesz_potential(f, r)

    def test_frac_laplacian_rejects_negative(self, grid):
        with pytest.raises(ValueError):
            frac_laplacian(SpectralField.from_function(grid, np.sin), -1.0)

    def test_dealias_zeroes_top_third(self, grid):
        coef = np.ones(grid.n_modes, dtype=complex)
        f = dealias(SpectralField.from_coef(grid, coef))
        cut = grid.dealias_fraction * grid.n_modes / 2
        assert np.all(f.coef[np.abs(grid.mode_index) > cut] == 0)
        assert np.all(f.coef[np.abs(grid.mode_index) <= cut] == 1)

    def test_product_matches_pointwise(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.sin(2 * x))
        g = SpectralField.from_function(grid, lambda x: np.cos(3 * x))
        h = product(f, g, dealiased=False)
        assert np.allclose(h.phys, f.phys * g.phys, atol=1e-13)

    def test_product_hilbert_identity(self, grid):
        """H(f H f) = ((H f)^2 - f^2)/2 for mean-free f (quadratic identity
        of the Hilbert transform on the torus)."""
        rng = np.random.default_rng(2)
        coef = np.zeros(grid.n_modes, dtype=complex)
        kk = np.arange(1, 20)
        amp = rng.standard_normal(19) + 1j * rng.standard_normal(19)
        coef[kk], coef[-kk] = amp, np.conj(amp)
        f = SpectralField.from_coef(grid, coef)
        hf = hilbert(f)
        lhs = hilbert(product(f, hf, dealiased=False))
        rhs = 0.5 * (hf.phys**2 - f.phys**2)
        rhs = rhs - np.mean(rhs)
        assert np.allclose(lhs.phys, rhs, atol=1e-10 * max(1.0, f.l2_norm()))


class TestEvaluateAt:
    def test_matches_grid_nodes(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.sin(2 * x) + 0.1 * np.cos(9 * x))
        vals = evaluate_at(f, grid.nodes)
        assert np.allclose(vals, f.phys, atol=1e-12)

    def test_off_grid_band_limited_exact(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.sin(5 * x))
        x = 0.1234567
        assert abs(evaluate_at(f, x) - np.sin(5 * x)) < 1e-12

    def test_periodic_reduction(self, grid):
        f = SpectralField.from_function(grid, np.sin)
        assert abs(evaluate_at(f, 0.5) - evaluate_at(f, 0.5 + 2 * np.pi)) < 1e-12

    def test_scalar_in_scalar_out(self, grid):
        f = SpectralField.from_function(grid, np.sin)
        assert isinstance(evaluate_at(f, 0.3), float)
        assert evaluate_at(f, np.array([0.1, 0.2])).shape == (2,)

    def test_stacked_rows_match_single_rows(self, grid):
        # a row's value must not depend on the rows stacked with it
        rows = np.stack([SpectralField.from_function(grid, fn).coef
                         for fn in (np.sin, np.cos, lambda x: np.sin(3 * x) ** 2)])
        x = np.array([-3.0, 0.4, 7.5])
        stacked = eval_trig(grid, rows, x)
        assert stacked.shape == (3, 3)
        for row, vals in zip(rows, stacked):
            assert np.array_equal(vals, eval_trig(grid, row, x))
        assert np.allclose(stacked[1], np.cos(x), atol=1e-12)


def complex_to_coef(grid, phys):
    """The complex-FFT transform the real one replaced, kept as a reference."""
    return np.fft.fft(phys) / grid.n_modes * grid._phase


def complex_to_phys(grid, coef):
    return np.real(np.fft.ifft(coef / grid._phase * grid.n_modes))


def full_sum_eval_trig(grid, coef, x):
    """Off-grid sum over all N modes in FFT order, kept as a reference."""
    L = grid.half_length
    xa = np.mod(np.atleast_1d(x) + L, 2.0 * L) - L
    return np.real(coef @ np.exp(1j * np.outer(grid.wavenumbers, xa)))


# N/2 even (8, 64, 1024, 4096) and odd (10, 14)
SIZES = [8, 10, 14, 64, 1024, 4096]


class TestRealTransforms:
    """Properties of the rfft/irfft transforms on random real data."""

    @pytest.fixture(params=SIZES)
    def case(self, request):
        N = request.param
        rng = np.random.default_rng(N)
        grid = GridSpec(float(rng.uniform(0.5, 8.0)), N)
        return grid, rng, rng.standard_normal((3, N))

    def test_to_coef_is_exactly_hermitian(self, case):
        grid, _, samples = case
        for phys in samples:
            c = grid.to_coef(phys)
            assert c.shape == (grid.n_modes,)
            # c[N - k] == conj(c[k]) for k = 1..N-1: this includes a real Nyquist entry
            assert np.array_equal(c[1:][::-1], np.conj(c[1:]))
            assert c[0].imag == 0.0 and c[grid.n_modes // 2].imag == 0.0

    def test_round_trip(self, case):
        grid, _, samples = case
        for phys in samples:
            back = grid.to_phys(grid.to_coef(phys))
            assert np.max(np.abs(back - phys)) <= 1e-14 * np.max(np.abs(phys))

    def test_matches_complex_fft_reference(self, case):
        grid, _, samples = case
        m_hilbert = -1j * np.sign(grid.wavenumbers)  # makes the Nyquist entry imaginary
        for phys in samples:
            c = grid.to_coef(phys)
            ref = complex_to_coef(grid, phys)
            assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))
            for coef in (c, m_hilbert * c):
                ref_phys = complex_to_phys(grid, coef)
                got = grid.to_phys(coef)
                assert np.max(np.abs(got - ref_phys)) <= 1e-13 * np.max(np.abs(ref_phys))

    def test_plancherel(self, case):
        grid, _, samples = case
        for phys in samples:
            c = grid.to_coef(phys)
            lhs = np.sum(phys**2) * grid.dx
            rhs = 2.0 * grid.half_length * np.sum(np.abs(c) ** 2)
            assert abs(lhs - rhs) <= 1e-13 * lhs

    def test_half_sum_eval_trig_matches_full_sum(self, case):
        grid, rng, samples = case
        L, h = grid.half_length, grid.n_modes // 2
        x = rng.uniform(-3.0 * L, 3.0 * L, 9)
        for phys in samples:
            c = grid.to_coef(phys)
            c[h] = 1j * rng.standard_normal()  # purely imaginary Nyquist coefficient
            ref = full_sum_eval_trig(grid, c, x)
            got = eval_trig(grid, c, x)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(c))

    def test_batched_transforms_match_row_by_row(self, case):
        grid, _, samples = case
        coef = grid.to_coef(samples)
        assert coef.shape == samples.shape
        assert np.array_equal(coef, np.array([grid.to_coef(row) for row in samples]))
        rows = coef * (1j * grid.wavenumbers)
        assert np.array_equal(grid.to_phys(rows), np.array([grid.to_phys(row) for row in rows]))

    def test_to_phys_reads_only_the_non_negative_half(self, case):
        grid, rng, samples = case
        c = grid.to_coef(samples[0])
        junk = c.copy()
        junk[grid.n_modes // 2 + 1 :] = rng.standard_normal(grid.n_modes // 2 - 1)
        assert np.array_equal(grid.to_phys(junk), grid.to_phys(c))
