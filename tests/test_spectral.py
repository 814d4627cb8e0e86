"""Grid, field, and Fourier-multiplier operator tests."""

import numpy as np
import pytest

from emhd1d.spectral import (
    GridSpec,
    SpectralField,
    derivative,
    evaluate_at,
    frac_laplacian,
    hilbert,
    product,
    remove_mean,
    riesz_potential,
    sobolev_weight,
    trig_blocks,
    trig_sums,
)


@pytest.fixture
def grid():
    return GridSpec(np.pi, 128)


class TestGridSpec:
    def test_nodes_span_half_open_interval(self):
        # FFT order: 0, dx, ..., L - dx, then -L, ..., -dx; sorted, they are
        # the ascending nodes -L + 2 L j / N, the same floats
        for L, N in [(np.pi, 128), (6.0, 4096), (1.0, 10), (0.7, 98)]:
            g = GridSpec(L, N)
            x, j, h = g.nodes, np.arange(N), N // 2
            ascending = -L + 2.0 * L * j / N
            assert x[0] == 0.0 and x[h] == -L
            assert np.array_equal(np.sort(x), ascending)
            assert np.array_equal(x, np.fft.ifftshift(ascending))
            assert np.all((-L <= x) & (x < L))
            # j dx and j dx - 2L, up to the roundoff of -L + 2 L j / N, whose
            # sum cancels down from magnitude 2L
            assert np.max(np.abs(x[:h] - j[:h] * g.dx)) <= np.spacing(2.0 * L)
            assert np.max(np.abs(x[h:] - (j[h:] * g.dx - 2.0 * L))) <= np.spacing(2.0 * L)

    def test_wavenumbers_integer_on_pi_torus(self, grid):
        # the stored half 0..63 and the Nyquist entry at its FFT-order -64
        assert np.allclose(grid.wavenumbers, np.append(np.arange(64), -64))

    def test_mode_index_integral_for_every_even_n(self):
        # fftfreq(N, d=1/N) gave non-integral k, so NaN phases and NaN
        # fields, at 35 even N up to 1024, the smallest 98
        for n in range(8, 1026, 2):
            g = GridSpec(1.0, n)
            assert np.array_equal(g.mode_index, np.append(np.arange(n // 2), -n // 2))
            assert np.all(np.isfinite(SpectralField.from_function(g, np.sin).coef))

    @pytest.mark.parametrize("n", [96, 126, 128])
    def test_dealiased_product_exact_on_kept_band(self, n):
        """On the kept band a dealiased product equals the exact one (from a
        grid of 2N, where it does not alias); at N = 3K the cut must drop
        mode K, whose square aliases onto -K."""
        g, g2 = GridSpec(np.pi, n), GridSpec(np.pi, 2 * n)
        k = np.arange(1, int(np.count_nonzero(g.dealias_mask)))  # every kept mode
        rng = np.random.default_rng(n)
        draws = rng.standard_normal((2, 2, k.size))

        def pair(grid_):
            out = []
            for re, im in draws:
                c = np.zeros(grid_.n_modes // 2 + 1, dtype=complex)
                c[k] = re + 1j * im
                out.append(SpectralField.from_coef(grid_, c))
            return out

        (f, h), (f2, h2) = pair(g), pair(g2)
        exact = g2.to_coef(f2.phys * h2.phys)[: n // 2 + 1]
        assert np.allclose(product(f, h).coef, exact * g.dealias_mask, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [dict(half_length=-1.0, n_modes=64),
                                     dict(half_length=1.0, n_modes=7),
                                     dict(half_length=1.0, n_modes=6)])
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
        # cos(3x) should put 1/2 at mode 3 (and so at -3)
        c = grid.to_coef(np.cos(3.0 * grid.nodes))
        assert c.shape == (grid.n_modes // 2 + 1,)
        assert abs(c[3] - 0.5) < 1e-13
        c[3] = 0.0
        assert np.max(np.abs(c)) < 1e-13


class TestSpectralField:
    def test_from_function_matches_nodes(self, grid):
        f = SpectralField.from_function(grid, np.sin)
        assert np.allclose(f.phys, np.sin(grid.nodes))

    def test_arrays_read_only(self, grid):
        # on every constructor, whether phys was given or made on first read
        x = np.sin(grid.nodes)
        fields = [
            SpectralField.from_phys(grid, x),
            SpectralField.from_coef(grid, grid.to_coef(x)),
            SpectralField.from_function(grid, np.sin),
        ]
        for f in fields:
            for arr in (f.phys, f.coef):
                with pytest.raises(ValueError):
                    arr[0] = 1.0
            with pytest.raises(AttributeError):
                f.phys = x

    @staticmethod
    def count_to_phys(monkeypatch):
        calls = []
        to_phys = GridSpec.to_phys

        def counted(self, coef):
            calls.append(coef.shape)
            return to_phys(self, coef)

        monkeypatch.setattr(GridSpec, "to_phys", counted)
        return calls

    def test_from_coef_transforms_on_first_read_only(self, grid, monkeypatch):
        # a second read returns the same array
        c = grid.to_coef(np.sin(grid.nodes))
        ref = grid.to_phys(c)
        calls = self.count_to_phys(monkeypatch)
        f = SpectralField.from_coef(grid, c)
        assert f.l2_norm() > 0.0 and calls == []
        phys = f.phys
        assert calls == [c.shape] and np.array_equal(phys, ref)
        assert f.phys is phys and calls == [c.shape]

    def test_from_phys_keeps_its_samples(self, grid, monkeypatch):
        # bitwise the samples given, not their round trip through the
        # coefficients, and copied: the caller's array stays writable
        x = np.exp(np.sin(grid.nodes)) / 3.0
        assert not np.array_equal(grid.to_phys(grid.to_coef(x)), x)
        calls = self.count_to_phys(monkeypatch)
        f = SpectralField.from_phys(grid, x)
        assert np.array_equal(f.phys, x) and f.phys is not x
        assert calls == []
        x[0] = 0.0
        assert f.phys[0] != 0.0

    def test_from_phys_rejects_wrong_length(self, grid):
        # N + 1 samples would give N/2 + 1 coefficients
        assert grid.to_coef(np.zeros(grid.n_modes + 1)).shape == (grid.n_modes // 2 + 1,)
        with pytest.raises(ValueError, match="phys has wrong shape"):
            SpectralField.from_phys(grid, np.zeros(grid.n_modes + 1))

    def test_l2_norm_plancherel(self, grid):
        # ||sin||_{L^2(-pi,pi)} = sqrt(pi)
        f = SpectralField.from_function(grid, np.sin)
        assert abs(f.l2_norm() - np.sqrt(np.pi)) < 1e-12

    def test_from_coef_rejects_full_length(self, grid):
        with pytest.raises(ValueError):
            SpectralField.from_coef(grid, np.zeros(grid.n_modes, dtype=complex))

    def test_mean(self, grid):
        f = SpectralField.from_function(grid, lambda x: 2.0 + np.sin(x))
        assert abs(f.mean - 2.0) < 1e-13
        assert abs(remove_mean(f).mean) < 1e-15


class TestStacks:
    """A SpectralField may hold a stack of fields; each row of every
    operator, norm and reduction is bitwise that row's single-field call."""

    @pytest.fixture
    def rows(self, grid):
        rng = np.random.default_rng(11)
        half = grid.n_modes // 2 + 1
        c = (rng.standard_normal((5, half)) + 1j * rng.standard_normal((5, half))) / (1.0 + np.arange(half))
        c[:, [0, -1]] = c[:, [0, -1]].real  # a real field's mean and Nyquist entries
        return c

    OPERATORS = {
        "hilbert": hilbert,
        "derivative": derivative,
        "derivative2": lambda f: derivative(f, 2),
        "frac_laplacian": lambda f: frac_laplacian(f, 1.5),
        "riesz_potential": lambda f: riesz_potential(f, 0.4),
        "remove_mean": remove_mean,
        "product": lambda f: product(f, hilbert(f)),
        "product_aliased": lambda f: product(f, f, dealiased=False),
    }

    @pytest.mark.parametrize("name", list(OPERATORS))
    def test_operators_act_row_by_row(self, grid, rows, name):
        op = self.OPERATORS[name]
        stacked = op(SpectralField.from_coef(grid, rows))
        assert stacked.coef.shape == rows.shape and stacked.phys.shape == (5, grid.n_modes)
        for i, row in enumerate(rows):
            single = op(SpectralField.from_coef(grid, row))
            assert np.array_equal(stacked.coef[i], single.coef)
            assert np.array_equal(stacked.phys[i], single.phys)

    def test_norms_reduce_the_last_axis(self, grid, rows):
        f = SpectralField.from_coef(grid, rows)
        singles = [SpectralField.from_coef(grid, row) for row in rows]
        x = np.array([-2.0, 0.3, 9.0])
        for read in (lambda g: g.l2_norm(), lambda g: g.linf_norm(), lambda g: g.mean,
                     lambda g: evaluate_at(g, 0.7)):
            stacked = read(f)
            assert stacked.shape == (5,)
            assert all(isinstance(read(g), float) for g in singles)
            assert np.array_equal(stacked, [read(g) for g in singles])
        assert np.array_equal(evaluate_at(f, x), [evaluate_at(g, x) for g in singles])
        # a stack from samples keeps them, as one field does
        phys = grid.to_phys(rows)
        g = SpectralField.from_phys(grid, phys)
        assert np.array_equal(g.phys, phys) and np.array_equal(g.coef, grid.to_coef(phys))

    def test_last_axis_must_fit_the_grid(self, grid, rows):
        half = grid.n_modes // 2 + 1
        for bad in (rows[:, :-1], np.zeros((5, grid.n_modes), dtype=complex), np.zeros((5, half + 1)),
                    np.zeros((half, 5), dtype=complex), np.array(1.0 + 0j)):
            with pytest.raises(ValueError, match="coef has wrong shape"):
                SpectralField.from_coef(grid, bad)
        for bad in (np.zeros((5, grid.n_modes + 1)), np.zeros((5, grid.n_modes - 2)), np.array(1.0)):
            with pytest.raises(ValueError, match="phys has wrong shape"):
                SpectralField.from_phys(grid, bad)


class TestSobolevNorm2:
    @pytest.mark.parametrize("s, homogeneous", [(-0.5, True), (1.5, True), (-0.5, False), (0.75, False)])
    def test_stack_matches_rows_and_weighted_norm2(self, grid, s, homogeneous):
        # one call on a stack of rows is bitwise one call per row, and both
        # are norm2 weighted by sobolev_weight
        rng = np.random.default_rng(7)
        half = grid.n_modes // 2 + 1
        rows = rng.standard_normal((5, half)) + 1j * rng.standard_normal((5, half))
        stacked = grid.sobolev_norm2(rows, s, homogeneous)
        assert stacked.shape == (5,)
        assert np.array_equal(stacked, [grid.sobolev_norm2(r, s, homogeneous) for r in rows])
        weight = sobolev_weight(grid.wavenumbers, s, homogeneous)
        assert np.array_equal(stacked, grid.norm2(rows, weight))

    @pytest.mark.parametrize("s", [-0.5, 0.0, 1.0])
    def test_mean_only_in_inhomogeneous_norm(self, grid, s):
        # a constant field has no homogeneous H^s mass, also for s < 0 where
        # |0|^(2s) would be inf; the inhomogeneous norm counts it with weight 1
        f = SpectralField.from_function(grid, lambda x: np.full_like(x, 3.0))
        assert grid.sobolev_norm2(f.coef, s) == 0.0
        assert grid.sobolev_norm2(f.coef, s, homogeneous=False) == pytest.approx(2.0 * np.pi * 9.0, rel=1e-14)


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

    def test_product_matches_pointwise(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.sin(2 * x))
        g = SpectralField.from_function(grid, lambda x: np.cos(3 * x))
        h = product(f, g, dealiased=False)
        assert np.allclose(h.phys, f.phys * g.phys, atol=1e-13)

    def test_product_rejects_fields_on_different_grids(self, grid):
        f = SpectralField.from_function(grid, np.sin)
        for other in (GridSpec(np.pi, 64), GridSpec(2.0 * np.pi, 128)):
            g = SpectralField.from_function(other, np.sin)
            with pytest.raises(ValueError, match="different grids"):
                product(f, g)

    def test_product_hilbert_identity(self, grid):
        """H(f H f) = ((H f)^2 - f^2)/2 for mean-free f (quadratic identity
        of the Hilbert transform on the torus)."""
        rng = np.random.default_rng(2)
        coef = np.zeros(grid.n_modes // 2 + 1, dtype=complex)
        coef[1:20] = rng.standard_normal(19) + 1j * rng.standard_normal(19)
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
        blocks = trig_blocks(grid, rows)
        stacked = trig_sums(grid, blocks, x).real
        assert stacked.shape == (3, 3)
        for row, vals in zip(rows, stacked):
            assert np.array_equal(vals, trig_sums(grid, trig_blocks(grid, row), x).real)
        assert np.allclose(stacked[1], np.cos(x), atol=1e-12)
        # and the complex sums, at the points and at one scalar point
        for pts in (x, 0.4):
            sums = trig_sums(grid, blocks, pts)
            assert sums.shape == (3,) + np.shape(pts)
            for row, vals in zip(rows, sums):
                assert np.array_equal(vals, trig_sums(grid, trig_blocks(grid, row), pts))


def full_wavenumbers(grid):
    return np.pi * np.fft.fftfreq(grid.n_modes, d=1.0 / grid.n_modes) / grid.half_length


def full_spectrum(grid, half):
    """All N coefficients in FFT order, the negative half filled by Hermitian
    symmetry from the stored half (the Nyquist entry kept as stored)."""
    h = grid.n_modes // 2
    return np.concatenate([half, np.conj(half[..., h - 1 : 0 : -1])], axis=-1)


def complex_to_coef(grid, phys):
    """The complex-FFT transform the real one replaced, kept as a reference;
    ``phys`` follows ``grid.nodes``, whose node 0 is x = 0."""
    return np.fft.fft(phys) / grid.n_modes


def complex_to_phys(grid, coef):
    return np.real(np.fft.ifft(coef * grid.n_modes))


def phase_table_to_coef(grid, ascending):
    """The transforms before FFT node order, kept as a reference: samples
    ascending from x = -L, and the phase exp(i xi_k L) = (-1)^k with the
    scale 1/N applied by one real table."""
    coef = np.fft.rfft(ascending)
    coef *= (-1.0) ** grid.mode_index / grid.n_modes
    return coef


def phase_table_to_phys(grid, coef):
    """Inverse of ``phase_table_to_coef``: ascending samples from x = -L."""
    return np.fft.irfft(coef * (grid.n_modes / (-1.0) ** grid.mode_index), n=grid.n_modes)


def direct_dft(grid, phys):
    """coef_k = (1/N) sum_j phys_j exp(-i xi_k x_j) over ``grid.nodes``."""
    return np.exp(-1j * np.outer(grid.wavenumbers, grid.nodes)) @ phys / grid.n_modes


def full_trig_sum(grid, coef, x):
    """Off-grid sum over all N modes in FFT order, kept as a reference."""
    L = grid.half_length
    xa = np.mod(np.atleast_1d(x) + L, 2.0 * L) - L
    return np.real(coef @ np.exp(1j * np.outer(full_wavenumbers(grid), xa)))


# N/2 even (8, 64, 1024, 4096, 8192) and odd (10, 14)
SIZES = [8, 10, 14, 64, 1024, 4096, 8192]


class TestRealTransforms:
    """Properties of the rfft/irfft transforms on random real data."""

    @pytest.fixture(params=SIZES)
    def case(self, request):
        N = request.param
        rng = np.random.default_rng(N)
        grid = GridSpec(float(rng.uniform(0.5, 8.0)), N)
        return grid, rng, rng.standard_normal((3, N))

    def test_to_coef_is_exactly_hermitian(self, case):
        # the stored half k = 0..N/2 of a Hermitian spectrum: its mean and
        # Nyquist entries are exactly real
        grid, _, samples = case
        h = grid.n_modes // 2
        fft_order = np.fft.fftfreq(grid.n_modes, d=1.0 / grid.n_modes)
        assert np.array_equal(grid.mode_index, fft_order[: h + 1])
        assert grid.mode_index[h] == -h  # Nyquist keeps its FFT-order sign
        for phys in samples:
            c = grid.to_coef(phys)
            assert c.shape == (h + 1,)
            assert c[0].imag == 0.0 and c[h].imag == 0.0

    def test_round_trip(self, case):
        grid, _, samples = case
        for phys in samples:
            back = grid.to_phys(grid.to_coef(phys))
            assert np.max(np.abs(back - phys)) <= 1e-14 * np.max(np.abs(phys))

    def test_matches_complex_fft_reference(self, case):
        grid, _, samples = case
        h = grid.n_modes // 2
        m_hilbert = -1j * np.sign(grid.wavenumbers)  # makes the Nyquist entry imaginary
        for phys in samples:
            c = grid.to_coef(phys)
            ref = complex_to_coef(grid, phys)
            assert np.max(np.abs(c - ref[: h + 1])) <= 1e-13 * np.max(np.abs(ref))
            # the full reference spectrum is Hermitian: the stored half holds all of it
            assert np.max(np.abs(full_spectrum(grid, c) - ref)) <= 1e-13 * np.max(np.abs(ref))
            for coef in (c, m_hilbert * c):
                ref_phys = complex_to_phys(grid, full_spectrum(grid, coef))
                got = grid.to_phys(coef)
                assert np.max(np.abs(got - ref_phys)) <= 1e-13 * np.max(np.abs(ref_phys))

    def test_matches_phase_table_reference(self, case):
        # on N = 2^m the transforms of the two sample orders differ by
        # exactly (-1)^k, and N and 1/N are exact, so the results are the
        # phase-table ones bit for bit
        grid, rng, samples = case
        n = grid.n_modes
        bitwise = n & (n - 1) == 0
        for asc in samples:
            c = grid.to_coef(np.fft.ifftshift(asc))
            ref = phase_table_to_coef(grid, asc)
            coef = rng.standard_normal(ref.shape) + 1j * rng.standard_normal(ref.shape)
            phys = np.fft.fftshift(grid.to_phys(coef))
            ref_phys = phase_table_to_phys(grid, coef)
            if bitwise:
                assert np.array_equal(c, ref)
                assert np.array_equal(phys, ref_phys)
            else:
                assert np.max(np.abs(c - ref)) <= 1e-14 * np.max(np.abs(ref))
                assert np.max(np.abs(phys - ref_phys)) <= 1e-14 * np.max(np.abs(ref_phys))

    @pytest.mark.parametrize("n", [n for n in SIZES if n <= 1024])  # the direct sums are O(N^2)
    def test_matches_direct_dft_over_nodes(self, n):
        rng = np.random.default_rng(n)
        grid = GridSpec(float(rng.uniform(0.5, 8.0)), n)
        for phys in rng.standard_normal((3, n)):
            c = grid.to_coef(phys)
            # relative to max|phys|, which bounds every |coef_k|: the phases
            # xi_k x_j reach pi N / 2, so the direct sum itself carries
            # roundoff of about N eps times its terms
            assert np.max(np.abs(c - direct_dft(grid, phys))) <= 1e-13 * np.max(np.abs(phys))
            # and back: the trigonometric sum of c at every node, relative to
            # the sum of its terms' sizes, as for trig_sums
            terms = grid._pair_weight * c
            back = np.real(terms @ np.exp(1j * np.outer(grid.wavenumbers, grid.nodes)))
            assert np.max(np.abs(grid.to_phys(c) - back)) <= 1e-13 * np.sum(np.abs(terms))

    def test_plancherel(self, case):
        grid, rng, samples = case
        twoL = 2.0 * grid.half_length
        weight = rng.uniform(0.0, 3.0, grid.n_modes // 2 + 1)
        full_weight = full_spectrum(grid, weight).real  # even: w_(-k) = w_k
        a, b = grid.to_coef(samples[0]), grid.to_coef(samples[1])
        for phys in samples:
            c = grid.to_coef(phys)
            quad = np.sum(phys**2) * grid.dx
            full = twoL * np.sum(np.abs(full_spectrum(grid, c)) ** 2)
            assert abs(full - quad) <= 1e-13 * quad
            assert abs(grid.norm2(c) - full) <= 1e-13 * full
            full_w = twoL * np.sum(full_weight * np.abs(full_spectrum(grid, c)) ** 2)
            assert abs(grid.norm2(c, weight) - full_w) <= 1e-13 * full_w
        quad = np.sum(samples[0] * samples[1]) * grid.dx
        full = twoL * np.real(np.sum(full_spectrum(grid, a) * np.conj(full_spectrum(grid, b))))
        scale = np.sqrt(grid.norm2(a) * grid.norm2(b))
        assert abs(full - quad) <= 1e-13 * scale
        assert abs(grid.inner(a, b) - full) <= 1e-13 * scale
        assert abs(grid.inner(a, a) - grid.norm2(a)) <= 1e-13 * grid.norm2(a)
        # stacked rows reduce along the last axis
        rows = grid.to_coef(samples)
        assert np.array_equal(grid.norm2(rows), [grid.norm2(r) for r in rows])
        pairs = zip(rows, rows[::-1])
        assert np.array_equal(grid.inner(rows, rows[::-1]), [grid.inner(r, q) for r, q in pairs])

    def test_half_sum_eval_trig_matches_full_sum(self, case):
        grid, rng, samples = case
        L, h = grid.half_length, grid.n_modes // 2
        x = np.append(rng.uniform(-3.0 * L, 3.0 * L, 9), [-3.0 * L, 3.0 * L])
        for phys in samples:
            c = grid.to_coef(phys)
            c[h] = 1j * rng.standard_normal()  # purely imaginary Nyquist coefficient
            ref = full_trig_sum(grid, full_spectrum(grid, c), x)
            got = trig_sums(grid, trig_blocks(grid, c), x).real
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(full_spectrum(grid, c)))

    def test_imaginary_part_is_the_hilbert_transform(self, case):
        # on the row of a real field f the block sum is f + i H f: hilbert's
        # multiplier -i sgn(xi) takes sgn = -1 at the Nyquist entry, where
        # the sum's term is conjugated; checked with a complex Nyquist entry
        # and on rows cut to n/2 + 1, a coarser rung's, read as zero-padded
        grid, rng, samples = case
        L, h = grid.half_length, grid.n_modes // 2
        x = np.append(rng.uniform(-3.0 * L, 3.0 * L, 9), [-3.0 * L, 3.0 * L])
        for phys in samples:
            c = grid.to_coef(phys)
            c[h] += 1j * rng.standard_normal()
            for m in (h + 1, h // 2 + 1):
                padded = np.zeros(h + 1, dtype=complex)
                padded[:m] = c[:m]
                f = SpectralField.from_coef(grid, padded)
                sums = trig_sums(grid, trig_blocks(grid, c[:m]), x)
                scale = np.sum(np.abs(full_spectrum(grid, padded)))
                assert np.max(np.abs(sums.imag - evaluate_at(hilbert(f), x))) <= 1e-13 * scale

    def test_eval_trig_reads_shorter_rows_as_zero_padded(self, case):
        # rows cut at and around the block size of the layout, and a
        # coarser grid's rows with their Nyquist entry dropped
        grid, rng, samples = case
        L, h = grid.half_length, grid.n_modes // 2
        block = grid._trig_blocks[0]
        x = np.append(rng.uniform(-3.0 * L, 3.0 * L, 9), [-3.0 * L, 3.0 * L])
        for c in grid.to_coef(samples):
            for m in sorted({1, 2, block - 1, block, block + 1, h // 2, h // 2 + 1, h}):
                padded = np.zeros(h + 1, dtype=complex)
                padded[:m] = c[:m]
                got = trig_sums(grid, trig_blocks(grid, c[:m]), x).real
                assert got.shape == x.shape
                ref = trig_sums(grid, trig_blocks(grid, padded), x).real
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(c[:m]))
        with pytest.raises(ValueError):
            trig_blocks(grid, np.zeros(h + 2, dtype=complex))

    def test_batched_transforms_match_row_by_row(self, case):
        grid, _, samples = case
        coef = grid.to_coef(samples)
        assert coef.shape == (samples.shape[0], grid.n_modes // 2 + 1)
        assert np.array_equal(coef, np.array([grid.to_coef(row) for row in samples]))
        rows = coef * (1j * grid.wavenumbers)
        assert np.array_equal(grid.to_phys(rows), np.array([grid.to_phys(row) for row in rows]))

    @pytest.mark.parametrize("n", [16, 20, 64, 1024, 4096])
    def test_shorter_rows_read_as_zero_padded(self, n):
        # a coarser grid's coefficients, Nyquist entry 0, land on these nodes
        # exactly as their explicit zero-padding does
        rng = np.random.default_rng(n)
        grid = GridSpec(float(rng.uniform(0.5, 8.0)), n)
        samples = rng.standard_normal((3, n))
        h = grid.n_modes // 4
        short = grid.to_coef(samples)[:, : h + 1]
        short[:, h] = 0.0
        padded = np.zeros((short.shape[0], grid.n_modes // 2 + 1), dtype=complex)
        padded[:, : h + 1] = short
        assert np.array_equal(grid.to_phys(short), grid.to_phys(padded))
        coarse = GridSpec(grid.half_length, grid.n_modes // 2)
        assert np.max(np.abs(grid.to_phys(short)[:, ::2] - coarse.to_phys(short))) <= 1e-13 * np.max(np.abs(samples))
