"""Dyadic shell decomposition and inequality-harness tests."""

import numpy as np
import pytest

from emhd1d.lp import (
    ROUNDOFF_FLOOR,
    LPCutoffs,
    cutoffs_for,
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
from emhd1d.spectral import GridSpec, SpectralField, derivative, frac_laplacian, product, riesz_potential, sobolev_weight


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
        # an array of shells is checked against the same range
        for bad in ([0, -2, 1], [cutoffs.q_max + 1, 0]):
            with pytest.raises(ValueError):
                cutoffs.weight(np.array(bad))
        q = np.array([-1, cutoffs.q_max, 2])
        assert np.array_equal(cutoffs.weight(q), np.stack([cutoffs.weight(int(k)) for k in q]))

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

    @pytest.mark.parametrize("n", [96, 98, 192, 512])
    def test_default_band_products_are_not_truncated(self, n):
        # the default band is k <= (cut - 1) // 2, so a product's top mode,
        # twice that, is kept; at N = 96 and 192, int((2/3)(N/2)) // 2
        # would put it on the cut, where the truncation drops it
        grid = GridSpec(np.pi, n)
        rng = np.random.default_rng(n)
        f, g = random_band_limited(grid, rng), random_band_limited(grid, rng)
        full = product(f, g, dealiased=False).coef
        assert np.allclose(product(f, g).coef, full, rtol=0.0, atol=1e-14 * np.max(np.abs(full)))

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


class TestStacks:
    """The lp norms and projections on a stack of 5 fields give, row for
    row, the bits of single-field calls."""

    def test_rows_match_single_fields(self, grid, cutoffs):
        rng = np.random.default_rng(12)
        rows = np.array([random_band_limited(grid, rng, decay=0.05).coef for _ in range(5)])
        f = SpectralField.from_coef(grid, rows)
        singles = [SpectralField.from_coef(grid, row) for row in rows]
        q = np.array([-1, 0, 3, cutoffs.q_max, 5])
        for s in (0.5, -0.4):
            assert isinstance(sobolev_norm(singles[0], s), float)
            assert np.array_equal(sobolev_norm(f, s), [sobolev_norm(g, s) for g in singles])
        # the p-th root of a stack's means takes numpy's array power, which
        # may be SIMD where one float's takes libm: 1 ulp apart on one of these
        for p in (2.1, 42.0):
            assert isinstance(lp_norm(singles[0], p), float)
            np.testing.assert_array_max_ulp(lp_norm(f, p), np.array([lp_norm(g, p) for g in singles]), maxulp=4)
        proj = project_shell(f, q)
        for i, g in enumerate(singles):
            assert np.array_equal(proj.coef[i], project_shell(g, int(q[i])).coef)


def loop_bernstein(grid, trials, seed):
    """The harness one field at a time, as it was before it took stacks:
    the reference the stacked harness must match bit for bit."""
    rng = np.random.default_rng(seed)
    r_deriv, r_inf = [], []
    for _ in range(trials):
        q = int(rng.integers(0, cutoffs_for(grid).q_max))
        f = random_shell_field(grid, q, rng)
        n2 = f.l2_norm()
        if n2 == 0.0:
            continue
        r_deriv.append(derivative(f).l2_norm() / (2.0**q * n2))
        r_inf.append(f.linf_norm() / ((2.0**q) ** 0.5 * n2))
    return r_deriv, r_inf


def loop_commutator(grid, trials, seed):
    """``commutator_check`` one field pair at a time, as ``loop_bernstein``:
    each report's ratios, and its count of trials whose commutator is at
    most ``ROUNDOFF_FLOOR`` ||f g||_2."""
    rng = np.random.default_rng(seed)
    eps = 0.1
    p2 = 2.0 + eps
    p1 = 1.0 / (0.5 - 1.0 / p2)
    ratios_lp, ratios_cm, vanished = [], [], [0, 0]
    for _ in range(trials):
        f = random_band_limited(grid, rng)
        g = random_band_limited(grid, rng)
        q = int(rng.integers(0, cutoffs_for(grid).q_max))
        floor = ROUNDOFF_FLOOR * product(f, g).l2_norm()
        comm = project_shell(product(f, g), q).coef - product(f, project_shell(g, q)).coef
        rhs = (2.0**q) ** (-(0.5 + (-0.5 + eps) - 0.5)) * 2.0 * sobolev_norm(f, 0.5) * sobolev_norm(g, -0.5 + eps)
        comm2 = frac_laplacian(product(f, g), 0.5).coef - product(f, frac_laplacian(g, 0.5)).coef
        rhs2 = lp_norm(frac_laplacian(f, 1.0 - eps), p1) * lp_norm(riesz_potential(g, 0.5 - eps), p2)
        for i, (c, r, out) in enumerate(((comm, rhs, ratios_lp), (comm2, rhs2, ratios_cm))):
            lhs = SpectralField.from_coef(grid, c).l2_norm()
            if lhs <= floor:
                vanished[i] += 1
            elif r > 0:
                out.append(lhs / r)
    return ratios_lp, ratios_cm, vanished


def full_spectrum(coef, K):
    """A half-layout row, Nyquist entry dropped, as its full spectrum
    k = -K ... K in extended precision."""
    out = np.zeros(2 * K + 1, dtype=np.clongdouble)
    m = coef.size - 1
    out[K : K + m] = coef[:m]
    out[K - np.arange(1, m)] = np.conj(coef[1:m])
    return out


def exact_shell_commutators(grid, trials, seed):
    """Each trial's shell ratio, ||[Delta_q, f] g||_2 and ||f g||_2 as
    ``commutator_check`` draws it, the commutator summed mode by mode,
    sum_j f_j g_(k-j) (w_k - w_(k-j)), by a direct convolution in extended
    precision and truncated from ``grid.cut`` up: no FFT and no float64
    sum.  The ratio's bound is the harness's."""
    rng = np.random.default_rng(seed)
    K = grid.n_modes // 2
    kept = np.abs(np.arange(-K, K + 1)) < grid.cut
    rows = []
    for _ in range(trials):
        f, g = random_band_limited(grid, rng), random_band_limited(grid, rng)
        q = int(rng.integers(0, cutoffs_for(grid).q_max))
        fe, ge = full_spectrum(f.coef, K), full_spectrum(g.coef, K)
        w = full_spectrum(cutoffs_for(grid).weight(q).astype(complex), K).real
        prod = np.convolve(fe, ge)[K : 3 * K + 1] * kept
        comm = (w * prod - np.convolve(fe, w * ge)[K : 3 * K + 1]) * kept
        lhs, fg = (np.sqrt(2.0 * grid.half_length * np.sum(np.abs(a) ** 2)) for a in (comm, prod))
        rhs = (2.0**q) ** 0.4 * 2.0 * sobolev_norm(f, 0.5) * sobolev_norm(g, -0.4)
        rows.append((float(lhs / rhs), float(lhs), float(fg)))
    return np.array(rows).T


# The harnesses' outputs at N = 512, seed 1001 (50 Bernstein trials, 20
# commutator trials, the default 100 norm-equivalence trials at s = 1), as
# the one-field-at-a-time harnesses gave them with numpy 2.4 on x86-64.
BERNSTEIN_DERIVATIVE = [
    1.3400262483103915, 1.2234068231753321, 1.3752569886978245,
    1.3707090990902564, 1.4014513343504977, 1.361735099955571,
    1.3128694785098043, 1.3086738585370434, 1.3171459195136275,
    1.2283619746554004, 1.2783700535507634, 1.3501047330444023,
    1.470976014954556, 1.1794634463169988, 1.3075834224149872,
    1.3062696417923751, 1.2462792369736968, 1.3536775422635718,
    1.330984987784727, 1.4040410575164726, 1.3977033425477297,
    1.286963112285584, 1.3845635631112463, 1.338168601683885,
    1.0, 1.3115900596792365, 1.4065088726706316,
    1.1800809999503523, 1.0987122208289068, 1.441356456582504,
    1.3596130121176686, 1.3449395576622156, 1.088031280274979,
    1.2617521621864363, 1.3602414736616073, 1.0,
    1.2849385742986457, 1.0, 1.1905051580976804,
    1.3472093722634009, 1.0, 1.3114132380184047,
    1.3260017230035592, 1.3847074830789357, 1.4567271303133298,
    1.350509123922478, 1.30713309198214, 1.315254526812213,
    1.470384136901177, 1.3235864928325305,
]
BERNSTEIN_LINF = [
    0.10935913183653707, 0.25961087016055334, 0.29425237930335635,
    0.3176101082935438, 0.4857457382576222, 0.17943016034873663,
    0.11317586731721777, 0.1352230475095252, 0.2929214323874676,
    0.1763637060951283, 0.4698319618944471, 0.10662986862365093,
    0.48063306449837995, 0.41605494998624515, 0.20445657747798782,
    0.12031483998152673, 0.29055716408347404, 0.28897123110925543,
    0.19872742118359912, 0.32433218633376565, 0.2578179980001557,
    0.16610834676483327, 0.27693087584831505, 0.4327391187647036,
    0.5641833741567837, 0.2654403597347736, 0.3816050847151039,
    0.5518486447080375, 0.5062857374355066, 0.4591225868640378,
    0.3003180613475895, 0.1830278690171181, 0.5194920440911778,
    0.42708185264258713, 0.3625250073322383, 0.5641891972486279,
    0.21951343013011387, 0.5641891633889042, 0.5301965822468495,
    0.4539946959676569, 0.5641887797936567, 0.1101391114386419,
    0.15284160515934092, 0.2748094451573607, 0.40248182326548926,
    0.17092514767761072, 0.14180515777908556, 0.20279085808669817,
    0.38743547051668104, 0.5001219971736414,
]
COMMUTATOR_SHELL = [
    0.07690594602222216, 0.0039332284628610355, 0.029831082710969046,
    0.10048051293315224, 0.08675339968089762, 0.0470169346522734,
    0.00027169464940413616, 2.3418743637609347e-11, 0.019498863407713694,
    0.034532573086007504, 0.09303149462010114, 0.08973378060137766,
    2.2991590715838648e-11, 0.10679482334163341, 2.080603193842093e-06,
    0.06486186241921216, 0.09177967428231755, 0.09579678293071524,
    1.1933275705706638e-06, 0.06202634872251878,
]
COMMUTATOR_FRAC = [
    0.12941023891018325, 0.10384468161651533, 0.17622837182578938,
    0.15458810388592256, 0.18731610650345437, 0.15910201187288928,
    0.13984782936365736, 0.13129846221485608, 0.11264670565134066,
    0.16890510521094643, 0.1424278034087734, 0.12364694363183194,
    0.1234849284434137, 0.17256399646709278, 0.14814749712819458,
    0.18376405380494693, 0.13466216222794014, 0.11670359188524904,
    0.14739587414026986, 0.16922682227533462,
]
NORM_EQUIVALENCE = (0.7401058381023806, 0.97351556591994)


class TestStackedHarnesses:
    """The Bernstein and commutator harnesses draw their trials in the order
    they always did and make one stacked call per quantity; their reports keep
    the requested trial count.  The norm-equivalence range is pinned too."""

    @pytest.mark.parametrize("seed", [1001, 7])
    def test_match_the_loop_reference_bitwise(self, grid, seed):
        b1, b2 = bernstein_check(grid, trials=50, seed=seed)
        r_deriv, r_inf = loop_bernstein(grid, 50, seed)
        assert b1.ratios.tobytes() == np.array(r_deriv).tobytes() and b1.max_ratio == max(r_deriv)
        assert b2.ratios.tobytes() == np.array(r_inf).tobytes() and b2.max_ratio == max(r_inf)
        # the commutator's right-hand sides take powers of arrays (see
        # TestStacks), so its ratios are held to 4 ulp; here they are exact
        c1, c2 = commutator_check(grid, trials=20, seed=seed)
        *refs, vanished = loop_commutator(grid, 20, seed)
        for rep, ref in zip((c1, c2), refs):
            np.testing.assert_array_max_ulp(rep.ratios, np.array(ref), maxulp=4)
            np.testing.assert_array_max_ulp(rep.max_ratio, max(ref), maxulp=4)
        assert (b1.trials, c1.trials) == (50, 20)
        assert [c1.vanished, c2.vanished] == vanished == [0, 0]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double")
    @pytest.mark.parametrize("n", [512, 1024])
    def test_only_roundoff_commutators_are_counted(self, n):
        # against a direct convolution in extended precision: at N = 512
        # every shell commutator is a true value, down to 2e-11 of its
        # bound, and at N = 1024 the trials whose shell lies above the band
        # of f g read only roundoff; the floor counts exactly those, and
        # every ratio it keeps holds to 1e-6 relative (3.8e-9 measured)
        grid = GridSpec(np.pi, n)
        c1, c2 = commutator_check(grid, trials=20, seed=1001)
        *refs, vanished = loop_commutator(grid, 20, 1001)
        ratio, exact, fg = exact_shell_commutators(grid, 20, 1001)
        counted = exact <= ROUNDOFF_FLOOR * fg
        assert c1.vanished == vanished[0] == np.count_nonzero(counted) == (0 if n == 512 else 2)
        assert c2.vanished == vanished[1] == 0 and c2.ratios.size == 20
        np.testing.assert_array_max_ulp(c1.ratios, np.array(refs[0]), maxulp=4)
        np.testing.assert_allclose(c1.ratios, ratio[~counted], rtol=1e-6, atol=0.0)
        np.testing.assert_array_max_ulp(c1.max_ratio, max(refs[0]), maxulp=4)

    def test_pinned_outputs(self, grid):
        # exact on the host the pins were taken on; a host whose numpy takes
        # other SIMD paths moves them (with AVX-512 dispatch off, by up to
        # 2 ulp of a report's largest ratio), so each ratio is held to 4 ulp
        # of its report's largest
        b1, b2 = bernstein_check(grid, trials=50, seed=1001)
        c1, c2 = commutator_check(grid, trials=20, seed=1001)
        for rep, pinned in ((b1, BERNSTEIN_DERIVATIVE), (b2, BERNSTEIN_LINF),
                            (c1, COMMUTATOR_SHELL), (c2, COMMUTATOR_FRAC)):
            assert rep.ratios.shape == (len(pinned),)
            tol = 4 * np.spacing(max(pinned))
            assert np.max(np.abs(rep.ratios - pinned)) <= tol, rep.name
            assert abs(rep.max_ratio - max(pinned)) <= tol
        lo, hi = norm_equivalence_ratio(grid, 1.0, seed=1001)
        assert abs(lo - NORM_EQUIVALENCE[0]) <= 4 * np.spacing(lo)
        assert abs(hi - NORM_EQUIVALENCE[1]) <= 4 * np.spacing(hi)
