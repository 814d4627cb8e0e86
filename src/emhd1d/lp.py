"""Dyadic (Littlewood-Paley) decomposition and shell-resolved Sobolev norms.

The smooth low-pass profile chi equals 1 on |xi| <= 3/4 and vanishes for
|xi| >= 1; the shell profile is phi(xi) = chi(xi/2) - chi(xi).  Shell q >= 0
restricts to |xi| ~ 2^q and shell q = -1 is the chi block.  The profiles
telescope, so the resolved shells form an exact partition of unity on the
grid's dealiased band.

Also contains empirical sanity harnesses for the Bernstein and commutator
inequalities used by the energy estimates: they report worst-case
left/right-hand-side ratios over random band-limited fields.  These are
bounded-ratio checks, not constant verifications.  The Bernstein and
commutator harnesses draw their trials in turn, then make one call per
quantity on the stack of the trials' fields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .gates import Gate, at_least, at_most
from .spectral import (
    DEALIAS_FRACTION,
    GridSpec,
    SpectralField,
    derivative,
    frac_laplacian,
    product,
    riesz_potential,
    scalar,
)


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, else 0 (the standard C-infinity mollifier leg)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    g, g1 = _bump(t), _bump(1.0 - np.asarray(t, dtype=float))
    return g / (g + g1)


def chi_profile(xi: np.ndarray) -> np.ndarray:
    """Low-pass profile: 1 on |xi| <= 3/4, 0 on |xi| >= 1, smooth bridge."""
    return smooth_step((1.0 - np.abs(xi)) / 0.25)


def phi_profile(xi: np.ndarray) -> np.ndarray:
    """Shell profile phi(xi) = chi(xi/2) - chi(xi), supported on 3/4 <= |xi| <= 2."""
    return chi_profile(np.asarray(xi) / 2.0) - chi_profile(xi)


@dataclass(frozen=True)
class LPCutoffs:
    """Read-only shell multiplier tables for one grid.

    Row q + 1 of ``weights`` is the diagonal multiplier of the projection
    Delta_q on the grid's wavenumbers and ``lam[q + 1]`` = 2^q; q = -1 is the
    chi block and shells above ``q_max`` are identically zero on the dealiased grid.
    """

    grid: GridSpec
    q_max: int = field(init=False)
    lam: np.ndarray = field(init=False, repr=False)  # (n_shells,)
    weights: np.ndarray = field(init=False, repr=False)  # (n_shells, N/2+1)

    def __post_init__(self) -> None:
        xi_max = self.grid.xi_max_dealiased
        q_max = int(math.ceil(math.log2(xi_max)))
        xi = self.grid.wavenumbers
        lam = 2.0 ** np.arange(-1, q_max + 1)
        weights = np.vstack([chi_profile(xi)] + [phi_profile(xi / lq) for lq in lam[1:]])
        lam.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "q_max", q_max)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "weights", weights)

    def weight(self, q: "int | np.ndarray") -> np.ndarray:
        """Row q + 1 of ``weights``; an array of shell indices gives a row each."""
        if np.min(q) < -1 or np.max(q) > self.q_max:
            raise ValueError(f"shell index {q} outside [-1, {self.q_max}]")
        return self.weights[q + 1]

    def shells(self) -> range:
        return range(-1, self.q_max + 1)


cutoffs_for = functools.lru_cache(maxsize=32)(LPCutoffs)  # one shared, read-only table per grid


def project_shell(f: SpectralField, q: "int | np.ndarray") -> SpectralField:
    """Littlewood-Paley projection Delta_q f (q = -1 is the low block); on a
    stack, an array q gives each row its own shell."""
    return SpectralField.from_coef(f.grid, cutoffs_for(f.grid).weight(q) * f.coef)


def shell_spectrum(f: SpectralField, s: float) -> np.ndarray:
    """Per-shell weighted L2 masses lambda_q^(2s) ||Delta_q f||^2, q = -1 .. q_max."""
    cut = cutoffs_for(f.grid)
    return cut.lam ** (2.0 * s) * f.grid.norm2(cut.weights * f.coef)


def sobolev_norm(f: SpectralField, s: float) -> "float | np.ndarray":
    """Homogeneous Sobolev norm via the direct multiplier (zero mode excluded).

    This is the reference implementation the shell sum is equivalent to.
    """
    return scalar(np.sqrt(f.grid.sobolev_norm2(f.coef, s)))


def lp_norm(f: SpectralField, p: float) -> "float | np.ndarray":
    """L^p norm by trapezoidal quadrature (exact mean of |f|^p on the uniform grid)."""
    return scalar((np.mean(np.abs(f.phys) ** p, axis=-1) * 2.0 * f.grid.half_length) ** (1.0 / p))


def random_band_limited(
    grid: GridSpec,
    rng: np.random.Generator,
    k_max: int | None = None,
    decay: float = 0.2,
) -> SpectralField:
    """Random real zero-mean field with mildly decaying spectrum, band-limited
    well inside the dealias cutoff so quadratic products stay exact."""
    N = grid.n_modes
    if k_max is None:
        k_max = int(DEALIAS_FRACTION * N / 2) // 2
    k_max = max(1, min(k_max, N // 2 - 1))
    kk = np.arange(1, k_max + 1)
    amp = (rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)) * np.exp(-decay * kk)
    coef = np.zeros(N // 2 + 1, dtype=complex)
    coef[kk] = amp
    return SpectralField.from_coef(grid, coef)


def random_shell_field(grid: GridSpec, q: int, rng: np.random.Generator) -> SpectralField:
    """Random field localized to shell q (white coefficients shaped by phi_q)."""
    N = grid.n_modes
    z = rng.standard_normal(N) + 1j * rng.standard_normal(N)  # drawn in FFT order
    k = np.arange(N // 2 + 1)
    w = cutoffs_for(grid).weight(q)
    coef = 0.5 * (z[k] * w + np.conj(z[-k] * w))  # Hermitian part of z_k
    coef[0] = 0.0
    return SpectralField.from_coef(grid, coef)


@dataclass(frozen=True)
class BoundReport:
    """Worst observed LHS/RHS ratios of an inequality over random trials."""

    name: str
    trials: int
    max_ratio: float
    ratios: np.ndarray

    def as_dict(self) -> dict:
        return {"name": self.name, "trials": self.trials, "max_ratio": self.max_ratio}


def bernstein_check(
    grid: GridSpec, trials: int = 50, seed: int = 0
) -> tuple[BoundReport, BoundReport]:
    """Empirical Bernstein constants on shell-localized fields.

    Checks ||d/dx f_q||_2 <= C 2^q ||f_q||_2 and
    ||f_q||_inf <= C 2^(q/2) ||f_q||_2.
    """
    rng = np.random.default_rng(seed)
    qs, rows = [], []
    for _ in range(trials):
        qs.append(int(rng.integers(0, cutoffs_for(grid).q_max)))
        rows.append(random_shell_field(grid, qs[-1], rng).coef)
    f = SpectralField.from_coef(grid, np.array(rows))
    n2 = f.l2_norm()
    keep = n2 != 0.0  # a zero field has no ratio
    lam_q, n2 = 2.0 ** np.array(qs)[keep], n2[keep]
    r_deriv = derivative(f).l2_norm()[keep] / (lam_q * n2)
    r_inf = f.linf_norm()[keep] / (lam_q**0.5 * n2)
    rep1 = BoundReport("bernstein_derivative", trials, float(np.max(r_deriv)), r_deriv)
    rep2 = BoundReport("bernstein_linf", trials, float(np.max(r_inf)), r_inf)
    return rep1, rep2


def commutator_check(grid: GridSpec, trials: int = 30, seed: int = 0) -> tuple[BoundReport, BoundReport]:
    """Bounded-ratio harness for the two commutator estimates.

    First: || [Delta_q, f] g ||_2 against
    2^(-q(r1 + r2 - 1/2)) ||f||_{H^r1} ||g||_{H^r2} with r1 = 1/2 and
    r2 = -1/2 + eps, eps = 0.1 (the parameter choice the energy estimates
    use; the summable c_q sequence is absorbed into the reported ratio).

    Second (Coifman-Meyer type): || [Lambda^(1/2), f] g ||_2 against
    ||Lambda^sigma f||_{r1} ||I_(sigma - 1/2) g||_{r2} with sigma = 1 - eps,
    r2 = 2 + eps and 1/r1 = 1/2 - 1/r2.
    """
    rng = np.random.default_rng(seed)
    eps = 0.1
    r1s, r2s = 0.5, -0.5 + eps
    sigma = 1.0 - eps
    p2 = 2.0 + eps
    p1 = 1.0 / (0.5 - 1.0 / p2)
    fs, gs, qs = [], [], []
    for _ in range(trials):
        fs.append(random_band_limited(grid, rng).coef)
        gs.append(random_band_limited(grid, rng).coef)
        qs.append(int(rng.integers(0, cutoffs_for(grid).q_max)))
    f, g = (SpectralField.from_coef(grid, np.array(rows)) for rows in (fs, gs))
    q = np.array(qs)

    # [Delta_q, f] g = Delta_q(fg) - f Delta_q(g)
    comm = project_shell(product(f, g), q).coef - product(f, project_shell(g, q)).coef
    lhs = SpectralField.from_coef(grid, comm).l2_norm()
    rhs = (2.0**q) ** (-(r1s + r2s - 0.5)) * 2.0 * sobolev_norm(f, r1s) * sobolev_norm(g, r2s)
    ratios_lp = lhs[rhs > 0] / rhs[rhs > 0]

    # [Lambda^gamma, f] g with gamma = 1/2
    half = 0.5
    comm2 = frac_laplacian(product(f, g), half).coef - product(f, frac_laplacian(g, half)).coef
    lhs2 = SpectralField.from_coef(grid, comm2).l2_norm()
    rhs2 = lp_norm(frac_laplacian(f, sigma), p1) * lp_norm(riesz_potential(g, sigma - half), p2)
    ratios_cm = lhs2[rhs2 > 0] / rhs2[rhs2 > 0]
    rep_lp = BoundReport("commutator_shell", trials, float(np.max(ratios_lp)), ratios_lp)
    rep_cm = BoundReport("commutator_frac", trials, float(np.max(ratios_cm)), ratios_cm)
    return rep_lp, rep_cm


def norm_equivalence_ratio(
    grid: GridSpec, s: float, trials: int = 100, seed: int = 0
) -> tuple[float, float]:
    """Range [c, C] of sqrt(sum(shell_spectrum)) / sobolev_norm over random fields."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        f = random_band_limited(grid, rng, decay=float(rng.uniform(0.02, 0.5)))
        direct = sobolev_norm(f, s)
        if direct != 0.0:
            ratios.append(np.sqrt(np.sum(shell_spectrum(f, s))) / direct)
    return float(np.min(ratios)), float(np.max(ratios))


def lp_verdict(grid: GridSpec, seed: int = 0) -> tuple[dict, list[Gate]]:
    """The ``lp_report.json`` dict and gates: the Bernstein ratios and the H^1
    norm-equivalence range are gated, the commutator ratios reported."""
    b1, b2 = bernstein_check(grid, seed=seed)
    c1, c2 = commutator_check(grid, seed=seed)
    lo, hi = norm_equivalence_ratio(grid, s=1.0, seed=seed)
    report = {
        "bernstein": [b1.as_dict(), b2.as_dict()],
        "commutator": [c1.as_dict(), c2.as_dict()],
        "norm_equivalence": {"s": 1.0, "min_ratio": lo, "max_ratio": hi},
    }
    gates = [at_most(b.name, b.max_ratio, 4.0) for b in (b1, b2)]
    gates += [at_least("norm_equivalence_min", lo, 0.5), at_most("norm_equivalence_max", hi, 2.0)]
    return report, gates
