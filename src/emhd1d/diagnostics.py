"""Time-series analysis for solver runs.

Three families of diagnostics:

* Sobolev norm tables with a trapezoidal dissipation budget, matching the
  regularity class C_t H^s intersect L^2_t H^(s + alpha/2).
* Smoothing-rate fits: for a rough H^(s_base) datum the dissipative semigroup
  gains derivatives at rate t^(-(s_target - s_base)/alpha); the fit recovers
  that exponent from a run (nonlinear or linear).
* The shell-resolved energy-flux decomposition: for the full model the
  weighted shell energy satisfies
      (1/2) d/dt sum_q lam_q^(2s) ||Delta_q B||^2 + mu * D = -I - 2K
  with I = sum_q lam_q^(2s) int (B Lambda B)_q d/dx B_q and
       K = sum_q lam_q^(2s) int (Lambda B B_x)_q B_q.
  The spatial identity is exact for dealiased products; the time defect of a
  run is pure finite-difference truncation, hence O(dt^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import cutoffs_for, shell_spectrum
from .solver import ModelParams, StepperConfig, TimeSeries, _ops, step
from .spectral import DEALIAS_FRACTION, GridSpec, SpectralField, sobolev_weight


@dataclass(frozen=True)
class NormSeries:
    """Columns: times, one H^s and one homogeneous H^(s+alpha/2) row per s,
    plus the running trapezoidal integral of the dissipation-norm square."""

    times: np.ndarray
    s_list: tuple[float, ...]
    hs: np.ndarray  # (len(s_list), n_times) inhomogeneous H^s
    hs_diss: np.ndarray  # (len(s_list), n_times) homogeneous H^(s + alpha/2)
    budget: np.ndarray  # (len(s_list), n_times) int_0^t ||B||^2_{H^(s+a/2)} dtau

    @classmethod
    def from_norms(cls, times: np.ndarray, s_list, norms: np.ndarray) -> "NormSeries":
        """The series of the ``norm_block`` columns ``norms``, one per time."""
        hs, hd = norms
        return cls(times=times, s_list=tuple(s_list), hs=hs, hs_diss=hd, budget=_cumtrapz(times, hd**2))


def _cumtrapz(times: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Running trapezoid int_0^t y along the last axis, starting at 0."""
    steps = np.cumsum(0.5 * np.diff(times) * (y[..., 1:] + y[..., :-1]), axis=-1)
    return np.concatenate([np.zeros(y.shape[:-1] + (1,)), steps], axis=-1)


# rows of the snapshot table that one norm_block call reads: its
# temporaries are the size of a block, not of the table
BLOCK = 32


def norm_block(grid: GridSpec, block: np.ndarray, s_list, alpha: float) -> np.ndarray:
    """The (2, len(s_list), len(block)) norms of the rows of ``block``: for
    each s of ``s_list`` the inhomogeneous H^s norm, then the homogeneous
    H^(s + alpha/2) norm, each from one squaring of ``block``."""
    power, xi = np.abs(block) ** 2, grid.wavenumbers
    return np.sqrt([
        [grid.power_sum(power, sobolev_weight(xi, s, homogeneous=False)) for s in s_list],
        [grid.power_sum(power, sobolev_weight(xi, s + 0.5 * alpha)) for s in s_list],
    ])


def norm_series(run: TimeSeries, s_list: list[float]) -> NormSeries:
    """The norms of each snapshot row of ``run``, a ``norm_block`` call per
    block of ``BLOCK`` rows."""
    norms = np.empty((2, len(s_list), len(run.times)))
    for i in range(0, len(run.times), BLOCK):
        norms[..., i : i + BLOCK] = norm_block(run.grid, run.coefs[i : i + BLOCK], s_list, run.params.alpha)
    return NormSeries.from_norms(run.times, s_list, norms)


def rough_datum(grid: GridSpec, s_base: float, norm: float = 0.05, seed: int = 0) -> SpectralField:
    """Random-phase datum with |coef| ~ |xi|^(-(s_base + 1/2)) (1 + |xi|)^(-0.01).

    The tail exponent puts the field exactly at the edge of H^(s_base); the
    field is then rescaled to the requested (small) H^(s_base) norm so the
    nonlinearity acts perturbatively.
    """
    rng = np.random.default_rng(seed)
    N = grid.n_modes
    xi = grid.wavenumbers
    k_cut = int(DEALIAS_FRACTION * N / 2)
    coef = np.zeros(N // 2 + 1, dtype=complex)
    kk = np.arange(1, k_cut)
    xik = np.abs(xi[kk])
    amp = xik ** (-(s_base + 0.5)) * (1.0 + xik) ** -0.01
    phase = np.exp(2j * np.pi * rng.random(kk.size))
    coef[kk] = amp * phase
    cur = np.sqrt(grid.sobolev_norm2(coef, s_base, homogeneous=False))
    return SpectralField.from_coef(grid, coef * (norm / cur))


def semigroup_norm_series(
    B0: SpectralField, mu: float, alpha: float, times: np.ndarray, s: float
) -> np.ndarray:
    """Exact homogeneous H^s norms of exp(-mu t Lambda^alpha) B0 (oracle),
    the semigroup's multiplier being the solver's linear part."""
    lin = _ops(B0.grid, ModelParams(kind="full", mu=mu, alpha=alpha)).lin
    decayed = np.exp(-np.asarray(times)[:, None] * lin) * B0.coef
    return np.sqrt(B0.grid.sobolev_norm2(decayed, s))


@dataclass(frozen=True)
class RateFit:
    exponent_est: float
    expected: float
    residual: float
    window: tuple[float, float]


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept: (slope, intercept, rms residual)."""
    A = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), float(intercept), resid


def _rate_fit(
    times: np.ndarray, norms: np.ndarray, s_base: float, s_target: float, alpha: float, t_min: float
) -> RateFit:
    """Least-squares slope of log(norm) vs log(t) on [t_min, 10 t_min]."""
    window = (t_min, 10.0 * t_min)
    sel = (times >= window[0]) & (times <= window[1]) & (norms > 0)
    if np.count_nonzero(sel) < 3:
        raise ValueError("fewer than 3 samples in the fit window")
    slope, _, resid = fit_line(np.log(times[sel]), np.log(norms[sel]))
    return RateFit(exponent_est=-slope, expected=(s_target - s_base) / alpha, residual=resid, window=window)


def smoothing_rate_fit(run: TimeSeries, s_base: float, s_target: float, t_min: float = 1e-3) -> RateFit:
    """Fitted decay exponent of ||B(t)||_{H^(s_target), hom} on [t_min, 10 t_min].

    For a datum on the edge of H^(s_base) the dissipative gain predicts the
    norm to grow like t^(-(s_target - s_base)/alpha) as t -> 0+, with alpha
    the run's own, so the fitted log-log slope should be minus that exponent.
    The norms are read a block of ``BLOCK`` rows at a time.
    """
    grid, norms = run.grid, np.empty(len(run.times))
    weight = sobolev_weight(grid.wavenumbers, s_target)  # that of ``GridSpec.sobolev_norm2``
    for i in range(0, len(norms), BLOCK):
        norms[i : i + BLOCK] = np.sqrt(grid.norm2(run.coefs[i : i + BLOCK], weight))
    return _rate_fit(run.times, norms, s_base, s_target, run.params.alpha, t_min)


def smoothing_rate_fit_semigroup(
    B0: SpectralField, mu: float, alpha: float, s_base: float, s_target: float, t_min: float = 1e-3
) -> RateFit:
    """Same fit evaluated on the exact dissipation semigroup (the oracle)."""
    times = np.geomspace(t_min, 10.0 * t_min, 64)
    norms = semigroup_norm_series(B0, mu, alpha, times, s_target)
    return _rate_fit(times, norms, s_base, s_target, alpha, t_min)


@dataclass(frozen=True)
class FluxDecomposition:
    I: float
    K: float
    I_q: np.ndarray
    K_q: np.ndarray
    dissipation: float  # mu-weighted shell dissipation sum_q lam_q^(2s) ||L^(a/2) B_q||^2


def flux_decomposition(B: SpectralField, s: float, params: ModelParams) -> FluxDecomposition:
    """Shell-weighted transfer integrals of the quadratic term.

    I_q = lam_q^(2s) int (B Lambda B)_q d/dx B_q dx,
    K_q = lam_q^(2s) int (Lambda B B_x)_q B_q dx,
    with all products dealiased and integrals done in coefficient space
    (``GridSpec.inner``).  Together with the shell dissipation these close
    the per-shell energy balance of the full model exactly in space.
    """
    grid = B.grid
    cut = cutoffs_for(grid)
    b_x, lam_b = grid.to_phys(_ops(grid, params).rows[:2] * B.coef)
    prods = grid.to_coef(np.stack((B.phys * lam_b, lam_b * b_x)))  # B Lambda B and Lambda B * B_x
    prods[..., grid.cut :] = 0.0  # dealiased
    b_lamb, lamb_bx = prods

    lam2s = cut.lam ** (2.0 * s)
    bq = cut.weights * B.coef  # one row per shell
    I_q = lam2s * grid.inner(cut.weights * b_lamb, 1j * grid.wavenumbers * bq)
    K_q = lam2s * grid.inner(cut.weights * lamb_bx, bq)
    diss = float(np.sum(lam2s * grid.sobolev_norm2(bq, params.alpha / 2.0)))
    return FluxDecomposition(
        I=float(np.sum(I_q)), K=float(np.sum(K_q)), I_q=I_q, K_q=K_q, dissipation=params.mu * diss
    )


def flux_balance_defect(B0: SpectralField, params: ModelParams, s: float, dt: float) -> float:
    """Central-difference defect of the shell energy balance at one state.

    Takes two forward IF-RK4 steps of dt, B0 -> B(dt) -> B(2 dt), and centres
    the balance at B(dt): it forms (E(2 dt) - E(0)) / (4 dt), the central
    difference of (1/2) dE/dt, plus mu D + I + 2K evaluated at B(dt), and
    returns its absolute value.  Exact spatial balance makes this pure time
    truncation, so halving dt shrinks it ~4x.
    """
    cfg = StepperConfig(dt_init=dt, t_end=10.0 * dt, adaptive=False)
    B1, _ = step(B0, 0.0, dt, params, cfg)
    B2, _ = step(B1, dt, dt, params, cfg)
    e0 = np.sum(shell_spectrum(B0, s))
    e2 = np.sum(shell_spectrum(B2, s))
    fd = flux_decomposition(B1, s, params)
    return abs((e2 - e0) / (4.0 * dt) + fd.dissipation + fd.I + 2.0 * fd.K)


def flux_defect_ratio(
    B0: SpectralField, params: ModelParams, s: float, dt: float
) -> tuple[float, float, float]:
    """(defect(dt), defect(dt/2), ratio); ratio ~ 4 for a second-order-accurate
    central-difference reading of an exact spatial identity."""
    d1 = flux_balance_defect(B0, params, s, dt)
    d2 = flux_balance_defect(B0, params, s, dt / 2.0)
    return d1, d2, d1 / d2

