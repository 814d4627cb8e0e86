"""Riccati blowup harness for the transport model with mu = alpha = 1.

For B_t - Lambda B * B_x + Lambda B = 0 and a datum with B_x(x0) = 1,
B_xx(x0) = 0 and w0 = Lambda B_x(x0) > 0, the quantity w = Lambda B_x
transported along dX/dt = -Lambda B(X, t) obeys w' = w^2, so
1/w(t) = 1/w0 - t and w blows up at T = 1/w0.  This module builds the
reference datum exp(-x^4) sin(x), integrates the characteristic through a
solver run, and fits/validates the Riccati law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import fit_line
from .gates import Gate, at_most
from .solver import ModelParams, StepperConfig, TimeSeries, evolve, hermite
from .spectral import GridSpec, SpectralField, derivative, eval_trig, evaluate_at, frac_laplacian


class DatumError(ValueError):
    """The grid cannot hold the datum or its defining point conditions fail."""


class FitWindowError(RuntimeError):
    """The Riccati fit window contains no samples (run stopped too early)."""


@dataclass(frozen=True)
class BlowupDatum:
    B0: SpectralField
    x0: float
    w0: float

    def validate(self, tol: float = 1e-10) -> None:
        bx = derivative(self.B0)
        bxx = derivative(self.B0, 2)
        bx0 = evaluate_at(bx, self.x0)
        bxx0 = evaluate_at(bxx, self.x0)
        if abs(bx0 - 1.0) > tol:
            raise DatumError(f"B_x(x0) = {bx0}, expected 1")
        # a sampled datum's B_xx(x0) carries roundoff that grows with N (3.8e-10
        # at N = 32768); eps sup|B0| sum_k xi_k^2 / N, the sum over the full
        # spectrum, stays 5-7x above it at N = 32768 and 65536
        g = self.B0.grid
        xi2_sum = g.norm2(1.0, g.wavenumbers**2) / (2.0 * g.half_length)
        roundoff = np.finfo(float).eps * np.max(np.abs(self.B0.phys)) * xi2_sum / g.n_modes
        if abs(bxx0) > max(tol, roundoff):
            raise DatumError(f"B_xx(x0) = {bxx0}, expected 0")
        if self.w0 <= 0:
            raise DatumError("w0 must be positive")
        if np.max(bx.phys) > bx0 + tol:
            raise DatumError("x0 is not the global maximum of B_x on the grid")


@dataclass(frozen=True)
class Trajectory:
    """A characteristic through a stored run, one read-only entry per step
    boundary: its time t, position X, and B_x, B_xx and w = Lambda B_x at X."""

    t: np.ndarray
    X: np.ndarray
    bx: np.ndarray
    bxx: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.t, self.X, self.bx, self.bxx, self.w):
            a.flags.writeable = False


def reference_datum_fn(x: np.ndarray) -> np.ndarray:
    return np.exp(-(x**4)) * np.sin(x)


def reference_datum_dx(x: np.ndarray) -> np.ndarray:
    return np.exp(-(x**4)) * (np.cos(x) - 4.0 * x**3 * np.sin(x))


def make_reference_datum(grid: GridSpec) -> BlowupDatum:
    """Sample exp(-x^4) sin(x); x0 = 0 exactly by odd symmetry."""
    B0 = SpectralField.from_function(grid, reference_datum_fn)
    L = grid.half_length
    edge = np.max(np.abs(reference_datum_fn(np.array([-L, L - grid.dx]))))
    if edge > 1e-10:
        raise DatumError(f"datum does not decay on [-{L}, {L}): boundary value {edge:.3e}")
    w0 = float(evaluate_at(frac_laplacian(derivative(B0), 1.0), 0.0))
    d = BlowupDatum(B0=B0, x0=0.0, w0=w0)
    d.validate()
    return d


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PV_PANELS = 200
_PV_CUTOFF = 50.0  # B0' underflows to 0 well inside it


def pv_blowup_coefficient() -> float:
    """Independent principal-value oracle for w0 = Lambda(dB0/dx)(0) of the
    reference datum.

    Computes (1/pi) PV integral of (1 - B0'(y)) / y^2 over the real line in
    physical space: a 16-point Gauss-Legendre rule on 200 equal panels of
    [-50, 50] (a panel edge, never a node, sits on the removable
    singularity at y = 0), plus the analytic 2/50 tail where B0' has
    decayed to zero.  On the reference datum it agrees with an adaptive
    QUADPACK quadrature to 2.9e-14 relative; doubling the panels moves it
    by 2e-14.
    """
    h = _PV_CUTOFF / _PV_PANELS  # half-width of a panel
    centers = -_PV_CUTOFF + h * (2.0 * np.arange(_PV_PANELS) + 1.0)
    y = centers[:, None] + h * _GL_NODES
    total = h * float(np.sum(_GL_WEIGHTS * (1.0 - reference_datum_dx(y)) / y**2))
    return (total + 2.0 / _PV_CUTOFF) / math.pi  # exact tail of 1/y^2 beyond the cutoff


def predict_blowup_time(d: BlowupDatum) -> float:
    return 1.0 / d.w0


def run_blowup(
    grid: GridSpec,
    datum: BlowupDatum | None = None,
    cfl_safety: float = 0.5,
    stop_factor: float = 12.0,
    scheme: str = "ifrk4",
) -> tuple[TimeSeries, BlowupDatum]:
    """Evolve the blowup configuration, storing per-step fields for tracking.

    Stops once max|Lambda B_x| exceeds stop_factor * w0, comfortably past the
    Riccati fit window [1.25 w0, 10 w0] but before the discretized field
    saturates; a t_end slightly past the predicted time guards against stall.
    """
    d = datum if datum is not None else make_reference_datum(grid)
    params = ModelParams(kind="transport", mu=1.0, alpha=1.0)
    cfg = StepperConfig(
        scheme=scheme,
        dt_init=1e-4,
        cfl_safety=cfl_safety,
        t_end=1.1 / d.w0,
        blowup_threshold=stop_factor * d.w0,
        store_step_fields=True,
        snapshot_cadence=10**9,
    )
    return evolve(d.B0, params, cfg), d


def advect_trajectory(run: TimeSeries, x0: float) -> Trajectory:
    """Integrate dX/dt = -Lambda B(X, t) through a stored run.

    Uses RK4 with the solver's accepted steps; Lambda B at the half-step
    comes from cubic Hermite interpolation of the stored per-step fields.
    The tracked pointwise quantities are evaluated off-grid from the stored
    Lambda B coefficients (B_x = -H Lambda B, so every derivative is a
    diagonal multiplier away).

    Each off-grid sum runs only over the band of the ladder rung that made
    its rows (``run.diagnostics["n_modes"]``): a row stored from a rung of
    n < N modes lost its Nyquist entry when stored, so it is exactly zero
    from entry n/2 on, and ``eval_trig`` reads the cut row as zero-padded.
    The Hermite midpoint of a step takes the band of the step's end, the
    finer of its two rows.
    """
    if run.lam_b is None:
        raise ValueError("run was made without store_step_fields")
    grid = run.grid
    half = grid.n_modes // 2 + 1
    xi = grid.wavenumbers
    m_bx = 1j * np.sign(xi)  # B_x = -H(Lambda B)
    # rows: Lambda B, B_x, B_xx, Lambda B_x, all read off one phase table
    mults = np.stack([np.ones_like(xi), m_bx, 1j * xi * m_bx, 1j * xi])
    # the row at the last step boundary has no step and so no rung entry
    rung = run.diagnostics["n_modes"]
    band = np.where(rung < grid.n_modes, rung // 2, half).tolist() + [half]

    times = run.step_times
    Xs = np.empty(len(times))
    vals = np.empty((len(mults), len(times)))  # one row per multiplier
    X = x0
    for n in range(len(times)):
        k = band[n]
        Xs[n] = X
        vals[:, n] = eval_trig(grid, mults[:, :k] * run.lam_b[n, :k], X)[:, 0]
        if n == len(times) - 1:
            break
        dt = float(times[n + 1] - times[n])
        k = band[n + 1]
        mid = hermite(run.lam_b[:, :k], run.lam_b_dot[:, :k], n, 0.5, dt)
        f1 = -vals[0, n]
        f2 = -eval_trig(grid, mid, X + 0.5 * dt * f1)[0]
        f3 = -eval_trig(grid, mid, X + 0.5 * dt * f2)[0]
        f4 = -eval_trig(grid, run.lam_b[n + 1, :k], X + dt * f3)[0]
        X = X + dt / 6.0 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    _, bx, bxx, w = vals
    return Trajectory(t=times.copy(), X=Xs, bx=bx, bxx=bxx, w=w)


def measure_blowup_time(
    traj: Trajectory, w0: float, window: tuple[float, float] = (1.25, 10.0)
) -> tuple[float, float, float]:
    """Affine fit of 1/w(t) over the window w in [lo, hi] * w0.

    Returns (T_est, slope, rms residual); the slope is -1 for the exact
    Riccati law and T_est is the root of the fitted line.  Only the first
    contiguous crossing of the window is used, so a post-saturation decay of
    w cannot contaminate the fit.
    """
    sel = (traj.w >= window[0] * w0) & (traj.w <= window[1] * w0)
    idx = np.flatnonzero(sel)
    if idx.size == 0:
        raise FitWindowError("no samples with w inside the fit window")
    breaks = np.flatnonzero(np.diff(idx) > 1)
    if breaks.size:
        idx = idx[: breaks[0] + 1]
    if idx.size < 3:
        raise FitWindowError("fewer than 3 samples in the fit window")
    slope, intercept, resid = fit_line(traj.t[idx], 1.0 / traj.w[idx])
    return -intercept / slope, slope, resid


@dataclass
class RiccatiReport:
    max_bx_defect: float  # max |B_x(X,t) - 1|
    max_bxx_rel: float  # max |B_xx(X,t)| / sup_x |B_xx(x,t)|


def riccati_invariant_report(run: TimeSeries, traj: Trajectory, t_max: float) -> RiccatiReport:
    """The two pointwise invariants w' = w^2 rests on, B_x(X, t) = 1 and
    B_xx(X, t) = 0, along the trajectory up to t_max."""
    idx = np.flatnonzero(traj.t <= t_max)

    # sup_x |B_xx| of the selected rows only, transformed a block of rows per
    # call: one stack of all ~240 rows at N = 4096 would take ~30 MB of
    # temporaries and raise the peak RSS of a blowup run
    xi = run.grid.wavenumbers
    m_bxx = 1j * xi * (1j * np.sign(xi))
    block = 32
    sup_bxx = np.concatenate([
        np.max(np.abs(run.grid.to_phys(m_bxx * run.lam_b[idx[i : i + block]])), axis=1)
        for i in range(0, idx.size, block)
    ])
    return RiccatiReport(
        max_bx_defect=float(np.max(np.abs(traj.bx[idx] - 1.0))),
        max_bxx_rel=float(np.max(np.abs(traj.bxx[idx]) / np.maximum(sup_bxx, 1e-300))),
    )


def riccati_verdict(run: TimeSeries, datum: BlowupDatum, traj: Trajectory) -> tuple[dict, list[Gate]]:
    """The ``blowup_report.json`` dict and gates of a run and its characteristic;
    raises ``FitWindowError`` as ``measure_blowup_time`` does."""
    w0 = datum.w0
    t_est, slope, resid = measure_blowup_time(traj, w0)
    rep = riccati_invariant_report(run, traj, t_max=0.8 / w0)
    t_pred = predict_blowup_time(datum)
    w0_pv = pv_blowup_coefficient()
    report = {
        "w0": w0,
        "w0_pv_oracle": w0_pv,
        "w0_rel_diff": abs(w0 - w0_pv) / abs(w0_pv),
        "T_predicted": t_pred,
        "T_fitted": t_est,
        "T_rel_err": abs(t_est - t_pred) / t_pred,
        "slope": slope,
        "fit_residual": resid,
        "max_bx_defect": rep.max_bx_defect,
        "max_bxx_rel": rep.max_bxx_rel,
        "termination": run.termination,
    }
    gates = [
        at_most("slope_err", abs(slope + 1.0), 0.01),
        at_most("fit_residual", resid, 1e-3),
        at_most("T_rel_err", report["T_rel_err"], 0.02),
    ]
    gates += [at_most(k, report[k], 1e-4) for k in ("w0_rel_diff", "max_bx_defect", "max_bxx_rel")]
    return report, gates
