"""Riccati blowup harness for the transport model with mu = alpha = 1.

For B_t - Lambda B * B_x + Lambda B = 0 and a datum with B_x(x0) = 1,
B_xx(x0) = 0 and w0 = Lambda B_x(x0) > 0, the quantity w = Lambda B_x
transported along dX/dt = -Lambda B(X, t) obeys w' = w^2, so
1/w(t) = 1/w0 - t and w blows up at T = 1/w0.  This module builds the
reference datum exp(-x^4) sin(x), integrates the characteristic as a
solver run steps (``Characteristic``, an observer of ``evolve``), and
fits/validates the Riccati law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import fit_line
from .gates import Gate, at_most
from .solver import ModelParams, StepperConfig, TimeSeries, evolve, hermite
from .spectral import GridSpec, SpectralField, derivative, evaluate_at, frac_laplacian, trig_blocks, trig_sums


DATUM_TOL = 1e-10  # tolerance of B_x(x0) = 1, B_xx(x0) = 0 and max B_x = B_x(x0)
STOP_FACTOR = 12.0  # run_blowup stops once max|Lambda B_x| > STOP_FACTOR * w0
FIT_WINDOW = (1.25, 10.0)  # measure_blowup_time fits 1/w over w in FIT_WINDOW * w0


class DatumError(ValueError):
    """The grid cannot hold the datum or its defining point conditions fail."""


class FitWindowError(RuntimeError):
    """The Riccati fit window contains no samples (run stopped too early)."""


@dataclass(frozen=True)
class BlowupDatum:
    B0: SpectralField
    x0: float
    w0: float

    def validate(self) -> None:
        bx = derivative(self.B0)
        bxx = derivative(self.B0, 2)
        bx0 = evaluate_at(bx, self.x0)
        bxx0 = evaluate_at(bxx, self.x0)
        if abs(bx0 - 1.0) > DATUM_TOL:
            raise DatumError(f"B_x(x0) = {bx0}, expected 1")
        # a sampled datum's B_xx(x0) carries roundoff that grows with N (3.8e-10
        # at N = 32768); eps sup|B0| sum_k xi_k^2 / N, the sum over the full
        # spectrum, stays 5-7x above it at N = 32768 and 65536
        g = self.B0.grid
        xi2_sum = g.norm2(1.0, g.wavenumbers**2) / (2.0 * g.half_length)
        roundoff = np.finfo(float).eps * np.max(np.abs(self.B0.phys)) * xi2_sum / g.n_modes
        if abs(bxx0) > max(DATUM_TOL, roundoff):
            raise DatumError(f"B_xx(x0) = {bxx0}, expected 0")
        if self.w0 <= 0:
            raise DatumError("w0 must be positive")
        if np.max(bx.phys) > bx0 + DATUM_TOL:
            raise DatumError("x0 is not the global maximum of B_x on the grid")


@dataclass(frozen=True)
class Trajectory:
    """A characteristic through a run, one read-only entry per step
    boundary: its time t, position X, B_x, B_xx and w = Lambda B_x at X,
    and sup_x |B_xx| of the state."""

    t: np.ndarray
    X: np.ndarray
    bx: np.ndarray
    bxx: np.ndarray
    w: np.ndarray
    sup_bxx: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.t, self.X, self.bx, self.bxx, self.w, self.sup_bxx):
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
    decayed to zero.  The integrand is summed in a form that does not
    cancel as y -> 0 (below), so it reads 1.7493995133210472 on numpy's
    AVX-512, AVX2 and baseline paths alike, and doubling the panels moves it
    by 4.4e-16.  Adaptive QUADPACK gives the same bits from that form, and
    from (1 - B0'(y)) / y^2, which cancels, a value 2.0e-14 relative away.
    """
    h = _PV_CUTOFF / _PV_PANELS  # half-width of a panel
    centers = -_PV_CUTOFF + h * (2.0 * np.arange(_PV_PANELS) + 1.0)
    y = centers[:, None] + h * _GL_NODES
    # 1 - B0'(y) = 2 sin^2(y/2) - expm1(-y^4) cos y + 4 y^3 exp(-y^4) sin y:
    # each term is O(y^2) or smaller with no cancellation, so the nodes
    # nearest 0 do not amplify the ulps of exp, sin and cos
    y4 = y**4
    num = 2.0 * np.sin(0.5 * y) ** 2 - np.expm1(-y4) * np.cos(y) + 4.0 * y**3 * np.exp(-y4) * np.sin(y)
    total = h * float(np.sum(_GL_WEIGHTS * num / y**2))
    return (total + 2.0 / _PV_CUTOFF) / math.pi  # exact tail of 1/y^2 beyond the cutoff


def predict_blowup_time(d: BlowupDatum) -> float:
    return 1.0 / d.w0


def run_blowup(
    grid: GridSpec,
    datum: BlowupDatum | None = None,
    cfl_safety: float = 0.45,
    scheme: str = "ifrk4",
) -> tuple[TimeSeries, BlowupDatum]:
    """Evolve the blowup configuration with the characteristic from
    ``datum.x0`` riding along: the run's ``observer`` is its
    ``Characteristic``, which ``advect_trajectory`` reads.

    Stops once max|Lambda B_x| exceeds STOP_FACTOR * w0, comfortably past the
    Riccati fit window [1.25 w0, 10 w0] but before the discretized field
    saturates; a t_end slightly past the predicted time guards against stall.
    At the default cfl_safety, 0.45, no criterion-1 or criterion-2 value at
    N = 4096 is worse than with every step at the finest grid's CFL; at
    0.5, max |B_x - 1| is.
    """
    d = datum if datum is not None else make_reference_datum(grid)
    params = ModelParams(kind="transport", mu=1.0, alpha=1.0)
    cfg = StepperConfig(
        scheme=scheme,
        dt_init=1e-4,
        cfl_safety=cfl_safety,
        t_end=1.1 / d.w0,
        blowup_threshold=STOP_FACTOR * d.w0,
    )
    return evolve(d.B0, params, cfg, Characteristic(d.B0.grid, d.x0)), d


class Characteristic:
    """The observer of ``evolve`` that integrates dX/dt = -Lambda B(X, t)
    from ``x0`` as the run steps, and keeps no step rows.

    Each state's rows Lambda B, d/dt Lambda B and |xi| Lambda B, multipliers
    of its c and nonlinear term, are laid out once by ``trig_blocks``, and
    the previous state's layout is all it keeps.  When state n + 1 arrives,
    it takes RK4 step n: at each stage point, Lambda B at the half-step is
    ``hermite`` of the two states' Lambda B and d/dt Lambda B there.  At the
    new X it reads Lambda B, B_x, B_xx and w = Lambda B_x off the grid from
    two positive-frequency sums (``trig_sums``): F = B_x + i Lambda B is i
    times the sum of the Lambda B row, and F_x = B_xx + i w is minus the
    sum of the |xi| Lambda B row.  sup_x |B_xx| comes from one inverse
    transform on ``grid``, the run's finest, and one max and one min of it.
    The run's ``observer_s`` is the wall time of its calls.

    Each layout covers only the band of the ladder rung that made its
    rows, n/2 + 1 entries on a rung of n modes, read as zero-padded; the
    two states of a step across a rung switch keep their own bands.
    """

    def __init__(self, grid: GridSpec, x0: float):
        self.grid, self.x0, self.X = grid, x0, x0
        self.prev: tuple | None = None  # (t, laid-out rows) of the last state
        self.rows: list[tuple] = []  # (t, X, Lambda B, B_x, B_xx, w, sup|B_xx|) at each state

    def __call__(self, t: float, ops, c: np.ndarray, nl: np.ndarray, last: bool) -> None:
        grid, X = self.grid, self.X
        rows = np.empty((3, c.size), dtype=complex)  # Lambda B, d/dt Lambda B, |xi| Lambda B
        absxi = ops.rows[1]
        np.multiply(absxi, c, out=rows[0])
        np.multiply(absxi, nl - ops.lin * c, out=rows[1])
        np.multiply(absxi, rows[0], out=rows[2])
        blocks = trig_blocks(grid, rows)
        if self.prev is not None:
            t0, blocks0 = self.prev
            dt = t - t0

            def lam_b_mid(x: float) -> float:  # Lambda B at x, at the step's midpoint
                (v0, d0), (v1, d1) = (trig_sums(grid, b[:2], x).real.tolist() for b in (blocks0, blocks))
                return hermite((v0, v1), (d0, d1), 0, dt)

            f1 = -self.rows[-1][2]  # Lambda B at X, from the last state
            f2 = -lam_b_mid(X + 0.5 * dt * f1)
            f3 = -lam_b_mid(X + 0.5 * dt * f2)
            f4 = -trig_sums(grid, blocks[0], X + dt * f3).real
            X = self.X = float(X + dt / 6.0 * (f1 + 2.0 * f2 + 2.0 * f3 + f4))
        s, s_xi = trig_sums(grid, blocks[::2], X).tolist()
        F, F_x = 1j * s, -s_xi  # B_x + i Lambda B and B_xx + i w at X
        bxx = grid.to_phys(rows[2])  # B_xx = -|xi| Lambda B
        sup_bxx = np.maximum(bxx.max(), -bxx.min()) + 0.0  # sup|B_xx|, as in ``evolve``
        self.rows.append((t, X, F.imag, F.real, F_x.real, F_x.imag, sup_bxx))
        self.prev = (t, blocks)

    def trajectory(self) -> Trajectory:
        t, X, _, bx, bxx, w, sup_bxx = map(np.array, zip(*self.rows))
        return Trajectory(t=t, X=X, bx=bx, bxx=bxx, w=w, sup_bxx=sup_bxx)


def advect_trajectory(run: TimeSeries, x0: float) -> Trajectory:
    """The characteristic from ``x0`` that ``run`` integrated as it stepped
    (``Characteristic``); raises ``ValueError`` unless ``run`` is a
    ``run_blowup`` run that tracked that start."""
    ch = run.observer
    if not isinstance(ch, Characteristic) or ch.x0 != x0:
        raise ValueError(f"run did not track the characteristic from x0 = {x0}")
    return ch.trajectory()


def measure_blowup_time(traj: Trajectory, w0: float) -> tuple[float, float, float]:
    """Affine fit of 1/w(t) over the window w in ``FIT_WINDOW`` * w0.

    Returns (T_est, slope, rms residual); the slope is -1 for the exact
    Riccati law and T_est is the root of the fitted line.  Only the first
    contiguous crossing of the window is used, so a post-saturation decay of
    w cannot contaminate the fit.
    """
    lo, hi = FIT_WINDOW
    sel = (traj.w >= lo * w0) & (traj.w <= hi * w0)
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
    B_xx(X, t) = 0, along the trajectory ``traj`` of ``run`` up to t_max;
    B_xx is taken relative to the state's sup_x |B_xx|, a column of
    ``traj``."""
    idx = np.flatnonzero(traj.t <= t_max)
    return RiccatiReport(
        max_bx_defect=float(np.max(np.abs(traj.bx[idx] - 1.0))),
        max_bxx_rel=float(np.max(np.abs(traj.bxx[idx]) / np.maximum(traj.sup_bxx[idx], 1e-300))),
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


SCHEME_ORDER = 4  # IF-RK4 and ETDRK4 are both fourth order in dt


@dataclass(frozen=True)
class Convergence:
    """The fitted blowup time over an (N, cfl) table: one row per N, one
    column per cfl.  Column 0 of ``order`` and ``error_bar`` is NaN, as it
    has no coarser cfl to compare with."""

    ns: tuple[int, ...]
    cfls: tuple[float, ...]
    steps: np.ndarray  # accepted steps of each run
    T: np.ndarray  # the Riccati fit's blowup time
    rel_err: np.ndarray  # |T w0 - 1|, against the exact Riccati time 1/w0
    order: np.ndarray  # observed order in cfl of rel_err from the previous column
    error_bar: np.ndarray  # Richardson step in cfl from the previous column


def blowup_convergence(ns, cfls, scheme: str = "ifrk4") -> Convergence:
    """Run the blowup harness on the reference datum, L = 6, at each
    (N, cfl), from coarse to fine cfl along each row, and fit T on each run.

    At fixed N, rel_err falls as cfl^p while the time error dominates it;
    ``order`` reads p between neighbouring columns, and falls towards 0
    where the grid's or the fit's error floor takes over.  ``error_bar``
    estimates the time error of T at a cfl from its step in T since the
    previous cfl, taken at the schemes' order:
    |T_j - T_(j-1)| / ((cfl_(j-1) / cfl_j)^4 - 1).  Report only: nothing
    gates on it.
    """
    shape = (len(ns), len(cfls))
    steps = np.zeros(shape, dtype=int)
    T, rel_err = np.empty(shape), np.empty(shape)
    for i, n in enumerate(ns):
        datum = make_reference_datum(GridSpec(6.0, n))
        for j, cfl in enumerate(cfls):
            run, _ = run_blowup(datum.B0.grid, datum, cfl, scheme)
            T[i, j] = measure_blowup_time(advect_trajectory(run, datum.x0), datum.w0)[0]
            rel_err[i, j] = abs(T[i, j] * datum.w0 - 1.0)
            steps[i, j] = run.step_times.size - 1
    ratio = np.asarray(cfls[:-1], dtype=float) / np.asarray(cfls[1:], dtype=float)
    first = np.full((len(ns), 1), np.nan)
    order = np.hstack((first, np.log(rel_err[:, :-1] / rel_err[:, 1:]) / np.log(ratio)))
    error_bar = np.hstack((first, np.abs(np.diff(T, axis=1)) / (ratio**SCHEME_ORDER - 1.0)))
    return Convergence(tuple(ns), tuple(cfls), steps, T, rel_err, order, error_bar)
