"""Time evolution of the 1D electron-MHD models.

Two model kinds are evolved for a mean-free magnetic field B on the torus:

  full:       B_t = -(B J_x - J B_x) - mu Lambda^alpha B,   J = -Lambda B
  transport:  B_t = Lambda B * B_x - mu Lambda^alpha B

Both quadratic terms are products of B_x, Lambda B, Lambda B_x and B, which
one inverse transform of a stack of multiplier rows forms; the products are
dealiased (2/3 rule) and the term is re-projected onto the zero-mean gauge
each evaluation.  The diagonal linear part mu |xi|^alpha is propagated
exactly, either by an integrating factor wrapped around classical RK4
(default) or by ETDRK4; both are exact when the nonlinearity vanishes.
Each scheme's factors at z = -dt mu |xi|^alpha (IF-RK4's exponentials, the
ETDRK4 coefficients) are rebuilt whenever dt changes, so on every adaptive
step, and once in a fixed-dt run.  mu |xi_k|^alpha grows with k on the
stored half, so in the ETDRK4 build one index splits z: the Cox-Matthews
closed forms (Cox & Matthews 2002, J. Comput. Phys. 176:430) are evaluated
only where |z| >= 1, and below that one Horner series of phi_3 gives phi_2
and phi_1 by phi_{k-1} = z phi_k + 1/(k-1)!.  Cubes are products: an array
``**3`` goes through libm ``pow`` and cost more than the rest of the build.

Adaptive stepping enforces the advective CFL dt <= cfl * dx / max|Lambda B|
and additionally caps dt by cfl / max|Lambda B_x| so the local Riccati-type
growth near a singularity stays resolved.  The full model's B (Lambda B)_x
term is dispersive: linearized about B it has the symbol i xi |xi| B, which
both schemes treat explicitly, so its dt is also capped by
cfl * 2 / (max|B| xi_max^2), inside RK4's reach of about 2.8 along the
imaginary axis (Trefethen, Spectral Methods in MATLAB, 2000, ch. 10).

An adaptive run steps on a ladder of grids N/2^j, ..., N/2, N, because a
smooth datum's spectrum widens only as a singularity nears (Sulem, Sulem &
Frisch 1983, J. Comput. Phys. 50:138).  It starts on the coarsest halving on
which the datum's share of sum |c_k|^2 from the top third of that rung's
dealiased band upwards is at most ``LADDER_TAIL``.  After each accepted
state it moves up one rung once that share exceeds ``LADDER_TAIL``; moving
up zero-pads the coefficients, which is exact in this normalization.  Every
quantity that sets dt or stops the run is read on the finest grid: its dx
and dealiased xi_max, and sup|Lambda B|, sup|Lambda B_x| (and sup|B|) from
one inverse transform of the rung's coefficients onto its nodes.  So the
bounds are the single-grid ones, and a translation by whole fine nodes stays
an exact symmetry.  A fixed-dt run, or a datum that fills the band, has the
one rung N, and its loop is the single-grid one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from .gates import Gate, at_most
from .spectral import GridSpec, SpectralField, sobolev_weight


@dataclass(frozen=True)
class ModelParams:
    """Model kind and coefficients.

    ``nonlinearity`` switches the quadratic term off entirely, leaving the
    pure dissipation semigroup (used by linear-regime diagnostics).
    """

    kind: Literal["full", "transport"]
    mu: float
    alpha: float
    nonlinearity: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("full", "transport"):
            raise ValueError("kind must be 'full' or 'transport'")
        if not (math.isfinite(self.mu) and math.isfinite(self.alpha)):
            raise ValueError("mu and alpha must be finite")
        if self.mu < 0 or self.alpha < 0:
            raise ValueError("mu and alpha must be nonnegative")


@dataclass(frozen=True)
class StepperConfig:
    scheme: Literal["ifrk4", "etdrk4"] = "ifrk4"
    dt_init: float = 1e-3
    cfl_safety: float = 0.5
    t_end: float = 1.0
    max_steps: int = 1_000_000
    blowup_threshold: float = math.inf  # stop once max|Lambda B_x| exceeds it
    adaptive: bool = True
    snapshot_cadence: int = 1  # store a field snapshot every k-th step
    store_step_fields: bool = False  # keep Lambda B (+ d/dt) at every step

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt_init) and math.isfinite(self.t_end)):
            raise ValueError("dt_init and t_end must be finite")
        if self.dt_init <= 0 or self.t_end <= 0:
            raise ValueError("dt_init and t_end must be positive")
        if math.isnan(self.blowup_threshold):
            raise ValueError("blowup_threshold must not be NaN")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.scheme not in ("ifrk4", "etdrk4"):
            raise ValueError("unknown scheme")
        if self.max_steps < 1 or self.snapshot_cadence < 1:
            raise ValueError("max_steps and snapshot_cadence must be at least 1")


class _Ops:
    """Multiplier tables of one (grid, params), built once by ``_ops``; read-only
    apart from the two slots that keep each scheme's factors for the last dt."""

    def __init__(self, grid: GridSpec, params: ModelParams):
        self.grid = grid
        self.params = params
        self.xi = grid.wavenumbers
        self.absxi = np.abs(self.xi)
        ddx = 1j * self.xi
        # d/dx, Lambda, Lambda d/dx and 1 as complex rows: every physical
        # field the models multiply is a row of one broadcast product, so a
        # stack of rows takes one inverse transform
        self.rows = np.stack((ddx, self.absxi, self.absxi * ddx, np.ones_like(self.xi)))
        self.mask = grid.dealias_mask
        self.lin = params.mu * sobolev_weight(self.xi, params.alpha / 2.0)
        for a in (self.absxi, self.rows, self.lin):
            a.flags.writeable = False
        # (dt, arrays) of each scheme's last build
        self._etdrk4 = self._ifrk4 = (math.nan, ())

    def _per_dt(self, slot: str, build: Callable, dt: float) -> tuple:
        """``build(lin, dt)``, rebuilt only when dt changes, so a fixed-dt
        run builds it once.  The (dt, arrays) pair is replaced whole, so
        threads sharing the table never pair one dt with another's arrays."""
        last = getattr(self, slot)
        if last[0] != dt:
            last = (dt, build(self.lin, dt))
            for a in last[1]:
                a.flags.writeable = False
            setattr(self, slot, last)
        return last[1]

    def etdrk4_coeffs(self, dt: float) -> tuple:
        return self._per_dt("_etdrk4", _etdrk4_coeffs, dt)

    def ifrk4_factors(self, dt: float) -> tuple:
        return self._per_dt("_ifrk4", _ifrk4_factors, dt)

    def form(self, phys: np.ndarray) -> np.ndarray:
        """The model's quadratic term, dealiased and mean-free, from the
        inverse transform of a stack ``rows[:n] * c``: the transport term
        reads rows 0-1, the full term rows 0-3, and extra rows are ignored."""
        prod = phys[1] * phys[0]
        if self.params.kind == "full":
            prod = phys[3] * phys[2] - prod
        return self.project(prod)

    def project(self, prod: np.ndarray) -> np.ndarray:
        """Coefficients of a quadratic product, dealiased and mean-free."""
        out = self.grid.to_coef(prod)
        out *= self.mask
        out[0] = 0.0
        return out

    def nonlinear(self, c: np.ndarray, tau: float = 0.0) -> np.ndarray:
        """Dealiased, mean-free quadratic term of the chosen model from one
        inverse transform of ``rows[:4]`` (full) or ``rows[:2]`` (transport)
        times ``c``; ``tau`` (the stage's fraction of the step) is unused:
        the model is autonomous."""
        if not self.params.nonlinearity:
            return np.zeros_like(c)
        n = 4 if self.params.kind == "full" else 2
        return self.form(self.grid.to_phys(self.rows[:n] * c))

    def rhs(self, c: np.ndarray) -> np.ndarray:
        return self.nonlinear(c) - self.lin * c


# bounded, so that a sweep over many (grid, params) does not keep every table
_ops = functools.lru_cache(maxsize=32)(_Ops)

# An adaptive run moves to the next finer rung of its grid ladder once the
# share of sum |c_k|^2 held from the top third of the rung's dealiased band
# upwards exceeds this.
LADDER_TAIL = 1e-26


def _top_third(grid: GridSpec) -> int:
    """First mode of the top third of the dealiased band 0..k_top."""
    k_top = int(np.flatnonzero(grid.dealias_mask)[-1])
    return 2 * k_top // 3


def _tail_exceeds(c: np.ndarray, start: int) -> bool:
    tail = c[start:]
    return np.vdot(tail, tail).real > LADDER_TAIL * np.vdot(c, c).real


def _ladder(grid: GridSpec, c: np.ndarray, cfg: StepperConfig) -> list[GridSpec]:
    """Rungs N/2^j, ..., N/2, N of a run from coefficients ``c`` on ``grid``.

    The coarsest rung is the coarsest halving on which ``c`` passes the
    switch test; a fixed-dt run has the one rung N.
    """
    rungs = [grid]
    n = grid.n_modes
    while cfg.adaptive and n % 4 == 0 and n // 2 >= 8:
        coarse = GridSpec(grid.half_length, n // 2, grid.dealias_fraction)
        if _tail_exceeds(c, _top_third(coarse)):
            break
        rungs.insert(0, coarse)
        n //= 2
    return rungs


def _table(rows: list[np.ndarray], half: int) -> np.ndarray:
    """Coefficient rows from any rung as one (len(rows), half) table, each
    cut or zero-padded; a row shorter or longer than ``half`` loses its
    Nyquist entry.  A run keeps its rows rung-sized until here: padding each
    as it is made would interleave long-lived fine rows with a coarse rung's
    short-lived arrays and fragment the heap (3.4 MB more peak RSS on the
    N = 4096 blowup run)."""
    out = np.zeros((len(rows), half), dtype=complex)
    for o, row in zip(out, rows):
        k = half if row.size == half else min(row.size, half) - 1
        o[:k] = row[:k]
    return out


def _resize(c: np.ndarray, half: int) -> np.ndarray:
    return c if c.size == half else _table([c], half)[0]


def rhs(B: SpectralField, params: ModelParams) -> SpectralField:
    """Full right-hand side dB/dt, dealiased and mean-free."""
    return SpectralField.from_coef(B.grid, _ops(B.grid, params).rhs(B.coef))


_PHI3_SERIES = tuple(1.0 / math.factorial(n + 3) for n in range(17))  # z^17 / 20! < 5e-19


def _etdrk4_coeffs(lin: np.ndarray, dt: float):
    """Cox-Matthews ETDRK4 coefficients at z = -dt * lin.

    ``lin`` must be >= 0 and non-decreasing, as ``_Ops.lin`` = mu |xi_k|^alpha
    is on the half layout: two indices then split z into three slices.
      z = 0:         the exact limits q = dt/2, f1 = f2 = f3 = dt/6.
      0 < |z| < 1:   f1 = dt(phi1 - 3 phi2 + 4 phi3), f2 = dt(phi2 - 2 phi3),
                     f3 = dt(4 phi3 - phi2), where the closed forms would
                     lose digits to cancellation.  One Horner series gives
                     phi3; phi2 = z phi3 + 1/2 and phi1 = z phi2 + 1 follow
                     (stable for |z| < 1).
      |z| >= 1:      the closed forms, with the cube as a product (an array
                     ``**3`` goes through libm ``pow``, slower than the rest
                     of the build together).
    q = (dt/2) phi1(z/2) = dt expm1(z/2) / z on every z != 0.
    """
    r = dt * lin  # |z|
    z = -r
    e_half = np.exp(z / 2.0)
    e_full = np.exp(z)
    i0 = int(np.searchsorted(r, 0.0, side="right"))
    i1 = int(np.searchsorted(r, 1.0))
    q, f1, f2, f3 = (np.empty_like(z) for _ in range(4))
    q[:i0] = 0.5 * dt
    f1[:i0] = f2[:i0] = f3[:i0] = dt / 6.0
    zq = z[i0:]
    q[i0:] = dt * np.expm1(zq / 2.0) / zq

    zs = z[i0:i1]
    p3 = np.full_like(zs, _PHI3_SERIES[-1])
    for coef in _PHI3_SERIES[-2::-1]:
        p3 *= zs
        p3 += coef
    p2 = zs * p3 + 0.5
    p1 = zs * p2 + 1.0
    f1[i0:i1] = dt * (p1 - 3.0 * p2 + 4.0 * p3)
    f2[i0:i1] = dt * (p2 - 2.0 * p3)
    f3[i0:i1] = dt * (4.0 * p3 - p2)

    zl, el = z[i1:], e_full[i1:]
    z2 = zl * zl
    s = dt / (z2 * zl)
    f1[i1:] = (-4.0 - zl + el * (4.0 - 3.0 * zl + z2)) * s
    f2[i1:] = (2.0 + zl + el * (zl - 2.0)) * s
    f3[i1:] = (-4.0 - 3.0 * zl - z2 + el * (4.0 - zl)) * s
    return e_half, e_full, q, f1, f2, f3


def _ifrk4_factors(lin: np.ndarray, dt: float):
    """The integrating factors exp(-dt lin / 2) and exp(-dt lin)."""
    return np.exp(-0.5 * dt * lin), np.exp(-dt * lin)


# A stepper advances c_t = nl(c, tau) - ops.lin * c by dt from k1 = nl(c, 0);
# nl receives the stage's fraction tau of the step (0, 1/2, 1/2, 1).
def _step_ifrk4(nl: Callable, ops: _Ops, c: np.ndarray, dt: float, k1: np.ndarray):
    e_half, e_full = ops.ifrk4_factors(dt)
    ec = e_full * c
    k2 = nl(e_half * (c + 0.5 * dt * k1), 0.5)
    k3 = nl(e_half * c + 0.5 * dt * k2, 0.5)
    k4 = nl(ec + dt * e_half * k3, 1.0)
    return ec + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


def _step_etdrk4(nl: Callable, ops: _Ops, c: np.ndarray, dt: float, k1: np.ndarray):
    e_half, e_full, q, f1, f2, f3 = ops.etdrk4_coeffs(dt)
    a = e_half * c + q * k1
    na = nl(a, 0.5)
    b = e_half * c + q * na
    nb = nl(b, 0.5)
    cc = e_half * a + q * (2.0 * nb - k1)
    nc = nl(cc, 1.0)
    return e_full * c + f1 * k1 + 2.0 * f2 * (na + nb) + f3 * nc


_STEPPERS = {"ifrk4": _step_ifrk4, "etdrk4": _step_etdrk4}


def step(
    B: SpectralField,
    t: float,
    dt: float,
    params: ModelParams,
    cfg: StepperConfig,
) -> tuple[SpectralField, float]:
    """Advance one step of size dt (no adaptivity); returns (B_next, dt)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ops = _ops(B.grid, params)
    c = _STEPPERS[cfg.scheme](ops.nonlinear, ops, B.coef, dt, ops.nonlinear(B.coef))
    return SpectralField.from_coef(B.grid, c), dt


def hermite(vals: np.ndarray, dots: np.ndarray, n: "int | np.ndarray", tau: float, dt: float) -> np.ndarray:
    """Cubic Hermite dense output at t_n + tau * dt from stored rows.

    ``vals[n]`` and ``dots[n]`` are a state and its time derivative at step
    boundary n; the step from n to n + 1 has length dt and 0 <= tau <= 1.
    An index array ``n`` gives one row per index, each bitwise the row its
    own index gives.
    """
    if tau == 0.0:
        return vals[n]
    if tau == 1.0:
        return vals[n + 1]
    h00 = 2 * tau**3 - 3 * tau**2 + 1
    h10 = tau**3 - 2 * tau**2 + tau
    h01 = -2 * tau**3 + 3 * tau**2
    h11 = tau**3 - tau**2
    return h00 * vals[n] + h10 * dt * dots[n] + h01 * vals[n + 1] + h11 * dt * dots[n + 1]


@dataclass
class TimeSeries:
    """Output of :func:`evolve`.

    ``coefs`` holds one coefficient row per snapshot, taken at the requested
    cadence (always including the initial and final states), and ``times``
    their times; both arrays are read-only.  When the run was made with
    ``store_step_fields`` the per-step arrays ``lam_b`` and ``lam_b_dot``
    hold the coefficients of Lambda B and d/dt Lambda B at every accepted
    step boundary; together with ``step_times`` they give a cubic-Hermite
    dense output for trajectory integration.
    """

    grid: GridSpec
    params: ModelParams
    config: StepperConfig
    times: np.ndarray  # (n,)
    coefs: np.ndarray  # (n, N/2+1)
    step_times: np.ndarray
    diagnostics: dict[str, np.ndarray]
    termination: str
    lam_b: np.ndarray | None = None
    lam_b_dot: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.times.flags.writeable = False
        self.coefs.flags.writeable = False

    @property
    def final(self) -> SpectralField:
        return SpectralField.from_coef(self.grid, self.coefs[-1])


def evolve(B0: SpectralField, params: ModelParams, cfg: StepperConfig) -> TimeSeries:
    """Run until t_end, the blowup threshold, CFL collapse, a non-finite
    field, or max_steps; the cause is recorded on the result.

    ``diagnostics`` holds one entry per accepted step, at ``step_times[1:]``:
    dt, the sup|Lambda B| and sup|Lambda B_x| that bounded it, the mean
    drift it removed, and the ladder rung (``n_modes``) it was taken on.
    Stored rows are on ``B0.grid`` whatever rung made them.
    """
    grid = B0.grid
    half = grid.n_modes // 2 + 1
    stepper = _STEPPERS[cfg.scheme]
    c = B0.coef.copy()
    c[0] = 0.0  # zero-mean gauge
    rungs = _ladder(grid, c, cfg)
    r = 0
    ops = _ops(rungs[r], params)
    c = _resize(c, ops.xi.size)
    t = 0.0
    dx = grid.dx
    dispersive = params.kind == "full" and params.nonlinearity
    xi_max2 = grid.xi_max_dealiased**2

    times, rows = [0.0], [c]
    step_times = [0.0]
    diag: dict[str, list] = {k: [] for k in ("dt", "sup_lam_b", "sup_lam_bx", "mean", "n_modes")}
    lam_b_store: list[np.ndarray] = []
    lam_b_dot_store: list[np.ndarray] = []

    n = 0
    while True:
        # every accepted state, the last one included, passes through here
        # once: its rung, its nonlinear term, its CFL sups, its stored fields
        # and the stop checks
        if r + 1 < len(rungs) and _tail_exceeds(c, _top_third(rungs[r])):
            r += 1
            ops = _ops(rungs[r], params)
            c = _resize(c, ops.xi.size)
        if r + 1 == len(rungs) and params.nonlinearity:
            # one stack gives the term and the sups: Lambda B, Lambda B_x
            # and, for the dispersive bound, B are its rows 1-3
            phys = grid.to_phys(ops.rows[: 4 if dispersive else 3] * c)
            nl, sups = ops.form(phys), np.max(np.abs(phys[1:]), axis=-1)
            # freed now, its memory serves the step and the next state's
            # transform (kept, it cost ~1 MB of peak RSS at N = 4096)
            del phys
        else:
            # a coarse rung, or no nonlinear term: the sups that set dt and
            # stop the run are read on the finest grid's nodes all the same
            nl = ops.nonlinear(c)
            sups = np.max(np.abs(grid.to_phys(ops.rows[1 : 4 if dispersive else 3] * c)), axis=-1)
        sup_lb, sup_lbx = float(sups[0]), float(sups[1])
        if cfg.store_step_fields:
            lam_b_store.append(ops.absxi * c)
            lam_b_dot_store.append(ops.absxi * (nl - ops.lin * c))

        if not (math.isfinite(sup_lb) and math.isfinite(sup_lbx)):
            termination = "non_finite"
            break
        if sup_lbx > cfg.blowup_threshold:
            termination = "blowup_threshold"
            break
        if t >= cfg.t_end - 1e-14:
            termination = "t_end"
            break
        if n >= cfg.max_steps:
            termination = "max_steps"
            break

        if cfg.adaptive:
            bound = math.inf
            if sup_lb > 0:
                bound = dx / sup_lb
            if sup_lbx > 0:
                bound = min(bound, 1.0 / sup_lbx)
            if dispersive:
                sup_b = float(sups[2])
                if sup_b > 0:
                    bound = min(bound, 2.0 / (sup_b * xi_max2))
            dt = cfg.dt_init if not math.isfinite(bound) else min(cfg.cfl_safety * bound, cfg.dt_init * 1e6)
        else:
            dt = cfg.dt_init
        if dt < 1e-12:
            termination = "cfl_collapse"
            break
        dt = min(dt, cfg.t_end - t)

        c = stepper(ops.nonlinear, ops, c, dt, nl)
        drift = float(abs(c[0]))
        c[0] = 0.0
        t += dt
        n += 1

        diag["dt"].append(dt)
        diag["sup_lam_b"].append(sup_lb)
        diag["sup_lam_bx"].append(sup_lbx)
        diag["mean"].append(drift)
        diag["n_modes"].append(ops.grid.n_modes)
        step_times.append(t)
        if n % cfg.snapshot_cadence == 0:
            times.append(t)
            rows.append(c)

    if times[-1] != t:
        times.append(t)
        rows.append(c)
    return TimeSeries(
        grid=grid,
        params=params,
        config=cfg,
        times=np.array(times),
        coefs=_table(rows, half),
        step_times=np.array(step_times),
        diagnostics={k: np.array(v) for k, v in diag.items()},
        termination=termination,
        lam_b=_table(lam_b_store, half) if cfg.store_step_fields else None,
        lam_b_dot=_table(lam_b_dot_store, half) if cfg.store_step_fields else None,
    )


@dataclass
class PicardResult:
    iterates: list[np.ndarray]  # final-time coefficient row of each iterate
    gap_history: list[float]  # sup-in-time H^s gap between consecutive iterates
    converged: bool
    series: TimeSeries  # per-step series of the last iterate


def picard_solve(
    B0: SpectralField,
    params: ModelParams,
    cfg: StepperConfig,
    k_max: int = 12,
) -> PicardResult:
    """Iteratively solve the linearized approximating system.

    Iterate k solves B_t + B^(k-1) J_x - J^(k-1) B_x + mu Lambda^alpha B = 0
    with coefficients frozen from iterate k-1 (B^(-1) = 0, so iterate 0 is
    the pure dissipation semigroup).  Stepping is fixed-dt with the
    ``cfg.scheme`` stepper, whose stages sit at the 2m + 1 times t_n and
    t_(n+1/2) of the m steps.  Before each iterate, the frozen fields
    Lambda B^(k-1) and B^(k-1) at all of them come from one inverse
    transform: at t_n the stored rows of the previous iterate, at t_(n+1/2)
    their cubic Hermite interpolation from the stored (value,
    time-derivative) pairs.  A stage then transforms only C_x and
    Lambda C_x.  Stops when the sup-in-time inhomogeneous H^s gap between
    consecutive iterates, s = 3 - alpha, drops below 1e-10.
    """
    if params.kind != "full" or params.mu <= 0:
        raise ValueError("picard_solve applies to the full model with mu > 0")
    s = 2.5 - params.alpha + 0.5
    grid = B0.grid
    ops = _ops(grid, params)
    stepper = _STEPPERS[cfg.scheme]
    dt = cfg.dt_init
    m = max(1, int(round(cfg.t_end / dt)))
    dt = cfg.t_end / m

    c0 = B0.coef.copy()
    c0[0] = 0.0

    prev_vals: np.ndarray | None = None  # (m+1, N/2+1) coefficient history
    prev_dots: np.ndarray | None = None
    # (2m+1, 2, N): Lambda A and A of the previous iterate at t_0, t_(1/2),
    # t_1, ..., t_m; None while the frozen term is zero
    frozen: np.ndarray | None = None
    gaps: list[float] = []
    finals: list[np.ndarray] = []
    converged = False
    vals = np.empty((m + 1, grid.n_modes // 2 + 1), dtype=complex)

    def frozen_nl(c: np.ndarray, tau: float) -> np.ndarray:
        """A (Lambda C)_x - Lambda A C_x, dealiased and mean-free, with A the
        previous iterate at t_n + tau * dt (n is the step the loop below is
        taking); at A = C it is the full model's term."""
        if frozen is None:
            return np.zeros_like(c)
        c_x, lam_c_x = grid.to_phys(ops.rows[0:3:2] * c)
        lam_a, a = frozen[2 * n + int(2 * tau)]
        return ops.project(a * lam_c_x - lam_a * c_x)

    for it in range(k_max + 1):
        if prev_vals is not None and params.nonlinearity:
            frozen = None  # freed before the next table is built
            table = np.empty((2 * m + 1, vals.shape[1]), dtype=complex)
            table[0::2] = prev_vals
            table[1::2] = hermite(prev_vals, prev_dots, np.arange(m), 0.5, dt)
            frozen = grid.to_phys(ops.rows[1:4:2] * table[:, None])
            del table
        dots = np.empty_like(vals)
        c = c0.copy()
        for n in range(m + 1):
            vals[n] = c
            k1 = frozen_nl(c, 0.0)
            dots[n] = k1 - ops.lin * c
            if n == m:
                break
            c = stepper(frozen_nl, ops, c, dt, k1)
            c[0] = 0.0
        finals.append(vals[m].copy())
        if prev_vals is not None:
            gap = float(np.max(np.sqrt(grid.sobolev_norm2(vals - prev_vals, s, homogeneous=False))))
            gaps.append(gap)
            if gap < 1e-10:
                converged = True
        prev_vals = vals.copy()
        prev_dots = dots
        if converged:
            break

    times = np.linspace(0.0, cfg.t_end, m + 1)
    series = TimeSeries(
        grid=grid,
        params=params,
        config=replace(cfg, adaptive=False),
        times=times,
        coefs=prev_vals,
        step_times=times,
        diagnostics={},
        termination="t_end",
    )
    return PicardResult(iterates=finals, gap_history=gaps, converged=converged, series=series)


def scaling_symmetry_mismatch(
    B: SpectralField, params: ModelParams, lam: float, t_end: float, n_steps: int, scheme: str
) -> float:
    """Relative L2 mismatch of the rescaling B -> lam^(a-2) B(lam x, lam^a t).

    Run A evolves ``B`` to lam^alpha * t_end, run B the rescaled datum on the
    grid contracted by ``lam`` to ``t_end``, both in ``n_steps`` fixed steps.
    The schemes commute with the rescaling, so the final-time mismatch is
    roundoff-level before blowup; it is non-finite when either run overflows.
    """
    g = B.grid
    scale = lam ** (params.alpha - 2.0)
    grid_b = GridSpec(g.half_length / lam, g.n_modes, g.dealias_fraction)
    B_b = SpectralField.from_phys(grid_b, scale * B.phys)
    dt_b = t_end / n_steps
    cfg_b = StepperConfig(scheme=scheme, dt_init=dt_b, t_end=t_end, adaptive=False, snapshot_cadence=10**9)
    cfg_a = replace(cfg_b, dt_init=dt_b * lam**params.alpha, t_end=t_end * lam**params.alpha)
    ref = scale * evolve(B, params, cfg_a).final.phys
    diff = np.linalg.norm(evolve(B_b, params, cfg_b).final.phys - ref)
    return float(diff / max(np.linalg.norm(ref), 1e-300))


def scaling_symmetry_verdict(
    B: SpectralField, params: ModelParams, lam: float, t_end: float, n_steps: int, scheme: str
) -> tuple[dict, list[Gate]]:
    """``scaling_symmetry_mismatch`` as the ``symmetry.json`` dict and its gate."""
    rel = scaling_symmetry_mismatch(B, params, lam, t_end, n_steps, scheme)
    report = {"lambda": lam, "alpha": params.alpha, "rel_l2_mismatch": rel}
    return report, [at_most("rel_l2_mismatch", rel, 1e-6)]
