"""Time evolution of the 1D electron-MHD models.

Two model kinds are evolved for a mean-free magnetic field B on the torus:

  full:       B_t = -(B J_x - J B_x) - mu Lambda^alpha B,   J = -Lambda B
  transport:  B_t = Lambda B * B_x - mu Lambda^alpha B

Both quadratic terms are products of B_x, Lambda B, Lambda B_x and B, which
one inverse transform of a stack of multiplier rows forms; the products are
dealiased (2/3 rule) and the term is projected mean-free, so with no linear
damping of k = 0 a step keeps the datum's zero mean exactly.  The diagonal
linear part mu |xi|^alpha is propagated exactly, either by an integrating
factor wrapped around classical RK4 (default) or by ETDRK4; both are exact
when the nonlinearity vanishes.
A scheme is one row of ``_SCHEMES``: the build of its factors at
z = -dt mu |xi|^alpha (IF-RK4's exponentials, the ETDRK4 coefficients) and
its step.  The factors are rebuilt whenever the scheme or dt changes, so on
every adaptive step, and once in a fixed-dt run.  mu |xi_k|^alpha grows with
k on the stored half, so in the ETDRK4 build one index splits z: the
Cox-Matthews closed forms (Cox & Matthews 2002, J. Comput. Phys. 176:430) are
evaluated only where |z| >= 1, and below that one Horner series of phi_3
gives phi_2 and phi_1 by phi_{k-1} = z phi_k + 1/(k-1)!.  Cubes are products:
an array ``**3`` goes through libm ``pow`` and cost more than the rest of the
build.

Adaptive stepping enforces the advective CFL dt <= cfl * dx / max|Lambda B|
and additionally caps dt by cfl / max|Lambda B_x| so the local Riccati-type
growth near a singularity stays resolved.  The full model's B (Lambda B)_x
term is dispersive: linearized about B it has the symbol i xi |xi| B, which
both schemes treat explicitly, so its dt is also capped by
cfl * 2 / (max|B| xi_max^2), inside RK4's reach of about 2.8 along the
imaginary axis (Trefethen, Spectral Methods in MATLAB, 2000, ch. 10).

An adaptive run steps on a ladder of grids N/2^j, ..., N/2, N, because a
smooth datum's spectrum widens only as a singularity nears (Sulem, Sulem &
Frisch 1983, J. Comput. Phys. 50:138).  A rung is its ``_Ops``, whose tail
index is the first mode of the top third of its dealiased band.  The run
starts on the coarsest halving on which the datum's share of sum |c_k|^2
from the rung's tail index up is at most ``LADDER_TAIL``, and after each
accepted state moves up one rung once that share exceeds it; moving up
zero-pads the coefficients, exact in this normalization.  A step's dt
takes its scale from the rung it is taken on, its dx and dealiased
xi_max, since a rung's state holds only that rung's band; so a
coarse rung steps at its own CFL, and most of a blowup run's steps are
coarse and long.  The sups that set dt or stop the run, sup|Lambda B|,
sup|Lambda B_x| (and sup|B|), are read on the finest grid, from one inverse
transform of the rung's coefficients onto its nodes; every (N/n)-th of them
is a node of rung n, so it also gives the nonlinear term.  The rungs are
chosen from |c_k|, which a translation leaves alone, so a translation by
whole fine nodes stays an exact symmetry.  A fixed-dt run, or a datum that
fills the band, has the one rung N, and its loop is the single-grid one.

A transport run stops as ``ill_posed`` when its linear symbol amplifies
roundoff.  Linearized about B, the real part of its symbol at high |xi| is
B_x |xi| - mu |xi|^alpha (Kreiss & Lorenz, Initial-Boundary Value Problems
and the Navier-Stokes Equations, 1989), so with a = max B_x, read on the
finest nodes, the top of the rung's dealiased band grows at the rate
gamma = a xi - mu xi^alpha.  Once G = sum max(0, gamma) dt exceeds
``ILL_POSED_GAIN`` the run stops.  The full model's symbol is another, so
its G is recorded but never stops it.
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
    """Model kind and coefficients."""

    kind: Literal["full", "transport"]
    mu: float
    alpha: float

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
    blowup_threshold: float = math.inf  # stop once max|Lambda B_x| exceeds it
    adaptive: bool = True
    snapshot_cadence: int = 1  # store a field snapshot every k-th step
    store_step_fields: bool = False  # keep Lambda B (+ d/dt) at every step

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt_init) and math.isfinite(self.t_end)):
            raise ValueError("dt_init and t_end must be finite")
        if self.dt_init <= 0 or self.t_end <= 0:
            raise ValueError("dt_init and t_end must be positive")
        if not self.blowup_threshold > 0:  # NaN included
            raise ValueError("blowup_threshold must be positive")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.scheme not in _SCHEMES:
            raise ValueError("unknown scheme")
        if self.snapshot_cadence < 1:
            raise ValueError("snapshot_cadence must be at least 1")


class _Ops:
    """Multiplier tables of one (grid, params), built once by ``_ops``; read-only
    apart from the one slot that keeps the factors of the last (scheme, dt).
    As a ladder rung, ``tail`` is where the share the ladder tests begins."""

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
        self.tail = 2 * int(np.flatnonzero(self.mask)[-1]) // 3  # top third of the band
        self.lin = params.mu * sobolev_weight(self.xi, params.alpha / 2.0)
        self.xi_top = grid.xi_max_dealiased
        # dt <= cfl * scale / sup for sup|Lambda B|, sup|Lambda B_x| and, for
        # the full model, sup|B|: a step's rate is the largest sup / scale
        self.scale = np.array([grid.dx, 1.0, 2.0 / self.xi_top**2])[: 3 if params.kind == "full" else 2]
        for a in (self.absxi, self.rows, self.lin, self.scale):
            a.flags.writeable = False
        self._factors: tuple = (None, math.nan, ())

    def factors(self, scheme: str, dt: float) -> tuple:
        """The read-only factors of ``scheme`` at step dt, rebuilt only when
        the scheme or dt changes, so a fixed-dt run builds them once.  The
        (scheme, dt, factors) slot is replaced whole, so no caller of the
        table ``_ops`` shares, on any thread, pairs one dt with another's
        arrays."""
        last = self._factors
        if last[:2] != (scheme, dt):
            last = (scheme, dt, _SCHEMES[scheme][0](self.lin, dt))
            for a in last[2]:
                a.flags.writeable = False
            self._factors = last
        return last[2]

    def form(self, phys) -> np.ndarray:
        """The model's quadratic term, dealiased and mean-free, from the
        physical fields (B_x, Lambda B, Lambda B_x, B) of ``rows * c``: the
        transport term reads the first two, the full term all four, and
        extra rows are ignored."""
        prod = phys[1] * phys[0]
        if self.params.kind == "full":
            prod = phys[3] * phys[2] - prod
        out = self.grid.to_coef(prod)
        out *= self.mask
        out[0] = 0.0
        return out

    def nonlinear(self, c: np.ndarray, tau: float = 0.0) -> np.ndarray:
        """Dealiased, mean-free quadratic term of the chosen model from one
        inverse transform of ``rows[:4]`` (full) or ``rows[:2]`` (transport)
        times ``c``; ``tau`` (the stage's fraction of the step) is unused:
        the model is autonomous."""
        n = 4 if self.params.kind == "full" else 2
        return self.form(self.grid.to_phys(self.rows[:n] * c))


# bounded, so that a sweep over many (grid, params) does not keep every table
_ops = functools.lru_cache(maxsize=32)(_Ops)

# An adaptive run moves to the next finer rung of its grid ladder once the
# share of sum |c_k|^2 held from the top third of the rung's dealiased band
# upwards exceeds this.
LADDER_TAIL = 1e-26

# A transport run stops as ``ill_posed`` once the growth G of its linear
# symbol exceeds this: roundoff amplified by e^18, about 1e8.
ILL_POSED_GAIN = 18.0

# A run stops as ``max_steps`` after this many accepted steps.
MAX_STEPS = 1_000_000

# A fixed-dt run reserves at most this many bytes of snapshot table before
# its first step; a longer run doubles the table as an adaptive run does.
TABLE_BUDGET = 2**28


def _tail_exceeds(c: np.ndarray, start: int) -> bool:
    tail = c[start:]
    return np.vdot(tail, tail).real > LADDER_TAIL * np.vdot(c, c).real


def rhs(B: SpectralField, params: ModelParams) -> SpectralField:
    """Full right-hand side dB/dt, dealiased and mean-free."""
    ops = _ops(B.grid, params)
    return SpectralField.from_coef(B.grid, ops.nonlinear(B.coef) - ops.lin * B.coef)


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
    e_half, e_full = _ifrk4_factors(lin, dt)
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


# A stepper advances c_t = nl(c, tau) - lin * c by dt from k1 = nl(c, 0), with
# ``factors`` its scheme's build at (lin, dt); nl receives the stage's fraction
# tau of the step (0, 1/2, 1/2, 1).
def _step_ifrk4(nl: Callable, c: np.ndarray, dt: float, k1: np.ndarray, factors: tuple):
    e_half, e_full = factors
    ec = e_full * c
    k2 = nl(e_half * (c + 0.5 * dt * k1), 0.5)
    k3 = nl(e_half * c + 0.5 * dt * k2, 0.5)
    k4 = nl(ec + dt * e_half * k3, 1.0)
    return ec + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


def _step_etdrk4(nl: Callable, c: np.ndarray, dt: float, k1: np.ndarray, factors: tuple):
    e_half, e_full, q, f1, f2, f3 = factors
    a = e_half * c + q * k1
    na = nl(a, 0.5)
    b = e_half * c + q * na
    nb = nl(b, 0.5)
    cc = e_half * a + q * (2.0 * nb - k1)
    nc = nl(cc, 1.0)
    return e_full * c + f1 * k1 + 2.0 * f2 * (na + nb) + f3 * nc


_SCHEMES = {"ifrk4": (_ifrk4_factors, _step_ifrk4), "etdrk4": (_etdrk4_coeffs, _step_etdrk4)}


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
    stepper = _SCHEMES[cfg.scheme][1]
    c = stepper(ops.nonlinear, B.coef, dt, ops.nonlinear(B.coef), ops.factors(cfg.scheme, dt))
    return SpectralField.from_coef(B.grid, c), dt


def hermite(vals, dots, n: "int | np.ndarray", dt: float) -> np.ndarray:
    """Cubic Hermite dense output at the midpoint t_n + dt / 2 of a step.

    ``vals[n]`` and ``dots[n]`` are a state and its time derivative at step
    boundary n, rows of a table or of a ``RungRows``; the step from n to
    n + 1 has length dt.  On a table, an index array ``n`` gives one row per
    index, each bitwise the row its own index gives.
    """
    return 0.5 * vals[n] + 0.125 * dt * dots[n] + 0.5 * vals[n + 1] - 0.125 * dt * dots[n + 1]


class RungRows(tuple):
    """Read-only coefficient rows of differing lengths, one per step boundary."""

    @property
    def nbytes(self) -> int:
        return sum(row.nbytes for row in self)


@dataclass
class TimeSeries:
    """Output of :func:`evolve`.

    ``coefs`` holds one coefficient row per snapshot, taken at the requested
    cadence (always including the initial and final states), and ``times``
    their times; both arrays are read-only and on the N grid.  From
    :func:`evolve`, ``coefs`` is a read-only view of the leading rows of a
    table the run filled as it went.  When the run
    was made with ``store_step_fields``, ``lam_b`` and ``lam_b_dot`` hold the
    coefficients of Lambda B and d/dt Lambda B at every accepted step
    boundary, each row the whole half of the ladder rung that made it, n/2 + 1
    entries on a rung of n modes; together with ``step_times`` they give a
    cubic-Hermite dense output for trajectory integration.
    """

    grid: GridSpec
    params: ModelParams
    config: StepperConfig
    times: np.ndarray  # (n,)
    coefs: np.ndarray  # (n, N/2+1)
    step_times: np.ndarray
    diagnostics: dict[str, np.ndarray]
    termination: str
    lam_b: RungRows | None = None
    lam_b_dot: RungRows | None = None

    def __post_init__(self) -> None:
        self.times.flags.writeable = False
        self.coefs.flags.writeable = False
        for row in (self.lam_b or ()) + (self.lam_b_dot or ()):
            row.flags.writeable = False

    @property
    def final(self) -> SpectralField:
        return SpectralField.from_coef(self.grid, self.coefs[-1])


def evolve(B0: SpectralField, params: ModelParams, cfg: StepperConfig) -> TimeSeries:
    """Run until t_end, the blowup threshold, CFL collapse, a non-finite
    field, an ill-posed transport run, or ``MAX_STEPS``; the cause is
    recorded on the result.

    ``diagnostics`` holds one entry per accepted step, at ``step_times[1:]``:
    dt, the sup|Lambda B| and sup|Lambda B_x| that bounded it, the signed
    max of Lambda B_x (``max_lam_bx``), the ladder rung (``n_modes``) it was
    taken on, the ``bound`` that was largest among its rates sup / scale,
    with the rung's scale (0 advective, 1 Riccati, 2 dispersive; on a
    fixed-dt run the one that would have bounded it), a = max B_x of the
    state it began at, the rate gamma = a xi - mu xi^alpha at the top xi of
    its rung's dealiased band, and the growth G = sum max(0, gamma) dt of
    the linear symbol up to its end (module docstring).

    Each snapshot row is written once, zero-padded from its rung's
    n/2 + 1 entries, into one zero table on ``B0.grid``, and ``coefs`` is a
    read-only view of the rows written.  A fixed-dt run sizes the table
    from its step count, up to ``TABLE_BUDGET`` bytes; an adaptive one
    starts at two rows.  Either doubles the table when it is full.
    """
    grid = B0.grid
    L, half = grid.half_length, grid.n_modes // 2 + 1
    stepper = _SCHEMES[cfg.scheme][1]
    c = B0.coef.copy()
    c[0] = 0.0  # zero-mean gauge, set once: every step keeps c[0] = 0 exactly
    # the start rung: halve N while c passes the switch test on the halving;
    # the cut leaves the rung's Nyquist entry 0, as every finite step does
    ops = _ops(grid, params)
    while cfg.adaptive and ops.grid.n_modes % 4 == 0 and ops.grid.n_modes // 2 >= 8:
        coarser = _ops(GridSpec(L, ops.grid.n_modes // 2), params)
        if _tail_exceeds(c, coarser.tail):
            break
        ops = coarser
    if ops.xi.size < c.size:
        c = np.append(c[: ops.xi.size - 1], 0.0)
    dispersive = params.kind == "full"
    t = gain = 0.0

    # from np.zeros, so the pages of rows never written are never touched
    rows = 2 if cfg.adaptive else min(math.ceil(cfg.t_end / cfg.dt_init), MAX_STEPS) // cfg.snapshot_cadence + 2
    capacity = max(2, min(rows, TABLE_BUDGET // (16 * half)))  # 16 bytes a complex entry
    table = np.zeros((capacity, half), dtype=complex)
    times: list[float] = []

    def keep(t: float, c: np.ndarray) -> None:
        nonlocal table
        if len(times) == len(table):
            grown = np.zeros((2 * len(table), half), dtype=complex)
            grown[: len(table)] = table
            table = grown
        table[len(times), : c.size] = c
        times.append(t)

    keep(t, c)
    step_times = [0.0]
    # one row of ``keys`` per accepted step: a growing list per key (two
    # more for a and G) moved the heap of the fixed-dt CLI run at N = 2048
    # from 60.7 to 64.7 MB peak RSS
    keys = ("dt", "bound", "sup_lam_b", "sup_lam_bx", "max_lam_bx", "n_modes", "a", "gamma", "G")
    per_step: list[tuple] = []
    lam_b_store: list[np.ndarray] = []
    lam_b_dot_store: list[np.ndarray] = []

    n = 0
    while True:
        # every accepted state, the last one included, passes through here
        # once: its rung, its nonlinear term, its CFL sups, its stored fields
        # and the stop checks
        if ops.grid.n_modes < grid.n_modes and _tail_exceeds(c, ops.tail):
            ops = _ops(GridSpec(L, 2 * ops.grid.n_modes), params)
            c = np.pad(c, (0, ops.xi.size - c.size))  # exact in this normalization
        # one stack on the finest nodes: rows 0-3 are B_x, Lambda B,
        # Lambda B_x and, for the dispersive bound, B; read at every (N/n)-th
        # node, a node of the rung n, its rows give the state's nonlinear term
        phys = grid.to_phys(ops.rows[: 4 if dispersive else 3] * c)
        sups = np.max(np.abs(phys[1:]), axis=-1)
        rates = sups / ops.scale
        rate, bound = float(rates.max()), int(rates.argmax())
        nl = ops.form(phys[:, :: grid.n_modes // ops.grid.n_modes])
        a, max_lam_bx = phys[0:3:2].max(axis=-1).tolist()  # max B_x and max Lambda B_x
        # freed now, its memory serves the step and the next state's
        # transform (kept, it cost ~1 MB of peak RSS at N = 4096)
        del phys
        if cfg.store_step_fields:
            lam_b_store.append(ops.absxi * c)
            lam_b_dot_store.append(ops.absxi * (nl - ops.lin * c))

        if not math.isfinite(rate):
            termination = "non_finite"
            break
        if params.kind == "transport" and gain > ILL_POSED_GAIN:
            termination = "ill_posed"
            break
        if sups[1] > cfg.blowup_threshold:
            termination = "blowup_threshold"
            break
        if t >= cfg.t_end - 1e-14:
            termination = "t_end"
            break
        if n >= MAX_STEPS:
            termination = "max_steps"
            break

        dt = min(cfg.cfl_safety / rate, cfg.dt_init * 1e6) if cfg.adaptive and rate > 0 else cfg.dt_init
        if dt < 1e-12:
            termination = "cfl_collapse"
            break
        dt = min(dt, cfg.t_end - t)

        c = stepper(ops.nonlinear, c, dt, nl, ops.factors(cfg.scheme, dt))
        t += dt
        n += 1
        gamma = a * ops.xi_top - params.mu * ops.xi_top**params.alpha
        gain += max(0.0, gamma) * dt

        per_step.append((dt, bound, sups[0], sups[1], max_lam_bx, ops.grid.n_modes, a, gamma, gain))
        step_times.append(t)
        if n % cfg.snapshot_cadence == 0:
            keep(t, c)

    if times[-1] != t:
        keep(t, c)
    columns = zip(*per_step) if per_step else [()] * len(keys)
    return TimeSeries(
        grid=grid,
        params=params,
        config=cfg,
        times=np.array(times),
        coefs=table[: len(times)],
        step_times=np.array(step_times),
        diagnostics=dict(zip(keys, map(np.array, columns))),
        termination=termination,
        lam_b=RungRows(lam_b_store) if cfg.store_step_fields else None,
        lam_b_dot=RungRows(lam_b_dot_store) if cfg.store_step_fields else None,
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
    s = 3.0 - params.alpha
    grid = B0.grid
    ops = _ops(grid, params)
    stepper = _SCHEMES[cfg.scheme][1]
    dt = cfg.dt_init
    m = max(1, int(round(cfg.t_end / dt)))
    dt = cfg.t_end / m

    c0 = B0.coef.copy()
    c0[0] = 0.0  # zero-mean gauge, set once

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
        taking); at A = C it is the full model's term, so ``form`` makes it
        from (C_x, Lambda A, Lambda C_x, A)."""
        if frozen is None:
            return np.zeros_like(c)
        c_x, lam_c_x = grid.to_phys(ops.rows[0:3:2] * c)
        lam_a, a = frozen[2 * n + int(2 * tau)]
        return ops.form((c_x, lam_a, lam_c_x, a))

    for it in range(k_max + 1):
        if prev_vals is not None:
            frozen = None  # freed before the next table is built
            table = np.empty((2 * m + 1, vals.shape[1]), dtype=complex)
            table[0::2] = prev_vals
            table[1::2] = hermite(prev_vals, prev_dots, np.arange(m), dt)
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
            c = stepper(frozen_nl, c, dt, k1, ops.factors(cfg.scheme, dt))
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
    grid_b = GridSpec(g.half_length / lam, g.n_modes)
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
